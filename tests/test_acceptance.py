"""Acceptance suite: one test per release criterion, each printing a
single PASS/FAIL line (run with ``pytest -s`` to see them).

Criteria 1-5 and 7 are self-contained. Criterion 6 reproduces published
numbers from the Mechanical Turk Dots election files and only runs when
those files are available locally (``DOTS_DATA_DIR`` or ``data/dots/``);
otherwise it is reported as skipped, not failed.
"""
import math
import os
import random
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from conftest import per_vote, random_ranking_set
from test_support import EXPECTED_Q3
from rank_consensus import (
    ParameterError,
    Ranking,
    RankingSet,
    ScoreParams,
    TopKParams,
    detect_outliers,
    kendall_tau,
    kendall_tau_topk,
    parse_rankings,
    q_from_fraction,
    remove_and_rescore,
    score,
    spearman_rho,
    spearman_rho_topk,
    support_matrices_fast,
)
from rank_consensus.reference import support_count, support_matrix_naive


@contextmanager
def criterion(num: int, label: str):
    info = {}
    try:
        yield info
    except BaseException:
        print(f"[FAIL] criterion {num}: {label}")
        raise
    note = f" ({info['note']})" if "note" in info else ""
    print(f"[PASS] criterion {num}: {label}{note}")


EXAMPLE = RankingSet([
    Ranking.strict("abcdef"),
    Ranking.strict("bcdefa"),
    Ranking.strict("bdaghf"),
    Ranking.strict("bacdfe"),
])


def test_criterion_1_worked_example_golden():
    with criterion(1, "worked-example scores, matrices and pattern sets") as info:
        elapsed = min(
            _timed(lambda: score(EXAMPLE, ScoreParams(q=3)))[1] for _ in range(3)
        )
        rep = score(EXAMPLE, ScoreParams(q=3))

        assert [f"{k1:.2f}" for _, _, k1, _, _ in per_vote(rep)] == ["1.00", "1.00", "0.67", "1.00"]
        assert [f"{k2:.2f}" for _, _, _, k2, _ in per_vote(rep)] == ["0.67", "0.67", "0.33", "0.73"]
        assert f"{rep.overall_kappa1:.2f}" == "0.92"
        assert f"{rep.overall_kappa2:.2f}" == "0.60"

        mats = support_matrices_fast(EXAMPLE, 3)
        for l, expected in EXPECTED_Q3.items():
            np.testing.assert_array_equal(mats[l].entries, np.array(expected, float))

        assert rep.sets.singles == tuple("abcdef")
        assert rep.sets.pairs == (
            ("a", "f"), ("b", "a"), ("b", "c"), ("b", "d"), ("b", "e"), ("b", "f"),
            ("c", "d"), ("c", "e"), ("c", "f"), ("d", "e"), ("d", "f"),
        )
        assert support_count("b", "c", EXAMPLE) == 3
        assert support_count("a", "a", EXAMPLE) == 4

        # weighted spot values, pinned by independent recomputation
        repw = score(EXAMPLE, ScoreParams(q=3, gamma=0.5, lam=0.5))
        assert per_vote(repw)[0][2] == pytest.approx(0.6566690703622281, abs=1e-12)  # kappa1
        expected_k2 = [0.5255603814922211, 0.5123320393924861,
                       0.17678842574312761, 0.44153185153890145]
        for (_, _, _, kappa2, _), want in zip(per_vote(repw), expected_k2):
            assert kappa2 == pytest.approx(want, abs=1e-12)

        assert elapsed < 0.010
        info["note"] = f"score() in {elapsed * 1e3:.2f} ms"


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def test_criterion_2_fast_route_equals_naive_oracle():
    with criterion(2, "fast support route equals the naive oracle on 200 random sets") as info:
        rng = random.Random(987654321)
        start = time.perf_counter()
        n_sets = 200
        for _ in range(n_sets):
            rset = random_ranking_set(rng, n_min=2, n_max=8)
            gamma = rng.choice([0.3, 0.5, 0.8])
            lam = rng.choice([0.4, 0.6, 0.9])
            for q in range(1, len(rset) + 1):
                fast = support_matrices_fast(rset, q)
                fast_w = support_matrices_fast(rset, q, gamma=gamma, lam=lam)
                for l in range(len(rset)):
                    naive = support_matrix_naive(l, rset, q)
                    assert np.array_equal(fast[l].entries, naive.entries)
                    assert np.array_equal(fast[l].supported, naive.supported)
                    naive_w = support_matrix_naive(l, rset, q, gamma=gamma, lam=lam)
                    assert np.abs(fast_w[l].entries - naive_w.entries).max() <= 1e-12
                    assert np.array_equal(fast_w[l].supported, naive_w.supported)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0
        info["note"] = f"{n_sets} sets, all q, plain+weighted in {elapsed:.2f} s"


def test_criterion_3_score_properties():
    with criterion(3, "score bounds, monotonicity, weighting and counting identities"):
        rng = random.Random(24601)
        for _ in range(60):
            rset = random_ranking_set(rng, n_min=2, n_max=8)
            n = len(rset)
            previous = None
            for q in range(1, n + 1):
                rep = score(rset, ScoreParams(q=q))
                # (a) bounds
                for _, _, kappa1, kappa2, _ in per_vote(rep):
                    assert 0.0 <= kappa1 <= 1.0 and 0.0 <= kappa2 <= 1.0
                assert 0.0 <= rep.overall_kappa1 <= 1.0
                assert 0.0 <= rep.overall_kappa2 <= 1.0
                # (b) non-increasing in q
                if previous is not None:
                    assert rep.overall_kappa1 <= previous.overall_kappa1 + 1e-15
                    assert rep.overall_kappa2 <= previous.overall_kappa2 + 1e-15
                previous = rep
                # (f) trace/sum evaluation == direct set counting
                sets_of_vote = [rep.sets.per_type[t] for t in rep.type_of]
                for mat, per in zip(support_matrices_fast(rset, q), sets_of_vote, strict=True):
                    assert mat.trace == len(per.singles)
                    assert float(mat.entries.sum()) - mat.trace == len(per.pairs)
            # (c) weighting can only lower scores; gamma=lam=1 changes nothing
            q = rng.randint(1, n)
            plain = score(rset, ScoreParams(q=q))
            weighted = score(rset, ScoreParams(q=q, gamma=0.5, lam=0.5))
            unit = score(rset, ScoreParams(q=q, gamma=1.0, lam=1.0))
            for p, w, u in zip(per_vote(plain), per_vote(weighted), per_vote(unit)):
                assert w[2] <= p[2] + 1e-15  # kappa1
                assert w[3] <= p[3] + 1e-15  # kappa2
                assert u == p
            # (e) relative deviations sum to zero whenever defined
            if plain.overall_kappa1 > 0 and plain.overall_kappa2 > 0:
                out = detect_outliers(plain)
                assert abs(math.fsum(v1 for v1, _, _ in per_vote(out))) <= 1e-9
                assert abs(math.fsum(v2 for _, v2, _ in per_vote(out))) <= 1e-9
        # (d) q=1 on complete strict sets is perfect consensus
        for _ in range(20):
            universe = list("abcdef")
            rankings = []
            for _ in range(rng.randint(2, 6)):
                perm = universe[:]
                rng.shuffle(perm)
                rankings.append(Ranking.strict(perm))
            rep = score(RankingSet(rankings), ScoreParams(q=1))
            assert rep.overall_kappa1 == 1.0
            assert rep.overall_kappa2 == 1.0


def test_criterion_4_baseline_checks():
    with criterion(4, "correlation baselines: golden values and top-k reduction"):
        a = Ranking.strict("abcd")
        reversed_a = Ranking.strict("dcba")
        assert kendall_tau(a, a) == 1.0
        assert spearman_rho(a, a) == pytest.approx(1.0, abs=1e-12)
        assert kendall_tau(a, reversed_a) == -1.0
        assert spearman_rho(a, reversed_a) == pytest.approx(-1.0, abs=1e-12)
        assert spearman_rho(
            Ranking.strict(["4", "2", "3", "1"]), Ranking.strict(["1", "2", "3", "4"])
        ) == pytest.approx(-0.8, abs=1e-12)
        # top-k measures collapse to the complete ones when both lists
        # cover the same items entirely
        rng = random.Random(1789)
        universe = list("abcdef")
        for _ in range(25):
            xs, ys = universe[:], universe[:]
            rng.shuffle(xs)
            rng.shuffle(ys)
            ra, rb = Ranking.strict(xs), Ranking.strict(ys)
            full = TopKParams(k=len(universe), p=rng.random())
            assert kendall_tau_topk(ra, rb, full) == pytest.approx(
                kendall_tau(ra, rb), abs=1e-12)
            assert spearman_rho_topk(ra, rb, full) == pytest.approx(
                spearman_rho(ra, rb), abs=1e-12)


def test_criterion_5_synthetic_outlier_round_trip():
    with criterion(5, "nine-plus-one reversal: flag, remove, rescore"):
        rs = RankingSet([Ranking.strict("abcd")] * 9 + [Ranking.strict("dcba")])
        params = ScoreParams(q=5)
        rep = score(rs, params)
        assert rep.overall_kappa2 == 0.9
        out = detect_outliers(rep)  # default eps2 = 0.4
        assert out.flagged_indices == [9]
        rescored = remove_and_rescore(rs, out.flagged_indices, params)
        assert rescored.overall_kappa2 == 1.0


# --- criterion 6: conditional on the public Dots election files --------------

DOTS_EXPECTED = {
    # dataset index -> published overall pair scores
    "plain_half": (0.59, 0.62, 0.68, 0.71),
    "plain_067": (0.00, 0.12, 0.37, 0.38),
    "weighted_half_k1": (0.55, 0.57, 0.59, 0.60),
    "weighted_half_k2": (0.38, 0.41, 0.45, 0.47),
    "post_removal_k1": (0.58, 0.59, 0.61, 0.62),
    "post_removal_k2": (0.42, 0.44, 0.48, 0.49),
    # most deviant ranking type per dataset, as positions of the
    # dot-count-sorted candidates
    "worst_type": ((4, 3, 2, 1), (4, 3, 1, 2), (4, 2, 3, 1), (3, 4, 2, 1)),
}


def _dots_files():
    root = os.environ.get("DOTS_DATA_DIR")
    base = Path(root) if root else Path(__file__).resolve().parent.parent / "data" / "dots"
    return sorted(base.glob("*.soc")) if base.is_dir() else []


def _type_deviations(rep, rset):
    """v2 per distinct ranking type (identical rankings share scores)."""
    mean2 = rep.overall_kappa2
    return {
        ranking: (kappa2 - mean2) / mean2
        for (_, _, _, kappa2, _), ranking in zip(per_vote(rep), rset)
    }


def test_criterion_6_dots_datasets():
    files = _dots_files()
    if len(files) != 4:
        print("[SKIP] criterion 6: Dots election files not present "
              "(set DOTS_DATA_DIR or put the four *.soc files in data/dots/)")
        pytest.skip("Dots datasets not available locally")
    with criterion(6, "Dots datasets reproduce the published consensus numbers") as info:
        timings = []
        for i, path in enumerate(files):
            rset = parse_rankings(path, fmt="preflib")
            n = len(rset)
            q_half = q_from_fraction("1/2", n)

            plain_half, elapsed = _timed(lambda: score(rset, ScoreParams(q=q_half)))
            timings.append(elapsed)
            assert elapsed < 1.0
            assert plain_half.overall_kappa1 == pytest.approx(1.0, abs=1e-12)
            assert plain_half.overall_kappa2 == pytest.approx(
                DOTS_EXPECTED["plain_half"][i], abs=0.01)

            q_067 = q_from_fraction("0.67", n)
            plain_067 = score(rset, ScoreParams(q=q_067))
            assert plain_067.overall_kappa2 == pytest.approx(
                DOTS_EXPECTED["plain_067"][i], abs=0.01)

            # weighted run at q = ceil(N/2); kappa1 depends only on gamma,
            # kappa2 only on lambda, so one run covers both published rows
            weighted = score(rset, ScoreParams(q=q_half, gamma=0.5, lam=0.5))
            assert weighted.overall_kappa1 == pytest.approx(
                DOTS_EXPECTED["weighted_half_k1"][i], abs=0.01)
            assert weighted.overall_kappa2 == pytest.approx(
                DOTS_EXPECTED["weighted_half_k2"][i], abs=0.01)

            # outliers: the four most deviant ranking types under lambda=0.5
            deviations = _type_deviations(weighted, rset)
            worst = sorted(deviations, key=deviations.get)[:4]
            tokens = sorted(rset.universe)
            expected_worst = Ranking.strict(
                [tokens[p - 1] for p in DOTS_EXPECTED["worst_type"][i]])
            assert worst[0] == expected_worst

            drop = [l for l, r in enumerate(rset) if r in worst]
            rescored = remove_and_rescore(rset, drop, weighted.params)
            assert rescored.overall_kappa1 == pytest.approx(
                DOTS_EXPECTED["post_removal_k1"][i], abs=0.01)
            assert rescored.overall_kappa2 == pytest.approx(
                DOTS_EXPECTED["post_removal_k2"][i], abs=0.01)

            # supported pairs at q = ceil(N/2) define the ground-truth order
            pairs = plain_half.sets.pairs
            assert len(pairs) == 6
            out_degree = {t: sum(1 for x, _ in pairs if x == t) for t in tokens}
            recovered = sorted(tokens, key=lambda t: -out_degree[t])
            assert sorted(out_degree.values()) == [0, 1, 2, 3]
            assert recovered == tokens  # dot-count order (1, 2, 3, 4)
        info["note"] = f"4 datasets, slowest score() {max(timings):.2f} s"


def test_criterion_7_retrieval_figures_out_of_scope():
    with criterion(7, "retrieval-evaluation figures out of scope; measures covered by properties"):
        # The published system-comparison figures rely on task submissions
        # that are not bundled here, so their numbers cannot be recomputed.
        # The measures behind them are exercised on a synthetic stand-in:
        # truncated result lists of unequal length over a shared pool.
        rng = random.Random(5150)
        pool = [f"d{i}" for i in range(12)]
        lists = []
        for _ in range(6):
            docs = rng.sample(pool, rng.randint(6, 12))
            lists.append(Ranking.strict(docs))
        rset = RankingSet(lists)
        q = 3
        plain = score(rset, ScoreParams(q=q))
        weighted = score(rset, ScoreParams(q=q, gamma=0.5, lam=0.5))
        for p, w in zip(per_vote(plain), per_vote(weighted)):
            assert w[2] <= p[2] + 1e-15  # kappa1
            assert w[3] <= p[3] + 1e-15  # kappa2
        out = detect_outliers(plain)
        for v1, v2, flagged in per_vote(out):
            assert flagged == (v1 < -out.eps1 or v2 < -out.eps2)
        params = TopKParams(k=5, p=0.5)
        for l in range(len(rset)):
            for z in range(l + 1, len(rset)):
                tau = kendall_tau_topk(rset[l], rset[z], params)
                rho = spearman_rho_topk(rset[l], rset[z], params)
                assert -1.0 <= tau <= 1.0
                assert -1.0 <= rho <= 1.0
