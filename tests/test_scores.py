import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import bench_votes, per_vote, random_ranking, ranking_sets_st, rankings_st
from rank_consensus import (
    ParameterError,
    Ranking,
    RankingSet,
    ScoreParams,
    q_from_fraction,
    score,
)
from rank_consensus import model, reference, scores, support
from rank_consensus.reference import gap_deviation, mean_gap, mean_position, position_deviation
from rank_consensus.support import support_matrices_fast


def test_plain_scores_on_example(example_set):
    rep = score(example_set, ScoreParams(q=3))
    assert [k1 for _, _, k1, _, _ in per_vote(rep)] == [1.0, 1.0, pytest.approx(2 / 3), 1.0]
    assert [k2 for _, _, _, k2, _ in per_vote(rep)] == [
        pytest.approx(10 / 15), pytest.approx(10 / 15),
        pytest.approx(5 / 15), pytest.approx(11 / 15),
    ]
    assert rep.overall_kappa1 == pytest.approx(11 / 12)
    assert rep.overall_kappa2 == pytest.approx(0.6)
    assert rep.n_rankings == 4
    assert len(support_matrices_fast(example_set, 3)) == 4
    assert rep.sets.singles == tuple("abcdef")


def test_weighted_item_score_on_example(example_set):
    rep = score(example_set, ScoreParams(q=3, gamma=0.5))
    _, _, kappa1, kappa2, _ = per_vote(rep)[0]
    assert kappa1 == pytest.approx(0.6566690703622281, abs=1e-12)
    # pair entries stay plain when lam is 1
    assert kappa2 == pytest.approx(10 / 15)


def test_weighted_pair_scores_on_example(example_set):
    rep = score(example_set, ScoreParams(q=3, lam=0.5))
    expected = [
        0.5255603814922211,
        0.5123320393924861,
        0.17678842574312761,
        0.44153185153890145,
    ]
    for (_, _, _, kappa2, _), want in zip(per_vote(rep), expected):
        assert kappa2 == pytest.approx(want, abs=1e-12)
    # item entries stay plain when gamma is 1
    assert per_vote(rep)[0][2] == 1.0


def test_weighted_never_exceeds_plain(example_set):
    plain = score(example_set, ScoreParams(q=3))
    weighted = score(example_set, ScoreParams(q=3, gamma=0.5, lam=0.5))
    for p, w in zip(per_vote(plain), per_vote(weighted)):
        assert w[2] <= p[2] + 1e-15  # kappa1
        assert w[3] <= p[3] + 1e-15  # kappa2


def test_singleton_rankings_score_zero_pairs():
    rs = RankingSet([Ranking.strict("a"), Ranking.strict("a")])
    rep = score(rs, ScoreParams(q=2))
    for _, _, kappa1, kappa2, singleton in per_vote(rep):
        assert singleton
        assert kappa1 == 1.0
        assert kappa2 == 0.0


def test_score_is_deterministic(example_set):
    a = score(example_set, ScoreParams(q=3, gamma=0.9, lam=0.8))
    b = score(example_set, ScoreParams(q=3, gamma=0.9, lam=0.8))
    assert a.overall_kappa1 == b.overall_kappa1
    assert a.overall_kappa2 == b.overall_kappa2
    assert per_vote(a) == per_vote(b)


def test_scoring_many_points_counts_patterns_once(example_set, monkeypatch):
    calls = []
    real = model.count_patterns

    def counting(rankings):
        calls.append(1)
        return real(rankings)

    monkeypatch.setattr(model, "count_patterns", counting)
    for q, gamma, lam in [(1, 1.0, 1.0), (2, 0.5, 1.0), (3, 1.0, 0.2), (4, 0.9, 0.8)]:
        score(example_set, ScoreParams(q=q, gamma=gamma, lam=lam))
    assert len(calls) == 1


def assert_sets_equal_reference(rep, want):
    """``rep.sets`` equals the reference's sets read off one matrix per
    vote: vote ``l`` reads the patterns of its type ``type_of[l]``."""
    got = rep.sets
    assert (got.singles, got.pairs) == (want.singles, want.pairs)
    assert [got.per_type[t] for t in rep.type_of] == list(want.per_type)


def test_support_sets_are_built_only_when_read(monkeypatch):
    rset = RankingSet([Ranking([["a", "b"], ["c"]]), Ranking.strict("bca"), Ranking.strict("ab")] * 3
                      + [Ranking.strict("d")])
    calls = []
    real = support.sets

    def counting(rset, q):
        calls.append(1)
        return real(rset, q)

    monkeypatch.setattr(support, "sets", counting)
    grid = [(q, base, base) for q in (1, 3, 5, 10) for base in (1.0, 0.7, 0.2)]
    reports = [score(rset, ScoreParams(q=q, gamma=g, lam=lam)) for q, g, lam in grid]
    assert len(reports) == 12
    assert calls == []
    for (q, g, lam), rep in zip(grid, reports):
        assert_sets_equal_reference(
            rep, reference.support_sets(support_matrices_fast(rset, q, gamma=g, lam=lam)))
        assert rep.sets is rep.sets
    assert len(calls) == 12


@st.composite
def voted_sets_st(draw):
    """Votes drawn with repetition from a few distinct rankings, with ties,
    truncation and one-item rankings."""
    pool = draw(st.lists(rankings_st(), min_size=1, max_size=6))
    return RankingSet(draw(st.lists(st.sampled_from(pool), min_size=2, max_size=12)))


@pytest.mark.parametrize("route", ["dense", "unique"])
@settings(max_examples=60, deadline=None)
@given(voted_sets_st(), st.sampled_from([0.3, 1.0]))
def test_table_read_sets_equal_the_reference(route, rset, base):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "_DENSE_KEYS", 10**9 if route == "dense" else 0)
        rset = RankingSet(rset.rankings)  # counted on this route
        for q in range(1, len(rset) + 1):
            rep = score(rset, ScoreParams(q=q, gamma=base, lam=base))
            assert_sets_equal_reference(rep, reference.support_sets(support_matrices_fast(rset, q)))
            # the votes of one distinct ranking share its patterns
            assert len(rep.sets.per_type) == len(rset.types)


@pytest.mark.parametrize("budget", [None, 1, 250])
@settings(max_examples=40, deadline=None)
@given(voted_sets_st(), st.sampled_from([0.3, 0.5, 0.9]), st.sampled_from([0.2, 0.7, 1.0]))
@example(RankingSet([Ranking.strict(p) for p in ("abc", "acb", "bac", "bca", "cab", "cba")] * 2
                    + [Ranking([["a", "b"], ["c"]]), Ranking.strict("ab"), Ranking.strict("c")]),
         0.5, 0.7)
def test_batched_kappas_equal_per_matrix_reductions(budget, rset, gamma, lam):
    # budget 1 puts every distinct ranking in its own batch; 250 bytes hold
    # three 3-item matrices but a single 4-item one
    n = len(rset)
    for q in range(1, n + 1):
        for g, lm in ((1.0, 1.0), (gamma, lam)):
            eager = support_matrices_fast(rset, q, gamma=g, lam=lm)
            with pytest.MonkeyPatch.context() as mp:
                if budget is not None:
                    mp.setattr(model, "_STEP_BYTES", budget)
                rep = score(rset, ScoreParams(q=q, gamma=g, lam=lm))
            kappa1, kappa2 = [], []
            for l, (mat, row) in enumerate(zip(eager, per_vote(rep))):
                e = np.array(mat.entries)
                m = len(e)
                n_pairs = m * (m - 1) // 2
                trace = float(np.trace(e))
                kappa1.append(trace / m)
                kappa2.append((float(e.sum()) - trace) / n_pairs if n_pairs else 0.0)
                assert (l, row[0], row[1], row[4]) == (mat.owner, m, n_pairs, not n_pairs)
            # bit for bit: CSV prints repr(kappa)
            assert [k1 for _, _, k1, _, _ in per_vote(rep)] == kappa1
            assert [k2 for _, _, _, k2, _ in per_vote(rep)] == kappa2
            assert rep.overall_kappa1 == math.fsum(kappa1) / n
            assert rep.overall_kappa2 == math.fsum(kappa2) / n


def test_per_vote_views_are_built_only_when_read(monkeypatch):
    kinds = [Ranking([["a", "b"], ["c"]]), Ranking.strict("bcad"), Ranking.strict("d")]
    rset = RankingSet([kinds[i % 7 % 3] for i in range(200)])
    eager_matrices = support.support_matrices_fast
    matrix_calls = []

    def counting_matrices(*args, **kwargs):
        matrix_calls.append(1)
        return eager_matrices(*args, **kwargs)

    monkeypatch.setattr(support, "support_matrices_fast", counting_matrices)
    monkeypatch.setattr(scores, "support_matrices_fast", counting_matrices)
    grid = [(q, base, base) for q in (1, 60, 120, 200) for base in (1.0, 0.7, 0.2)]
    reports = [score(rset, ScoreParams(q=q, gamma=g, lam=lam)) for q, g, lam in grid]
    assert len(reports) == 12
    assert matrix_calls == []

    first = {r: rset.rankings.index(r) for r in kinds}
    for (q, g, lam), rep in zip(grid, reports):
        eager = eager_matrices(rset, q, gamma=g, lam=lam)
        for l, mat in enumerate(eager):
            assert (mat.owner, mat.items) == (l, rset[l].items)
            k = first[rset[l]]
            assert mat.entries is eager[k].entries and mat.supported is eager[k].supported
            for a in (mat.entries, mat.supported):
                with pytest.raises(ValueError):
                    a[0, 0] = 0
        assert rep.per_type is rep.per_type
        for l, mat in enumerate(eager):
            m = mat.m
            n_pairs = m * (m - 1) // 2
            trace = float(np.trace(mat.entries))
            kappa2 = (float(mat.entries.sum()) - trace) / n_pairs if n_pairs else 0.0
            assert rep.per_type[rep.type_of[l]] == (m, n_pairs, trace / m, kappa2, not n_pairs)
    assert matrix_calls == []  # neither the scores nor their rows build matrices


def test_cached_state_cannot_change_results():
    rng = random.Random(8)
    rankings = [random_ranking(rng, allow_ties=True) for _ in range(9)]
    rankings = [rankings[rng.randrange(9)] for _ in range(40)]
    grid = [(q, g, lam) for q in (1, 8, 20, 40)
            for g, lam in ((1.0, 1.0), (0.5, 1.0), (0.7, 0.3))]
    rset = RankingSet(rankings)
    runs = []
    for seed in (1, 2):
        order = grid[:]
        random.Random(seed).shuffle(order)
        runs.append({p: score(rset, ScoreParams(*p)) for p in order})
    runs.append({p: score(RankingSet(rankings), ScoreParams(*p)) for p in grid})
    assert list(runs[0]) != list(runs[1])
    for p in grid:
        first = runs[0][p]
        for rep in (run[p] for run in runs[1:]):
            # bit for bit: CSV prints repr(kappa)
            assert rep.kappa1.tobytes() == first.kappa1.tobytes()
            assert rep.kappa2.tobytes() == first.kappa2.tobytes()
            assert (rep.overall_kappa1, rep.overall_kappa2) == (first.overall_kappa1,
                                                                first.overall_kappa2)
    table = rset.pattern_stats
    assert sorted(table.weight_memo) == [0.3, 0.5, 0.7]
    cached = [table.count, table.total, table.value,
              *table.deviations, *table.weight_memo.values()]
    cached += [group for _, group, _, _ in table.by_length]
    for rep in runs[0].values():
        cached += [rep.kappa1, rep.kappa2]
        p = rep.params
        cached += [a for mat in support_matrices_fast(rset, p.q, gamma=p.gamma, lam=p.lam)
                   for a in (mat.entries, mat.supported)]
    for a in cached:
        with pytest.raises(ValueError):
            a[(0,) * a.ndim] = 0


def test_weight_memo_keeps_the_last_four_bases():
    votes = bench_votes("sweep_rankings", n=60)
    rset = RankingSet(votes)
    # seven bases in all, and 0.9 and 0.5 asked for again once dropped
    grid = [(30, g, 0.5) for g in (0.9, 0.8, 0.7, 0.6, 0.4, 0.3, 0.9)]
    grid += [(45, 0.2, 1.0), (15, 1.0, 0.5)]
    for p in grid:
        rep = score(rset, ScoreParams(*p))
        assert len(rset.pattern_stats.weight_memo) <= 4
        fresh = score(RankingSet(votes), ScoreParams(*p))
        assert rep.kappa1.tobytes() == fresh.kappa1.tobytes(), p
        assert rep.kappa2.tobytes() == fresh.kappa2.tobytes(), p
        assert (rep.overall_kappa1, rep.overall_kappa2) == (fresh.overall_kappa1,
                                                            fresh.overall_kappa2)
    assert list(rset.pattern_stats.weight_memo) == [0.3, 0.9, 0.2, 0.5]


def test_kept_reports_hold_no_table_sized_state():
    rset = RankingSet(bench_votes("sweep_rankings", n=60))
    n = len(rset.pattern_stats.count)
    assert n >= 10_000
    grid = [(q, g, lam) for q in (15, 30, 40, 45) for g, lam in ((1.0, 1.0), (1.0, 0.5), (0.7, 0.2))]
    for p in grid:  # the table's own caches: deviations and each base's weights
        score(rset, ScoreParams(*p))
    reports, live = [], []
    tracemalloc.start()
    try:
        for p in grid:
            reports.append(score(rset, ScoreParams(*p)))
            live.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    assert all(b - a < 2 * n for a, b in zip(live, live[1:])), np.diff(live) / n
    for rep in reports:
        assert "sets" not in vars(rep)


# bytes per table entry that one weighted score call may peak at once the
# table's deviations and weights exist, on sweep's shape at 60 lists (12 745
# entries): 4.8, where weighing the whole table at once peaked at 14.4
WEIGHTED_SCORE_PEAK = 5.5


def test_weighted_score_memory_per_entry_is_bounded():
    rset = RankingSet(bench_votes("sweep_rankings", n=60))
    n = len(rset.pattern_stats.count)
    params = ScoreParams(q=30, gamma=0.5, lam=0.2)
    score(rset, params)  # ranks the deviations and weighs them
    tracemalloc.start()
    try:
        score(rset, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n >= 10_000
    assert peak / n < WEIGHTED_SCORE_PEAK


def test_invalid_params_rejected(example_set):
    with pytest.raises(ParameterError):
        score(example_set, ScoreParams(q=0))
    with pytest.raises(ParameterError):
        score(example_set, ScoreParams(q=5))
    with pytest.raises(ParameterError):
        score(example_set, ScoreParams(q=2, gamma=0.0))
    with pytest.raises(ParameterError):
        score(example_set, ScoreParams(q=2, lam=1.1))


# --- threshold fractions -----------------------------------------------------

def test_q_from_fraction_basics():
    assert q_from_fraction("1/2", 4) == 2
    assert q_from_fraction("1/2", 5) == 3
    assert q_from_fraction("2/3", 6) == 4
    assert q_from_fraction("1", 7) == 7
    assert q_from_fraction(Fraction(3, 4), 4) == 3


def test_q_from_fraction_decimal_strings_are_exact():
    # 0.67 * 800 must be read as 536, not rounded up through binary 0.67
    assert q_from_fraction("0.67", 800) == 536
    assert q_from_fraction(0.67, 800) == 536
    assert q_from_fraction(0.5, 10) == 5


def test_q_from_fraction_reads_long_exponents_without_expanding_them():
    # each would build a 10**99999999 Fraction, minutes of work
    assert q_from_fraction("1e-99999999", 10) == 1
    with pytest.raises(ParameterError, match="got '1e99999999'"):
        q_from_fraction("1e99999999", 10)
    # at and just past 1/n
    assert q_from_fraction("1e-4", 10_000) == 1
    assert q_from_fraction("1.00001e-4", 10_000) == 2
    assert q_from_fraction("9.99e-5", 10_000) == 1


def test_q_from_fraction_rejects_out_of_range():
    for bad in ("0", "-1/2", "3/2", "1.01", "abc", "nan", "inf", "1/0"):
        with pytest.raises(ParameterError):
            q_from_fraction(bad, 10)


# --- deviations --------------------------------------------------------------

def test_mean_position_and_gap(example_set):
    assert mean_position("a", example_set) == pytest.approx(3.0)
    assert mean_position("g", example_set) == pytest.approx(4.0)
    assert mean_gap("a", "f", example_set) == pytest.approx(11 / 3)
    assert mean_gap("b", "c", example_set) == pytest.approx(4 / 3)


def test_mean_of_unseen_pattern_is_an_error(example_set):
    with pytest.raises(ValueError):
        mean_position("z", example_set)
    with pytest.raises(ValueError):
        mean_gap("c", "b", example_set)


def test_position_deviation(example_set):
    assert position_deviation("a", 1, example_set) == pytest.approx(3.0)
    assert position_deviation("e", 0, example_set) == 0.0
    assert position_deviation("c", 0, example_set) == pytest.approx(1 / 3, abs=1e-15)


def test_gap_deviation(example_set):
    assert gap_deviation("a", "f", 2, example_set) == pytest.approx(2 / 3, abs=1e-15)
    assert gap_deviation("a", "f", 0, example_set) == pytest.approx(4 / 3, abs=1e-15)


def test_deviation_preconditions(example_set):
    with pytest.raises(ValueError):
        position_deviation("g", 0, example_set)  # g not in ranking 0
    with pytest.raises(ValueError):
        gap_deviation("f", "a", 0, example_set)  # wrong order in ranking 0


# --- properties --------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(ranking_sets_st(), st.data())
def test_scores_stay_in_unit_interval(rset, data):
    q = data.draw(st.integers(min_value=1, max_value=len(rset)))
    rep = score(rset, ScoreParams(q=q))
    for _, _, kappa1, kappa2, _ in per_vote(rep):
        assert 0.0 <= kappa1 <= 1.0
        assert 0.0 <= kappa2 <= 1.0
    assert 0.0 <= rep.overall_kappa1 <= 1.0
    assert 0.0 <= rep.overall_kappa2 <= 1.0


@settings(max_examples=40, deadline=None)
@given(ranking_sets_st())
def test_scores_decrease_with_q(rset):
    reports = [score(rset, ScoreParams(q=q)) for q in range(1, len(rset) + 1)]
    for lo, hi in zip(reports, reports[1:]):
        assert hi.overall_kappa1 <= lo.overall_kappa1 + 1e-15
        assert hi.overall_kappa2 <= lo.overall_kappa2 + 1e-15


@settings(max_examples=40, deadline=None)
@given(ranking_sets_st())
def test_q_one_gives_full_scores(rset):
    rep = score(rset, ScoreParams(q=1))
    assert rep.overall_kappa1 == 1.0
    for _, _, kappa1, kappa2, singleton in per_vote(rep):
        assert kappa1 == 1.0
        assert singleton or kappa2 == 1.0
