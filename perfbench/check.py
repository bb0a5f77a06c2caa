"""Independent checks of one CLI output against the generated rankings.

Scores of sampled rankings are recomputed with ``support_matrix_naive``,
the package's cache-free oracle, on a set built straight from the
generator's rankings (not from the program's parser). Plain mode must match
bit for bit and weighted mode within 1e-12 per score. Everything that
follows from the scores alone (means, deviations, flags, survivors, the
rescaled ``q``) is recomputed exactly from the reported floats, which JSON
and ``repr`` round-trip.

Each check returns the pair work of the invocation: the sum, over every
scoring pass the command makes, of each scored ranking's ``m(m-1)/2``.
"""
from __future__ import annotations

import csv
import io
import json
import math
import random
from fractions import Fraction

from rank_consensus import Ranking, RankingSet, support_matrix_naive

WEIGHTED_TOL = 1e-12
NAIVE_SAMPLES = 3
# sweep outputs carry only set-wide means, so only sets this small are
# recomputed in full with the oracle; larger ones get the structural checks
SWEEP_NAIVE_LIMIT = 60


class CheckError(Exception):
    """The output disagrees with the oracle or with itself."""


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckError(what)


def _opt(args: tuple[str, ...], flag: str, default: str) -> str:
    return args[args.index(flag) + 1] if flag in args else default


def _q(frac: str, n: int) -> int:
    return math.ceil(Fraction(frac) * n)


def _tol(gamma: float, lam: float) -> float:
    return 0.0 if gamma == lam == 1.0 else WEIGHTED_TOL


def ranking_set(rankings: list[list[list[str]]]) -> RankingSet:
    built: dict[int, Ranking] = {}  # repeated votes share one list object
    return RankingSet(built.setdefault(id(b), Ranking(b)) for b in rankings)


def _naive(rset: RankingSet, l: int, q: int, gamma: float, lam: float):
    mat = support_matrix_naive(l, rset, q, gamma=gamma, lam=lam)
    m = mat.m
    n_pairs = m * (m - 1) // 2
    trace = mat.trace
    kappa1 = trace / m
    kappa2 = (float(mat.entries.sum()) - trace) / n_pairs if n_pairs else 0.0
    items = mat.items
    singles = sorted(items[i] for i in range(m) if mat.supported[i, i])
    pairs = sorted([items[i], items[j]] for i in range(m) for j in range(i + 1, m)
                   if mat.supported[j, i])
    return kappa1, kappa2, singles, pairs


def _check_consensus(payload: dict, rset: RankingSet, q: int, gamma: float, lam: float,
                     samples: list[int]) -> int:
    n = len(rset)
    _expect(payload["params"] == {"q": q, "gamma": gamma, "lambda": lam},
            f"params {payload['params']} != q={q}, gamma={gamma}, lambda={lam}")
    per = payload["per_ranking"]
    _expect(payload["n_rankings"] == n and len(per) == n, "ranking count")
    for l, (entry, r) in enumerate(zip(per, rset)):
        m = len(r)
        _expect(entry["index"] == l and entry["m"] == m and entry["n_pairs"] == m * (m - 1) // 2,
                f"ranking {l}: index, m or n_pairs")
    overall = payload["overall"]
    for key in ("kappa1", "kappa2"):
        mean = math.fsum(e[key] for e in per) / n
        _expect(overall[key] == mean, f"overall {key} is not the mean")
        _expect(overall[f"{key}_display"] == f"{mean:.2f}", f"overall {key}_display")
    tol = _tol(gamma, lam)
    sets = payload.get("support")
    for l in samples:
        kappa1, kappa2, singles, pairs = _naive(rset, l, q, gamma, lam)
        for key, want in (("kappa1", kappa1), ("kappa2", kappa2)):
            _expect(abs(per[l][key] - want) <= tol,
                    f"ranking {l}: {key} {per[l][key]!r} != oracle {want!r}")
        if sets is not None:
            _expect(sets["per_ranking"][l] == {"index": l, "singles": singles, "pairs": pairs},
                    f"ranking {l}: supported sets differ from the oracle")
    if sets is not None:
        _expect(sets["singles"] == sorted({x for e in sets["per_ranking"] for x in e["singles"]}),
                "global singles are not the union of the per-ranking sets")
        union = {tuple(p) for e in sets["per_ranking"] for p in e["pairs"]}
        _expect(sets["pairs"] == [list(p) for p in sorted(union)],
                "global pairs are not the union of the per-ranking sets")
    return sum(e["n_pairs"] for e in per)


def check_score(out: bytes, rset: RankingSet, args: tuple[str, ...], rng: random.Random) -> int:
    payload = json.loads(out)
    n = len(rset)
    q = _q(_opt(args, "--q-frac", "1/2"), n)
    gamma = float(_opt(args, "--gamma", "1"))
    lam = float(_opt(args, "--lambda", "1"))
    return _check_consensus(payload, rset, q, gamma, lam,
                            rng.sample(range(n), min(NAIVE_SAMPLES, n)))


def check_outliers(out: bytes, rset: RankingSet, args: tuple[str, ...], rng: random.Random) -> int:
    payload = json.loads(out)
    n = len(rset)
    q = _q(_opt(args, "--q-frac", "1/2"), n)
    gamma = float(_opt(args, "--gamma", "1"))
    lam = float(_opt(args, "--lambda", "1"))
    eps1 = float(_opt(args, "--eps1", "0.4"))
    eps2 = float(_opt(args, "--eps2", "0.4"))
    cons = payload["consensus"]
    mean1 = cons["overall"]["kappa1"]
    mean2 = cons["overall"]["kappa2"]
    devs = payload["per_ranking"]
    _expect(len(devs) == n, "deviation count")
    flagged = []
    for l, (d, s) in enumerate(zip(devs, cons["per_ranking"])):
        v1 = (s["kappa1"] - mean1) / mean1
        v2 = (s["kappa2"] - mean2) / mean2
        flag = v1 < -eps1 or v2 < -eps2
        _expect(d == {"index": l, "v1": v1, "v2": v2, "v1_display": f"{v1:.2f}",
                      "v2_display": f"{v2:.2f}", "flagged": flag},
                f"ranking {l}: deviation or flag")
        if flag:
            flagged.append(l)
    _expect(payload["flagged_indices"] == flagged, "flagged_indices")
    samples = rng.sample(range(n), min(NAIVE_SAMPLES, n)) + flagged[:1]
    work = _check_consensus(cons, rset, q, gamma, lam, samples)
    if "--remove" in args:
        dropped = set(flagged)
        keep = [l for l in range(n) if l not in dropped]
        rescored = payload["rescored"]
        _expect(rescored.pop("original_indices") == keep, "rescored original_indices")
        survivors = RankingSet(rset[l] for l in keep)
        q_new = -(-q * len(keep) // n)
        work += _check_consensus(rescored, survivors, q_new, gamma, lam,
                                 rng.sample(range(len(keep)), min(NAIVE_SAMPLES - 1, len(keep))))
    return work


def check_sweep(out: bytes, rset: RankingSet, args: tuple[str, ...], rng: random.Random) -> int:
    n = len(rset)
    fracs = _opt(args, "--q-fracs", "1/2").split(",")
    gammas = [float(g) for g in _opt(args, "--gammas", "1").split(",")]
    lams = [float(x) for x in _opt(args, "--lambdas", "1").split(",")]
    grid = [(f, g, lam) for f in fracs for g in gammas for lam in lams]
    reader = csv.DictReader(io.StringIO(out.decode("utf-8")))
    rows = list(reader)
    _expect(reader.fieldnames == ["q", "qOverN", "gamma", "lambda", "kappa1", "kappa2"],
            f"CSV header {reader.fieldnames}")
    _expect(len(rows) == len(grid), f"{len(rows)} rows for {len(grid)} grid points")
    got = {}
    for row, (frac, gamma, lam) in zip(rows, grid):
        q = _q(frac, n)
        _expect([row["q"], row["qOverN"], row["gamma"], row["lambda"]]
                == [str(q), frac, repr(gamma), repr(lam)], f"grid row {row}")
        k1, k2 = float(row["kappa1"]), float(row["kappa2"])
        _expect(row["kappa1"] == repr(k1) and row["kappa2"] == repr(k2), f"float format {row}")
        _expect(0.0 <= k1 <= 1.0 and 0.0 <= k2 <= 1.0, f"scores out of [0, 1] in {row}")
        got[frac, gamma, lam] = (q, k1, k2)
    if n <= SWEEP_NAIVE_LIMIT:
        for (frac, gamma, lam), (q, k1, k2) in got.items():
            per = [_naive(rset, l, q, gamma, lam) for l in range(n)]
            tol = _tol(gamma, lam)
            _expect(abs(k1 - math.fsum(p[0] for p in per) / n) <= tol, f"kappa1 at {frac},{lam}")
            _expect(abs(k2 - math.fsum(p[1] for p in per) / n) <= tol, f"kappa2 at {frac},{lam}")
    else:
        # properties that hold for any set: kappa1 ignores lambda, weights
        # only discount, and a higher q certifies a subset of the patterns
        for (frac, gamma, lam), (q, k1, k2) in got.items():
            plain = got.get((frac, gamma, 1.0))
            if plain is not None:
                _expect(k1 == plain[1] and k2 <= plain[2] + WEIGHTED_TOL,
                        f"lambda={lam} vs 1 at q-frac {frac}")
            for other, (q2, o1, o2) in got.items():
                if other[1:] == (gamma, lam) and q2 > q:
                    _expect(o1 <= k1 and o2 <= k2, f"scores rise from q={q} to q={q2}")
    return len(grid) * sum(len(r) * (len(r) - 1) // 2 for r in rset)


CHECKS = {"score": check_score, "outliers": check_outliers, "sweep": check_sweep}


def check_output(out: bytes, rset: RankingSet, args: tuple[str, ...], seed: int) -> int:
    """Raise :class:`CheckError` unless ``out`` is the right output of the
    CLI call ``args`` on ``rset``; return the invocation's pair work."""
    try:
        return CHECKS[args[0]](out, rset, args, random.Random(seed))
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        raise CheckError(f"malformed output: {type(exc).__name__}: {exc}") from exc
