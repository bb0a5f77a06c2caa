"""The reference oracle: every quantity computed by rescanning the set.

Nothing in the package calls these; the tests check the table-read routes
of :mod:`~rank_consensus.scores` against them. The module imports only
:mod:`~rank_consensus.model`, whose types and validator it shares with
them. :func:`contains_pattern` is the containment rule every rescan
applies to one ranking; one scan of the set with it gives a pattern's
count and totals, and every quantity here reads that scan.
:func:`support_matrix_naive` builds one ranking's support matrix with a
full scan of the set for every entry, :func:`support_sets` reads the
supported patterns off a list of matrices, one type per matrix and sorted
as the table-read sets are, and the count, mean and deviation helpers
rescan the set for one item or pattern.
"""
from __future__ import annotations

import math

import numpy as np

from .model import (Ranking, RankingSet, RankingSupport, SupportMatrix, SupportSets,
                    check_params)


def contains_pattern(r: Ranking, x: str, y: str) -> bool:
    """True iff ``r`` ranks ``x`` at or before ``y`` and both are present.

    Tied items satisfy both orders; ``contains_pattern(r, x, x)`` is plain
    membership.
    """
    px = r.position(x)
    return 0 < px <= r.position(y)


def _deviation(value: int, total: int, count: int) -> float:
    # |value - total/count| with an exact integer numerator
    return abs(value * count - total) / count


def _weight(base: float, deviation: float) -> float:
    # base == 1 short-circuits so plain mode yields exactly 1.0
    if base == 1.0 or deviation == 0.0:
        return 1.0
    return math.exp(deviation * math.log(base))


def _scan(x: str, y: str, rset: RankingSet) -> tuple[int, int, int]:
    # the one pass over the set for the pattern x y: how many rankings
    # contain it, and their totals of position(x) and of the gap
    count = positions = gaps = 0
    for r in rset:
        if contains_pattern(r, x, y):
            px = r.position(x)
            count += 1
            positions += px
            gaps += r.position(y) - px
    return count, positions, gaps


def support_count(x: str, y: str, rset: RankingSet) -> int:
    """Number of rankings containing the pattern ``x y`` (membership if x == y)."""
    return _scan(x, y, rset)[0]


def support_matrix_naive(l: int, rset: RankingSet, q: int,
                         *, gamma: float = 1.0, lam: float = 1.0) -> SupportMatrix:
    """Reference construction: a full scan of the set for every entry.

    Deliberately cache-free; this is the oracle the fast path is tested
    against.
    """
    check_params(rset, q, gamma, lam)
    ranking = rset[l]
    items = ranking.items
    m = len(items)
    entries = np.zeros((m, m))
    mask = np.zeros((m, m), dtype=bool)
    for i in range(m):
        x = items[i]
        for j in range(i, m):
            y = items[j]
            count, total, gaps = _scan(x, y, rset)
            if count >= q:
                mask[j, i] = True
                if i == j:
                    entries[j, i] = _weight(gamma, _deviation(ranking.position(x), total, count))
                else:
                    gap = ranking.position(y) - ranking.position(x)
                    entries[j, i] = _weight(lam, _deviation(gap, gaps, count))
    return SupportMatrix(owner=l, items=items, entries=entries, supported=mask)


def support_sets(matrices: list[SupportMatrix]) -> SupportSets:
    """Read the supported-pattern sets off the matrices of one ranking set,
    in the sorted shape :func:`~rank_consensus.scores.sets` gives them,
    with each matrix as its own type."""
    per = []
    for mat in matrices:
        items = mat.items
        rows, cols = np.nonzero(mat.supported)
        cells = list(zip(cols.tolist(), rows.tolist()))
        per.append(RankingSupport(
            singles=tuple(sorted(items[i] for i, j in cells if i == j)),
            pairs=tuple(sorted((items[i], items[j]) for i, j in cells if i < j)),
        ))
    singles = tuple(sorted(set().union(*(p.singles for p in per))))
    pairs = tuple(sorted(set().union(*(p.pairs for p in per))))
    return SupportSets(singles=singles, pairs=pairs, per_type=tuple(per))


def mean_position(x: str, rset: RankingSet) -> float:
    """Average position of ``x`` over the rankings that contain it."""
    count, positions, _ = _scan(x, x, rset)
    if not count:
        raise ValueError(f"item {x!r} appears in no ranking")
    return positions / count


def mean_gap(x: str, y: str, rset: RankingSet) -> float:
    """Average position gap of the pattern ``x y`` over rankings containing it."""
    count, _, gaps = _scan(x, y, rset)
    if not count:
        raise ValueError(f"pattern {x!r} {y!r} appears in no ranking")
    return gaps / count


def position_deviation(x: str, l: int, rset: RankingSet) -> float:
    """|position of ``x`` in ranking ``l`` minus its set-wide mean position|.

    Computed as ``|p * f - sum| / f`` with integer numerator, so thirds and
    the like come out as correctly rounded floats.
    """
    p = rset[l].position(x)
    if not p:
        raise ValueError(f"item {x!r} is not in ranking {l}")
    count, positions, _ = _scan(x, x, rset)
    return _deviation(p, positions, count)


def gap_deviation(x: str, y: str, l: int, rset: RankingSet) -> float:
    """|gap of ``x y`` in ranking ``l`` minus the set-wide mean gap|."""
    ranking = rset[l]
    if not contains_pattern(ranking, x, y):
        raise ValueError(f"pattern {x!r} {y!r} is not in ranking {l}")
    count, _, gaps = _scan(x, y, rset)
    return _deviation(ranking.position(y) - ranking.position(x), gaps, count)
