"""The reference oracle: every quantity computed by rescanning the set.

Nothing in the package calls these; the tests check the table-read routes
of :mod:`~rank_consensus.support` and :mod:`~rank_consensus.scores`
against them. :func:`support_matrix_naive` builds one ranking's support
matrix with a full scan of the set for every entry, :func:`support_sets`
reads the supported-pattern sets off a list of matrices, and the mean and
deviation helpers rescan the set for one item or pattern.
"""
from __future__ import annotations

import numpy as np

from .model import RankingSet
from .support import (
    RankingSupport,
    SupportMatrix,
    SupportSets,
    _check_params,
    _weight,
)


def _deviation(value: int, total: int, count: int) -> float:
    # |value - total/count| with an exact integer numerator
    return abs(value * count - total) / count


def support_count(x: str, y: str, rset: RankingSet) -> int:
    """Number of rankings containing the pattern ``x y`` (membership if x == y)."""
    return sum(1 for r in rset if r.contains_pattern(x, y))


def support_matrix_naive(l: int, rset: RankingSet, q: int,
                         *, gamma: float = 1.0, lam: float = 1.0) -> SupportMatrix:
    """Reference construction: a full scan of the set for every entry.

    Deliberately cache-free; this is the oracle the fast path is tested
    against.
    """
    _check_params(rset, q, gamma, lam)
    ranking = rset[l]
    items = ranking.items
    m = len(items)
    entries = np.zeros((m, m))
    mask = np.zeros((m, m), dtype=bool)
    for i in range(m):
        x = items[i]
        for j in range(i, m):
            y = items[j]
            count = 0
            total = 0
            for rz in rset:
                if i == j:
                    p = rz.position(x)
                    if p:
                        count += 1
                        total += p
                elif rz.contains_pattern(x, y):
                    count += 1
                    total += rz.position(y) - rz.position(x)
            if count >= q:
                mask[j, i] = True
                if i == j:
                    entries[j, i] = _weight(gamma, _deviation(ranking.position(x), total, count))
                else:
                    gap = ranking.position(y) - ranking.position(x)
                    entries[j, i] = _weight(lam, _deviation(gap, total, count))
    return SupportMatrix(owner=l, items=items, entries=entries, supported=mask)


def support_sets(matrices: list[SupportMatrix]) -> SupportSets:
    """Read the supported-pattern sets off the matrices of one ranking set.

    Matrices that share one ``supported`` array (duplicate rankings) share
    one :class:`RankingSupport`.
    """
    # keyed by array identity: every matrix, so every key, outlives the loop
    distinct: dict[int, RankingSupport] = {}
    per = []
    for mat in matrices:
        support = distinct.get(id(mat.supported))
        if support is None:
            items = mat.items
            rows, cols = np.nonzero(mat.supported)
            cells = list(zip(cols.tolist(), rows.tolist()))
            support = distinct[id(mat.supported)] = RankingSupport(
                singles=frozenset(items[i] for i, j in cells if i == j),
                pairs=frozenset((items[i], items[j]) for i, j in cells if i < j),
            )
        per.append(support)
    singles = frozenset().union(*(p.singles for p in distinct.values()))
    pairs = frozenset().union(*(p.pairs for p in distinct.values()))
    return SupportSets(singles=singles, pairs=pairs, per_ranking=tuple(per))


def mean_position(x: str, rset: RankingSet) -> float:
    """Average position of ``x`` over the rankings that contain it."""
    positions = [r.position(x) for r in rset if r.position(x)]
    if not positions:
        raise ValueError(f"item {x!r} appears in no ranking")
    return sum(positions) / len(positions)


def mean_gap(x: str, y: str, rset: RankingSet) -> float:
    """Average position gap of the pattern ``x y`` over rankings containing it."""
    gaps = [r.position(y) - r.position(x) for r in rset if r.contains_pattern(x, y)]
    if not gaps:
        raise ValueError(f"pattern {x!r} {y!r} appears in no ranking")
    return sum(gaps) / len(gaps)


def position_deviation(x: str, l: int, rset: RankingSet) -> float:
    """|position of ``x`` in ranking ``l`` minus its set-wide mean position|.

    Computed as ``|p * f - sum| / f`` with integer numerator, so thirds and
    the like come out as correctly rounded floats.
    """
    p = rset[l].position(x)
    if not p:
        raise ValueError(f"item {x!r} is not in ranking {l}")
    count = 0
    total = 0
    for r in rset:
        pos = r.position(x)
        if pos:
            count += 1
            total += pos
    return abs(p * count - total) / count


def gap_deviation(x: str, y: str, l: int, rset: RankingSet) -> float:
    """|gap of ``x y`` in ranking ``l`` minus the set-wide mean gap|."""
    ranking = rset[l]
    if not ranking.contains_pattern(x, y):
        raise ValueError(f"pattern {x!r} {y!r} is not in ranking {l}")
    gap = ranking.position(y) - ranking.position(x)
    count = 0
    total = 0
    for r in rset:
        if r.contains_pattern(x, y):
            count += 1
            total += r.position(y) - r.position(x)
    return abs(gap * count - total) / count
