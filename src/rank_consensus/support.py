"""Support counting and per-ranking support matrices.

A pattern is a single item ``x`` or an ordered pair ``(x, y)``; its support
is the number of rankings in the set that contain it. Each ranking gets a
lower-triangular matrix over its own items whose entry ``[j, i]`` (``i <= j``
in the ranking's item order) certifies that the pattern formed by its i-th
and j-th items reaches the support threshold ``q``. In weighted mode the
certified entries carry ``gamma ** h`` (diagonal, ``h`` the item's position
deviation from its set-wide mean) or ``lam ** d`` (off-diagonal, ``d`` the
pair's gap deviation from its set-wide mean gap).

Two construction routes are provided on purpose: :func:`support_matrix_naive`
rescans the whole set for every entry and is the reference oracle, while
:func:`support_matrices_fast` reads every entry from the set's pattern
table (:attr:`RankingSet.pattern_stats`), which one counting pass builds
once per set and every threshold and weight reuses. They must agree
entrywise.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .model import Ranking, RankingSet


@dataclass(frozen=True, eq=False)
class SupportMatrix:
    """Lower-triangular certificate matrix for one ranking.

    ``items`` fixes the row/column order (the owner ranking's item order);
    ``entries`` holds the weights and ``supported`` the underlying predicate,
    kept separately so set membership never depends on a float comparison.
    """

    owner: int
    items: tuple[str, ...]
    entries: np.ndarray
    supported: np.ndarray

    @property
    def m(self) -> int:
        return len(self.items)

    @property
    def trace(self) -> float:
        return float(np.trace(self.entries))

    @property
    def off_diagonal_sum(self) -> float:
        return float(self.entries.sum() - np.trace(self.entries))


@dataclass(frozen=True)
class RankingSupport:
    """The supported patterns read off one ranking's matrix."""

    singles: frozenset[str]
    pairs: frozenset[tuple[str, str]]


@dataclass(frozen=True)
class SupportSets:
    """Global and per-ranking supported-pattern sets.

    The global sets are unions of the per-ranking ones; pairs keep the order
    in which their owner ranking presents them, so both ``(x, y)`` and
    ``(y, x)`` may appear when both orders clear the threshold.
    """

    singles: frozenset[str]
    pairs: frozenset[tuple[str, str]]
    per_ranking: tuple[RankingSupport, ...]


def _check_params(rset: RankingSet, q: int, gamma: float, lam: float) -> None:
    """The one validator of a threshold and weights for ``rset``."""
    n = len(rset)
    if not isinstance(q, int) or isinstance(q, bool):
        raise ParameterError(f"q must be an integer, got {q!r}")
    if not 1 <= q <= n:
        raise ParameterError(f"q must be in [1, {n}], got {q}")
    for name, value in (("gamma", gamma), ("lambda", lam)):
        if not 0.0 < value <= 1.0:
            raise ParameterError(f"{name} must be in (0, 1], got {value}")


def _weight(base: float, deviation: float) -> float:
    # base == 1 short-circuits so plain mode yields exactly 1.0
    if base == 1.0 or deviation == 0.0:
        return 1.0
    return math.exp(deviation * math.log(base))


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


def support_matrices_fast(rset: RankingSet, q: int, *, gamma: float = 1.0,
                          lam: float = 1.0) -> list[SupportMatrix]:
    """All per-ranking support matrices, read off the set's pattern table.

    Entrywise identical to running :func:`support_matrix_naive` for every
    ranking.
    """
    _check_params(rset, q, gamma, lam)
    stats = rset.pattern_stats
    matrices = []
    for l, ranking in enumerate(rset):
        items = ranking.items
        m = len(items)
        positions = [ranking.position(x) for x in items]
        entries = np.zeros((m, m))
        mask = np.zeros((m, m), dtype=bool)
        for i in range(m):
            x = items[i]
            px = positions[i]
            for j in range(i, m):
                count, total = stats[x, items[j]]
                if count < q:
                    continue
                mask[j, i] = True
                if i == j:
                    entries[j, i] = _weight(gamma, _deviation(px, total, count))
                else:
                    entries[j, i] = _weight(lam, _deviation(positions[j] - px, total, count))
        matrices.append(SupportMatrix(owner=l, items=items, entries=entries, supported=mask))
    return matrices


def support_sets(matrices: list[SupportMatrix], rset: RankingSet) -> SupportSets:
    """Read the supported-pattern sets off matrices built for ``rset``."""
    if len(matrices) != len(rset):
        raise ParameterError(
            f"expected {len(rset)} matrices for this ranking set, got {len(matrices)}"
        )
    per = []
    for mat in matrices:
        items = mat.items
        singles = frozenset(items[i] for i in range(mat.m) if mat.supported[i, i])
        pairs = frozenset(
            (items[i], items[j])
            for i in range(mat.m)
            for j in range(i + 1, mat.m)
            if mat.supported[j, i]
        )
        per.append(RankingSupport(singles=singles, pairs=pairs))
    singles = frozenset().union(*(p.singles for p in per))
    pairs = frozenset().union(*(p.pairs for p in per))
    return SupportSets(singles=singles, pairs=pairs, per_ranking=tuple(per))
