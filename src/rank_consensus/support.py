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
:func:`support_matrices_fast` thresholds and weights the entries of the
set's pattern table (:attr:`RankingSet.pattern_stats`) in whole-array
operations and builds one read-only matrix per distinct ranking, which
duplicate rankings share. They must agree entrywise.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .model import Ranking, RankingSet, lower_triangle


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


def _weights(base: float, value: np.ndarray, total: np.ndarray,
             count: np.ndarray) -> np.ndarray:
    """``_weight`` of every entry's deviation, evaluated once per distinct one."""
    deviation = np.abs(value * count - total) / count  # exact integer numerator
    unique, inverse = np.unique(deviation, return_inverse=True)
    return np.array([_weight(base, d) for d in unique.tolist()])[inverse]


def support_matrices_fast(rset: RankingSet, q: int, *, gamma: float = 1.0,
                          lam: float = 1.0) -> list[SupportMatrix]:
    """All per-ranking support matrices, read off the set's pattern table.

    Entrywise identical to running :func:`support_matrix_naive` for every
    ranking. Duplicate rankings share one read-only ``entries`` and
    ``supported`` array.
    """
    _check_params(rset, q, gamma, lam)
    table = rset.pattern_stats
    supported = table.count >= q
    weights = supported.astype(float)
    for base, kind in ((gamma, table.diag), (lam, ~table.diag)):
        if base != 1.0:
            sel = supported & kind
            weights[sel] = _weights(base, table.value[sel], table.total[sel], table.count[sel])
    shared = []
    offsets = table.offsets.tolist()
    for t, ranking in enumerate(table.types):
        m = len(ranking)
        cells = lower_triangle(m)
        span = slice(offsets[t], offsets[t + 1])
        entries = np.zeros((m, m))
        entries[cells] = weights[span]
        mask = np.zeros((m, m), dtype=bool)
        mask[cells] = supported[span]
        entries.flags.writeable = mask.flags.writeable = False
        shared.append((ranking.items, entries, mask))
    return [SupportMatrix(l, *shared[t]) for l, t in enumerate(table.type_of)]


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
