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
:func:`support_batches` thresholds and weights the entries of the set's
pattern table (:attr:`RankingSet.pattern_stats`) in whole-array operations
and fills read-only ``(k, m, m)`` float batches per length ``m`` of the
set's distinct rankings. They must agree entrywise. The table already holds
the batch layout and the deviation weights, so filling only thresholds,
gathers weights and fills, and a :class:`SupportBatches` keeps nothing but
the table and the parameters until its batches are read. Scores reduce each
batch as it is filled and drop it; :func:`support_matrices_fast` and a
report's ``matrices`` are per-vote views of kept batches, in which duplicate
rankings share one matrix, and only those views fill the bool ``supported``
matrices.
"""
from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ParameterError
from .model import PatternTable, Ranking, RankingSet, lower_triangle


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


def _deviation_weights(table: PatternTable, base: float) -> np.ndarray:
    """``_weight`` of each distinct deviation of the table's entries; every
    one is exponentiated once per base per table."""
    weights = table.weight_memo.get(base)
    if weights is None:
        weights = np.array([_weight(base, d) for d in table.deviations[0].tolist()])
        weights.flags.writeable = False
        table.weight_memo[base] = weights
    return weights


# most bytes the float matrices of one batch, and the bool ones once a view
# fills them, may take. Read whenever batches are filled, not kept with the
# set. The distinct rankings of one length that need more are split over
# several batches, which bounds the index arrays that fill a batch: with 16 MB
# batches, fifty 100-item lists peaked 2.2 MB higher than with one matrix at a
# time
_BATCH_BYTES = 1 << 18


@dataclass(frozen=True, eq=False)
class SupportBatches:
    """The support matrices of a set's distinct rankings, batched by length.

    Only the set's pattern table and the parameters are kept. Each batch is
    ``(index, span, entries)``: the type indices of ``k`` distinct rankings
    of one length ``m``, the ``(k, m(m+1)/2)`` pattern table entries they
    own, and their read-only ``(k, m, m)`` weight matrices. :meth:`fill`
    yields fresh batches one at a time, for a reader that drops each one;
    ``batches`` keeps them and ``supported`` says which table entries reach
    the threshold. Both are filled from the table on first read, so they
    equal what any earlier :meth:`fill` yielded; the bool matrices are
    filled from ``supported`` only when :meth:`matrices` is called.
    """

    table: PatternTable
    q: int
    gamma: float
    lam: float

    @property
    def types(self) -> tuple[Ranking, ...]:
        return self.table.types

    @property
    def type_of(self) -> tuple[int, ...]:
        return self.table.type_of

    @cached_property
    def supported(self) -> np.ndarray:
        supported = self.table.count >= self.q
        supported.flags.writeable = False
        return supported

    @cached_property
    def batches(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
        return tuple(self.fill())

    def fill(self) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Threshold all entries at once, pick their weights, and fill each
        batch's float matrices by fancy indexing; batches split under
        ``_BATCH_BYTES`` as it is when this is called."""
        table = self.table
        if (self.gamma, self.lam) == (1.0, 1.0):
            weights = (table.count >= self.q).astype(float)
        else:
            # one entry-sized array per call: with a second float array, or
            # np.take's int64 copy of the index, sweep faulted ~600 pages back
            # in per call and its 12 calls took ~50 ms in process, not ~35.
            # The first weighted call ranks the deviations before making it
            index = table.deviations[1]
            weights = (np.ones(len(index)) if self.lam == 1.0
                       else _deviation_weights(table, self.lam)[index])
            diag = table.diag
            weights[diag] = (1.0 if self.gamma == 1.0
                             else _deviation_weights(table, self.gamma)[index[diag]])
            weights *= table.count >= self.q  # w * 1.0 is w, and unsupported is 0.0
        for m, group, spans in table.by_length:
            rows, cols = lower_triangle(m)
            step = max(1, _BATCH_BYTES // (9 * m * m))  # 8 + 1 bytes per cell
            for start in range(0, len(group), step):
                span = spans[start:start + step]
                entries = np.zeros((len(span), m, m))
                entries[:, rows, cols] = weights[span]
                entries.flags.writeable = False
                yield group[start:start + step], span, entries

    def matrices(self) -> list[SupportMatrix]:
        """One matrix per vote; the votes of one distinct ranking share its
        read-only views into the batches."""
        shared: list[tuple] = [()] * len(self.types)
        for index, span, entries in self.batches:
            rows, cols = lower_triangle(entries.shape[1])
            mask = np.zeros(entries.shape, dtype=bool)
            mask[:, rows, cols] = self.supported[span]
            mask.flags.writeable = False
            for t, e, s in zip(index.tolist(), entries, mask):
                shared[t] = (self.types[t].items, e, s)
        return [SupportMatrix(l, *shared[t]) for l, t in enumerate(self.type_of)]


def support_batches(rset: RankingSet, q: int, *, gamma: float = 1.0,
                    lam: float = 1.0) -> SupportBatches:
    """Every distinct ranking's support matrix, read off the set's pattern table.

    The table holds everything that depends on the set alone: the counts,
    the batch layout and the deviation weights. This validates the
    parameters and fills nothing; the batches are filled when read.
    """
    _check_params(rset, q, gamma, lam)
    return SupportBatches(rset.pattern_stats, q, gamma, lam)


def support_matrices_fast(rset: RankingSet, q: int, *, gamma: float = 1.0,
                          lam: float = 1.0) -> list[SupportMatrix]:
    """All per-ranking support matrices, read off the set's pattern table.

    Entrywise identical to running :func:`support_matrix_naive` for every
    ranking. Duplicate rankings share one read-only ``entries`` and
    ``supported`` array.
    """
    return support_batches(rset, q, gamma=gamma, lam=lam).matrices()


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
