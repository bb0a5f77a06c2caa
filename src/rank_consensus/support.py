"""Support counting and per-ranking support matrices.

A pattern is a single item ``x`` or an ordered pair ``(x, y)``; its support
is the number of rankings in the set that contain it. Each ranking gets a
lower-triangular matrix over its own items whose entry ``[j, i]`` (``i <= j``
in the ranking's item order) certifies that the pattern formed by its i-th
and j-th items reaches the support threshold ``q``. In weighted mode the
certified entries carry ``gamma ** h`` (diagonal, ``h`` the item's position
deviation from its set-wide mean) or ``lam ** d`` (off-diagonal, ``d`` the
pair's gap deviation from its set-wide mean gap).

Everything here reads the set's pattern table
(:attr:`RankingSet.pattern_stats`), which lays its entries out length by
length, and the parameters; nothing is kept between calls but the table's
own deviation weights. :func:`fill` thresholds and weights every entry in
whole-array operations and fills read-only ``(k, m, m)`` float batches,
each from one contiguous slice of the weights; they agree entrywise with
the full-scan oracle in :mod:`~rank_consensus.reference`. Scores reduce
each batch as it is filled and drop it. :func:`sets` reads the supported
patterns, the entries whose count reaches ``q``, off each length's slice of
the counts, per distinct ranking and with no matrix, sorted as printed.
:func:`support_matrices_fast` is the one per-vote view of filled batches, in
which duplicate rankings share one matrix, for tests and inspection; only it
fills the bool ``supported`` matrices.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import model
from .errors import ParameterError
from .model import PatternTable, RankingSet, lower_triangle


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


@dataclass(frozen=True)
class RankingSupport:
    """The supported patterns of one ranking, each sorted as printed."""

    singles: tuple[str, ...]
    pairs: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class SupportSets:
    """Global and per-type supported patterns, each sorted as printed.

    ``per_type`` is indexed like ``table.types``; the global patterns are
    their union. Pairs keep the order in which their owner ranking presents
    them, so both ``(x, y)`` and ``(y, x)`` may appear.
    """

    singles: tuple[str, ...]
    pairs: tuple[tuple[str, str], ...]
    per_type: tuple[RankingSupport, ...]


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


def fill(table: PatternTable, q: int, gamma: float,
         lam: float) -> Iterator[tuple[np.ndarray, slice, np.ndarray]]:
    """The weight matrices of the table's distinct rankings, batch by batch.

    Thresholds all entries at once, picks their weights, and yields
    ``(group, cells, entries)``: the type indices of ``k`` distinct rankings
    of one length ``m``, the slice of the table entries they own, and their
    fresh read-only ``(k, m, m)`` weight matrices, filled by fancy indexing
    from that slice. Batches split under ``model._STEP_BYTES`` as it is when
    this is called. The parameters are not checked here.
    """
    if (gamma, lam) == (1.0, 1.0):
        weights = (table.count >= q).astype(float)
    else:
        # one entry-sized array per call: with a second float array, or
        # np.take's int64 copy of the index, sweep faulted ~600 pages back
        # in per call and its 12 calls took ~50 ms in process, not ~35.
        # The first weighted call ranks the deviations before making it
        index = table.deviations[1]
        weights = np.ones(len(index)) if lam == 1.0 else table.weights(lam)[index]
        diag = table.diag
        weights[diag] = 1.0 if gamma == 1.0 else table.weights(gamma)[index[diag]]
        weights *= table.count >= q  # w * 1.0 is w, and unsupported is 0.0
    for m, group, lo, _ in table.by_length:
        rows, cols = lower_triangle(m)
        step = max(1, model._STEP_BYTES // (9 * m * m))  # 8 + 1 bytes per cell
        for start in range(0, len(group), step):
            part = group[start:start + step]
            cells = slice(lo + start * len(rows), lo + (start + len(part)) * len(rows))
            entries = np.zeros((len(part), m, m))
            entries[:, rows, cols] = weights[cells].reshape(len(part), len(rows))
            entries.flags.writeable = False
            yield part, cells, entries


def sets(table: PatternTable, q: int) -> SupportSets:
    """The supported patterns of every distinct ranking, read off the table
    entries that reach the threshold: one ``np.nonzero`` per length, and
    each ranking's patterns sorted once."""
    per_type: list[RankingSupport] = [None] * len(table.types)
    for m, group, lo, hi in table.by_length:
        rows, cols = lower_triangle(m)
        k, cell = np.nonzero((table.count[lo:hi] >= q).reshape(len(group), len(rows)))
        bounds = np.searchsorted(k, np.arange(len(group) + 1)).tolist()
        firsts, seconds = cols[cell].tolist(), rows[cell].tolist()
        for t, a, b in zip(group.tolist(), bounds, bounds[1:]):
            items = table.types[t].items
            cells = list(zip(firsts[a:b], seconds[a:b]))
            per_type[t] = RankingSupport(
                singles=tuple(sorted(items[i] for i, j in cells if i == j)),
                pairs=tuple(sorted((items[i], items[j]) for i, j in cells if i < j)),
            )
    return SupportSets(
        singles=tuple(sorted(set().union(*(p.singles for p in per_type)))),
        pairs=tuple(sorted(set().union(*(p.pairs for p in per_type)))),
        per_type=tuple(per_type),
    )


def support_matrices_fast(rset: RankingSet, q: int, *, gamma: float = 1.0,
                          lam: float = 1.0) -> list[SupportMatrix]:
    """All per-ranking support matrices, read off the set's pattern table.

    Entrywise identical to running
    :func:`~rank_consensus.reference.support_matrix_naive` for every
    ranking. Duplicate rankings share one read-only ``entries`` and
    ``supported`` array.
    """
    _check_params(rset, q, gamma, lam)
    table = rset.pattern_stats
    shared: list[tuple] = [()] * len(table.types)
    for group, cells, entries in fill(table, q, gamma, lam):
        rows, cols = lower_triangle(entries.shape[1])
        mask = np.zeros(entries.shape, dtype=bool)
        mask[:, rows, cols] = (table.count[cells] >= q).reshape(len(group), len(rows))
        mask.flags.writeable = False
        for t, e, s in zip(group.tolist(), entries, mask):
            shared[t] = (table.types[t].items, e, s)
    return [SupportMatrix(l, *shared[t]) for l, t in enumerate(table.type_of)]
