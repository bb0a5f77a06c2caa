"""Core domain model: rankings, tie blocks, ranking sets and positions.

A ranking is an ordered sequence of tie blocks over opaque string items; a
strict ranking is the special case of all-singleton blocks. An item's
position is the 1-based index of its block, and 0 encodes absence, so every
downstream formula treats incomplete rankings uniformly: a ranking contains
the pattern ``x y`` when ``0 < position(x) <= position(y)``. All types are
immutable after construction and safe to share across threads.

A set deduplicates its votes once, when it is built, and counts its
patterns once, on first use, keeping the result as a :class:`PatternTable`:
one vectorised pass per ranking length over its distinct rankings gives
every ordered pattern's support and position/gap total. The table lays its
entries out length by length, each distinct ranking's in the cell order of
its support matrix, so the entries of all distinct rankings of one length
are one contiguous block, and every batch a reader takes is a slice of it.
An entry holds 16 bytes, and every pass over the table works in steps of
:data:`_STEP_BYTES` but one: :func:`~rank_consensus.scores.sets`
thresholds each length's whole block, 1 byte per entry and two int64 per
supported cell. The table also keeps what every threshold and weight reads
alike: once a weighted run asks, the distinct deviations, an int32 index
into them, and, for each of the last :data:`_WEIGHT_BASES` weight bases
asked for, its weights of them.

The table-read routes of :mod:`~rank_consensus.scores` and the oracle in
:mod:`~rank_consensus.reference` return the same support matrix and
supported-pattern types and check their parameters with the same
:func:`check_params`; all of them live here, so the oracle imports nothing
but this module.
"""
from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import ParameterError, PatternTableTooLargeError


@dataclass(frozen=True)
class Ranking:
    """An ordered preference list, possibly with ties and omissions.

    ``blocks`` is a tuple of tie blocks in preference order; items within a
    block are equally preferred. Blocks are normalized to sorted tuples so
    equal rankings compare and hash equal regardless of input order inside
    a block.
    """

    blocks: tuple[tuple[str, ...], ...]
    _positions: dict[str, int] = field(init=False, repr=False, compare=False)

    def __init__(self, blocks: Iterable[Iterable[str]]):
        # a one-item tuple, as the parser gives each plain item, is normal
        norm = tuple([block if type(block) is tuple and len(block) == 1
                      else tuple(sorted(block)) for block in blocks])
        if not norm:
            raise ValueError("a ranking needs at least one block")
        positions: dict[str, int] = {}
        for depth, block in enumerate(norm, start=1):
            if not block:
                raise ValueError("empty tie block")
            for token in block:
                if not isinstance(token, str) or not token:
                    raise ValueError(f"item tokens must be non-empty strings, got {token!r}")
                if token in positions:
                    raise ValueError(f"duplicate item {token!r} in ranking")
                positions[token] = depth
        object.__setattr__(self, "blocks", norm)
        object.__setattr__(self, "_positions", positions)

    @classmethod
    def strict(cls, items: Iterable[str]) -> "Ranking":
        """Build a ranking with no ties from an item sequence."""
        return cls((item,) for item in items)

    @property
    def items(self) -> tuple[str, ...]:
        """All items, block by block (sorted within a block)."""
        return tuple(self._positions)  # filled block by block

    @property
    def item_set(self) -> frozenset[str]:
        return frozenset(self._positions)

    @property
    def is_strict(self) -> bool:
        return len(self.blocks) == len(self._positions)

    def __len__(self) -> int:
        """Number of ranked items (counting every member of every block)."""
        return len(self._positions)

    def position(self, item: str) -> int:
        """1-based block index of ``item``, or 0 if the item is absent."""
        return self._positions.get(item, 0)


@dataclass(frozen=True)
class RankingSet:
    """An immutable collection of rankings over a shared item universe.

    Votes are deduplicated here once: ``types`` holds the distinct rankings
    in first-appearance order, ``type_of[l]`` vote ``l``'s type, read-only
    ``votes[t]`` the votes of type ``t``, and the universe the types' items.
    All consensus quantities are functions of ``(RankingSet, q, gamma, lambda)``.
    """

    rankings: tuple[Ranking, ...]
    types: tuple[Ranking, ...] = field(init=False, repr=False, compare=False)
    type_of: tuple[int, ...] = field(init=False, repr=False, compare=False)
    votes: np.ndarray = field(init=False, repr=False, compare=False)
    universe: frozenset[str] = field(init=False, compare=False)

    def __init__(self, rankings: Iterable[Ranking]):
        rs = tuple(rankings)  # keeps every vote alive while its id is a key
        if not rs:
            raise ValueError("a ranking set needs at least one ranking")
        index: dict[Ranking, int] = {}  # votes sharing one object are hashed once
        by_id = {i: index.setdefault(r, len(index)) for i, r in {id(r): r for r in rs}.items()}
        type_of = tuple([by_id[id(r)] for r in rs])
        votes = np.bincount(type_of)
        votes.flags.writeable = False
        object.__setattr__(self, "rankings", rs)
        object.__setattr__(self, "types", tuple(index))
        object.__setattr__(self, "type_of", type_of)
        object.__setattr__(self, "votes", votes)
        object.__setattr__(self, "universe", frozenset().union(*(r.item_set for r in index)))

    def __len__(self) -> int:
        return len(self.rankings)

    def __iter__(self):
        return iter(self.rankings)

    def __getitem__(self, index: int) -> Ranking:
        return self.rankings[index]

    def __reduce__(self):
        # pickle the rankings only; the rest is rebuilt, the table on demand
        return (RankingSet, (self.rankings,))

    @cached_property
    def pattern_stats(self) -> PatternTable:
        """Support statistics of every ordered pattern the set contains.

        Neither support nor the position/gap totals depend on a threshold or
        a weight, so every scoring run on this set reads the same read-only
        table.
        """
        return count_patterns(self)


@lru_cache(maxsize=None)
def lower_triangle(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the cells ``[j, i]``, ``i <= j``, of an
    ``m x m`` matrix, row by row; shared and read-only."""
    cells = np.tril_indices(m)
    for a in cells:
        a.flags.writeable = False
    return cells


@dataclass(frozen=True, eq=False)
class PatternTable:
    """Pattern counts of a ranking set, laid out length by length.

    ``by_length`` lists, per length ``m`` of the counted set's ``types``,
    ascending, ``(m, group, lo, hi)``: the ``k`` types of that length in
    first-appearance order own the entries ``lo:hi``, ``m(m+1)/2`` per type
    in that order, and the blocks tile the table. A type's entries are the
    cells of ``lower_triangle(m)``; cell ``[j, i]`` is the pattern formed by
    its i-th and j-th items, so ``a[lo:hi].reshape(k, -1)`` is one row of
    cells per type. Per entry, ``count`` (int32, at most a file's vote
    limit) is the pattern's support, ``total`` (int64) sums its position, on
    the diagonal ``rows == cols``, or its gap over the rankings that contain
    it, and ``value`` (int32) is the type's own position or gap: 16 bytes
    per entry. ``deviations`` and :meth:`weights` give the deviation
    weights, computed on first use. All arrays are read-only.
    """

    count: np.ndarray
    total: np.ndarray
    value: np.ndarray
    by_length: tuple[tuple[int, np.ndarray, int, int], ...]
    # weight base -> weight of each distinct deviation, filled by weights()
    # in order of first use; racing threads only compute equal arrays twice
    # or drop a base early
    weight_memo: dict[float, np.ndarray] = field(default_factory=dict, init=False, repr=False)

    def weights(self, base: float) -> np.ndarray:
        """The oracle's ``reference._weight`` of each distinct deviation of
        the entries; every one is exponentiated once per base while the base
        is among the last :data:`_WEIGHT_BASES` asked for, and the oldest
        base is dropped for a new one past them.

        The products ``deviation * log(base)`` are _weight's own, rounded
        alike by numpy, and each goes through the same ``math.exp``; a base
        of 1 or a deviation of 0 gives ``exp(±0.0) = 1.0``, as _weight does.
        """
        weights = self.weight_memo.get(base)
        if weights is None:
            weights = np.array(list(map(
                math.exp, (self.deviations[0] * math.log(base)).tolist())))
            weights.flags.writeable = False
            self.weight_memo[base] = weights
            for old in list(self.weight_memo)[:-_WEIGHT_BASES]:
                self.weight_memo.pop(old, None)
        return weights

    @cached_property
    def deviations(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct deviations ``|value - total/count|`` of the entries,
        ascending, and the int32 index of each entry's deviation among them.

        The two arrays equal ``np.unique(deviation, return_inverse=True)``.
        Each step of entries is ranked by :func:`unique_inverse` into its
        slice of the index. The steps' distinct values are then merged into
        the one sorted ``unique``, and each slice is remapped through
        ``np.searchsorted`` of its step's values in it. Beyond the index, 4
        bytes per entry, one step's arrays and the steps' distinct values
        are all that is allocated: on sweep's 222 241 entries the ranking
        peaks at 8 bytes per entry, where the whole table at once peaked at
        24 (tracemalloc).
        """
        index = np.empty(len(self.count), dtype=np.int32)
        step = max(1, _STEP_BYTES // 8)
        slices = [slice(lo, lo + step) for lo in range(0, len(index), step)]
        parts = []
        for at in slices:
            count = self.count[at]
            # exact integer numerator, as value * count can pass 2**31; no
            # temporary outlives the expression
            unique, index[at] = unique_inverse(
                np.abs(np.multiply(self.value[at], count, dtype=np.int64) - self.total[at])
                / count)
            parts.append(unique)
        unique = np.concatenate(parts)
        unique.sort()
        unique = unique[np.concatenate(([True], unique[1:] != unique[:-1]))]
        for at, part in zip(slices, parts):
            remap = np.searchsorted(unique, part).astype(np.int32)
            index[at] = remap.take(index[at], mode="clip")  # each is in range
        for a in (unique, index):
            a.flags.writeable = False
        return unique, index


def unique_inverse(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(a, return_inverse=True)`` of a NaN-free 1-d array, without
    its copies: the same read-only ``unique`` array, and the same ``inverse``
    values as int32 (int64 from 2**31 elements on).

    An argsort, the sorted copy, the run starts and their cumulative sum,
    each dropped once used. The reference to ``a`` goes as soon as the sorted
    copy exists, so an array a caller passes as a temporary is freed there.
    """
    order = a.argsort(kind="quicksort")  # np.unique's sort, so equal runs start alike
    ordered = a[order]
    del a
    starts = np.empty(len(ordered), dtype=bool)
    starts[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    unique = ordered[starts]
    del ordered
    index = np.int32 if len(starts) <= np.iinfo(np.int32).max else np.int64
    ranks = np.cumsum(starts, dtype=index)
    del starts
    ranks -= 1
    inverse = np.empty_like(ranks)
    inverse[order] = ranks
    for x in (unique, inverse):
        x.flags.writeable = False
    return unique, inverse


# count with a dense np.bincount over every key id(x)*U + id(y) while there
# are at most this many possible keys per key counted, and over the keys'
# ranks from unique_inverse otherwise, whose sort a sparse key space needs. The
# whole count of sweep (900 possible keys, 223 431 entries) takes 21 ms
# instead of 31, of retrieval (303 601 and 252 500) 17 ms instead of 28
_DENSE_KEYS = 2
# most bytes one step over the table may take, read whenever the table is
# counted, its deviations ranked or its batches filled: 8 per cell for the
# count's int64 arrays, where a whole length at once (fifty 100-item lists)
# peaked 5.6 MB higher, 8 per entry for the deviations' float array, where
# steps of 8 192 entries took 14 ms on sweep instead of 11, and 8 + 1 per
# matrix cell for scores.fill's float and bool batches, where 16 MB batches
# peaked 2.2 MB higher
_STEP_BYTES = 1 << 18
# most weight bases whose weights a table keeps: sweep's benchmark grid uses
# 2, the README's sweep 3. In one process on a 2-vCPU VM, sweep's 12-point
# grid scored in 35.7 ms with the memo and 40.9 ms without it (medians of 40
# alternating reps); without a bound, a sweep over 3 000 gammas on sweep's
# input held 8 bytes per distinct deviation per base and peaked at 173.4 MB
# against 41.0 MB with it (os.wait4)
_WEIGHT_BASES = 4
# most entries the pattern table of one set may have; each distinct ranking of
# m items owns m(m+1)/2, so one ranking may hold up to 2448 items. The
# heaviest commands, `score` and `patterns` as JSON at q = 1, print every
# entry as a supported pattern. On one strict ranking of 124 750, 374 545
# and 2 997 576 entries (499, 865 and 2448 items) `score` peaks at 85, 205
# and 1 168 MB as JSON, 380 to 470 bytes per entry over the 30 MB of a tiny
# input, and at 40, 60 and 262 MB as CSV, 77 to 79 bytes per entry (each
# the process's own peak from `os.wait4`)
MAX_ENTRIES = 3 * 10**6


def count_patterns(rset: RankingSet) -> PatternTable:
    """One vectorised pass per ranking length over the set's distinct rankings.

    A ranking contains ``x y`` when ``0 < pos(x) <= pos(y)``: its own
    lower-triangle cells, plus the reverse of every tied pair, and ``x x``
    is membership. The distinct rankings of one length ``m`` give their
    keys, positions and gaps as ``(k, m(m+1)/2)`` arrays taken over
    ``lower_triangle(m)``, a few rankings at a time, written straight into
    that length's block of the table. Two ``np.bincount`` calls weighted by
    the set's vote counts give the counts and totals, and ``np.add.at``
    adds the tied cells' reverse patterns to the counts. Float weights stay
    exact while the sums are below 2**53, far above any vote total the
    parsers accept. Each sum is narrowed to its column's dtype before it is
    gathered per entry.
    Raises :class:`PatternTableTooLargeError`, before allocating the table,
    when it would have more than :data:`MAX_ENTRIES` entries.
    """
    lengths = [len(r) for r in rset.types]
    n_own = sum(m * (m + 1) // 2 for m in lengths)
    if n_own > MAX_ENTRIES:
        longest = max(range(len(lengths)), key=lengths.__getitem__)
        raise PatternTableTooLargeError(
            f"vote {rset.type_of.index(longest)} ranks {lengths[longest]} items; the "
            f"distinct rankings would need {n_own} pattern table entries, above "
            f"the limit of {MAX_ENTRIES}")
    times = rset.votes.astype(float)
    ids = {x: i for i, x in enumerate(sorted(rset.universe))}
    u = len(ids)
    groups: dict[int, list[int]] = {}
    for t, m in enumerate(lengths):
        groups.setdefault(m, []).append(t)
    keys = np.empty(n_own, dtype=np.int64)
    value = np.empty(n_own, dtype=np.int32)
    weight = np.empty(n_own)
    by_length, ties, lo = [], [], 0
    for m, group in sorted(groups.items()):
        rows, cols = lower_triangle(m)
        on_diag = rows == cols
        group = np.array(group)
        hi = lo + len(group) * len(rows)
        by_length.append((m, group, lo, hi))
        block_keys, block_value = (a[lo:hi].reshape(len(group), len(rows)) for a in (keys, value))
        weight[lo:hi] = np.repeat(times[group], len(rows))
        lo = hi
        step = max(1, _STEP_BYTES // (8 * len(rows)))
        for i in range(0, len(group), step):
            part = group[i:i + step]
            members = [rset.types[t]._positions for t in part.tolist()]
            item = np.array([ids[x] for p in members for x in p], dtype=np.int64).reshape(-1, m)
            pos = np.array([v for p in members for v in p.values()], dtype=np.int64).reshape(-1, m)
            at = pos.take(rows, axis=1)  # several times faster than pos[:, rows]
            gap = at - pos.take(cols, axis=1)
            block_keys[i:i + step] = item.take(cols, axis=1) * u + item.take(rows, axis=1)
            block_value[i:i + step] = np.where(on_diag, at, gap)
            k, cell = np.nonzero((gap == 0) & ~on_diag)
            ties.append((item[k, rows[cell]] * u + item[k, cols[cell]], times[part[k]]))
    tied_keys = np.concatenate([key for key, _ in ties])
    tied_weight = np.concatenate([w for _, w in ties])
    if u * u <= _DENSE_KEYS * (n_own + len(tied_keys)):
        own, tied, n_slots = keys, tied_keys, u * u
    else:
        unique, inverse = unique_inverse(np.concatenate((keys, tied_keys)))
        own, tied, n_slots = inverse[:n_own], inverse[n_own:], len(unique)
    # the sparse route keeps only their ranks; the last block's view goes too
    del keys, tied_keys, block_keys
    counts = np.bincount(own, weights=weight, minlength=n_slots)
    np.add.at(counts, tied, tied_weight)
    count = counts.astype(np.int32)[own]
    del counts
    weight *= value
    totals = np.bincount(own, weights=weight, minlength=n_slots)
    # the spent weights' array takes each entry's total, and each array the
    # size of the table goes before the next is made; "clip" keeps np.take
    # from buffering its output, and every key is in range
    np.take(totals, own, out=weight, mode="clip")
    del totals, own, tied
    total = weight.astype(np.int64)
    del weight
    for a in (count, total, value):
        a.flags.writeable = False
    for _, group, _, _ in by_length:
        group.flags.writeable = False
    return PatternTable(count, total, value, tuple(by_length))


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

    ``per_type`` is indexed like the set's ``types``; the global patterns are
    their union. Pairs keep the order in which their owner ranking presents
    them, so both ``(x, y)`` and ``(y, x)`` may appear.
    """

    singles: tuple[str, ...]
    pairs: tuple[tuple[str, str], ...]
    per_type: tuple[RankingSupport, ...]


def check_params(rset: RankingSet, q: int, gamma: float, lam: float) -> None:
    """The one validator of a threshold and weights for ``rset``."""
    n = len(rset)
    if not isinstance(q, int) or isinstance(q, bool):
        raise ParameterError(f"q must be an integer, got {q!r}")
    if not 1 <= q <= n:
        raise ParameterError(f"q must be in [1, {n}], got {q}")
    for name, value in (("gamma", gamma), ("lambda", lam)):
        if not 0.0 < value <= 1.0:
            raise ParameterError(f"{name} must be in (0, 1], got {value}")
