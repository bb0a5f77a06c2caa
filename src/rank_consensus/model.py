"""Core domain model: rankings, tie blocks, ranking sets and positions.

A ranking is an ordered sequence of tie blocks over opaque string items; a
strict ranking is the special case of all-singleton blocks. An item's
position is the 1-based index of its block, and 0 encodes absence, so every
downstream formula treats incomplete rankings uniformly. All types are
immutable after construction and safe to share across threads.

A set counts its patterns once, on first use, and keeps the result as a
:class:`PatternTable`: one vectorised pass per ranking length over its
distinct rankings gives every ordered pattern's support and position/gap
total, laid out per distinct ranking in the cell order of its support
matrix. The table also keeps what every threshold and weight reads alike:
the batch layout by length, and, once a weighted run asks, the distinct
deviations and each weight base's weights of them.
"""
from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np


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
        norm = tuple(tuple(sorted(block)) for block in blocks)
        if not norm:
            raise ValueError("a ranking needs at least one block")
        seen: set[str] = set()
        for block in norm:
            if not block:
                raise ValueError("empty tie block")
            for token in block:
                if not isinstance(token, str) or not token:
                    raise ValueError(f"item tokens must be non-empty strings, got {token!r}")
                if token in seen:
                    raise ValueError(f"duplicate item {token!r} in ranking")
                seen.add(token)
        object.__setattr__(self, "blocks", norm)
        positions = {}
        for depth, block in enumerate(norm, start=1):
            for token in block:
                positions[token] = depth
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
        return all(len(block) == 1 for block in self.blocks)

    def __len__(self) -> int:
        """Number of ranked items (counting every member of every block)."""
        return len(self._positions)

    def position(self, item: str) -> int:
        """1-based block index of ``item``, or 0 if the item is absent."""
        return self._positions.get(item, 0)

    def contains_pattern(self, x: str, y: str) -> bool:
        """True iff ``x`` is ranked at or before ``y`` and both are present.

        Tied items satisfy both orders; ``contains_pattern(x, x)`` is plain
        membership.
        """
        px = self._positions.get(x, 0)
        if px == 0:
            return False
        py = self._positions.get(y, 0)
        return py != 0 and px <= py


@dataclass(frozen=True)
class RankingSet:
    """An immutable collection of rankings over a shared item universe.

    The universe is derived from the rankings themselves; all consensus
    quantities are functions of ``(RankingSet, q, gamma, lambda)``.
    """

    rankings: tuple[Ranking, ...]
    universe: frozenset[str] = field(init=False, compare=False)

    def __init__(self, rankings: Iterable[Ranking]):
        rs = tuple(rankings)
        if not rs:
            raise ValueError("a ranking set needs at least one ranking")
        object.__setattr__(self, "rankings", rs)
        # votes often share one Ranking object: read each object's items once
        distinct = {id(r): r for r in rs}.values()
        object.__setattr__(
            self, "universe", frozenset().union(*(r.item_set for r in distinct))
        )

    def __len__(self) -> int:
        return len(self.rankings)

    def __iter__(self):
        return iter(self.rankings)

    def __getitem__(self, index: int) -> Ranking:
        return self.rankings[index]

    def __reduce__(self):
        # pickle the rankings only; the cached table is recounted on demand
        return (RankingSet, (self.rankings,))

    @cached_property
    def pattern_stats(self) -> PatternTable:
        """Support statistics of every ordered pattern the set contains.

        Neither support nor the position/gap totals depend on a threshold or
        a weight, so every scoring run on this set reads the same read-only
        table.
        """
        return count_patterns(self.rankings)


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
    """Pattern counts of a ranking set, laid out per distinct ranking.

    ``types`` are the distinct rankings in order of first appearance and
    ``type_of[l]`` is the type of vote ``l``. Type ``t`` owns the entries
    ``offsets[t]:offsets[t + 1]``, one per cell of
    ``lower_triangle(len(types[t]))``; cell ``[j, i]`` is the pattern formed
    by its i-th and j-th items. Per entry, ``count`` is the pattern's
    support, ``total`` sums its position (``diag``) or its gap over the
    rankings that contain it, and ``value`` is the type's own position or
    gap.

    ``by_length`` is the batch layout: per length ``m`` of the types,
    ascending, ``(m, index, span)`` with the ``k`` types of that length in
    first-appearance order and the ``(k, m(m+1)/2)`` entries they own; the
    spans are views of one index array. ``deviations`` and ``weight_memo``
    hold the deviation weights, computed on first use. All arrays are
    read-only.
    """

    types: tuple[Ranking, ...]
    type_of: tuple[int, ...]
    offsets: np.ndarray
    count: np.ndarray
    total: np.ndarray
    value: np.ndarray
    diag: np.ndarray
    by_length: tuple[tuple[int, np.ndarray, np.ndarray], ...]
    # weight base -> weight of each distinct deviation, filled by support.py;
    # threads racing on one base only compute equal arrays twice
    weight_memo: dict[float, np.ndarray] = field(default_factory=dict, init=False, repr=False)

    @cached_property
    def deviations(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct deviations ``|value - total/count|`` of the entries,
        ascending, and the int32 index of each entry's deviation among them.

        The two arrays equal ``np.unique(deviation, return_inverse=True)``;
        ranked by :func:`unique_inverse`, they peak at 24 bytes per table
        entry instead of 49 (tracemalloc, sweep's 223 431 entries), and only
        the index, 4 bytes per entry, stays.
        """
        # exact integer numerator; no temporary outlives the expression
        return unique_inverse(np.abs(self.value * self.count - self.total) / self.count)


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
# most cells one step of the count gathers at once: each temporary array is
# then at most 256 KB, where a whole length at once (fifty 100-item lists)
# peaked 5.6 MB higher
_COUNT_CELLS = 1 << 15


def count_patterns(rankings: Iterable[Ranking]) -> PatternTable:
    """One vectorised pass per ranking length over the distinct rankings.

    A ranking contains ``x y`` when ``0 < pos(x) <= pos(y)``: its own
    lower-triangle cells, plus the reverse of every tied pair, and ``x x``
    is membership. The distinct rankings of one length ``m`` give their
    keys, positions and gaps as ``(k, m(m+1)/2)`` arrays taken over
    ``lower_triangle(m)``, a few rankings at a time, and write them straight
    into the per-type layout. Two ``np.bincount`` calls weighted by
    multiplicity give the counts and totals. Float weights stay exact while
    the sums are below 2**53, far above any vote total the parsers accept.
    """
    rankings = tuple(rankings)  # keeps every vote alive while its id is a key
    index: dict[Ranking, int] = {}
    by_id: dict[int, int] = {}  # votes sharing one object are hashed once
    for r in rankings:
        if id(r) not in by_id:
            by_id[id(r)] = index.setdefault(r, len(index))
    type_of = tuple([by_id[id(r)] for r in rankings])
    types = tuple(index)
    times = np.bincount(type_of).astype(float)
    ids = {x: i for i, x in enumerate(sorted(set().union(*(r._positions for r in types))))}
    u = len(ids)
    lengths = [len(r) for r in types]
    groups: dict[int, list[int]] = {}
    for t, m in enumerate(lengths):
        groups.setdefault(m, []).append(t)
    offsets = np.zeros(len(types) + 1, dtype=np.int64)
    np.cumsum([m * (m + 1) // 2 for m in lengths], out=offsets[1:])
    n_own = int(offsets[-1])
    keys = np.empty(n_own, dtype=np.int64)
    value = np.empty(n_own, dtype=np.int64)
    diag = np.empty(n_own, dtype=bool)
    order = np.empty(n_own, dtype=np.int64)  # the entries, length by length
    by_length, ties, start = [], [], 0
    for m, group in sorted(groups.items()):
        rows, cols = lower_triangle(m)
        on_diag = rows == cols
        group = np.array(group)
        spans = order[start:start + len(group) * len(rows)].reshape(len(group), len(rows))
        np.add(offsets[group][:, None], np.arange(len(rows)), out=spans)
        by_length.append((m, group, spans))
        start += spans.size
        step = max(1, _COUNT_CELLS // len(rows))
        for i in range(0, len(group), step):
            part, span = group[i:i + step], spans[i:i + step]
            members = [types[t]._positions for t in part.tolist()]
            item = np.array([ids[x] for p in members for x in p], dtype=np.int64).reshape(-1, m)
            pos = np.array([v for p in members for v in p.values()], dtype=np.int64).reshape(-1, m)
            at = pos.take(rows, axis=1)  # several times faster than pos[:, rows]
            gap = at - pos.take(cols, axis=1)
            keys[span] = item.take(cols, axis=1) * u + item.take(rows, axis=1)
            value[span] = np.where(on_diag, at, gap)
            diag[span] = on_diag
            k, cell = np.nonzero((gap == 0) & ~on_diag)
            ties.append((item[k, rows[cell]] * u + item[k, cols[cell]], times[part[k]]))
    tied_keys = np.concatenate([key for key, _ in ties])
    tied_weight = np.concatenate([w for _, w in ties])
    weight = np.repeat(times, np.diff(offsets))
    if u * u <= _DENSE_KEYS * (n_own + len(tied_keys)):
        own, tied, n_slots = keys, tied_keys, u * u
    else:
        unique, inverse = unique_inverse(np.concatenate((keys, tied_keys)))
        own, tied, n_slots = inverse[:n_own], inverse[n_own:], len(unique)
    del keys, tied_keys  # the sparse route keeps only their ranks
    counts = np.bincount(own, weights=weight, minlength=n_slots)
    counts += np.bincount(tied, weights=tied_weight, minlength=n_slots)
    count = counts[own].astype(np.int64)
    del counts  # each array the size of the table goes before the next is made
    weight *= value
    totals = np.bincount(own, weights=weight, minlength=n_slots)
    del weight
    total = totals[own].astype(np.int64)
    for a in (offsets, count, total, value, diag, order):
        a.flags.writeable = False
    for _, group, spans in by_length:
        group.flags.writeable = spans.flags.writeable = False
    return PatternTable(types, type_of, offsets, count, total, value, diag, tuple(by_length))
