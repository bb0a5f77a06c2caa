"""Core domain model: rankings, tie blocks, ranking sets and positions.

A ranking is an ordered sequence of tie blocks over opaque string items; a
strict ranking is the special case of all-singleton blocks. An item's
position is the 1-based index of its block, and 0 encodes absence, so every
downstream formula treats incomplete rankings uniformly. All types are
immutable after construction and safe to share across threads.

A set counts its patterns once, on first use, and keeps the result as a
:class:`PatternTable`: one vectorised pass over its distinct rankings gives
every ordered pattern's support and position/gap total, laid out per
distinct ranking in the cell order of its support matrix.
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
        object.__setattr__(
            self, "universe", frozenset().union(*(r.item_set for r in rs))
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
    gap. All arrays are read-only.
    """

    types: tuple[Ranking, ...]
    type_of: tuple[int, ...]
    offsets: np.ndarray
    count: np.ndarray
    total: np.ndarray
    value: np.ndarray
    diag: np.ndarray


def count_patterns(rankings: Iterable[Ranking]) -> PatternTable:
    """One vectorised pass over each distinct ranking's own ordered patterns.

    A ranking contains ``x y`` when ``0 < pos(x) <= pos(y)``: its own
    lower-triangle cells, plus the reverse of every tied pair, and ``x x``
    is membership. The keys of all distinct rankings go through one
    ``np.unique``; two ``np.bincount`` calls weighted by multiplicity give
    the counts and totals. Float weights stay exact while the sums are
    below 2**53, far above any vote total the parsers accept.
    """
    index: dict[Ranking, int] = {}
    type_of = tuple(index.setdefault(r, len(index)) for r in rankings)
    types = tuple(index)
    times = np.bincount(type_of).astype(float)
    ids = {x: i for i, x in enumerate(sorted(frozenset().union(*(r.item_set for r in types))))}
    u = len(ids)
    own, tied, values, diags = [], [], [], []
    for r in types:
        rows, cols = lower_triangle(len(r))
        item = np.array([ids[x] for x in r._positions], dtype=np.int64)
        pos = np.array(list(r._positions.values()), dtype=np.int64)
        gap = pos[rows] - pos[cols]
        diag = rows == cols
        tie = (gap == 0) & ~diag
        own.append(item[cols] * u + item[rows])
        tied.append(item[rows[tie]] * u + item[cols[tie]])
        values.append(np.where(diag, pos[rows], gap))
        diags.append(diag)
    sizes = [len(k) for k in own]
    n_own = sum(sizes)
    weight = np.concatenate((np.repeat(times, sizes), np.repeat(times, [len(k) for k in tied])))
    keys, inverse = np.unique(np.concatenate(own + tied), return_inverse=True)
    del own, tied
    value = np.concatenate(values)
    entry = inverse[:n_own]  # the pattern of each own cell
    counts = np.bincount(inverse, weights=weight).astype(np.int64)
    totals = np.bincount(entry, weights=weight[:n_own] * value,
                         minlength=len(keys)).astype(np.int64)
    arrays = dict(
        offsets=np.cumsum([0] + sizes),
        count=counts[entry], total=totals[entry], value=value,
        diag=np.concatenate(diags),
    )
    for a in arrays.values():
        a.flags.writeable = False
    return PatternTable(types=types, type_of=type_of, **arrays)

