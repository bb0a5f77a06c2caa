"""Core domain model: rankings, tie blocks, ranking sets and positions.

A ranking is an ordered sequence of tie blocks over opaque string items; a
strict ranking is the special case of all-singleton blocks. An item's
position is the 1-based index of its block, and 0 encodes absence, so every
downstream formula treats incomplete rankings uniformly. All types are
immutable after construction and safe to share across threads; a set
computes its pattern statistics once, on first use, and keeps them.
"""
from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType


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
        return tuple(token for block in self.blocks for token in block)

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
    def pattern_stats(self) -> Mapping[tuple[str, str], tuple[int, int]]:
        """``(count, total)`` for every ordered pattern some ranking contains.

        ``count`` is the pattern's support and ``total`` sums its position
        (``x x``) or its gap ``pos(y) - pos(x)`` over the rankings that
        contain it. Neither depends on a threshold or a weight, so every
        scoring run on this set reads the same read-only table.
        """
        return MappingProxyType(count_patterns(self.rankings))


def count_patterns(rankings: Iterable[Ranking]) -> dict[tuple[str, str], tuple[int, int]]:
    """One pass over each distinct ranking's own ordered patterns.

    A ranking contains ``x y`` when ``0 < pos(x) <= pos(y)``, so tied items
    give both orders and ``x x`` is membership. Duplicate rankings are
    counted once and weighted by their multiplicity.
    """
    stats: dict[tuple[str, str], tuple[int, int]] = {}
    for ranking, times in Counter(rankings).items():
        placed = list(ranking._positions.items())  # item order, positions ascending
        start = 0  # index of the first item in x's tie block
        for i, (x, px) in enumerate(placed):
            if px > placed[start][1]:
                start = i
            for y, py in placed[start:]:
                value = px if y == x else py - px
                count, total = stats.get((x, y), (0, 0))
                stats[x, y] = (count + times, total + times * value)
    return stats


def position(item: str, ranking: Ranking) -> int:
    """Functional form of :meth:`Ranking.position`."""
    return ranking.position(item)


def contains_pattern(x: str, y: str, ranking: Ranking) -> bool:
    """Functional form of :meth:`Ranking.contains_pattern`."""
    return ranking.contains_pattern(x, y)
