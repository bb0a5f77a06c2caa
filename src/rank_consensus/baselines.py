"""Classical rank-correlation baselines for comparison with the support scores.

Complete-ranking Kendall tau and Spearman rho demand strict rankings over a
shared universe; the top-k variants compare prefixes of possibly different
lists, handling items missing from one side, and at ``k = n`` they are the
complete measures. All are pairwise measures;
:func:`pairwise_average` lifts any of them to a per-ranking and overall
summary of a whole set.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations, repeat

from .errors import ParameterError
from .model import Ranking, RankingSet


def _require_strict(r: Ranking, label: str) -> None:
    if not r.is_strict:
        raise ParameterError(f"{label} contains ties; correlation baselines need strict rankings")


def _require_comparable(a: Ranking, b: Ranking) -> None:
    _require_strict(a, "first ranking")
    _require_strict(b, "second ranking")
    if a.item_set != b.item_set:
        raise ParameterError("rankings cover different item sets; use a top-k measure")
    if len(a) < 2:
        raise ParameterError("need at least two items to correlate")


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def _pearson(xs: list[float], ys: list[float]) -> float:
    n = len(xs)
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    num = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    vx = math.fsum((x - mx) ** 2 for x in xs)
    vy = math.fsum((y - my) ** 2 for y in ys)
    if vx == 0 or vy == 0:
        raise ParameterError("zero variance in positions; correlation is undefined")
    return num / math.sqrt(vx * vy)


@dataclass(frozen=True)
class TopKParams:
    """Configuration for the top-k measures.

    ``p`` is the credit given to pairs absent from one list entirely
    (kendall only); ``ell`` the position charged to items missing from a
    list (spearman only; defaults to ``k + 1``). Checked once, when built.
    """

    k: int
    p: float = 0.0
    ell: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.k, int) or isinstance(self.k, bool) or self.k < 1:
            raise ParameterError(f"k must be a positive integer, got {self.k!r}")
        if not 0.0 <= self.p <= 1.0:
            raise ParameterError(f"p must be in [0, 1], got {self.p}")
        if self.ell is not None and self.ell < self.k + 1:
            raise ParameterError(f"ell must be at least k + 1 = {self.k + 1}, got {self.ell}")
        # positions are floats: above 2**53 they are no longer exact, by
        # 10**100 cancellation gives a wrong rho and by 10**155 its sums
        # overflow
        if self.ell is not None and self.ell > 2**53:
            raise ParameterError(f"ell must be at most 2**53 = {2**53}, got {self.ell}")

    @property
    def resolved_ell(self) -> int:
        return self.k + 1 if self.ell is None else self.ell


def _topk_prefixes(a: Ranking, b: Ranking, k: int) -> tuple[dict[str, int], dict[str, int]]:
    _require_strict(a, "first ranking")
    _require_strict(b, "second ranking")
    if k > len(a) or k > len(b):
        raise ParameterError(f"k={k} exceeds a ranking's length ({len(a)} and {len(b)})")
    pos_a = {t: i for i, t in enumerate(a.items[:k], start=1)}
    pos_b = {t: i for i, t in enumerate(b.items[:k], start=1)}
    return pos_a, pos_b


def _order(px: int | None, py: int | None) -> int:
    # Missing items sit below every listed one.
    if px is None:
        return 1
    if py is None:
        return -1
    return _sign(px - py)


def kendall_tau_topk(a: Ranking, b: Ranking, params: TopKParams) -> float:
    """Kendall tau over the union of the two top-k prefixes.

    Pairs fall into three cases:
      * both items in both prefixes: ordinary concordance, +1 or -1;
      * one item missing from one prefix: the missing item is known to sit
        below the listed one there, so concordance is still decidable;
      * a pair entirely absent from one prefix: undecidable, scored ``p``
        (0 = neutral-pessimistic, 1/2 = random, 1 = optimistic).
    The sum is normalised by the number of union pairs.
    """
    pos_a, pos_b = _topk_prefixes(a, b, params.k)
    union = sorted(set(pos_a) | set(pos_b))
    n_pairs = len(union) * (len(union) - 1) // 2
    if n_pairs == 0:
        raise ParameterError("top-k union has fewer than two items")
    # the decided pairs sum as an integer and p is added once, so the value
    # does not depend on the order in which the item names sort
    decided = undecided = 0
    for x, y in combinations(union, 2):
        ax, ay = pos_a.get(x), pos_a.get(y)
        bx, by = pos_b.get(x), pos_b.get(y)
        if (ax is None and ay is None) or (bx is None and by is None):
            undecided += 1
        else:
            decided += _order(ax, ay) * _order(bx, by)
    return (decided + params.p * undecided) / n_pairs


def spearman_rho_topk(a: Ranking, b: Ranking, params: TopKParams) -> float:
    """Spearman rho over the union of the two top-k prefixes.

    Items missing from a prefix are charged the fixed position ``ell``
    (default ``k + 1``), then positions are Pearson-correlated as usual.
    """
    pos_a, pos_b = _topk_prefixes(a, b, params.k)
    union = sorted(set(pos_a) | set(pos_b))
    if len(union) < 2:
        raise ParameterError("top-k union has fewer than two items")
    ell = float(params.resolved_ell)
    xs = [float(pos_a.get(t, ell)) for t in union]
    ys = [float(pos_b.get(t, ell)) for t in union]
    return _pearson(xs, ys)


def kendall_tau(a: Ranking, b: Ranking) -> float:
    """Kendall tau over the shared universe: concordant minus discordant
    pairs, which is :func:`kendall_tau_topk` at ``k = len(a)``."""
    _require_comparable(a, b)
    return kendall_tau_topk(a, b, TopKParams(len(a)))


def spearman_rho(a: Ranking, b: Ranking) -> float:
    """Spearman rho over the shared universe: Pearson correlation of
    positions, which is :func:`spearman_rho_topk` at ``k = len(a)``."""
    _require_comparable(a, b)
    return spearman_rho_topk(a, b, TopKParams(len(a)))


_MEASURES = {
    "kendall": lambda a, b, params: kendall_tau(a, b),
    "spearman": lambda a, b, params: spearman_rho(a, b),
    "kendall_topk": kendall_tau_topk,
    "spearman_topk": spearman_rho_topk,
}


@dataclass(frozen=True)
class PairwiseAverages:
    """Per-ranking mean correlation against the rest of the set, plus the grand mean."""

    measure: str
    per_ranking: tuple[float, ...]
    overall: float


def pairwise_average(rset: RankingSet, measure: str,
                     params: TopKParams | None = None) -> PairwiseAverages:
    """Average a pairwise measure over all ordered pairs of distinct votes.

    The measure is called once per ordered pair of the set's distinct
    rankings, and on a ranking's pair with itself only when it has two
    votes or more. Vote ``l``'s mean is the ``math.fsum`` of its type's row,
    each value repeated once per other vote of that type, over ``n - 1``:
    the multiset a vote-by-vote scan sums, so the same float. A failure
    names the votes ``(l, z)`` at which that scan fails first.
    """
    try:
        fn = _MEASURES[measure]
    except KeyError:
        raise ParameterError(
            f"unknown measure {measure!r}; expected one of {sorted(_MEASURES)}"
        ) from None
    if measure.endswith("_topk"):
        if params is None:
            raise ParameterError(f"measure {measure!r} needs TopKParams")
    n = len(rset)
    if n < 2:
        raise ParameterError("need at least two rankings to average pairwise measures")
    votes = rset.votes.tolist()
    means = []
    for a, ranking in enumerate(rset.types):
        others = votes.copy()
        others[a] -= 1
        try:
            row = [fn(ranking, other, params) if k else 0.0
                   for other, k in zip(rset.types, others)]
        except ParameterError:
            # the first vote of this type is the first whose scan fails
            # (every vote before it has an earlier type); scan it to name z
            l = rset.type_of.index(a)
            for z in range(n):
                if z == l:
                    continue
                try:
                    fn(rset[l], rset[z], params)
                except ParameterError as exc:
                    raise ParameterError(
                        f"{measure} failed for rankings ({l}, {z}): {exc}") from exc
            raise
        means.append(math.fsum(chain.from_iterable(map(repeat, row, others))) / (n - 1))
    per = [means[t] for t in rset.type_of]
    overall = math.fsum(per) / n
    return PairwiseAverages(measure=measure, per_ranking=tuple(per), overall=overall)
