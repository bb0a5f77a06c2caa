"""Consensus scores built on the support matrices.

For ranking ``l`` with ``m`` items, ``kappa1`` is the matrix trace over
``m`` (share of its items whose membership reaches the threshold) and
``kappa2`` is the below-diagonal sum over ``m * (m - 1) / 2`` (share of its
ordered pairs that reach it). Overall scores average the per-ranking values.
With weights ``gamma``/``lam`` below 1, certified entries decay with the
distance between the owner ranking's placement and the set-wide mean
placement, so the scores reward agreement *and* proximity.

Rankings that share a matrix (duplicates) are scored once. A report's
supported-pattern sets are built only when first read.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import ParameterError
from .model import RankingSet
from .support import (
    SupportMatrix,
    SupportSets,
    support_matrices_fast,
    support_sets,
)


@dataclass(frozen=True)
class ScoreParams:
    """Threshold and weight configuration for a scoring run."""

    q: int
    gamma: float = 1.0
    lam: float = 1.0


def q_from_fraction(frac: Fraction | str | float, n_rankings: int) -> int:
    """Map a threshold fraction to ``q = ceil(frac * n)`` without float error.

    Accepts a string or Fraction; floats are routed through ``str`` first so
    e.g. ``0.67`` means the decimal 67/100, not its binary neighbour (whose
    ceil can come out one too high). A string without ``/`` is read as a
    ``Decimal``, which keeps ``1e-99999999`` as digits and an exponent where
    ``Fraction`` would build ``10**99999999``.
    """
    text = str(frac) if isinstance(frac, float) else frac
    try:
        value = Decimal(text) if isinstance(text, str) and "/" not in text else Fraction(text)
        in_range = 0 < value <= 1  # a Decimal NaN raises here
    except (ValueError, ArithmeticError):
        raise ParameterError(
            f"threshold fraction must be a number in (0, 1], got {frac!r}"
        ) from None
    if not in_range:
        # quoted as given: the value of e.g. "1e400" prints 401 digits
        raise ParameterError(f"threshold fraction must be in (0, 1], got {frac!r}")
    if isinstance(value, Decimal):
        if value.adjusted() < -len(str(n_rankings)):
            return 1  # value < 10**-len(str(n)) < 1/n
        value = Fraction(value)
    scaled = value * n_rankings
    return int(math.ceil(scaled)) if scaled.denominator > 1 else int(scaled)


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


@dataclass(frozen=True)
class RankingScore:
    """Scores of a single ranking.

    ``singleton`` marks rankings with one item, whose pair score is 0 by
    convention (there are no pairs to certify).
    """

    index: int
    m: int
    n_pairs: int
    kappa1: float
    kappa2: float
    singleton: bool = False


@dataclass(frozen=True, eq=False)
class ConsensusReport:
    """Everything a scoring run produced, in one place.

    ``sets`` is built from the matrices the first time it is read, so runs
    whose output never prints the supported patterns do not pay for them.
    """

    params: ScoreParams
    n_rankings: int
    per_ranking: tuple[RankingScore, ...]
    overall_kappa1: float
    overall_kappa2: float
    matrices: tuple[SupportMatrix, ...]

    @cached_property
    def sets(self) -> SupportSets:
        return support_sets(list(self.matrices))


def score(rset: RankingSet, params: ScoreParams) -> ConsensusReport:
    """Score every ranking in the set and average.

    Duplicate rankings share one matrix, which is scored once.
    """
    matrices = support_matrices_fast(rset, params.q, gamma=params.gamma, lam=params.lam)
    # keyed by array identity: every matrix, so every key, outlives the loop
    kappas: dict[int, tuple[float, float]] = {}
    per = []
    for mat in matrices:
        m = mat.m
        n_pairs = m * (m - 1) // 2
        kappa = kappas.get(id(mat.entries))
        if kappa is None:
            trace = float(np.trace(mat.entries))
            kappa2 = (float(mat.entries.sum()) - trace) / n_pairs if n_pairs else 0.0
            kappa = kappas[id(mat.entries)] = (trace / m, kappa2)
        per.append(RankingScore(index=mat.owner, m=m, n_pairs=n_pairs,
                                kappa1=kappa[0], kappa2=kappa[1], singleton=not n_pairs))
    n = len(per)
    overall1 = math.fsum(r.kappa1 for r in per) / n
    overall2 = math.fsum(r.kappa2 for r in per) / n
    return ConsensusReport(
        params=params,
        n_rankings=n,
        per_ranking=tuple(per),
        overall_kappa1=overall1,
        overall_kappa2=overall2,
        matrices=tuple(matrices),
    )
