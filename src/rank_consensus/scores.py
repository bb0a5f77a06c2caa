"""Consensus scores built on the support matrices.

For ranking ``l`` with ``m`` items, ``kappa1`` is the matrix trace over
``m`` (share of its items whose membership reaches the threshold) and
``kappa2`` is the below-diagonal sum over ``m * (m - 1) / 2`` (share of its
ordered pairs that reach it). Overall scores average the per-ranking values.
With weights ``gamma``/``lam`` below 1, certified entries decay with the
distance between the owner ranking's placement and the set-wide mean
placement, so the scores reward agreement *and* proximity.

Scores are reduced from the support matrices batched by ranking length:
each distinct ranking is scored once, by ``np.trace`` and a sum over its
matrix in a batch, filled from one slice of the set's pattern table and
dropped once reduced. Everything that depends on the set alone (counts,
their length-by-length layout, deviation weights) is kept with the set, so
scoring one set at many grid points, as ``sweep`` does, pays per point only
for thresholding, weighting, filling and reducing. A report holds just the
set, its parameters and the per-type scores, so a kept report adds no
array the size of the table. Vote ``l``'s scores are the set's
``per_type[type_of[l]]``. Its supported patterns, read off the table and
sorted once per distinct ranking, are built only when first read; the
per-vote matrices are :func:`~rank_consensus.support.support_matrices_fast`'s,
which no command calls.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import support
from .errors import ParameterError
from .model import RankingSet
# support_matrices_fast and support_sets are not called here, but
# perfbench/spans.py traces them under this module's name
from .reference import support_sets  # noqa: F401
from .support import SupportSets, support_matrices_fast  # noqa: F401


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


@dataclass(frozen=True, eq=False)
class ConsensusReport:
    """Everything a scoring run produced, in one place.

    Scores are held once per distinct ranking: ``kappa1``/``kappa2`` are
    indexed like ``rset.types``, and ``type_of[l]`` is the type of vote
    ``l``. Besides them a report holds just the scored ``rset`` and the
    ``params``; the supported-pattern ``sets``, held per distinct ranking
    like the scores, are built from those two the first time they are read,
    so runs whose output never prints them neither pay for them nor keep them.
    ``original_indices`` records, for a report of
    :func:`~rank_consensus.outliers.remove_and_rescore`, the index in the
    original set of each vote it scored; it is ``None`` for a report of a
    whole set.
    """

    params: ScoreParams
    overall_kappa1: float
    overall_kappa2: float
    rset: RankingSet
    kappa1: np.ndarray
    kappa2: np.ndarray
    original_indices: tuple[int, ...] | None = None

    @property
    def n_rankings(self) -> int:
        return len(self.rset)

    @property
    def type_of(self) -> tuple[int, ...]:
        return self.rset.type_of

    @cached_property
    def per_type(self) -> tuple[tuple[int, int, float, float, bool], ...]:
        """``(m, n_pairs, kappa1, kappa2, singleton)`` of each distinct ranking;
        ``singleton`` marks a one-item ranking, whose ``kappa2`` is 0 by
        convention (it has no pairs to certify)."""
        rows = []
        for ranking, kappa1, kappa2 in zip(self.rset.types, self.kappa1.tolist(),
                                           self.kappa2.tolist()):
            m = len(ranking)
            n_pairs = m * (m - 1) // 2
            rows.append((m, n_pairs, kappa1, kappa2, not n_pairs))
        return tuple(rows)

    @cached_property
    def sets(self) -> SupportSets:
        return support.sets(self.rset, self.params.q)


def score(rset: RankingSet, params: ScoreParams) -> ConsensusReport:
    """Score every ranking in the set and average.

    Each distinct ranking is scored once, from a batch of matrices of its
    length; batches are filled one at a time and dropped once reduced. The
    averages sum every vote's scores with ``math.fsum``.
    """
    support._check_params(rset, params.q, params.gamma, params.lam)
    kappa1 = np.empty(len(rset.types))
    kappa2 = np.zeros(len(rset.types))  # 0 by convention without pairs
    for group, _, entries in support.fill(rset.pattern_stats, params.q, params.gamma,
                                          params.lam):
        m = entries.shape[1]
        n_pairs = m * (m - 1) // 2
        trace = np.trace(entries, axis1=1, axis2=2)
        kappa1[group] = trace / m
        if n_pairs:
            kappa2[group] = (entries.sum(axis=(1, 2)) - trace) / n_pairs
    for a in (kappa1, kappa2):
        a.flags.writeable = False
    n = len(rset)
    return ConsensusReport(
        params=params,
        overall_kappa1=math.fsum(np.repeat(kappa1, rset.votes).tolist()) / n,
        overall_kappa2=math.fsum(np.repeat(kappa2, rset.votes).tolist()) / n,
        rset=rset,
        kappa1=kappa1,
        kappa2=kappa2,
    )
