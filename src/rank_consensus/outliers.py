"""Flagging rankings that drag the consensus down, and rescoring without them.

A ranking's relative deviation ``v = (kappa - mean kappa) / mean kappa`` is
computed separately for the item score and the pair score. Rankings whose
deviation falls below ``-eps`` on either score are flagged. The deviations
sum to zero by construction, so flags mark the low tail, not noise around
the mean. Deviations and flags are held once per distinct ranking, as the
scores are; a vote reads its row through the consensus run's ``type_of``.
"""
from __future__ import annotations

import math
import operator
from collections.abc import Iterable
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import compress, filterfalse

from .errors import DegenerateConsensusError, ParameterError
from .model import RankingSet
from .scores import ConsensusReport, ScoreParams, score


@dataclass(frozen=True, eq=False)
class OutlierReport:
    """Deviations and flags, together with the consensus run they came from.

    ``per_type`` holds ``(v1, v2, flagged)`` once per distinct ranking of
    the consensus run, so vote ``l``'s row is
    ``per_type[consensus.type_of[l]]``; ``flagged_indices``, the votes it
    flags, is built the first time it is read.
    """

    consensus: ConsensusReport
    eps1: float
    eps2: float
    per_type: tuple[tuple[float, float, bool], ...]

    @cached_property
    def flagged_indices(self) -> list[int]:
        flagged = [row[2] for row in self.per_type]
        type_of = self.consensus.type_of
        return list(compress(range(len(type_of)), map(flagged.__getitem__, type_of)))

    @property
    def n_flagged(self) -> int:
        return len(self.flagged_indices)


def detect_outliers(report: ConsensusReport, eps1: float = 0.4, eps2: float = 0.4) -> OutlierReport:
    """Flag rankings whose score sits more than ``eps`` below the mean, relatively.

    The comparison is strict: a deviation of exactly ``-eps`` is not flagged.
    Deviations are computed once per distinct ranking.
    """
    for name, value in (("eps1", eps1), ("eps2", eps2)):
        # a report prints them, and JSON has no infinity
        if not 0 < value < math.inf:
            raise ParameterError(f"{name} must be positive and finite, got {value}")
    mean1 = report.overall_kappa1
    mean2 = report.overall_kappa2
    if all(len(ranking) == 1 for ranking in report.rset.types):
        raise DegenerateConsensusError(
            "relative deviations are undefined: every ranking has a single item, "
            f"so there are no pairs and kappa2 is 0 by convention (kappa1={mean1})"
        )
    if mean1 <= 0 or mean2 <= 0:
        raise DegenerateConsensusError(
            "relative deviations are undefined: mean scores are "
            f"kappa1={mean1}, kappa2={mean2}; raise q's reach or lower q"
        )
    v1 = (report.kappa1 - mean1) / mean1
    v2 = (report.kappa2 - mean2) / mean2
    flagged = (v1 < -eps1) | (v2 < -eps2)
    return OutlierReport(consensus=report, eps1=eps1, eps2=eps2,
                         per_type=tuple(zip(v1.tolist(), v2.tolist(), flagged.tolist())))


def remove_and_rescore(rset: RankingSet, drop: Iterable[int], params: ScoreParams,
                       *, rescale_q: bool = True) -> ConsensusReport:
    """Drop the rankings at the indices ``drop`` and score the remainder.

    The CLI drops ``detect_outliers(...).flagged_indices``; any other choice
    of indices works the same way, and a repeated index drops its ranking
    once. By default the threshold keeps its *relative* strength: ``q``
    becomes ``ceil(q/N * N')`` for the surviving count ``N'``, computed in
    integer arithmetic. With ``rescale_q=False`` the absolute ``q`` is kept
    (and must still be feasible for the smaller set). The report records the
    surviving indices as ``original_indices``.
    """
    n_old = len(rset)
    gone = set()
    for i in drop:
        try:  # any integer but a bool, numpy's too
            index = None if isinstance(i, bool) else operator.index(i)
        except TypeError:
            index = None
        if index is None or not 0 <= index < n_old:
            raise ParameterError(f"cannot drop index {i!r}: the set has {n_old} rankings")
        gone.add(index)
    if len(gone) == n_old:
        raise ParameterError("every ranking was dropped; nothing left to score")
    kept = tuple(filterfalse(gone.__contains__, range(n_old)))
    survivors = RankingSet(map(rset.rankings.__getitem__, kept))
    q = -(-params.q * len(kept) // n_old) if rescale_q else params.q  # ceil(q * N' / N)
    return replace(score(survivors, replace(params, q=q)), original_indices=kept)
