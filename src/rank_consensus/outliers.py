"""Flagging rankings that drag the consensus down, and rescoring without them.

A ranking's relative deviation ``v = (kappa - mean kappa) / mean kappa`` is
computed separately for the item score and the pair score. Rankings whose
deviation falls below ``-eps`` on either score are flagged. The deviations
sum to zero by construction, so flags mark the low tail, not noise around
the mean.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import DegenerateConsensusError, ParameterError
from .model import RankingSet
from .scores import ConsensusReport, ScoreParams, score


@dataclass(frozen=True)
class RankingDeviation:
    index: int
    v1: float
    v2: float
    flagged: bool


@dataclass(frozen=True, eq=False)
class OutlierReport:
    """Deviations and flags, together with the consensus run they came from."""

    consensus: ConsensusReport
    eps1: float
    eps2: float
    per_ranking: tuple[RankingDeviation, ...]

    @property
    def flags(self) -> list[bool]:
        return [d.flagged for d in self.per_ranking]

    @property
    def flagged_indices(self) -> list[int]:
        return [d.index for d in self.per_ranking if d.flagged]

    @property
    def n_flagged(self) -> int:
        return len(self.flagged_indices)


def detect_outliers(report: ConsensusReport, eps1: float = 0.4, eps2: float = 0.4) -> OutlierReport:
    """Flag rankings whose score sits more than ``eps`` below the mean, relatively.

    The comparison is strict: a deviation of exactly ``-eps`` is not flagged.
    """
    for name, value in (("eps1", eps1), ("eps2", eps2)):
        if not value > 0:
            raise ParameterError(f"{name} must be positive, got {value}")
    mean1 = report.overall_kappa1
    mean2 = report.overall_kappa2
    if mean1 <= 0 or mean2 <= 0:
        raise DegenerateConsensusError(
            "relative deviations are undefined: mean scores are "
            f"kappa1={mean1}, kappa2={mean2}; raise q's reach or lower q"
        )
    deviations = []
    for rs in report.per_ranking:
        v1 = (rs.kappa1 - mean1) / mean1
        v2 = (rs.kappa2 - mean2) / mean2
        flagged = v1 < -eps1 or v2 < -eps2
        deviations.append(RankingDeviation(index=rs.index, v1=v1, v2=v2, flagged=flagged))
    return OutlierReport(consensus=report, eps1=eps1, eps2=eps2, per_ranking=tuple(deviations))


def remove_and_rescore(rset: RankingSet, outlier_report: OutlierReport, params: ScoreParams,
                       *, rescale_q: bool = True) -> ConsensusReport:
    """Drop the flagged rankings and score the remainder.

    By default the threshold keeps its *relative* strength: ``q`` becomes
    ``ceil(q/N * N')`` for the surviving count ``N'``, computed in integer
    arithmetic. With ``rescale_q=False`` the absolute ``q`` is kept (and must
    still be feasible for the smaller set).
    """
    if len(outlier_report.per_ranking) != len(rset):
        raise ParameterError(
            f"outlier report covers {len(outlier_report.per_ranking)} rankings, "
            f"the set has {len(rset)}"
        )
    keep = [i for i, d in enumerate(outlier_report.per_ranking) if not d.flagged]
    if not keep:
        raise ParameterError("every ranking was flagged; nothing left to score")
    survivors = RankingSet([rset[i] for i in keep])
    n_old = len(rset)
    n_new = len(survivors)
    if rescale_q:
        q_new = -(-params.q * n_new // n_old)  # ceil(q * n_new / n_old)
    else:
        q_new = params.q
    new_params = ScoreParams(q=q_new, gamma=params.gamma, lam=params.lam)
    return score(survivors, new_params)
