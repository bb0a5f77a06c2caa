"""Consensus of ranking sets via threshold-supported patterns.

Quantifies how much a set of (possibly tied, possibly truncated) rankings
agrees: items and ordered pairs contained in at least ``q`` of the rankings
are *supported*, each ranking is scored by the share of its own items and
pairs that are supported, and rankings scoring far below the mean can be
flagged and removed. Classical rank correlations are included as baselines.
"""
from .baselines import (
    PairwiseAverages,
    TopKParams,
    kendall_tau,
    kendall_tau_topk,
    pairwise_average,
    spearman_rho,
    spearman_rho_topk,
)
from .errors import ConsensusError, DegenerateConsensusError, ParameterError, ParseError
from .io import (
    emit_patterns,
    emit_report,
    emit_sweep,
    parse_rankings,
    parse_rankings_text,
    render_rankings,
)
from .model import Ranking, RankingSet
from .outliers import OutlierReport, RankingDeviation, detect_outliers, remove_and_rescore
from .scores import (
    ConsensusReport,
    RankingScore,
    ScoreParams,
    gap_deviation,
    mean_gap,
    mean_position,
    position_deviation,
    q_from_fraction,
    score,
)
from .support import (
    RankingSupport,
    SupportMatrix,
    SupportSets,
    support_count,
    support_matrices_fast,
    support_matrix_naive,
    support_sets,
)

__version__ = "0.1.0"

__all__ = [
    "ConsensusError",
    "ConsensusReport",
    "DegenerateConsensusError",
    "OutlierReport",
    "PairwiseAverages",
    "ParameterError",
    "ParseError",
    "Ranking",
    "RankingDeviation",
    "RankingScore",
    "RankingSet",
    "RankingSupport",
    "ScoreParams",
    "SupportMatrix",
    "SupportSets",
    "TopKParams",
    "detect_outliers",
    "emit_patterns",
    "emit_report",
    "emit_sweep",
    "gap_deviation",
    "kendall_tau",
    "kendall_tau_topk",
    "mean_gap",
    "mean_position",
    "pairwise_average",
    "parse_rankings",
    "parse_rankings_text",
    "position_deviation",
    "q_from_fraction",
    "remove_and_rescore",
    "render_rankings",
    "score",
    "spearman_rho",
    "spearman_rho_topk",
    "support_count",
    "support_matrices_fast",
    "support_matrix_naive",
    "support_sets",
]
