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
from .io import emit_patterns, emit_report, emit_sweep, parse_rankings
from .model import Ranking, RankingSet
from .outliers import OutlierReport, detect_outliers, remove_and_rescore
# not public: perfbench/check.py imports the oracle from here
from .reference import support_matrix_naive  # noqa: F401
from .scores import ConsensusReport, ScoreParams, q_from_fraction, score
from .support import support_matrices_fast

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
    "RankingSet",
    "ScoreParams",
    "TopKParams",
    "detect_outliers",
    "emit_patterns",
    "emit_report",
    "emit_sweep",
    "kendall_tau",
    "kendall_tau_topk",
    "pairwise_average",
    "parse_rankings",
    "q_from_fraction",
    "remove_and_rescore",
    "score",
    "spearman_rho",
    "spearman_rho_topk",
    "support_matrices_fast",
]
