"""Consensus of ranking sets via threshold-supported patterns.

Quantifies how much a set of (possibly tied, possibly truncated) rankings
agrees: items and ordered pairs contained in at least ``q`` of the rankings
are *supported*, each ranking is scored by the share of its own items and
pairs that are supported, and rankings scoring far below the mean can be
flagged and removed. Classical rank correlations are included as baselines.

The public names are imported from their modules on first use, so that
``import rank_consensus`` loads no numpy: ``python -m rank_consensus.cli``
imports this package before the CLI sets numpy's thread count.
"""
import importlib

__version__ = "0.1.0"

# public name -> the module that defines it
_MODULE_OF = {
    "ConsensusError": "errors",
    "ConsensusReport": "scores",
    "DegenerateConsensusError": "errors",
    "OutlierReport": "outliers",
    "PairwiseAverages": "baselines",
    "ParameterError": "errors",
    "ParseError": "errors",
    "Ranking": "model",
    "RankingSet": "model",
    "ScoreParams": "scores",
    "TopKParams": "baselines",
    "detect_outliers": "outliers",
    "emit_patterns": "io",
    "emit_report": "io",
    "emit_sweep": "io",
    "kendall_tau": "baselines",
    "kendall_tau_topk": "baselines",
    "pairwise_average": "baselines",
    "parse_rankings": "io",
    "q_from_fraction": "scores",
    "remove_and_rescore": "outliers",
    "score": "scores",
    "spearman_rho": "baselines",
    "spearman_rho_topk": "baselines",
    "support_matrices_fast": "scores",
}

__all__ = sorted(_MODULE_OF)

# not public: perfbench/check.py imports the oracle from here
_MODULE_OF["support_matrix_naive"] = "reference"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:  # a submodule not yet imported lands here too
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups do not come back here
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
