"""Command-line front end.

    rank-consensus score INPUT --q-frac 0.5
    rank-consensus patterns INPUT --q 3 --format csv
    rank-consensus outliers INPUT --q-frac 0.67 --remove
    rank-consensus sweep INPUT --q-fracs 0.5,0.67 --lambdas 1,0.5
    rank-consensus correlate INPUT --measure kendall_topk --topk 10 --penalty 0.5

Exit codes: 0 success, 1 parameter/input errors, 2 unexpected failures.
Scoring reads the ranking set's pattern table, counted once per set, so
``sweep`` counts patterns once for its whole grid.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

from .baselines import TopKParams, pairwise_average
from .errors import ConsensusError, ParameterError
from .io import emit_patterns, emit_report, emit_sweep, parse_rankings
from .outliers import detect_outliers, remove_and_rescore
from .scores import ScoreParams, q_from_fraction, score

_DEFAULT_Q_FRAC = "1/2"


@dataclass(frozen=True)
class RunConfig:
    """One invocation, fully resolved from flags."""

    command: str
    input: str
    input_format: str = "lines"
    out_format: str = "json"
    q: int | None = None
    q_frac: str | None = None
    gamma: float = 1.0
    lam: float = 1.0
    eps1: float = 0.4
    eps2: float = 0.4
    remove: bool = False
    absolute_q: bool = False
    q_fracs: tuple[str, ...] = ()
    gammas: tuple[float, ...] = (1.0,)
    lams: tuple[float, ...] = (1.0,)
    measure: str = "kendall"
    topk: int | None = None
    penalty: float = 0.0
    ell: int | None = None

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "RunConfig":
        def get(name, default=None):
            return getattr(args, name, default)

        return cls(
            command=args.command,
            input=args.input,
            input_format=get("input_format", "lines"),
            out_format=get("out_format", "json"),
            q=get("q"),
            q_frac=get("q_frac"),
            gamma=get("gamma", 1.0),
            lam=get("lam", 1.0),
            eps1=get("eps1", 0.4),
            eps2=get("eps2", 0.4),
            remove=get("remove", False),
            absolute_q=get("absolute_q", False),
            q_fracs=tuple(get("q_fracs") or ()),
            gammas=tuple(get("gammas") or (1.0,)),
            lams=tuple(get("lams") or (1.0,)),
            measure=get("measure", "kendall"),
            topk=get("topk"),
            penalty=get("penalty", 0.0),
            ell=get("ell"),
        )

    def resolve_q(self, n_rankings: int) -> int:
        if self.q is not None:
            return self.q
        return q_from_fraction(self.q_frac or _DEFAULT_Q_FRAC, n_rankings)


def _str_list(text: str) -> list[str]:
    return [t.strip() for t in text.split(",") if t.strip()]


def _float_list(text: str) -> list[float]:
    return [float(t) for t in _str_list(text)]


def _add_input_args(sub: argparse.ArgumentParser, default_fmt: str = "json") -> None:
    sub.add_argument("input", help="path to the ranking file")
    sub.add_argument("--input-format", choices=["lines", "preflib"], default="lines",
                     help="input file format (default: lines)")
    sub.add_argument("--format", dest="out_format", choices=["json", "csv"],
                     default=default_fmt, help=f"output format (default: {default_fmt})")


def _add_score_args(sub: argparse.ArgumentParser) -> None:
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--q", type=int, default=None,
                       help="absolute support threshold (1..N)")
    group.add_argument("--q-frac", default=None,
                       help="threshold as a fraction of N, e.g. 0.5 or 2/3 "
                            f"(default: {_DEFAULT_Q_FRAC}); q = ceil(frac * N)")
    sub.add_argument("--gamma", type=float, default=1.0,
                     help="item weight base in (0, 1]; below 1 discounts items "
                          "far from their mean position (default: 1)")
    sub.add_argument("--lambda", dest="lam", type=float, default=1.0,
                     help="pair weight base in (0, 1]; below 1 discounts pairs "
                          "whose gap strays from the mean gap (default: 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rank-consensus",
        description="Consensus scores, support patterns and outliers for ranking sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_score = sub.add_parser("score", help="per-ranking and overall consensus scores")
    _add_input_args(p_score)
    _add_score_args(p_score)

    p_patterns = sub.add_parser("patterns", help="supported single items and ordered pairs")
    _add_input_args(p_patterns)
    _add_score_args(p_patterns)

    p_out = sub.add_parser("outliers", help="flag rankings far below the mean scores")
    _add_input_args(p_out)
    _add_score_args(p_out)
    p_out.add_argument("--eps1", type=float, default=0.4,
                       help="relative item-score deviation threshold (default: 0.4)")
    p_out.add_argument("--eps2", type=float, default=0.4,
                       help="relative pair-score deviation threshold (default: 0.4)")
    p_out.add_argument("--remove", action="store_true",
                       help="also rescore the set without the flagged rankings")
    p_out.add_argument("--absolute-q", action="store_true",
                       help="with --remove: keep q as-is instead of rescaling "
                            "to ceil(q/N * N')")

    p_sweep = sub.add_parser("sweep", help="score a grid of thresholds and weights")
    _add_input_args(p_sweep, default_fmt="csv")
    p_sweep.add_argument("--q-fracs", type=_str_list, default=["1/2"],
                         help="comma-separated threshold fractions (default: 1/2)")
    p_sweep.add_argument("--gammas", type=_float_list, default=[1.0],
                         help="comma-separated item weight bases (default: 1)")
    p_sweep.add_argument("--lambdas", dest="lams", type=_float_list, default=[1.0],
                         help="comma-separated pair weight bases (default: 1)")

    p_corr = sub.add_parser("correlate", help="pairwise-average rank correlations")
    _add_input_args(p_corr)
    p_corr.add_argument("--measure",
                        choices=["kendall", "spearman", "kendall_topk", "spearman_topk"],
                        default="kendall", help="correlation measure (default: kendall)")
    p_corr.add_argument("--topk", type=int, default=None,
                        help="prefix length k for the top-k measures")
    p_corr.add_argument("--penalty", type=float, default=0.0,
                        help="credit p in [0, 1] for pairs absent from one list "
                             "(kendall_topk; default: 0)")
    p_corr.add_argument("--ell", type=int, default=None,
                        help="position charged to missing items "
                             "(spearman_topk; default: k + 1)")
    return parser


def _run(cfg: RunConfig) -> str:
    rset = parse_rankings(cfg.input, cfg.input_format)
    n = len(rset)

    if cfg.command in ("score", "patterns", "outliers"):
        params = ScoreParams(q=cfg.resolve_q(n), gamma=cfg.gamma, lam=cfg.lam)
        report = score(rset, params)
        if cfg.command == "score":
            return emit_report(report, cfg.out_format)
        if cfg.command == "patterns":
            return emit_patterns(report, cfg.out_format)
        outrep = detect_outliers(report, eps1=cfg.eps1, eps2=cfg.eps2)
        rescored = None
        if cfg.remove:
            rescored = remove_and_rescore(rset, outrep, params, rescale_q=not cfg.absolute_q)
        return emit_report(outrep, cfg.out_format, rescored=rescored)

    if cfg.command == "sweep":
        if not cfg.q_fracs:
            raise ParameterError("--q-fracs is empty")
        if not cfg.gammas or not cfg.lams:
            raise ParameterError("--gammas and --lambdas must not be empty")
        rows = []
        for frac in cfg.q_fracs:
            q = q_from_fraction(frac, n)
            for gamma in cfg.gammas:
                for lam in cfg.lams:
                    rep = score(rset, ScoreParams(q=q, gamma=gamma, lam=lam))
                    rows.append({
                        "q": q,
                        "qOverN": frac,
                        "gamma": gamma,
                        "lambda": lam,
                        "kappa1": rep.overall_kappa1,
                        "kappa2": rep.overall_kappa2,
                    })
        return emit_sweep(rows, cfg.out_format)

    if cfg.command == "correlate":
        params = None
        if cfg.measure.endswith("_topk"):
            if cfg.topk is None:
                raise ParameterError(f"--topk is required for measure {cfg.measure!r}")
            params = TopKParams(k=cfg.topk, p=cfg.penalty, ell=cfg.ell)
        averages = pairwise_average(rset, cfg.measure, params)
        return emit_report(averages, cfg.out_format)

    raise ParameterError(f"unknown command {cfg.command!r}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage errors; fold the latter
        # into the parameter-error code
        return 0 if exc.code in (0, None) else 1
    try:
        out = _run(RunConfig.from_args(args))
    except (ConsensusError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - last-resort guard for exit code 2
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
