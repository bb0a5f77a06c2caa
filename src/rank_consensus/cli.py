"""Command-line front end.

    rank-consensus score INPUT --q-frac 0.5
    rank-consensus patterns INPUT --q 3 --format csv
    rank-consensus outliers INPUT --q-frac 0.67 --remove
    rank-consensus sweep INPUT --q-fracs 0.5,0.67 --lambdas 1,0.5
    rank-consensus correlate INPUT --measure kendall_topk --topk 10 --penalty 0.5

Exit codes: 0 success, 1 parameter/input errors or a report that could not
be written (say, to a closed pipe), 2 unexpected failures.
Scoring reads the ranking set's pattern table, counted once per set, so
``sweep`` counts patterns once for its whole grid.
"""
from __future__ import annotations

import argparse
import codecs
import os
import sys
from io import RawIOBase

from .baselines import TopKParams, pairwise_average
from .errors import ConsensusError, ParameterError, PatternTableTooLargeError
from .io import emit_patterns, emit_report, emit_sweep, parse_rankings
from .outliers import detect_outliers, remove_and_rescore
from .scores import ScoreParams, q_from_fraction, score


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
    group.add_argument("--q-frac", default="1/2",
                       help="threshold as a fraction of N, e.g. 0.5 or 2/3 "
                            "(default: %(default)s); q = ceil(frac * N)")
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


def _q(flag: str, frac: str, n: int) -> int:
    try:
        return q_from_fraction(frac, n)
    except ParameterError as exc:
        raise ParameterError(f"{flag}: {exc}") from None


def _score(rset, params: ScoreParams, source: str):
    try:
        return score(rset, params)
    except PatternTableTooLargeError as exc:  # counting does not know the file
        raise PatternTableTooLargeError(f"{source}: {exc}") from None


def _run(args: argparse.Namespace) -> str:
    rset = parse_rankings(args.input, args.input_format)
    n = len(rset)

    if args.command in ("score", "patterns", "outliers"):
        q = args.q if args.q is not None else _q("--q-frac", args.q_frac, n)
        params = ScoreParams(q=q, gamma=args.gamma, lam=args.lam)
        report = _score(rset, params, args.input)
        if args.command == "score":
            return emit_report(report, args.out_format)
        if args.command == "patterns":
            return emit_patterns(report, args.out_format)
        outrep = detect_outliers(report, eps1=args.eps1, eps2=args.eps2)
        rescored = None
        if args.remove:
            rescored = remove_and_rescore(rset, outrep.flagged_indices, params,
                                          rescale_q=not args.absolute_q)
        return emit_report(outrep, args.out_format, rescored=rescored)

    if args.command == "sweep":
        for flag, values in (("--q-fracs", args.q_fracs), ("--gammas", args.gammas),
                             ("--lambdas", args.lams)):
            if not values:
                raise ParameterError(f"{flag} is empty")
        rows = []
        for frac in args.q_fracs:
            q = _q("--q-fracs", frac, n)
            for gamma in args.gammas:
                for lam in args.lams:
                    rep = _score(rset, ScoreParams(q=q, gamma=gamma, lam=lam), args.input)
                    rows.append({
                        "q": q,
                        "qOverN": frac,
                        "gamma": gamma,
                        "lambda": lam,
                        "kappa1": rep.overall_kappa1,
                        "kappa2": rep.overall_kappa2,
                    })
        return emit_sweep(rows, args.out_format)

    params = None
    if args.measure.endswith("_topk"):
        if args.topk is None:
            raise ParameterError(f"--topk is required for measure {args.measure!r}")
        params = TopKParams(k=args.topk, p=args.penalty, ell=args.ell)
    averages = pairwise_average(rset, args.measure, params)
    return emit_report(averages, args.out_format)


def _reject_separator_values(argv: list[str]) -> None:
    """Raise for an option written ``--name=--``: argparse stores ``[]`` for
    it without calling the option's type or checking its choices."""
    for token in argv:
        if token == "--":
            return  # the rest is positional
        flag, _, value = token.partition("=")
        if flag.startswith("--") and value == "--":
            raise ParameterError(f"{flag} needs a value, got '--'")


# characters of a report written per call, so that no encoded copy of the
# whole report is made
_SLICE = 1 << 18


def _write(text: str) -> None:
    """Write ``text`` to stdout in slices of :data:`_SLICE` characters.

    Raises :class:`OSError` before the first byte when stdout's encoding
    cannot encode the text.
    """
    out = sys.stdout
    if out is None:  # Python starts without one when fd 1 is closed
        raise OSError("stdout is closed")
    encoding = getattr(out, "encoding", None)  # a StringIO has none
    # every name was decoded as strict UTF-8, so only another encoding fails
    if encoding and codecs.lookup(encoding).name != "utf-8":
        for start in range(0, len(text), _SLICE):
            try:
                text[start:start + _SLICE].encode(encoding, out.errors)
            except UnicodeEncodeError as exc:
                raise OSError(f"stdout's encoding {encoding} cannot encode "
                              f"{exc.object[exc.start]!r}") from None
    raw = getattr(out, "buffer", None)
    if isinstance(raw, RawIOBase):
        # unbuffered stdout (python -u): the text layer drops what a short
        # write of the file leaves, so the bytes are written here
        out.flush()
        for start in range(0, len(text), _SLICE):
            data = memoryview(text[start:start + _SLICE].encode(out.encoding, out.errors))
            while data:
                data = data[raw.write(data):]
    else:
        for start in range(0, len(text), _SLICE):
            out.write(text[start:start + _SLICE])
        out.flush()


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage errors; fold the latter
        # into the parameter-error code
        return 0 if exc.code in (0, None) else 1
    try:
        _reject_separator_values(argv)
        out = _run(args)
    except (ConsensusError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - last-resort guard for exit code 2
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    try:
        _write(out)
    except OSError as exc:
        # e.g. the reader closed the pipe; stdout goes to devnull so that
        # flushing it at exit cannot fail again
        if sys.stdout is not None:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write the report: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
