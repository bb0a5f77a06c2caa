"""Sweep the threshold fraction and weight bases on a ranking file and
print how the overall consensus scores respond.

Weighted scores are bounded by the plain ones, and all scores fall as q
rises; this makes the trade-off between "how many rankings must agree"
and "how closely their placements must agree" visible at a glance.

Usage:
    python scripts/weight_sweep.py INPUT [--input-format lines|preflib]
"""
import argparse
import sys

from rank_consensus import ConsensusError, ScoreParams, parse_rankings, q_from_fraction, score

Q_FRACS = ["1/2", "0.6", "2/3", "0.75", "0.9", "1"]
BASES = [1.0, 0.8, 0.5, 0.2]


def sweep(path: str, fmt: str) -> None:
    rset = parse_rankings(path, fmt)
    n = len(rset)
    print(f"{path}: N={n}, universe={len(rset.universe)} items\n")

    header = "q/N    q  " + "".join(f"  g=l={b:<4}" for b in BASES)
    print(header + "   (each cell: kappa1/kappa2)")
    for frac in Q_FRACS:
        q = q_from_fraction(frac, n)
        cells = []
        for base in BASES:
            rep = score(rset, ScoreParams(q=q, gamma=base, lam=base))
            cells.append(f"{rep.overall_kappa1:.2f}/{rep.overall_kappa2:.2f}")
        print(f"{frac:<5} {q:>3} " + "  ".join(f"{c:>9}" for c in cells))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("input")
    parser.add_argument("--input-format", choices=["lines", "preflib"], default="lines")
    args = parser.parse_args(argv)
    try:
        sweep(args.input, args.input_format)
    except (ConsensusError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
