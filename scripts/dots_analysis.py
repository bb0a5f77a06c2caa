"""Consensus analysis of the Mechanical Turk Dots election files.

The four datasets each hold ~800 votes ranking four dot images from fewest
to most dots; the tasks get easier from dataset 1 to 4 (dot-count spacing
3, 5, 7, 9), so consensus should rise across them. For every dataset this
script reports:

  * overall pair consensus at q/N = 1/2 and 0.67, plain and weighted;
  * the four most deviant ranking types under lambda = 0.5 (candidate
    outliers), and the scores after removing them with q rescaled;
  * the order recovered by aggregating the supported pairs at q = ceil(N/2).

Usage:
    python scripts/dots_analysis.py DATA_DIR

DATA_DIR must contain the four preflib .soc files.
"""
import argparse
import sys
from pathlib import Path

from rank_consensus import (
    ConsensusError,
    Ranking,
    ScoreParams,
    detect_outliers,
    parse_rankings,
    q_from_fraction,
    remove_and_rescore,
    score,
)


def type_deviations(rset, report):
    """``(v2, votes)`` per distinct ranking type, in order of first appearance."""
    per_type = detect_outliers(report).per_type
    return {ranking: (v2, votes)
            for ranking, votes, (_, v2, _) in zip(rset.types, rset.votes.tolist(), per_type)}


def recovered_order(pairs, tokens):
    out_degree = {t: sum(1 for x, _ in pairs if x == t) for t in tokens}
    return sorted(tokens, key=lambda t: (-out_degree[t], t))


def describe(ranking: Ranking, tokens) -> str:
    index = {t: i + 1 for i, t in enumerate(tokens)}
    return "(" + ", ".join(str(index[t]) for t in ranking.items) + ")"


def analyse(path: Path) -> None:
    rset = parse_rankings(path, fmt="preflib")
    n = len(rset)
    tokens = sorted(rset.universe)
    print(f"\n=== {path.name}: N={n}, candidates={tokens} ===")

    q_half = q_from_fraction("1/2", n)
    q_067 = q_from_fraction("0.67", n)
    plain_half = score(rset, ScoreParams(q=q_half))
    plain_067 = score(rset, ScoreParams(q=q_067))
    weighted = score(rset, ScoreParams(q=q_half, gamma=0.5, lam=0.5))
    print(f"plain    kappa2(q={q_half}) = {plain_half.overall_kappa2:.2f}   "
          f"kappa2(q={q_067}) = {plain_067.overall_kappa2:.2f}")
    print(f"weighted kappa1(q={q_half}, gamma=0.5) = {weighted.overall_kappa1:.2f}   "
          f"kappa2(q={q_half}, lambda=0.5) = {weighted.overall_kappa2:.2f}")

    deviations = type_deviations(rset, weighted)
    n_remove = min(4, len(deviations) - 1)  # always leave at least one type
    worst = sorted(deviations, key=lambda r: deviations[r][0])[:n_remove]
    print("most deviant ranking types (lambda=0.5):")
    for r in worst:
        v2, count = deviations[r]
        print(f"  {describe(r, tokens)}  v2={v2:+.2f}  votes={count}")

    drop = [l for l, r in enumerate(rset) if r in worst]
    rescored = remove_and_rescore(rset, drop, weighted.params)
    print(f"after removal: N'={rescored.n_rankings}, q'={rescored.params.q}, "
          f"kappa1={rescored.overall_kappa1:.2f}, kappa2={rescored.overall_kappa2:.2f}")

    pairs = plain_half.sets.pairs
    order = recovered_order(pairs, tokens)
    print(f"supported pairs at q={q_half}: {len(pairs)}; "
          f"aggregated order: {' > '.join(order)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("data_dir", type=Path, help="directory with the four .soc files")
    args = parser.parse_args(argv)
    files = sorted(args.data_dir.glob("*.soc"))
    if not files:
        print(f"no .soc files found in {args.data_dir}", file=sys.stderr)
        return 1
    for path in files:
        try:
            analyse(path)
        except (ConsensusError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
