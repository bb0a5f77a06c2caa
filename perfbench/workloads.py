"""Seeded inputs for the benchmark workloads, and the CLI call each one makes.

Every generator takes a ``random.Random`` and returns the rankings it drew
as lists of tie blocks, most preferred first. ``render`` turns them into
the file the CLI reads; the CLI receives nothing else. Only the standard
library is used, so the same seed gives the same bytes on any machine.
"""
from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from statistics import NormalDist
from typing import Callable

Blocks = list[list[str]]

_CANDIDATES = ("Alder", "Birch", "Cedar", "Hazel", "Maple", "Rowan")


def election_votes(rng: random.Random, n_votes: int = 20_000) -> list[Blocks]:
    """Strict votes over six candidates.

    95% are the reference order with 0-3 random adjacent swaps and 5% are
    uniform shuffles, so a few hundred distinct orders carry all the votes.
    """
    m = len(_CANDIDATES)
    votes = []
    for _ in range(n_votes):
        order = list(range(1, m + 1))
        if rng.random() < 0.05:
            rng.shuffle(order)
        else:
            for _ in range(rng.randint(0, 3)):
                i = rng.randrange(m - 1)
                order[i], order[i + 1] = order[i + 1], order[i]
        votes.append([[str(c)] for c in order])
    return votes


def retrieval_lists(rng: random.Random, n_lists: int = 50, k: int = 100,
                    pool: int = 1000, noise: float = 0.8) -> list[Blocks]:
    """Strict top-``k`` lists from a pool of documents.

    Each list is the top ``k`` of a shared relevance score plus Gaussian
    noise, so the lists overlap near the top and diverge in their tails.
    The relevance scores are the standard normal's quantiles dealt to the
    documents in a seeded order, not fresh draws, so the union of the lists
    and the number of distinct patterns barely change from seed to seed.
    """
    relevance = [NormalDist().inv_cdf((i + 0.5) / pool) for i in range(pool)]
    rng.shuffle(relevance)
    lists = []
    for _ in range(n_lists):
        noisy = sorted(((rel + rng.gauss(0.0, noise), d) for d, rel in enumerate(relevance)),
                       reverse=True)
        lists.append([[f"doc{d:04d}"] for _, d in noisy[:k]])
    return lists


def sweep_rankings(rng: random.Random, n: int = 1000, universe: int = 30,
                   min_len: int = 10, noise: float = 1.7,
                   tie_prob: float = 0.2) -> list[Blocks]:
    """Truncated rankings with ties over a shared universe.

    Each ranking orders all items by their index plus Gaussian noise, keeps
    the top ``min_len``..``universe`` of them, and merges each kept item
    into the previous block with probability ``tie_prob``. Keeping a top
    (not a random subset) spreads pattern supports over the whole range
    instead of piling them up near ``N/2``, so the number of supported
    patterns, and with it the work, barely changes from seed to seed.
    """
    rankings = []
    for _ in range(n):
        order = sorted(range(universe), key=lambda i: i + rng.gauss(0.0, noise))
        blocks: Blocks = []
        for i in order[:rng.randint(min_len, universe)]:
            name = f"i{i:02d}"
            if blocks and rng.random() < tie_prob:
                blocks[-1].append(name)
            else:
                blocks.append([name])
        rankings.append(blocks)
    return rankings


def render_lines(rankings: list[Blocks]) -> str:
    """The CLI's ``lines`` format: one ranking per line, ties in braces."""
    rows = []
    for blocks in rankings:
        rows.append(",".join(b[0] if len(b) == 1 else "{" + ",".join(b) + "}" for b in blocks))
    return "\n".join(rows) + "\n"


def _vote_counts(votes: list[Blocks]) -> list[tuple[str, int]]:
    """Distinct votes with their counts, most frequent first: the file order."""
    counts = Counter(",".join(b[0] for b in vote) for vote in votes)
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))


def render_preflib(votes: list[Blocks]) -> str:
    """PrefLib ``soc`` text: numbered candidates with names, one
    ``count: order`` line per distinct vote."""
    counts = _vote_counts(votes)
    lines = [
        "# FILE NAME: election.soc",
        "# DATA TYPE: soc",
        f"# NUMBER ALTERNATIVES: {len(_CANDIDATES)}",
        f"# NUMBER VOTERS: {len(votes)}",
        f"# NUMBER UNIQUE ORDERS: {len(counts)}",
    ]
    lines += [f"# ALTERNATIVE NAME {i}: {name}" for i, name in enumerate(_CANDIDATES, start=1)]
    lines += [f"{count}: {order}" for order, count in counts]
    return "\n".join(lines) + "\n"


def preflib_names(votes: list[Blocks]) -> list[Blocks]:
    """The votes as the CLI sees them: candidates renamed and expanded in
    file order."""
    expanded = []
    for order, count in _vote_counts(votes):
        vote = [[_CANDIDATES[int(c) - 1]] for c in order.split(",")]
        expanded.extend([vote] * count)
    return expanded


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: what it generates and how the CLI is called.

    ``args`` are the subcommand and its options; the input path goes after
    the subcommand. ``cli_view`` maps the generated rankings to the set the
    CLI builds from the file. ``reduced`` draws an instance small enough for
    the oracle to check an output that only reports set-wide means.
    """

    name: str
    why: str
    args: tuple[str, ...]
    suffix: str
    generate: Callable[[random.Random], list[Blocks]]
    render: Callable[[list[Blocks]], str]
    cli_view: Callable[[list[Blocks]], list[Blocks]] = lambda r: r
    reduced: Callable[[random.Random], list[Blocks]] | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="election",
            why=("20 000 votes over 6 candidates as ~560 PrefLib count lines: 36 patterns "
                 "re-read ~11 000 times per pass, ~6% flagged and rescored, 13.6 MB of "
                 "JSON out"),
            args=("outliers", "--input-format", "preflib", "--q-frac", "1/2",
                  "--gamma", "0.5", "--lambda", "0.5", "--remove"),
            suffix=".soc",
            generate=election_votes,
            render=render_preflib,
            cli_view=preflib_names,
        ),
        Workload(
            name="retrieval",
            why=("50 top-100 lists from a pool of 1000: ~100 000 distinct patterns read "
                 "~2.5 times each, 2% of entries supported, no duplicate lists, small "
                 "output, so counting dominates"),
            args=("score", "--q-frac", "1/2"),
            suffix=".txt",
            generate=retrieval_lists,
            render=render_lines,
        ),
        Workload(
            name="sweep",
            why=("1000 tied top-10..30 lists over 30 items scored at 12 grid points: ~640 "
                 "patterns read ~345 times in each of 12 passes, half of them supported, "
                 "~700 bytes of CSV, so only support repeats"),
            args=("sweep", "--q-fracs", "1/2,0.6,2/3,3/4", "--lambdas", "1,0.5,0.2"),
            suffix=".txt",
            generate=sweep_rankings,
            render=render_lines,
            reduced=lambda rng: sweep_rankings(rng, n=30, universe=10, min_len=4),
        ),
    )
}
