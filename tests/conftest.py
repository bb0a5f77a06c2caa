import importlib.util
import random
import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

from rank_consensus import Ranking, RankingSet

# Small universe keeps brute-force comparisons fast while still exercising
# absent items, ties and truncation.
TOKENS = "abcdefgh"


@pytest.fixture
def example_set() -> RankingSet:
    """Four strict rankings over overlapping universes; the worked example
    used throughout the unit tests, with hand-checked scores."""
    return RankingSet([
        Ranking.strict("abcdef"),
        Ranking.strict("bcdefa"),
        Ranking.strict("bdaghf"),
        Ranking.strict("bacdfe"),
    ])


def random_ranking(rng: random.Random, universe=TOKENS, allow_ties=True) -> Ranking:
    items = rng.sample(list(universe), rng.randint(1, len(universe)))
    blocks = []
    i = 0
    while i < len(items):
        width = 1
        if allow_ties and len(items) - i >= 2 and rng.random() < 0.3:
            width = rng.randint(2, min(3, len(items) - i))
        blocks.append(items[i:i + width])
        i += width
    return Ranking(blocks)


def random_ranking_set(rng: random.Random, n_min=2, n_max=6,
                       universe=TOKENS, allow_ties=True) -> RankingSet:
    n = rng.randint(n_min, n_max)
    return RankingSet(
        [random_ranking(rng, universe, allow_ties) for _ in range(n)]
    )


def per_vote(report) -> list[tuple]:
    """Each vote's row of ``report.per_type``, vote by vote: ``(m, n_pairs,
    kappa1, kappa2, singleton)`` of a consensus report, ``(v1, v2, flagged)``
    of an outlier report."""
    type_of = getattr(report, "consensus", report).type_of
    return [report.per_type[t] for t in type_of]


@st.composite
def rankings_st(draw, universe=TOKENS, min_size=1, allow_ties=True):
    perm = draw(st.permutations(list(universe)))
    size = draw(st.integers(min_value=min_size, max_value=len(universe)))
    items = list(perm[:size])
    blocks = [[items[0]]]
    for token in items[1:]:
        if allow_ties and draw(st.booleans()):
            blocks[-1].append(token)
        else:
            blocks.append([token])
    return Ranking(blocks)


@st.composite
def ranking_sets_st(draw, min_n=2, max_n=5, universe=TOKENS,
                    min_size=1, allow_ties=True):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    return RankingSet([
        draw(rankings_st(universe=universe, min_size=min_size, allow_ties=allow_ties))
        for _ in range(n)
    ])


def _load_workloads():
    name = "bench_workloads"
    if name not in sys.modules:  # its dataclass looks itself up there
        path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location(name, path)
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def bench_votes(name: str, seed: int = 1, **shrink) -> list[Ranking]:
    """The votes drawn by a generator of ``perfbench/workloads.py``, with
    smaller sizes: ``bench_votes("sweep_rankings", n=60)`` is the sweep
    workload's shape at 60 lists."""
    generate = getattr(_load_workloads(), name)
    return [Ranking(blocks) for blocks in generate(random.Random(seed), **shrink)]
