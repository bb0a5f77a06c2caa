"""Relations between whole scoring runs that follow from the definitions.

The oracle in ``reference`` shares the fast path's rules, so a rule that is
wrong in both passes the oracle tests; these compare a run with another run
on a transformed set instead. Each holds on both counting routes, over sets
with ties, truncation and repeated votes.
"""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import per_vote, rankings_st
from rank_consensus import Ranking, RankingSet, ScoreParams, model, score

WEIGHTS = [(1.0, 1.0), (0.5, 0.5), (0.7, 0.3)]
ROUTES = pytest.mark.parametrize("route", ["dense", "unique"])


def counted(votes: list[Ranking], route: str) -> RankingSet:
    """``votes`` as a set whose pattern table is counted on ``route``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "_DENSE_KEYS", 10**9 if route == "dense" else 0)
        rset = RankingSet(votes)
        rset.pattern_stats
    return rset


@st.composite
def voted_sets_st(draw, allow_ties=True):
    """Votes drawn with repetition from a few distinct rankings."""
    pool = draw(st.lists(rankings_st(allow_ties=allow_ties), min_size=1, max_size=5))
    return draw(st.lists(st.sampled_from(pool), min_size=2, max_size=10))


def runs(votes: list[Ranking], route: str):
    """Each ``(q, gamma, lambda)`` point for ``votes`` and its report."""
    rset = counted(votes, route)
    for q in range(1, len(votes) + 1):
        for gamma, lam in WEIGHTS:
            yield (q, gamma, lam), score(rset, ScoreParams(q=q, gamma=gamma, lam=lam))


def overall(report) -> tuple[float, float]:
    return report.overall_kappa1, report.overall_kappa2


@ROUTES
@settings(max_examples=40, deadline=None)
@given(voted_sets_st())
def test_duplicating_every_vote_at_twice_q_keeps_the_overall_kappas(route, votes):
    # counts and totals double exactly, so every threshold and deviation holds
    doubled = counted(votes + votes, route)
    for (q, gamma, lam), report in runs(votes, route):
        twice = score(doubled, ScoreParams(q=2 * q, gamma=gamma, lam=lam))
        assert overall(twice) == overall(report)


@ROUTES
@settings(max_examples=40, deadline=None)
@given(voted_sets_st(), st.randoms(use_true_random=False))
def test_shuffling_the_votes_permutes_the_rows_and_keeps_the_overall_kappas(route, votes, rng):
    order = list(range(len(votes)))
    rng.shuffle(order)
    shuffled = counted([votes[i] for i in order], route)
    for (q, gamma, lam), report in runs(votes, route):
        moved = score(shuffled, ScoreParams(q=q, gamma=gamma, lam=lam))
        assert overall(moved) == overall(report)
        rows = per_vote(report)
        assert per_vote(moved) == [rows[i] for i in order]


@ROUTES
@settings(max_examples=40, deadline=None)
@given(voted_sets_st(allow_ties=False))
def test_reversing_strict_rankings_keeps_kappa2(route, votes):
    # the support of x y among the reversed rankings is that of y x among
    # these, at the same gaps. Weighted sums add the cells in another order,
    # so only plain kappa2 is bit-identical. Tied rankings fail this while
    # a tied pair is scored as the one pattern its names sort into
    turned = counted([Ranking(r.blocks[::-1]) for r in votes], route)
    for (q, gamma, lam), report in runs(votes, route):
        back = score(turned, ScoreParams(q=q, gamma=gamma, lam=lam))
        if lam == 1.0:
            assert back.overall_kappa2 == report.overall_kappa2
            assert back.kappa2.tolist() == report.kappa2.tolist()
        else:
            assert back.overall_kappa2 == pytest.approx(report.overall_kappa2, abs=1e-12)
            assert back.kappa2.tolist() == pytest.approx(report.kappa2.tolist(), abs=1e-12)
