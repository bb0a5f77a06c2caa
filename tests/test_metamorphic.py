"""Relations between whole scoring runs that follow from the definitions.

The oracle in ``reference`` shares the fast path's rules, so a rule that is
wrong in both passes the oracle tests; these compare a run with another run
on a transformed set instead. Each holds on both counting routes, over sets
with ties, truncation and repeated votes. The correlation baselines, which
read no pattern table, are checked for symmetry on pairs of rankings.
"""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import TOKENS, per_vote, rankings_st
from rank_consensus import (DegenerateConsensusError, ParameterError, Ranking, RankingSet,
                            ScoreParams, TopKParams, detect_outliers, kendall_tau,
                            kendall_tau_topk, model, score, spearman_rho, spearman_rho_topk)

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


def flagged(report):
    """The indices of the votes ``report`` flags, or the message that refuses them."""
    try:
        return detect_outliers(report).flagged_indices
    except DegenerateConsensusError as exc:
        return str(exc)


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
@given(voted_sets_st())
def test_duplicating_every_vote_at_twice_q_flags_both_copies_of_each_flagged_vote(route, votes):
    doubled = counted(votes + votes, route)
    for (q, gamma, lam), report in runs(votes, route):
        want = flagged(report)
        if isinstance(want, list):
            want = want + [i + len(votes) for i in want]
        assert flagged(score(doubled, ScoreParams(q=2 * q, gamma=gamma, lam=lam))) == want


@ROUTES
@settings(max_examples=40, deadline=None)
@given(voted_sets_st(), st.randoms(use_true_random=False))
def test_shuffling_the_votes_permutes_the_flags(route, votes, rng):
    order = list(range(len(votes)))
    rng.shuffle(order)
    shuffled = counted([votes[i] for i in order], route)
    for (q, gamma, lam), report in runs(votes, route):
        want = flagged(report)
        if isinstance(want, list):
            want = [j for j, i in enumerate(order) if i in want]
        assert flagged(score(shuffled, ScoreParams(q=q, gamma=gamma, lam=lam))) == want


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


def flags(report):
    """The outlier rows of ``report``, or the message that refuses them."""
    try:
        return detect_outliers(report).per_type
    except DegenerateConsensusError as exc:
        return str(exc)


def renamed(support, name=str) -> tuple[list, list]:
    """The singles and pairs of ``support`` under ``name``, sorted."""
    return (sorted(map(name, support.singles)),
            sorted((name(x), name(y)) for x, y in support.pairs))


@ROUTES
@settings(max_examples=40, deadline=None)
@given(voted_sets_st(allow_ties=False), st.permutations(list(TOKENS)))
def test_renaming_the_items_of_strict_rankings_keeps_scores_flags_and_sets(route, votes, image):
    # a strict ranking's matrix is laid out in its own order, whatever the
    # names; tied rankings fail this while a tied pair is scored as the one
    # pattern its names sort into
    name = dict(zip(TOKENS, image))
    moved = counted([Ranking.strict(name[x] for x in r.items) for r in votes], route)
    for (q, gamma, lam), report in runs(votes, route):
        other = score(moved, ScoreParams(q=q, gamma=gamma, lam=lam))
        assert overall(other) == overall(report)
        assert other.kappa1.tolist() == report.kappa1.tolist()
        assert other.kappa2.tolist() == report.kappa2.tolist()
        assert flags(other) == flags(report)
        assert renamed(other.sets) == renamed(report.sets, name.get)
        assert ([renamed(s) for s in other.sets.per_type]
                == [renamed(s, name.get) for s in report.sets.per_type])


@ROUTES
@settings(max_examples=40, deadline=None)
@given(voted_sets_st())
def test_raising_q_raises_no_kappa1_and_no_plain_kappa2(route, votes):
    # a higher threshold only zeroes entries, and a weight is at most 1.
    # Weighted kappa2 is left out: it subtracts the trace from the sum of
    # the whole matrix, and both carry the diagonal's rounding
    rset = counted(votes, route)
    before = None
    for q in range(1, len(votes) + 1):
        plain = score(rset, ScoreParams(q=q))
        weighted = [score(rset, ScoreParams(q=q, gamma=gamma, lam=lam))
                    for gamma, lam in [(0.5, 0.5), (0.7, 0.3), (0.5, 1.0)]]
        now = [plain.kappa1, plain.kappa2] + [w.kappa1 for w in weighted]
        for w in weighted:
            assert (w.kappa1 <= plain.kappa1).all()
        if before is not None:
            for a, b in zip(now, before):
                assert (a <= b).all()
        before = now


def outcome(measure, a, b, *params):
    try:
        return measure(a, b, *params)
    except ParameterError as exc:
        return str(exc)


@settings(max_examples=100, deadline=None)
@given(st.permutations(list(TOKENS)), st.permutations(list(TOKENS)),
       rankings_st(allow_ties=False), rankings_st(allow_ties=False), st.data())
def test_every_measure_is_symmetric_bit_for_bit(xs, ys, a, b, data):
    full_a, full_b = Ranking.strict(xs), Ranking.strict(ys)
    for measure in (kendall_tau, spearman_rho):
        assert measure(full_a, full_b) == measure(full_b, full_a)
    assert kendall_tau(full_a, Ranking.strict(xs[::-1])) == -1.0
    k = data.draw(st.integers(1, min(len(a), len(b))))
    for p in (0.0, 0.5, 1.0):
        params = TopKParams(k, p)
        for measure in (kendall_tau_topk, spearman_rho_topk):
            assert outcome(measure, a, b, params) == outcome(measure, b, a, params)
