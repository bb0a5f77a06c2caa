import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import per_vote, ranking_sets_st
from rank_consensus import (
    DegenerateConsensusError,
    ParameterError,
    Ranking,
    RankingSet,
    ScoreParams,
    detect_outliers,
    remove_and_rescore,
    score,
)


def _nine_plus_one():
    """Nine agreeing strict rankings plus one full reversal."""
    agree = [Ranking.strict("abcde") for _ in range(9)]
    return RankingSet(agree + [Ranking.strict("edcba")])


def test_relative_deviations_on_example(example_set):
    rep = score(example_set, ScoreParams(q=3))
    out = detect_outliers(rep)
    v1 = [v1 for v1, _, _ in per_vote(out)]
    v2 = [v2 for _, v2, _ in per_vote(out)]
    assert v1 == [
        pytest.approx(1 / 11), pytest.approx(1 / 11),
        pytest.approx(-3 / 11), pytest.approx(1 / 11),
    ]
    assert v2 == [
        pytest.approx(1 / 9), pytest.approx(1 / 9),
        pytest.approx(-4 / 9), pytest.approx(2 / 9),
    ]
    assert [flagged for _, _, flagged in per_vote(out)] == [False, False, True, False]
    assert out.flagged_indices == [2]
    assert out.n_flagged == 1


def test_deviations_sum_to_zero(example_set):
    out = detect_outliers(score(example_set, ScoreParams(q=3)))
    assert math.fsum(v1 for v1, _, _ in per_vote(out)) == pytest.approx(0.0, abs=1e-12)
    assert math.fsum(v2 for _, v2, _ in per_vote(out)) == pytest.approx(0.0, abs=1e-12)


def test_threshold_comparison_is_strict(example_set):
    rep = score(example_set, ScoreParams(q=3))
    _, v, _ = per_vote(detect_outliers(rep, eps1=10.0, eps2=10.0))[2]
    # an epsilon equal to |v| must not flag (v < -eps is strict) ...
    at = detect_outliers(rep, eps1=10.0, eps2=-v)
    assert [flagged for _, _, flagged in per_vote(at)] == [False, False, False, False]
    # ... while any smaller epsilon must
    below = detect_outliers(rep, eps1=10.0, eps2=-v - 1e-12)
    assert [flagged for _, _, flagged in per_vote(below)] == [False, False, True, False]


def test_either_score_can_flag(example_set):
    rep = score(example_set, ScoreParams(q=3))
    # v1 of ranking 2 is -3/11; tighten eps1 below that with eps2 loose
    out = detect_outliers(rep, eps1=0.2, eps2=10.0)
    assert [flagged for _, _, flagged in per_vote(out)] == [False, False, True, False]


def test_epsilons_must_be_positive(example_set):
    rep = score(example_set, ScoreParams(q=3))
    with pytest.raises(ParameterError):
        detect_outliers(rep, eps1=0.0)
    with pytest.raises(ParameterError):
        detect_outliers(rep, eps2=-0.1)
    for name in ("eps1", "eps2"):
        with pytest.raises(ParameterError, match=f"{name} must be positive and finite, got inf"):
            detect_outliers(rep, **{name: math.inf})


def test_zero_mean_scores_are_degenerate():
    rs = RankingSet([Ranking.strict("ab"), Ranking.strict("cd")])
    rep = score(rs, ScoreParams(q=2))
    assert rep.overall_kappa1 == 0.0
    with pytest.raises(DegenerateConsensusError):
        detect_outliers(rep)


def test_all_singleton_sets_name_the_real_cause():
    rs = RankingSet([Ranking.strict("a"), Ranking.strict("b"), Ranking.strict("a")])
    rep = score(rs, ScoreParams(q=1))
    assert rep.overall_kappa1 == 1.0 and rep.overall_kappa2 == 0.0
    with pytest.raises(DegenerateConsensusError,
                       match="every ranking has a single item, so there are no pairs "
                             "and kappa2 is 0 by convention"):
        detect_outliers(rep)
    # one ranking with a pair: the advice about q stands
    rs = RankingSet([Ranking.strict("a"), Ranking.strict("bc")])
    with pytest.raises(DegenerateConsensusError, match="lower q"):
        detect_outliers(score(rs, ScoreParams(q=2)))


def test_reversal_is_flagged_and_removal_restores_full_consensus():
    rs = _nine_plus_one()
    params = ScoreParams(q=5)
    rep = score(rs, params)
    assert rep.overall_kappa2 == pytest.approx(0.9)
    out = detect_outliers(rep)
    assert out.flagged_indices == [9]
    assert per_vote(out)[9][1] == pytest.approx(-1.0)  # v2
    rescored = remove_and_rescore(rs, out.flagged_indices, params)
    assert rescored.n_rankings == 9
    assert rescored.params.q == 5  # ceil(5 * 9 / 10)
    assert rescored.overall_kappa2 == 1.0
    assert rescored.overall_kappa1 == 1.0


def test_q_rescales_proportionally():
    agree = [Ranking.strict("abcd") for _ in range(8)]
    rs = RankingSet(agree + [Ranking.strict("dcba"), Ranking.strict("dcba")])
    params = ScoreParams(q=5)
    out = detect_outliers(score(rs, params))
    assert out.flagged_indices == [8, 9]
    rescored = remove_and_rescore(rs, out.flagged_indices, params)
    assert rescored.params.q == 4  # ceil(5 * 8 / 10)
    absolute = remove_and_rescore(rs, out.flagged_indices, params, rescale_q=False)
    assert absolute.params.q == 5


def test_removing_everything_is_an_error(example_set):
    with pytest.raises(ParameterError, match="every ranking was dropped"):
        remove_and_rescore(example_set, [3, 2, 1, 0], ScoreParams(q=3))


def test_drop_index_must_be_in_range(example_set):
    for bad in (4, -1, 1.0, "0", True, None, np.int64(4), np.int32(-1)):
        with pytest.raises(ParameterError) as info:
            remove_and_rescore(example_set, [0, bad], ScoreParams(q=3))
        assert f"index {bad!r}: the set has 4 rankings" in str(info.value)
    want = remove_and_rescore(example_set, [0, 2], ScoreParams(q=3))
    for good in (np.int64(2), np.int32(2), np.array([0, 2])[1]):
        rep = remove_and_rescore(example_set, [0, good], ScoreParams(q=3))
        assert per_vote(rep) == per_vote(want)
        assert rep.original_indices == (1, 3)
    rep = remove_and_rescore(example_set, np.array([2]), ScoreParams(q=3))
    assert rep.original_indices == (0, 1, 3)


def test_repeated_drop_index_removes_once(example_set):
    params = ScoreParams(q=3)
    once = remove_and_rescore(example_set, [1], params)
    twice = remove_and_rescore(example_set, [1, 1, 1], params)
    assert once.n_rankings == twice.n_rankings == 3
    assert twice.params == once.params == ScoreParams(q=3)  # ceil(3 * 3 / 4)
    assert per_vote(twice) == per_vote(once)
    assert per_vote(score(RankingSet([example_set[i] for i in (0, 2, 3)]),
                          params)) == per_vote(once)


def test_absolute_q_can_become_infeasible():
    rs = RankingSet([Ranking.strict("abc") for _ in range(3)])
    params = ScoreParams(q=3)
    with pytest.raises(ParameterError):
        remove_and_rescore(rs, [0, 1], params, rescale_q=False)
    # proportional rescale stays feasible: q' = ceil(3 * 1 / 3) = 1
    rescored = remove_and_rescore(rs, [0, 1], params)
    assert rescored.params.q == 1


@settings(max_examples=50, deadline=None)
@given(ranking_sets_st(), st.data())
def test_deviation_sums_vanish_whenever_defined(rset, data):
    q = data.draw(st.integers(min_value=1, max_value=len(rset)))
    rep = score(rset, ScoreParams(q=q))
    if rep.overall_kappa1 <= 0 or rep.overall_kappa2 <= 0:
        with pytest.raises(DegenerateConsensusError):
            detect_outliers(rep)
        return
    out = detect_outliers(rep)
    assert math.fsum(v1 for v1, _, _ in per_vote(out)) == pytest.approx(0.0, abs=1e-9)
    assert math.fsum(v2 for _, v2, _ in per_vote(out)) == pytest.approx(0.0, abs=1e-9)
    for v1, v2, flagged in per_vote(out):
        assert flagged == (v1 < -out.eps1 or v2 < -out.eps2)
