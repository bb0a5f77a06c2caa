from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ranking_sets_st
from rank_consensus import (
    ParameterError,
    Ranking,
    RankingSet,
    ScoreParams,
    gap_deviation,
    mean_gap,
    mean_position,
    position_deviation,
    q_from_fraction,
    score,
)
from rank_consensus import model, scores


def test_plain_scores_on_example(example_set):
    rep = score(example_set, ScoreParams(q=3))
    assert [r.kappa1 for r in rep.per_ranking] == [1.0, 1.0, pytest.approx(2 / 3), 1.0]
    assert [r.kappa2 for r in rep.per_ranking] == [
        pytest.approx(10 / 15), pytest.approx(10 / 15),
        pytest.approx(5 / 15), pytest.approx(11 / 15),
    ]
    assert rep.overall_kappa1 == pytest.approx(11 / 12)
    assert rep.overall_kappa2 == pytest.approx(0.6)
    assert rep.n_rankings == 4
    assert len(rep.matrices) == 4
    assert rep.sets.singles == frozenset("abcdef")


def test_weighted_item_score_on_example(example_set):
    rep = score(example_set, ScoreParams(q=3, gamma=0.5))
    assert rep.per_ranking[0].kappa1 == pytest.approx(0.6566690703622281, abs=1e-12)
    # pair entries stay plain when lam is 1
    assert rep.per_ranking[0].kappa2 == pytest.approx(10 / 15)


def test_weighted_pair_scores_on_example(example_set):
    rep = score(example_set, ScoreParams(q=3, lam=0.5))
    expected = [
        0.5255603814922211,
        0.5123320393924861,
        0.17678842574312761,
        0.44153185153890145,
    ]
    for rs, want in zip(rep.per_ranking, expected):
        assert rs.kappa2 == pytest.approx(want, abs=1e-12)
    # item entries stay plain when gamma is 1
    assert rep.per_ranking[0].kappa1 == 1.0


def test_weighted_never_exceeds_plain(example_set):
    plain = score(example_set, ScoreParams(q=3))
    weighted = score(example_set, ScoreParams(q=3, gamma=0.5, lam=0.5))
    for p, w in zip(plain.per_ranking, weighted.per_ranking):
        assert w.kappa1 <= p.kappa1 + 1e-15
        assert w.kappa2 <= p.kappa2 + 1e-15


def test_singleton_rankings_score_zero_pairs():
    rs = RankingSet([Ranking.strict("a"), Ranking.strict("a")])
    rep = score(rs, ScoreParams(q=2))
    for r in rep.per_ranking:
        assert r.singleton
        assert r.kappa1 == 1.0
        assert r.kappa2 == 0.0


def test_score_is_deterministic(example_set):
    a = score(example_set, ScoreParams(q=3, gamma=0.9, lam=0.8))
    b = score(example_set, ScoreParams(q=3, gamma=0.9, lam=0.8))
    assert a.overall_kappa1 == b.overall_kappa1
    assert a.overall_kappa2 == b.overall_kappa2
    assert [r.kappa2 for r in a.per_ranking] == [r.kappa2 for r in b.per_ranking]


def test_scoring_many_points_counts_patterns_once(example_set, monkeypatch):
    calls = []
    real = model.count_patterns

    def counting(rankings):
        calls.append(1)
        return real(rankings)

    monkeypatch.setattr(model, "count_patterns", counting)
    for q, gamma, lam in [(1, 1.0, 1.0), (2, 0.5, 1.0), (3, 1.0, 0.2), (4, 0.9, 0.8)]:
        score(example_set, ScoreParams(q=q, gamma=gamma, lam=lam))
    assert len(calls) == 1


def test_support_sets_are_built_only_when_read(monkeypatch):
    rset = RankingSet([Ranking([["a", "b"], ["c"]]), Ranking.strict("bca"), Ranking.strict("ab")] * 3
                      + [Ranking.strict("d")])
    calls = []
    real = scores.support_sets

    def counting(matrices):
        calls.append(1)
        return real(matrices)

    monkeypatch.setattr(scores, "support_sets", counting)
    grid = [(q, base, base) for q in (1, 3, 5, 10) for base in (1.0, 0.7, 0.2)]
    reports = [score(rset, ScoreParams(q=q, gamma=g, lam=lam)) for q, g, lam in grid]
    assert len(reports) == 12
    assert calls == []
    for rep in reports:
        assert rep.sets == real(list(rep.matrices))
        assert rep.sets is rep.sets
    assert len(calls) == 12


def test_invalid_params_rejected(example_set):
    with pytest.raises(ParameterError):
        score(example_set, ScoreParams(q=0))
    with pytest.raises(ParameterError):
        score(example_set, ScoreParams(q=5))
    with pytest.raises(ParameterError):
        score(example_set, ScoreParams(q=2, gamma=0.0))
    with pytest.raises(ParameterError):
        score(example_set, ScoreParams(q=2, lam=1.1))


# --- threshold fractions -----------------------------------------------------

def test_q_from_fraction_basics():
    assert q_from_fraction("1/2", 4) == 2
    assert q_from_fraction("1/2", 5) == 3
    assert q_from_fraction("2/3", 6) == 4
    assert q_from_fraction("1", 7) == 7
    assert q_from_fraction(Fraction(3, 4), 4) == 3


def test_q_from_fraction_decimal_strings_are_exact():
    # 0.67 * 800 must be read as 536, not rounded up through binary 0.67
    assert q_from_fraction("0.67", 800) == 536
    assert q_from_fraction(0.67, 800) == 536
    assert q_from_fraction(0.5, 10) == 5


def test_q_from_fraction_reads_long_exponents_without_expanding_them():
    # each would build a 10**99999999 Fraction, minutes of work
    assert q_from_fraction("1e-99999999", 10) == 1
    with pytest.raises(ParameterError, match="got '1e99999999'"):
        q_from_fraction("1e99999999", 10)
    # at and just past 1/n
    assert q_from_fraction("1e-4", 10_000) == 1
    assert q_from_fraction("1.00001e-4", 10_000) == 2
    assert q_from_fraction("9.99e-5", 10_000) == 1


def test_q_from_fraction_rejects_out_of_range():
    for bad in ("0", "-1/2", "3/2", "1.01", "abc", "nan", "inf", "1/0"):
        with pytest.raises(ParameterError):
            q_from_fraction(bad, 10)


# --- deviations --------------------------------------------------------------

def test_mean_position_and_gap(example_set):
    assert mean_position("a", example_set) == pytest.approx(3.0)
    assert mean_position("g", example_set) == pytest.approx(4.0)
    assert mean_gap("a", "f", example_set) == pytest.approx(11 / 3)
    assert mean_gap("b", "c", example_set) == pytest.approx(4 / 3)


def test_mean_of_unseen_pattern_is_an_error(example_set):
    with pytest.raises(ValueError):
        mean_position("z", example_set)
    with pytest.raises(ValueError):
        mean_gap("c", "b", example_set)


def test_position_deviation(example_set):
    assert position_deviation("a", 1, example_set) == pytest.approx(3.0)
    assert position_deviation("e", 0, example_set) == 0.0
    assert position_deviation("c", 0, example_set) == pytest.approx(1 / 3, abs=1e-15)


def test_gap_deviation(example_set):
    assert gap_deviation("a", "f", 2, example_set) == pytest.approx(2 / 3, abs=1e-15)
    assert gap_deviation("a", "f", 0, example_set) == pytest.approx(4 / 3, abs=1e-15)


def test_deviation_preconditions(example_set):
    with pytest.raises(ValueError):
        position_deviation("g", 0, example_set)  # g not in ranking 0
    with pytest.raises(ValueError):
        gap_deviation("f", "a", 0, example_set)  # wrong order in ranking 0


# --- properties --------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(ranking_sets_st(), st.data())
def test_scores_stay_in_unit_interval(rset, data):
    q = data.draw(st.integers(min_value=1, max_value=len(rset)))
    rep = score(rset, ScoreParams(q=q))
    for r in rep.per_ranking:
        assert 0.0 <= r.kappa1 <= 1.0
        assert 0.0 <= r.kappa2 <= 1.0
    assert 0.0 <= rep.overall_kappa1 <= 1.0
    assert 0.0 <= rep.overall_kappa2 <= 1.0


@settings(max_examples=40, deadline=None)
@given(ranking_sets_st())
def test_scores_decrease_with_q(rset):
    reports = [score(rset, ScoreParams(q=q)) for q in range(1, len(rset) + 1)]
    for lo, hi in zip(reports, reports[1:]):
        assert hi.overall_kappa1 <= lo.overall_kappa1 + 1e-15
        assert hi.overall_kappa2 <= lo.overall_kappa2 + 1e-15


@settings(max_examples=40, deadline=None)
@given(ranking_sets_st())
def test_q_one_gives_full_scores(rset):
    rep = score(rset, ScoreParams(q=1))
    assert rep.overall_kappa1 == 1.0
    for r in rep.per_ranking:
        assert r.kappa1 == 1.0
        assert r.singleton or r.kappa2 == 1.0
