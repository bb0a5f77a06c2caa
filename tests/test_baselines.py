import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from rank_consensus import (
    ParameterError,
    Ranking,
    RankingSet,
    TopKParams,
    kendall_tau,
    kendall_tau_topk,
    pairwise_average,
    spearman_rho,
    spearman_rho_topk,
)


def test_kendall_identity_and_reversal():
    a = Ranking.strict("abcd")
    assert kendall_tau(a, a) == 1.0
    assert kendall_tau(a, Ranking.strict("dcba")) == -1.0


def test_kendall_single_swap():
    assert kendall_tau(Ranking.strict("abcd"), Ranking.strict("bacd")) == pytest.approx(2 / 3)


def test_spearman_identity_and_reversal():
    a = Ranking.strict("abcd")
    assert spearman_rho(a, a) == pytest.approx(1.0)
    assert spearman_rho(a, Ranking.strict("dcba")) == pytest.approx(-1.0)


def test_spearman_known_value():
    a = Ranking.strict(["4", "2", "3", "1"])
    b = Ranking.strict(["1", "2", "3", "4"])
    assert spearman_rho(a, b) == pytest.approx(-0.8, abs=1e-12)


def test_complete_measures_reject_ties():
    tied = Ranking([["a"], ["b", "c"]])
    strict = Ranking.strict("abc")
    with pytest.raises(ParameterError):
        kendall_tau(tied, strict)
    with pytest.raises(ParameterError):
        spearman_rho(strict, tied)


def test_complete_measures_reject_universe_mismatch():
    with pytest.raises(ParameterError):
        kendall_tau(Ranking.strict("abc"), Ranking.strict("abd"))
    with pytest.raises(ParameterError):
        spearman_rho(Ranking.strict("ab"), Ranking.strict("abc"))


def test_complete_measures_need_two_items():
    with pytest.raises(ParameterError):
        kendall_tau(Ranking.strict("a"), Ranking.strict("a"))


# --- top-k variants ----------------------------------------------------------

def test_topk_tau_disjoint_prefixes():
    a = Ranking.strict("abef")
    b = Ranking.strict("cdef")
    assert kendall_tau_topk(a, b, TopKParams(k=2, p=1.0)) == pytest.approx(-1 / 3)
    assert kendall_tau_topk(a, b, TopKParams(k=2, p=0.0)) == pytest.approx(-2 / 3)


def test_topk_tau_partial_overlap():
    a = Ranking.strict("abx")
    b = Ranking.strict("acx")
    assert kendall_tau_topk(a, b, TopKParams(k=2, p=0.0)) == pytest.approx(1 / 3)


def test_topk_tau_identical_prefixes_ignore_tails():
    a = Ranking.strict("abcde")
    b = Ranking.strict("abced")
    for p in (0.0, 0.5, 1.0):
        assert kendall_tau_topk(a, b, TopKParams(k=3, p=p)) == 1.0


def test_topk_tau_truncates_to_prefix():
    # only the top-k prefixes matter, not the tails
    a = Ranking.strict("abcdef")
    b = Ranking.strict("abfedc")
    assert kendall_tau_topk(a, b, TopKParams(k=2)) == 1.0


def test_topk_rho_single_displacement():
    a = Ranking.strict("abc")
    b = Ranking.strict("abd")
    assert spearman_rho_topk(a, b, TopKParams(k=3)) == pytest.approx(0.8)


def test_topk_rho_disjoint_prefixes():
    a = Ranking.strict("abef")
    b = Ranking.strict("cdef")
    assert spearman_rho_topk(a, b, TopKParams(k=2, ell=3)) == pytest.approx(-9 / 11)


def test_topk_rho_default_ell_is_k_plus_one():
    a = Ranking.strict("abef")
    b = Ranking.strict("cdef")
    default = spearman_rho_topk(a, b, TopKParams(k=2))
    explicit = spearman_rho_topk(a, b, TopKParams(k=2, ell=3))
    assert default == explicit


def test_topk_rho_larger_ell_changes_the_charge():
    a = Ranking.strict("abef")
    b = Ranking.strict("cdef")
    near = spearman_rho_topk(a, b, TopKParams(k=2, ell=3))
    far = spearman_rho_topk(a, b, TopKParams(k=2, ell=10))
    assert near != far


def test_topk_params_validation():
    with pytest.raises(ParameterError):
        TopKParams(k=0).validate()
    with pytest.raises(ParameterError):
        TopKParams(k=2, p=1.5).validate()
    with pytest.raises(ParameterError):
        TopKParams(k=2, p=-0.1).validate()
    with pytest.raises(ParameterError):
        TopKParams(k=2, ell=2).validate()
    # positions are floats, exact only up to 2**53
    TopKParams(k=2, ell=2**53).validate()
    for ell in (2**53 + 1, 10**155, 10**309):
        with pytest.raises(ParameterError, match=r"^ell must be at most 2\*\*53"):
            TopKParams(k=2, ell=ell).validate()


def test_topk_k_exceeding_length_rejected():
    a = Ranking.strict("ab")
    b = Ranking.strict("abc")
    with pytest.raises(ParameterError):
        kendall_tau_topk(a, b, TopKParams(k=3))


def test_topk_rejects_ties():
    tied = Ranking([["a", "b"], ["c"]])
    strict = Ranking.strict("abc")
    with pytest.raises(ParameterError):
        kendall_tau_topk(tied, strict, TopKParams(k=2))
    with pytest.raises(ParameterError):
        spearman_rho_topk(strict, tied, TopKParams(k=2))


def test_topk_degenerate_union_rejected():
    a = Ranking.strict("ab")
    with pytest.raises(ParameterError):
        kendall_tau_topk(a, a, TopKParams(k=1))


# --- pairwise averages -------------------------------------------------------

def test_pairwise_average_kendall():
    rs = RankingSet([Ranking.strict("abc"), Ranking.strict("acb"), Ranking.strict("bac")])
    avg = pairwise_average(rs, "kendall")
    assert avg.per_ranking == (
        pytest.approx(1 / 3), pytest.approx(0.0), pytest.approx(0.0),
    )
    assert avg.overall == pytest.approx(1 / 9)
    assert avg.measure == "kendall"


def test_pairwise_average_topk_on_truncated_lists(example_set):
    avg = pairwise_average(example_set, "kendall_topk", TopKParams(k=3, p=0.5))
    assert len(avg.per_ranking) == 4
    assert all(-1.0 <= v <= 1.0 for v in avg.per_ranking)


def test_pairwise_average_reports_failing_pair(example_set):
    with pytest.raises(ParameterError, match=r"\(0, 2\)"):
        pairwise_average(example_set, "kendall")


def test_pairwise_average_validation(example_set):
    with pytest.raises(ParameterError, match="unknown measure"):
        pairwise_average(example_set, "pearson")
    with pytest.raises(ParameterError, match="TopKParams"):
        pairwise_average(example_set, "kendall_topk")
    single = RankingSet([Ranking.strict("abc")])
    with pytest.raises(ParameterError):
        pairwise_average(single, "kendall")


# --- agreement with scipy on complete strict rankings ------------------------

@st.composite
def strict_pair(draw, universe="abcdef"):
    xs = draw(st.permutations(list(universe)))
    ys = draw(st.permutations(list(universe)))
    return Ranking.strict(xs), Ranking.strict(ys)


@settings(max_examples=80, deadline=None)
@given(strict_pair())
def test_kendall_matches_scipy(pair):
    a, b = pair
    items = sorted(a.item_set)
    xs = [a.position(t) for t in items]
    ys = [b.position(t) for t in items]
    expected = stats.kendalltau(xs, ys).statistic
    assert kendall_tau(a, b) == pytest.approx(expected, abs=1e-12)


@settings(max_examples=80, deadline=None)
@given(strict_pair())
def test_spearman_matches_scipy(pair):
    a, b = pair
    items = sorted(a.item_set)
    xs = [a.position(t) for t in items]
    ys = [b.position(t) for t in items]
    expected = stats.spearmanr(xs, ys).statistic
    assert spearman_rho(a, b) == pytest.approx(expected, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(strict_pair())
def test_pairwise_measures_are_symmetric(pair):
    a, b = pair
    assert kendall_tau(a, b) == pytest.approx(kendall_tau(b, a), abs=1e-15)
    assert spearman_rho(a, b) == pytest.approx(spearman_rho(b, a), abs=1e-15)
    params = TopKParams(k=3, p=0.5)
    assert kendall_tau_topk(a, b, params) == pytest.approx(
        kendall_tau_topk(b, a, params), abs=1e-15)
    assert spearman_rho_topk(a, b, params) == pytest.approx(
        spearman_rho_topk(b, a, params), abs=1e-15)
