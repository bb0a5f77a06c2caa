import math
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from conftest import bench_votes, rankings_st
from rank_consensus import (
    ParameterError,
    Ranking,
    RankingSet,
    TopKParams,
    baselines,
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


def kendall_topk_summed_in_name_order(a, b, params):
    """The top-k tau as a float sum of each pair's credit, the pairs taken in
    the order of the sorted item names."""
    pos_a = {x: i for i, x in enumerate(a.items[:params.k])}
    pos_b = {x: i for i, x in enumerate(b.items[:params.k])}
    union = sorted(set(pos_a) | set(pos_b))

    def order(px, py):  # a missing item sits below every listed one
        return 1 if px is None else -1 if py is None else (px > py) - (px < py)

    total = 0.0
    for x, y in combinations(union, 2):
        ax, ay, bx, by = pos_a.get(x), pos_a.get(y), pos_b.get(x), pos_b.get(y)
        if (ax is None and ay is None) or (bx is None and by is None):
            total += params.p
        else:
            total += order(ax, ay) * order(bx, by)
    return total / (len(union) * (len(union) - 1) // 2)


@pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 1.0])
def test_topk_tau_does_not_depend_on_item_names(p):
    # 200 top-20 pairs from 40 items, and the same lists under a renaming
    # that reverses the names' sort order; summed pair by pair in name
    # order, 186 of them changed in the last bits at p = 0.3
    rng = random.Random(0)
    names = [f"i{j:02d}" for j in range(40)]
    renamed = dict(zip(names, reversed(names)))
    params = TopKParams(k=20, p=p)
    for _ in range(200):
        a, b = (rng.sample(names, 20) for _ in range(2))
        value = kendall_tau_topk(Ranking.strict(a), Ranking.strict(b), params)
        mirror = kendall_tau_topk(Ranking.strict([renamed[x] for x in a]),
                                  Ranking.strict([renamed[x] for x in b]), params)
        assert value.hex() == mirror.hex()
        if p != 0.3:  # a dyadic p sums exactly in any order
            want = kendall_topk_summed_in_name_order(Ranking.strict(a), Ranking.strict(b), params)
            assert value.hex() == want.hex()


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
        TopKParams(k=0)
    with pytest.raises(ParameterError):
        TopKParams(k=2, p=1.5)
    with pytest.raises(ParameterError):
        TopKParams(k=2, p=-0.1)
    with pytest.raises(ParameterError):
        TopKParams(k=2, ell=2)
    # positions are floats, exact only up to 2**53
    TopKParams(k=2, ell=2**53)
    for ell in (2**53 + 1, 10**155, 10**309):
        with pytest.raises(ParameterError, match=r"^ell must be at most 2\*\*53"):
            TopKParams(k=2, ell=ell)


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


MEASURES = dict(baselines._MEASURES)


def per_pair_average(rset, measure, params):
    """``pairwise_average`` by its definition: each vote against every other
    vote, one measure call per ordered pair of votes, each vote's values
    summed with ``math.fsum``. Returns the bits of the per-vote and overall
    values, or the message of the first failure."""
    fn = MEASURES[measure]
    n = len(rset)
    per = []
    for l in range(n):
        values = []
        for z in range(n):
            if z == l:
                continue
            try:
                values.append(fn(rset[l], rset[z], params))
            except ParameterError as exc:
                return f"{measure} failed for rankings ({l}, {z}): {exc}"
        per.append(math.fsum(values) / len(values))
    return [x.hex() for x in per], (math.fsum(per) / n).hex()


@st.composite
def correlated_votes_st(draw):
    """A measure, its parameters and votes drawn with repetition from a few
    rankings: strict and complete for the complete measures, strict lists of
    different lengths for the top-k ones, and now and then a ranking that
    makes the measure fail (ties, another item set, a list shorter than k)."""
    measure = draw(st.sampled_from(sorted(MEASURES)))
    params = None
    if measure.endswith("_topk"):
        k = draw(st.integers(1, 4))
        params = TopKParams(k=k, p=draw(st.sampled_from([0.0, 0.3, 0.5, 1.0])),
                            ell=draw(st.sampled_from([None, k + 1, k + 3])))
        fine = rankings_st(universe="abcdefg", min_size=4, allow_ties=False)
    else:
        fine = rankings_st(universe="abcde", min_size=5, allow_ties=False)
    pool = draw(st.lists(fine, min_size=1, max_size=4))
    if draw(st.integers(0, 3)) == 0:
        pool.append(draw(rankings_st(universe="abcdef")))
    votes = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=12))
    # equal votes as separate objects too, not only as one shared object
    votes = [Ranking(r.blocks) if draw(st.booleans()) else r for r in votes]
    return measure, params, RankingSet(votes)


@settings(max_examples=300, deadline=None)
@given(correlated_votes_st())
def test_pairwise_average_equals_the_per_pair_definition(case):
    measure, params, rset = case
    want = per_pair_average(rset, measure, params)
    calls = []

    def recording(a, b, params):
        calls.append((a, b))
        return MEASURES[measure](a, b, params)

    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(baselines._MEASURES, measure, recording)
        try:
            avg = pairwise_average(rset, measure, params)
            got = [x.hex() for x in avg.per_ranking], avg.overall.hex()
        except ParameterError as exc:
            got = str(exc)
    assert got == want
    if not isinstance(want, str):  # a failing vote is scanned again, vote by vote
        # at most once per ordered pair of distinct rankings
        assert len(calls) == len(set(calls))


def test_pairwise_average_measures_each_pair_of_distinct_rankings_once(monkeypatch):
    rset = RankingSet(bench_votes("election_votes", n_votes=300))
    calls = []

    def recording(a, b, params):
        calls.append(1)
        return kendall_tau(a, b)

    monkeypatch.setitem(baselines._MEASURES, "kendall", recording)
    avg = pairwise_average(rset, "kendall")
    assert len(avg.per_ranking) == 300
    assert len(calls) <= len(set(rset)) ** 2 < 300 * 299 // 10


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
