import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_ranking, ranking_sets_st
from rank_consensus import (
    ParameterError,
    Ranking,
    RankingSet,
    support_matrices_fast,
)
from rank_consensus.reference import support_count, support_matrix_naive, support_sets

# Certificate matrices for the four-ranking example at q=3, worked out by
# counting containments by hand. Row/column order is each ranking's own
# item order.
EXPECTED_Q3 = {
    0: [  # a b c d e f
        [1, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0],
        [0, 1, 1, 0, 0, 0],
        [0, 1, 1, 1, 0, 0],
        [0, 1, 1, 1, 1, 0],
        [1, 1, 1, 1, 0, 1],
    ],
    1: [  # b c d e f a
        [1, 0, 0, 0, 0, 0],
        [1, 1, 0, 0, 0, 0],
        [1, 1, 1, 0, 0, 0],
        [1, 1, 1, 1, 0, 0],
        [1, 1, 1, 0, 1, 0],
        [1, 0, 0, 0, 0, 1],
    ],
    2: [  # b d a g h f
        [1, 0, 0, 0, 0, 0],
        [1, 1, 0, 0, 0, 0],
        [1, 0, 1, 0, 0, 0],
        [0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0],
        [1, 1, 1, 0, 0, 1],
    ],
    3: [  # b a c d f e
        [1, 0, 0, 0, 0, 0],
        [1, 1, 0, 0, 0, 0],
        [1, 0, 1, 0, 0, 0],
        [1, 0, 1, 1, 0, 0],
        [1, 1, 1, 1, 1, 0],
        [1, 0, 1, 1, 0, 1],
    ],
}


def test_support_counts(example_set):
    assert support_count("b", "c", example_set) == 3
    assert support_count("c", "b", example_set) == 0
    assert support_count("a", "a", example_set) == 4
    assert support_count("g", "g", example_set) == 1
    assert support_count("a", "f", example_set) == 3
    assert support_count("z", "z", example_set) == 0


def test_naive_matrices_match_hand_computation(example_set):
    for l, expected in EXPECTED_Q3.items():
        mat = support_matrix_naive(l, example_set, 3)
        assert mat.owner == l
        assert mat.items == example_set[l].items
        np.testing.assert_array_equal(mat.entries, np.array(expected, dtype=float))
        np.testing.assert_array_equal(mat.supported, np.array(expected, dtype=bool))


def test_fast_matrices_bit_equal_to_naive(example_set):
    fast = support_matrices_fast(example_set, 3)
    for l in range(len(example_set)):
        naive = support_matrix_naive(l, example_set, 3)
        assert np.array_equal(fast[l].entries, naive.entries)
        assert np.array_equal(fast[l].supported, naive.supported)


def test_matrices_are_lower_triangular(example_set):
    for mat in support_matrices_fast(example_set, 2):
        assert np.array_equal(np.triu(mat.entries, 1), np.zeros((mat.m, mat.m)))


def test_trace_and_offdiagonal_helpers(example_set):
    mat = support_matrices_fast(example_set, 3)[2]
    assert mat.trace == 4.0
    assert mat.off_diagonal_sum == 5.0


def test_support_sets_per_ranking_and_union(example_set):
    mats = support_matrices_fast(example_set, 3)
    sets = support_sets(mats)
    assert sets.singles == frozenset("abcdef")
    assert sets.per_ranking[2].singles == frozenset("abdf")
    assert sets.per_ranking[2].pairs == {
        ("b", "d"), ("b", "a"), ("b", "f"), ("d", "f"), ("a", "f"),
    }
    assert sets.pairs == {
        ("a", "f"), ("b", "a"), ("b", "c"), ("b", "d"), ("b", "e"), ("b", "f"),
        ("c", "d"), ("c", "e"), ("c", "f"), ("d", "e"), ("d", "f"),
    }


def test_q_one_supports_everything(example_set):
    # each ranking contains its own items and pairs, so q=1 certifies all
    for mat in support_matrices_fast(example_set, 1):
        assert mat.supported[np.tril_indices(mat.m)].all()


def test_weighted_diagonal_entries(example_set):
    mat = support_matrices_fast(example_set, 3, gamma=0.5)[0]
    diag = np.diag(mat.entries)
    # deviations of a..f from their mean positions: 2, 3/4, 1/3, 3/4, 0, 1/2
    expected = [0.5 ** h for h in (2, 0.75, 1 / 3, 0.75, 0, 0.5)]
    np.testing.assert_allclose(diag, expected, atol=1e-15)
    assert diag[4] == 1.0  # zero deviation must give exactly 1


def test_weighted_pair_entry(example_set):
    # (a, f) sits in rankings 0, 2, 3 with gaps 5, 3, 3; its deviation in
    # ranking 2 is |3 - 11/3| = 2/3
    mat = support_matrices_fast(example_set, 3, lam=0.5)[2]
    i = mat.items.index("a")
    j = mat.items.index("f")
    assert mat.entries[j, i] == pytest.approx(0.5 ** (2 / 3), abs=1e-15)


def test_plain_mode_entries_are_exactly_one(example_set):
    for mat in support_matrices_fast(example_set, 3):
        values = set(np.unique(mat.entries))
        assert values <= {0.0, 1.0}


@pytest.mark.parametrize("q", [0, 5, -1])
def test_q_out_of_range_rejected(example_set, q):
    with pytest.raises(ParameterError):
        support_matrices_fast(example_set, q)


def test_q_must_be_integer(example_set):
    with pytest.raises(ParameterError):
        support_matrices_fast(example_set, 2.0)
    with pytest.raises(ParameterError):
        support_matrices_fast(example_set, True)


@pytest.mark.parametrize("kw", [{"gamma": 0.0}, {"gamma": 1.5}, {"lam": 0.0}, {"lam": -0.2}])
def test_weights_outside_unit_interval_rejected(example_set, kw):
    with pytest.raises(ParameterError):
        support_matrices_fast(example_set, 2, **kw)


def test_supported_mask_matches_counts(example_set):
    q = 3
    mats = support_matrices_fast(example_set, q)
    for mat in mats:
        for i in range(mat.m):
            for j in range(i, mat.m):
                f = support_count(mat.items[i], mat.items[j], example_set)
                assert mat.supported[j, i] == (f >= q)


@settings(max_examples=60, deadline=None)
@given(ranking_sets_st())
def test_fast_equals_naive_on_random_sets(rset):
    # every threshold on the same set object, so all reuse one pattern table
    for q in range(1, len(rset) + 1):
        fast = support_matrices_fast(rset, q)
        for l in range(len(rset)):
            naive = support_matrix_naive(l, rset, q)
            assert np.array_equal(fast[l].entries, naive.entries)
            assert np.array_equal(fast[l].supported, naive.supported)


@settings(max_examples=40, deadline=None)
@given(ranking_sets_st(), st.data())
def test_fast_equals_naive_weighted(rset, data):
    gamma = data.draw(st.sampled_from([0.3, 0.5, 0.9, 1.0]))
    lam = data.draw(st.sampled_from([0.3, 0.5, 0.9, 1.0]))
    for q in range(1, len(rset) + 1):
        fast = support_matrices_fast(rset, q, gamma=gamma, lam=lam)
        for l in range(len(rset)):
            naive = support_matrix_naive(l, rset, q, gamma=gamma, lam=lam)
            assert np.array_equal(fast[l].supported, naive.supported)
            np.testing.assert_allclose(fast[l].entries, naive.entries, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(ranking_sets_st())
def test_weighted_entries_never_exceed_plain(rset):
    q = max(1, len(rset) // 2)
    plain = support_matrices_fast(rset, q)
    weighted = support_matrices_fast(rset, q, gamma=0.5, lam=0.5)
    for p, w in zip(plain, weighted):
        assert (w.entries <= p.entries + 1e-15).all()
        assert (w.entries >= 0).all()
        # weighting never changes which patterns are certified
        assert np.array_equal(p.supported, w.supported)


def _duplicated_set(seed: int, with_singletons: bool) -> RankingSet:
    """A few distinct rankings (ties, truncation) repeated many times, shuffled."""
    rng = random.Random(seed)
    distinct = [random_ranking(rng) for _ in range(3)]
    if with_singletons:
        distinct += [Ranking.strict("a"), Ranking.strict(rng.choice("bcdefgh"))]
    votes = [r for r in distinct for _ in range(rng.randint(2, 6))]
    rng.shuffle(votes)
    return RankingSet(votes)


@pytest.mark.parametrize("seed", range(6))
def test_duplicates_share_read_only_matrices_and_stay_exact(seed):
    rset = _duplicated_set(seed, with_singletons=seed % 2 == 1)
    first: dict[Ranking, int] = {}
    for q in range(1, len(rset) + 1):
        plain = support_matrices_fast(rset, q)
        weighted = support_matrices_fast(rset, q, gamma=0.5, lam=0.3)
        for l in range(len(rset)):
            naive = support_matrix_naive(l, rset, q)
            assert np.array_equal(plain[l].entries, naive.entries)
            assert np.array_equal(plain[l].supported, naive.supported)
            naive = support_matrix_naive(l, rset, q, gamma=0.5, lam=0.3)
            assert np.array_equal(weighted[l].supported, naive.supported)
            np.testing.assert_allclose(weighted[l].entries, naive.entries, rtol=0, atol=1e-12)
            k = first.setdefault(rset[l], l)
            for mats in (plain, weighted):
                assert mats[l].owner == l
                assert mats[l].entries is mats[k].entries
                assert mats[l].supported is mats[k].supported
                with pytest.raises(ValueError):
                    mats[l].entries[0, 0] = 0.25
                with pytest.raises(ValueError):
                    mats[l].supported[0, 0] = False
        distinct = {id(mat.entries) for mat in plain}
        assert len(distinct) == len(first) < len(rset)
