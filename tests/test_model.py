import pickle

import pytest
from hypothesis import given

from conftest import rankings_st
from rank_consensus import Ranking, RankingSet, contains_pattern, position


def test_positions_are_block_indices():
    r = Ranking([["b"], ["c", "d"], ["a"]])
    assert r.position("b") == 1
    assert r.position("c") == 2
    assert r.position("d") == 2
    assert r.position("a") == 3


def test_absent_item_has_position_zero():
    r = Ranking.strict("abc")
    assert r.position("z") == 0
    assert position("z", r) == 0


def test_strict_constructor_and_flags():
    r = Ranking.strict("cab")
    assert r.blocks == (("c",), ("a",), ("b",))
    assert r.items == ("c", "a", "b")
    assert r.is_strict
    assert not Ranking([["a"], ["b", "c"]]).is_strict


def test_len_counts_items_not_blocks():
    assert len(Ranking([["a"], ["b", "c"]])) == 3


def test_contains_pattern_strict_order():
    r = Ranking.strict("bca")
    assert r.contains_pattern("b", "a")
    assert not r.contains_pattern("a", "b")
    assert contains_pattern("c", "a", r)


def test_tied_items_support_both_orders():
    r = Ranking([["a"], ["b", "c"]])
    assert r.contains_pattern("b", "c")
    assert r.contains_pattern("c", "b")


def test_pattern_needs_both_items_present():
    r = Ranking.strict("ab")
    assert not r.contains_pattern("a", "z")
    assert not r.contains_pattern("z", "a")


def test_self_pattern_is_membership():
    r = Ranking.strict("ab")
    assert r.contains_pattern("a", "a")
    assert not r.contains_pattern("z", "z")


def test_blocks_normalised_for_equality():
    assert Ranking([["a"], ["c", "b"]]) == Ranking([["a"], ["b", "c"]])
    assert hash(Ranking([["c", "b"]])) == hash(Ranking([["b", "c"]]))


def test_duplicate_items_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        Ranking([["a"], ["b", "a"]])


def test_empty_rankings_rejected():
    with pytest.raises(ValueError):
        Ranking([])
    with pytest.raises(ValueError):
        Ranking([["a"], []])


def test_blank_item_rejected():
    with pytest.raises(ValueError):
        Ranking([["a"], [""]])


def test_ranking_set_basics(example_set):
    assert len(example_set) == 4
    assert example_set[2].position("g") == 4
    assert example_set.universe == frozenset("abcdefgh")
    assert [len(r) for r in example_set] == [6, 6, 6, 6]


def test_ranking_set_must_not_be_empty():
    with pytest.raises(ValueError):
        RankingSet([])


def test_ranking_set_allows_repeats():
    r = Ranking.strict("ab")
    rs = RankingSet([r, r, r])
    assert len(rs) == 3


@given(rankings_st())
def test_every_item_contains_itself(r):
    for x in r.items:
        assert r.contains_pattern(x, x)
        assert 1 <= r.position(x) <= len(r.blocks)


@given(rankings_st())
def test_pattern_order_matches_positions(r):
    items = r.items
    for x in items:
        for y in items:
            expected = r.position(x) <= r.position(y)
            assert r.contains_pattern(x, y) == expected


def test_pattern_stats_counts_ties_both_ways_and_repeats():
    tied = Ranking([["a", "b"], ["c"]])
    rs = RankingSet([tied, tied, Ranking.strict("ca")])
    stats = rs.pattern_stats
    assert stats["a", "b"] == stats["b", "a"] == (2, 0)
    assert stats["a", "a"] == (3, 1 + 1 + 2)
    assert stats["a", "c"] == (2, 2)
    assert stats["c", "a"] == (1, 1)
    assert ("c", "b") not in stats
    assert rs.pattern_stats is stats


def test_ranking_set_pickles_after_counting(example_set):
    example_set.pattern_stats
    copy = pickle.loads(pickle.dumps(example_set))
    assert copy == example_set
    assert copy.pattern_stats == example_set.pattern_stats
