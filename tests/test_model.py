import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import TOKENS, bench_votes, rankings_st
from rank_consensus import Ranking, RankingSet, ScoreParams, model, reference, score
from rank_consensus.model import lower_triangle
from rank_consensus.outliers import remove_and_rescore
from rank_consensus.reference import contains_pattern


def test_positions_are_block_indices():
    r = Ranking([["b"], ["c", "d"], ["a"]])
    assert r.position("b") == 1
    assert r.position("c") == 2
    assert r.position("d") == 2
    assert r.position("a") == 3


def test_absent_item_has_position_zero():
    r = Ranking.strict("abc")
    assert r.position("z") == 0


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
    assert contains_pattern(r, "b", "a")
    assert not contains_pattern(r, "a", "b")
    assert contains_pattern(r, "c", "a")


def test_tied_items_support_both_orders():
    r = Ranking([["a"], ["b", "c"]])
    assert contains_pattern(r, "b", "c")
    assert contains_pattern(r, "c", "b")


def test_pattern_needs_both_items_present():
    r = Ranking.strict("ab")
    assert not contains_pattern(r, "a", "z")
    assert not contains_pattern(r, "z", "a")


def test_self_pattern_is_membership():
    r = Ranking.strict("ab")
    assert contains_pattern(r, "a", "a")
    assert not contains_pattern(r, "z", "z")


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
        assert contains_pattern(r, x, x)
        assert 1 <= r.position(x) <= len(r.blocks)
    assert r.is_strict == all(len(b) == 1 for b in r.blocks)


@given(rankings_st())
def test_pattern_order_matches_positions(r):
    items = r.items
    for x in items:
        for y in items:
            expected = r.position(x) <= r.position(y)
            assert contains_pattern(r, x, y) == expected


def test_pattern_stats_counts_ties_both_ways_and_repeats():
    tied = Ranking([["a", "b"], ["c"]])
    rs = RankingSet([tied, tied, Ranking.strict("ca"), Ranking.strict("ba")])
    stats = rs.pattern_stats
    # length by length, then per distinct ranking, cell by cell: c c, c a,
    # a a, then b b, b a, a a, then a a, a b, b b, a c, b c, c c for the
    # tied one (counted twice); the tied pair counts in both orders, so
    # "a b" has the two tied votes and "b a" has those two plus "ba"
    assert rs.types == (tied, Ranking.strict("ca"), Ranking.strict("ba"))
    assert rs.type_of == (0, 0, 1, 2)
    assert [(m, group.tolist(), lo, hi) for m, group, lo, hi in stats.by_length] == [
        (2, [1, 2], 0, 6), (3, [0], 6, 12)]
    assert stats.count.tolist() == [3, 1, 4, 3, 3, 4, 4, 2, 3, 2, 2, 3]
    assert stats.total.tolist() == [5, 1, 6, 3, 1, 6, 6, 0, 3, 2, 2, 5]
    assert stats.value.tolist() == [1, 1, 2, 1, 1, 2, 1, 0, 1, 1, 1, 2]
    assert table_diagonal(stats).tolist() == [True, False, True, True, False, True,
                                              True, False, True, False, False, True]
    assert rs.pattern_stats is stats


def test_ranking_set_pickles_after_counting(example_set):
    stats = example_set.pattern_stats
    copy = pickle.loads(pickle.dumps(example_set))
    assert copy == example_set
    counted = copy.pattern_stats
    assert counted is not stats
    assert (copy.types, copy.type_of) == (example_set.types, example_set.type_of)
    assert [(m, lo, hi) for m, _, lo, hi in counted.by_length] == [
        (m, lo, hi) for m, _, lo, hi in stats.by_length]
    for name in ("count", "total", "value"):
        assert np.array_equal(getattr(counted, name), getattr(stats, name))


def test_universe_reads_each_distinct_ranking_once(monkeypatch):
    reads = []
    real = Ranking.item_set

    def counting(self):
        reads.append(id(self))
        return real.fget(self)

    monkeypatch.setattr(Ranking, "item_set", property(counting))
    kinds = [Ranking.strict("abc"), Ranking([["b", "c"], ["d"]]), Ranking.strict("e"),
             Ranking.strict("abc")]  # equal to the first, but another object
    rs = RankingSet([kinds[i % 7 % 4] for i in range(20_000)])
    rs.pattern_stats
    assert rs.universe == frozenset("abcde")
    assert sorted(reads) == sorted(set(reads))
    assert set(reads) <= {id(r) for r in kinds}


def table_diagonal(table):
    """Whether each entry of ``table`` is a diagonal cell, read off the
    layout: the cells ``rows == cols`` of ``lower_triangle(m)``, once per
    type of each length."""
    return np.concatenate([np.tile(np.equal(*lower_triangle(m)), len(group))
                           for m, group, _, _ in table.by_length])


# --- the per-ranking counting pass this one replaced, kept as a reference ---

def reference_count_patterns(rankings):
    """The earlier count: one loop step per distinct ranking, one
    ``np.unique`` over every key. Returns the table's layout, length by
    length, as a dict; ``groups`` lists each length's types."""
    index = {}
    type_of = tuple(index.setdefault(r, len(index)) for r in rankings)
    types = tuple(index)
    times = np.bincount(type_of).astype(float)
    ids = {x: i for i, x in enumerate(sorted(frozenset().union(*(r.item_set for r in types))))}
    u = len(ids)
    lengths = sorted({len(r) for r in types})
    groups = [[t for t, r in enumerate(types) if len(r) == m] for m in lengths]
    laid_out = [t for group in groups for t in group]
    own, tied, values, diags = [], [], [], []
    for r in (types[t] for t in laid_out):
        rows, cols = lower_triangle(len(r))
        item = np.array([ids[x] for x in r._positions], dtype=np.int64)
        pos = np.array(list(r._positions.values()), dtype=np.int64)
        gap = pos[rows] - pos[cols]
        diag = rows == cols
        tie = (gap == 0) & ~diag
        own.append(item[cols] * u + item[rows])
        tied.append(item[rows[tie]] * u + item[cols[tie]])
        values.append(np.where(diag, pos[rows], gap))
        diags.append(diag)
    sizes = [len(k) for k in own]
    n_own = sum(sizes)
    times = times[laid_out]
    weight = np.concatenate((np.repeat(times, sizes), np.repeat(times, [len(k) for k in tied])))
    keys, inverse = np.unique(np.concatenate(own + tied), return_inverse=True)
    del own, tied
    value = np.concatenate(values)
    entry = inverse[:n_own]  # the pattern of each own cell
    counts = np.bincount(inverse, weights=weight).astype(np.int32)
    totals = np.bincount(entry, weights=weight[:n_own] * value,
                         minlength=len(keys)).astype(np.int64)
    return dict(
        types=types, type_of=type_of, groups=groups,
        count=counts[entry], total=totals[entry], value=value.astype(np.int32),
        diag=np.concatenate(diags),
    )


WIDE = [f"item{i}" for i in range(60)]


@st.composite
def voted_rankings_st(draw):
    """Votes drawn with repetition from a few distinct rankings, with ties,
    truncation and one-item rankings; sometimes over a universe so large
    that most possible keys never occur."""
    sparse = draw(st.booleans())
    pool = []
    for _ in range(draw(st.integers(1, 6))):
        universe = TOKENS
        if sparse:  # a few of 60 items per ranking
            universe = draw(st.lists(st.sampled_from(WIDE), min_size=1, max_size=5, unique=True))
        pool.append(draw(rankings_st(universe=universe)))
    votes = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))
    # equal votes as separate objects too, not only as one shared object
    return [Ranking(r.blocks) if draw(st.booleans()) else r for r in votes]


@settings(max_examples=100, deadline=None)
@given(voted_rankings_st())
def test_ranking_set_maps_each_vote_to_its_distinct_ranking(votes):
    rset = RankingSet(votes)
    types, type_of, counts = rset.types, rset.type_of, rset.votes
    assert len(type_of) == len(rset)
    assert all(types[t] == r for t, r in zip(type_of, rset))
    # pairwise distinct, in order of first appearance, each the first vote's object
    assert len(set(types)) == len(types)
    assert list(types) == list(dict.fromkeys(rset))
    assert all(r is rset[type_of.index(t)] for t, r in enumerate(types))
    assert counts.sum() == len(rset)
    assert counts.tolist() == [type_of.count(t) for t in range(len(types))]
    assert not counts.flags.writeable
    assert rset.universe == frozenset().union(*(r.item_set for r in votes))
    copy = pickle.loads(pickle.dumps(rset))
    assert (copy.types, copy.type_of, copy.votes.tolist()) == (types, type_of, counts.tolist())


@st.composite
def vote_runs_st(draw):
    """Votes laid out in runs over a few distinct rankings: a run repeats
    one object, as a preflib count line does, or equal but distinct
    objects, one per vote; a run may be a single vote, and runs of one
    ranking may be adjacent or apart."""
    pool = draw(st.lists(rankings_st(), min_size=1, max_size=4))
    votes = []
    for _ in range(draw(st.integers(1, 8))):
        ranking, size = draw(st.sampled_from(pool)), draw(st.integers(1, 4))
        shared = draw(st.booleans())
        votes += [ranking if shared else Ranking(ranking.blocks) for _ in range(size)]
    return votes


@settings(max_examples=150, deadline=None)
@given(vote_runs_st())
def test_ranking_set_runs_tile_its_votes(votes):
    rset = RankingSet(votes)
    types, type_of = [], []  # a plain dedupe by value
    for r in votes:
        if r not in types:
            types.append(r)
        type_of.append(types.index(r))
    assert list(rset.types) == types
    assert rset.type_of == tuple(type_of)
    assert rset.votes.tolist() == [type_of.count(t) for t in range(len(types))]
    # the runs tile the votes in order, and each is all the votes of one
    # object between two others
    assert [start for _, start, _ in rset.runs] == [0, *(stop for _, _, stop in rset.runs[:-1])]
    assert rset.runs[-1][2] == len(rset)
    for t, start, stop in rset.runs:
        assert start < stop
        assert all(votes[i] is votes[start] and type_of[i] == t for i in range(start, stop))
        assert start == 0 or votes[start - 1] is not votes[start]


@settings(max_examples=150, deadline=None)
@given(vote_runs_st(), st.data())
def test_removal_equals_building_the_survivors_vote_by_vote(votes, data):
    rset = RankingSet(votes)
    n = len(rset)
    # any index, or one inside a run, which splits it
    inner = [i for _, start, stop in rset.runs for i in range(start + 1, stop)]
    index = st.integers(0, n - 1)
    if inner:
        index |= st.sampled_from(inner)
    drop = data.draw(st.lists(st.one_of(index, index.map(np.int64), index.map(np.int32)),
                              max_size=n + 2))
    gone = set(map(int, drop))
    assume(len(gone) < n)
    params = ScoreParams(q=data.draw(st.integers(1, n)),
                         gamma=data.draw(st.sampled_from([1.0, 0.5])),
                         lam=data.draw(st.sampled_from([1.0, 0.7])))
    got = remove_and_rescore(rset, drop, params)
    kept = [i for i in range(n) if i not in gone]
    survivors = RankingSet([rset[i] for i in kept])
    want = score(survivors, ScoreParams(q=-(-params.q * len(kept) // n), gamma=params.gamma,
                                        lam=params.lam))
    assert got.original_indices == tuple(kept)
    assert got.params == want.params
    assert (got.type_of, got.rset.runs) == (survivors.type_of, survivors.runs)
    for name in ("kappa1", "kappa2"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


@pytest.mark.parametrize("route", ["default", "dense", "unique"])
@settings(max_examples=80, deadline=None)
@given(voted_rankings_st())
def test_count_patterns_equals_the_per_ranking_reference(route, votes):
    want = reference_count_patterns(votes)
    with pytest.MonkeyPatch.context() as mp:
        if route != "default":
            mp.setattr(model, "_DENSE_KEYS", 10**9 if route == "dense" else 0)
        rset = RankingSet(votes)
        table = model.count_patterns(rset)
    assert rset.types == want["types"]
    assert rset.type_of == want["type_of"]
    for name in ("count", "total", "value"):
        got = getattr(table, name)
        assert got.dtype == want[name].dtype and np.array_equal(got, want[name]), name
        assert not got.flags.writeable
    assert np.array_equal(table_diagonal(table), want["diag"])
    # the layout lists every type once, lengths ascending, each length's
    # types in first-appearance order, and its blocks tile the table in order
    lengths = [m for m, _, _, _ in table.by_length]
    assert lengths == sorted(set(lengths))
    assert [group.tolist() for _, group, _, _ in table.by_length] == want["groups"]
    seen, end = [], 0
    for m, group, lo, hi in table.by_length:
        assert group.tolist() == sorted(group.tolist())
        assert all(len(rset.types[t]) == m for t in group.tolist())
        assert lo == end and hi - lo == len(group) * m * (m + 1) // 2
        assert not group.flags.writeable
        seen += group.tolist()
        end = hi
    assert end == len(table.count)
    assert sorted(seen) == list(range(len(rset.types)))


# --- the rank helper and the memory of counting -------------------------------

def deviations_st():
    """Float deviations ``|v*c - t|/c`` as a table holds them, with ties."""
    return st.lists(st.tuples(st.integers(-40, 40), st.integers(1, 9)).map(
        lambda vc: abs(vc[0]) / vc[1]), min_size=1, max_size=60)


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    deviations_st().map(lambda xs: np.array(xs, dtype=float)),
    st.lists(st.integers(-2**62, 2**62), min_size=1, max_size=60).map(
        lambda xs: np.array(xs, dtype=np.int64)),
    st.lists(st.integers(0, 5), min_size=1, max_size=60).map(
        lambda xs: np.array(xs, dtype=np.int64) * 900 + 7),
))
@example(np.array([0.5]))
@example(np.array([3, 3, 3, 3], dtype=np.int64))
@example(np.array([1 / 3, 0.0, 1 / 3, 2.0, 0.0]))
def test_unique_inverse_equals_np_unique(a):
    want_unique, want_inverse = np.unique(a, return_inverse=True)
    unique, inverse = model.unique_inverse(a.copy())
    assert unique.dtype == a.dtype and unique.tobytes() == want_unique.tobytes()
    assert inverse.dtype == np.int32 and inverse.tolist() == want_inverse.tolist()
    assert not unique.flags.writeable and not inverse.flags.writeable


# bytes per table entry that counting and ranking the deviations may peak at,
# under tracemalloc, on benchmark-shaped inputs of 12 745 (sweep) and 20 200
# (retrieval) entries. Ranked with np.unique, the sparse route peaked at 88.8
# and 106.0 and the deviations at 49.2; the dense route ranks nothing, and its
# bounds only guard it. Counting now peaks at 40.6, 49.6, 73.6 and 61.1 (it
# was 53.0, 54.6, 87.4 and 75.7 with int64 columns gathered as floats). The
# deviations are ranked in steps of 2 048 entries here, so that each table
# spans several: they peak at 12.8 and 7.9, where ranking the whole table at
# once peaked at 26.4 and 24.0
SHRUNK = {"sweep": ("sweep_rankings", {"n": 60}),
          "retrieval": ("retrieval_lists", {"n_lists": 4})}
COUNT_PEAK = {("sweep", "dense"): 46, ("sweep", "unique"): 57,
              ("retrieval", "dense"): 84, ("retrieval", "unique"): 70}
DEVIATIONS_PEAK = 15
DEVIATIONS_STEP = 2048 * 8


def traced_peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("route", ["dense", "unique"])
@pytest.mark.parametrize("workload", sorted(SHRUNK))
def test_counting_memory_per_entry_is_bounded(workload, route, monkeypatch):
    generator, shrink = SHRUNK[workload]
    rset = RankingSet(bench_votes(generator, **shrink))
    monkeypatch.setattr(model, "_DENSE_KEYS", 10**9 if route == "dense" else 0)
    table, peak = traced_peak(lambda: model.count_patterns(rset))
    n = len(table.count)
    assert n >= 10_000
    assert peak / n < COUNT_PEAK[workload, route]


@pytest.mark.parametrize("workload", sorted(SHRUNK))
def test_ranking_deviations_memory_per_entry_is_bounded(workload, monkeypatch):
    generator, shrink = SHRUNK[workload]
    table = model.count_patterns(RankingSet(bench_votes(generator, **shrink)))
    n = len(table.count)
    monkeypatch.setattr(model, "_STEP_BYTES", DEVIATIONS_STEP)
    (unique, inverse), peak = traced_peak(lambda: table.deviations)
    assert n >= 5 * DEVIATIONS_STEP // 8
    assert peak / n < DEVIATIONS_PEAK
    assert inverse.dtype == np.int32
    deviation = np.abs(table.value.astype(np.int64) * table.count - table.total) / table.count
    want_unique, want_inverse = np.unique(deviation, return_inverse=True)
    assert np.array_equal(unique, want_unique) and np.array_equal(inverse, want_inverse)


@pytest.mark.parametrize("generator", ["retrieval_lists", "sweep_rankings"])
def test_weights_equal_the_per_value_weight(generator):
    # the benchmark's inputs at full size: 10 097 and 5 774 distinct deviations
    table = RankingSet(bench_votes(generator)).pattern_stats
    unique = table.deviations[0]
    assert unique[0] == 0.0 and len(unique) > 5000
    for base in (1.0, 0.999999, 0.9, 0.5, 0.2, 1e-300):
        want = np.array([reference._weight(base, d) for d in unique.tolist()])
        assert table.weights(base).tobytes() == want.tobytes(), base


@pytest.mark.parametrize("step_bytes", [1, 24, None])
def test_deviations_of_int32_columns_are_exact_past_2_31(step_bytes, monkeypatch):
    # value * count = 2448 * 10**6 is above 2**31, the int32 columns' range
    rows = [(2448, 10**6, 10**6), (2448, 10**6, 2448 * 10**6), (1, 3, 2),
            (2448, 999_999, 1), (2448, 10**6, 2**31), (0, 7, 0), (2448, 10**6, 10**6)]
    value, count, total = (np.array(c, dtype=d) for c, d in zip(
        zip(*rows), (np.int32, np.int32, np.int64)))
    table = model.PatternTable(count, total, value, ())
    if step_bytes is not None:  # one or three entries per step
        monkeypatch.setattr(model, "_STEP_BYTES", step_bytes)
    unique, index = table.deviations
    want = [abs(v * c - t) / c for v, c, t in rows]  # Python integers, then one division
    assert max(v * c - t for v, c, t in rows) > 2**31
    assert unique.tolist() == sorted(set(want))
    assert [unique[i] for i in index.tolist()] == want
    assert index.dtype == np.int32 and not unique.flags.writeable and not index.flags.writeable
