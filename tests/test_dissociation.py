import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dissoc import dissociation
from dissoc.dissociation import (
    _classes,
    _rerooted,
    alpha3_count_dp,
    alpha3_forced,
    enumerate_mds,
)
from dissoc.errors import GuardExceeded
from dissoc.extremal import lt8, star_construction
from dissoc.forest import Forest, VertexSet
from dissoc.treegen import forest_from_level_sequence, free_trees, pruefer_decode, random_labeled_tree

from util import (
    brute_force_masked_classes,
    brute_force_mds,
    dp_forest,
    every_level_sequence,
    forest_from_level_sequence_oracle,
    is_dissociation_set,
    level_sequences,
    path,
    random_forest_with_isolated_vertices,
    star,
)


def members(sets):
    return [s.members() for s in sets]


def test_brute_force_p3():
    alpha, sets = brute_force_mds(path(3))
    assert alpha == 2
    assert members(sets) == [(0, 1), (0, 2), (1, 2)]


def test_brute_force_p7():
    alpha, sets = brute_force_mds(path(7))
    assert alpha == 5
    assert len(sets) == 3


def test_brute_force_lt8():
    alpha, sets = brute_force_mds(lt8())
    assert alpha == 6
    assert len(sets) == 3


def test_brute_force_guard():
    with pytest.raises(GuardExceeded):
        brute_force_mds(path(27))


def test_dp_trivial_cases():
    r = alpha3_count_dp(path(1))
    assert (r.alpha3, r.count) == (1, 1)
    r = alpha3_count_dp(Forest.from_edges(0, []))
    assert (r.alpha3, r.count) == (0, 1)


def test_dp_spider_count_six():
    spider = star_construction(("P3", "P4"))
    assert spider.n == 6
    r = alpha3_count_dp(spider)
    assert r.count == 6


def test_dp_equals_brute_exhaustively():
    for n in range(1, 9):
        for t in free_trees(n):
            alpha, sets = brute_force_mds(t)
            r = alpha3_count_dp(t)
            assert (r.alpha3, r.count) == (alpha, len(sets)), t.edges


def test_level_sequence_count_matches_decoded_tree_and_oracle():
    # the count reads the decoded tree; the oracle tree comes from an independent
    # stack decode through Forest.from_edges
    sequences = [seq for n in range(1, 13) for seq in level_sequences(n)]
    sequences += [seq for n in range(1, 10) for seq in every_level_sequence(n)]
    assert len(sequences) == 987 + 2056
    for seq in sequences:
        tree = forest_from_level_sequence_oracle(seq)
        decoded = forest_from_level_sequence(seq)
        # parents come first: every vertex but the root has exactly one smaller neighbour
        smaller = [sum(w < v for w in ns) for v, ns in enumerate(decoded.adjacency)]
        assert smaller == [0] + [1] * (len(seq) - 1), seq
        assert decoded.edges == tree.edges, seq
        r = alpha3_count_dp(decoded)
        assert (r.alpha3, r.count) == dp_forest(tree), seq


def test_dp_on_forests_multiplies_component_counts():
    two_p3 = Forest.from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    r = alpha3_count_dp(two_p3)
    assert (r.alpha3, r.count) == (4, 9)


def test_arbitrary_precision_count():
    big = star_construction(("P3",) + ("P4",) * 19)  # 60 vertices
    assert alpha3_count_dp(big).count == 3**19 + 21


def test_forced_examples():
    p3 = path(3)
    none = VertexSet(0, 3)
    assert alpha3_forced(p3, VertexSet.from_iterable(3, [1]), none) == 2
    assert alpha3_forced(p3, VertexSet(0b111, 3), none) is None
    assert alpha3_forced(p3, none, none) == 2
    with pytest.raises(ValueError, match="overlap"):
        alpha3_forced(p3, VertexSet.from_iterable(3, [0]), VertexSet.from_iterable(3, [0]))


def test_forced_against_brute():
    for n in range(1, 7):
        for t in free_trees(n):
            alpha, sets = brute_force_mds(t)
            for v in range(n):
                hold = VertexSet.from_iterable(n, [v])
                none = VertexSet(0, n)
                in_some_max = any(v in s for s in sets)
                got = alpha3_forced(t, hold, none)
                assert got == alpha if in_some_max else got < alpha


def test_enumerate_matches_brute():
    for n in range(1, 9):
        for t in free_trees(n):
            _, sets = brute_force_mds(t)
            got = list(enumerate_mds(t))
            assert members(got) == members(sets)
            assert all(is_dissociation_set(t, s) for s in got)


def test_enumerate_p5_unique():
    assert members(enumerate_mds(path(5))) == [(0, 1, 3, 4)]


def test_enumerate_lexicographic_order():
    got = members(enumerate_mds(path(3)))
    assert got == sorted(got)


def test_enumerate_does_not_recurse():
    tree = random_labeled_tree(400, random.Random(11))
    alpha = alpha3_count_dp(tree).alpha3
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(100)
    try:
        first = next(enumerate_mds(tree))
    finally:
        sys.setrecursionlimit(limit)
    assert len(first) == alpha and is_dissociation_set(tree, first)


def test_enumerate_matches_brute_on_forests_with_isolated_vertices():
    rng = random.Random(3)
    for _ in range(60):
        forest = random_forest_with_isolated_vertices(rng, 16)
        _, sets = brute_force_mds(forest)
        assert members(enumerate_mds(forest)) == members(sets), forest.edges


def test_enumerate_empty_forest_yields_the_empty_set():
    assert members(enumerate_mds(Forest.from_edges(0, []))) == [()]


def test_enumerate_runs_one_pass_per_search_node(monkeypatch):
    passes = 0

    def counted(*args):
        nonlocal passes
        passes += 1
        return _rerooted(*args)

    monkeypatch.setattr(dissociation, "_rerooted", counted)
    for n in range(1, 11):
        for t in free_trees(n):
            passes = 0
            sets = sum(1 for _ in enumerate_mds(t))
            assert passes == 2 * sets - 1, t.edges


def _combined(records):
    """(size, count) of a forest from one record per component."""
    if any(count == 0 for _, count in records):
        return -1, 0
    size, ways = 0, 1
    for s, count in records:
        size, ways = size + s, ways * count
    return size, ways


def _combined_size(sizes):
    """Size of a forest from one size per component, -1 when one is infeasible."""
    return -1 if any(s < 0 for s in sizes) else sum(sizes)


def _random_masks(rng, forest, p_inc):
    inc = exc = 0
    for v in range(forest.n):
        pick = rng.random()
        if pick < p_inc:
            inc |= 1 << v
        elif pick < p_inc + 0.1:
            exc |= 1 << v
    return inc, exc


def _assert_masked_engine_matches_dp(forest, inc, exc):
    """The rerooting tables under the masks against the oracle DP; returns whether
    the masks are infeasible."""
    _, down, _, (best_s, out_s, held_s) = _rerooted(forest, inc, exc)
    comps = forest.components()  # each starts at its root
    optima = [(down[0][comp[0]], down[1][comp[0]]) for comp in comps]
    want = dp_forest(forest, inc, exc)
    assert _combined(optima) == want, (forest.edges, inc, exc)
    # the root fold of the counting and forced queries
    forced = alpha3_forced(forest, VertexSet(inc, forest.n), VertexSet(exc, forest.n))
    assert forced == (None if want == (-1, 0) else want[0]), (forest.edges, inc, exc)
    res = alpha3_count_dp(forest)
    assert (res.alpha3, res.count) == dp_forest(forest), forest.edges
    sizes = [size if ways else -1 for size, ways in optima]
    for i, comp in enumerate(comps):
        for v in comp:
            # every vertex of a component sees the same optimum of it
            assert max(best_s[v], -1) == sizes[i], (forest.edges, inc, exc, v)
            # v excluded unless it is forced in, included unless it is forced out
            for mask, side, held in ((inc, out_s, False), (exc, held_s, True)):
                if mask >> v & 1:
                    continue
                got = _combined_size(sizes[:i] + [side[v]] + sizes[i + 1 :])
                expected = dp_forest(forest, inc | held << v, exc | (not held) << v)[0]
                assert got == expected, (forest.edges, inc, exc, v, held)
    return want == (-1, 0)


def test_masked_engine_matches_dp():
    rng = random.Random(5)
    infeasible = 0
    for _ in range(150):
        forest = random_forest_with_isolated_vertices(rng, 20)
        # high include rates tend to include a vertex and two neighbours
        masks = _random_masks(rng, forest, rng.random())
        infeasible += _assert_masked_engine_matches_dp(forest, *masks)
    assert 30 < infeasible < 120


def test_masked_engine_keeps_a_side_infeasible_past_an_excluded_vertex():
    # 0 is forced out; of its sides, 1 is forced in and 2 is forced in with both of its
    # children, so the side of 2 has no set and neither has 3's view of 0 through it
    forest = Forest.from_edges(6, [(0, 1), (0, 2), (0, 3), (2, 4), (2, 5)])
    assert _assert_masked_engine_matches_dp(forest, 0b110110, 0b000001)


def test_masked_classes_match_a_subset_scan():
    rng = random.Random(6)
    feasible = 0
    for _ in range(150):
        forest = random_forest_with_isolated_vertices(rng, 11)
        inc, exc = _random_masks(rng, forest, 0.15 * rng.random())
        want = brute_force_masked_classes(forest, inc, exc)
        if want is None:
            continue
        feasible += 1
        assert _classes(_rerooted(forest, inc, exc)[3], inc, exc) == want, (forest.edges, inc, exc)
    assert feasible > 80


@st.composite
def forests(draw, max_n=9):
    n = draw(st.integers(min_value=0, max_value=max_n))
    if n <= 1:
        return Forest.from_edges(n, [])
    seq = tuple(draw(st.integers(0, n - 1)) for _ in range(n - 2))
    tree = pruefer_decode(seq, n)
    keep = draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
    return Forest.from_edges(n, [e for e, k in zip(tree.edges, keep) if k])


@settings(max_examples=120, deadline=None)
@given(forests())
def test_dp_matches_brute_on_random_forests(forest):
    alpha, sets = brute_force_mds(forest)
    r = alpha3_count_dp(forest)
    assert (r.alpha3, r.count) == (alpha, len(sets))


@settings(max_examples=80, deadline=None)
@given(forests())
def test_edge_deletion_monotonicity(forest):
    base = alpha3_count_dp(forest).alpha3
    for e in forest.edges:
        reduced = alpha3_count_dp(forest.without_edge(*e)).alpha3
        assert reduced in (base, base + 1)


@settings(max_examples=60, deadline=None)
@given(forests(max_n=6), forests(max_n=6))
def test_component_additivity(a, b):
    shift = a.n
    union = Forest.from_edges(
        a.n + b.n, list(a.edges) + [(u + shift, v + shift) for u, v in b.edges]
    )
    ra, rb, ru = alpha3_count_dp(a), alpha3_count_dp(b), alpha3_count_dp(union)
    assert ru.alpha3 == ra.alpha3 + rb.alpha3
    assert ru.count == ra.count * rb.count
