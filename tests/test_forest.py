import itertools
import random
import tracemalloc

import pytest

from dissoc.errors import ParseError
from dissoc.forest import (
    Forest,
    VertexSet,
    canonical_code,
    centroids,
    normalize_indices,
    parse_edge_list,
    serialize_edge_list,
)
from dissoc.treegen import free_trees, random_labeled_tree

from util import (
    ahu_code_oracle,
    brute_isomorphic,
    deadline,
    forest_from_level_sequence_oracle,
    labeled_trees_pruefer,
    level_sequences,
    path,
    random_forest_with_isolated_vertices,
    relabel,
    star,
)


def test_vertex_set_basics():
    vs = VertexSet.from_iterable(6, [4, 0, 2])
    assert vs.members() == (0, 2, 4)
    assert len(vs) == 3
    assert 2 in vs and 3 not in vs
    assert VertexSet(vs.bits | 1 << 3, 6).members() == (0, 2, 3, 4)
    assert VertexSet(vs.bits & ~1, 6).members() == (2, 4)
    wide = VertexSet.from_iterable(130, [129, 64, 0, 100, 63, 65])
    assert wide.members() == (0, 63, 64, 65, 100, 129)
    assert list(wide) == [0, 63, 64, 65, 100, 129]
    assert VertexSet(0, 130).members() == ()
    with pytest.raises(ValueError):
        VertexSet.from_iterable(3, [3])


def test_forest_validation():
    with pytest.raises(ValueError, match="self-loop"):
        Forest.from_edges(2, [(0, 0)])
    with pytest.raises(ValueError, match="duplicate"):
        Forest.from_edges(2, [(0, 1), (1, 0)])
    with pytest.raises(ValueError, match="cycle"):
        Forest.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(ValueError, match="out of range"):
        Forest.from_edges(2, [(0, 2)])


def _sorted_edge_set(forest: Forest) -> tuple[tuple[int, int], ...]:
    pairs = {(min(u, w), max(u, w)) for u in range(forest.n) for w in forest.adjacency[u]}
    return tuple(sorted(pairs))


def test_edges_are_the_sorted_edge_set():
    # edges is read off the adjacency, in order: each edge once as (smaller, larger), ascending,
    # whatever the order and the direction the edges came in
    rng = random.Random(5)
    for _ in range(300):
        forest = random_forest_with_isolated_vertices(rng, 12)
        assert forest.edges == _sorted_edge_set(forest)
        given = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in forest.edges]
        rng.shuffle(given)
        assert Forest.from_edges(forest.n, given).edges == forest.edges
    for n in range(1, 10):
        for seq, tree in zip(level_sequences(n), free_trees(n)):
            assert tree.edges == forest_from_level_sequence_oracle(seq).edges, seq
            assert tree.edges == _sorted_edge_set(tree)


def test_parse_smallest_tree():
    f = parse_edge_list("a b\nb c")
    assert f.n == 3
    assert f.edges == ((0, 1), (1, 2))
    assert f.labels == ("a", "b", "c")


def test_parse_rejects_cycle_with_line_number():
    with pytest.raises(ParseError, match="line 3"):
        parse_edge_list("1 2\n2 3\n3 1")


@pytest.mark.parametrize(
    "text, line, names",
    [
        ("a b\nb c\n\nc b\n", 4, "duplicate edge c b"),
        ("x y\n# comment\ny z\nz x\n", 4, "edge z x closes a cycle"),
        ("vertex w\np q\nw w  # loop\n", 3, "self-loop at vertex w"),
    ],
)
def test_parse_error_names_line_and_labels(text, line, names):
    with pytest.raises(ParseError) as info:
        parse_edge_list(text)
    assert str(info.value) == f"line {line}: {names}"


def test_parse_rejects_duplicates_and_self_loops():
    with pytest.raises(ParseError, match="duplicate"):
        parse_edge_list("a b\nb a")
    with pytest.raises(ParseError, match="self-loop"):
        parse_edge_list("a a")
    with pytest.raises(ParseError, match="two labels"):
        parse_edge_list("a b c")


def test_parse_comments_and_isolated_vertices():
    f = parse_edge_list("# header\na b  # trailing\nvertex c\n\n")
    assert f.n == 3
    assert f.edges == ((0, 1),)
    assert len(f.adjacency[2]) == 0


LT8_TEXT = "u1 u2\nu2 u3\nu3 u4\nu1 v1\nu2 v2\nu3 v3\nu4 v4"


def test_parse_lt8_text():
    f = parse_edge_list(LT8_TEXT)
    assert f.n == 8
    from dissoc.extremal import lt8

    assert canonical_code(f) == canonical_code(lt8())


def test_canonical_code_relabeling_invariance():
    p4 = path(4)
    assert canonical_code(p4) == canonical_code(relabel(p4, [3, 0, 2, 1]))
    assert canonical_code(p4) != canonical_code(star(4))


def test_canonical_code_equals_nested_bytes_oracle():
    for n in range(1, 13):
        for t in free_trees(n):
            assert canonical_code(t) == ahu_code_oracle(t), t.edges
    rng = random.Random(14)
    for _ in range(300):
        t = random_labeled_tree(rng.randint(1, 400), rng)
        assert canonical_code(t) == ahu_code_oracle(t), t.edges


def test_canonical_code_of_a_long_path_holds_linear_memory():
    # one byte string per vertex would hold about 200 MB of codes at this order
    long_path = path(20_000)
    tracemalloc.start()
    try:
        with deadline(10):
            code = canonical_code(long_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(code) == 2 * 20_000
    assert peak < 50 * 2**20, peak


def test_canonical_code_rejects_disconnected():
    with pytest.raises(ValueError):
        canonical_code(Forest.from_edges(4, [(0, 1), (2, 3)]))


def test_order7_labeled_trees_have_11_classes():
    codes = {canonical_code(t) for t in labeled_trees_pruefer(7)}
    assert len(codes) == 11


def test_code_agreement_iff_isomorphic_small_n():
    # codes of distinct class representatives differ and their graphs are
    # non-isomorphic per the permutation-search oracle
    for n in range(2, 8):
        reps = list(free_trees(n))
        codes = [canonical_code(t) for t in reps]
        assert len(set(codes)) == len(reps)
        for (i, a), (j, b) in itertools.combinations(enumerate(reps), 2):
            assert not brute_isomorphic(a, b), (n, i, j)
    # random relabelings keep the code and stay isomorphic
    rng = random.Random(11)
    for n in range(2, 9):
        for t in free_trees(n):
            perm = list(range(n))
            rng.shuffle(perm)
            other = relabel(t, perm)
            assert canonical_code(other) == canonical_code(t)
            assert brute_isomorphic(t, other)


def test_centroid_component_sizes_are_relabeling_invariant():
    rng = random.Random(5)
    for t in free_trees(7):
        base = centroids(t)
        perm = list(range(t.n))
        rng.shuffle(perm)
        other = relabel(t, perm)
        assert sorted(perm[c] for c in base) == sorted(centroids(other))


def _with_isolated_vertices(tree: Forest, extra: int, rng: random.Random) -> Forest:
    """The tree plus ``extra`` isolated vertices, all vertices shuffled."""
    n = tree.n + extra
    perm = list(range(n))
    rng.shuffle(perm)
    return Forest.from_edges(n, [(perm[u], perm[v]) for u, v in tree.edges])


def _assert_round_trip(forest: Forest) -> None:
    norm = normalize_indices(forest)
    # every component becomes a run of consecutive indices, in BFS order
    assert [v for comp in norm.components() for v in comp] == list(range(norm.n))
    text = serialize_edge_list(norm)
    back = parse_edge_list(text)
    assert back.n == norm.n
    assert back.edges == norm.edges
    assert back.components() == norm.components()
    # and the canonical text is a fixed point of parse -> serialize
    assert serialize_edge_list(back) == text


def test_serialize_parse_round_trip_on_canonical_form():
    rng = random.Random(3)
    for n in range(1, 9):
        for t in free_trees(n):
            _assert_round_trip(t)
            _assert_round_trip(_with_isolated_vertices(t, rng.randrange(1, 4), rng))


def test_serialize_declares_isolated_vertices():
    f = Forest.from_edges(3, [(1, 2)])
    assert serialize_edge_list(f) == "vertex 0\n1 2\n"
    assert parse_edge_list(serialize_edge_list(f)).n == 3


def _serialize_oracle(forest: Forest) -> str:
    """The format's definition: edge lines and vertex declarations, sorted by index key."""
    items = [((u, v), f"{u} {v}\n") for u, v in forest.edges]
    items += [((v,), f"vertex {v}\n") for v in range(forest.n) if not forest.adjacency[v]]
    return "".join(line for _, line in sorted(items))


def test_serialize_matches_the_sorted_definition_on_random_forests():
    rng = random.Random(5)
    empty = Forest.from_edges(0, [])
    assert serialize_edge_list(empty) == "" == _serialize_oracle(empty)
    for _ in range(500):
        f = random_forest_with_isolated_vertices(rng, 8)
        assert serialize_edge_list(f) == _serialize_oracle(f), f.edges


def test_components_and_tree_flags():
    f = Forest.from_edges(5, [(0, 1), (3, 4)])
    assert f.components() == ((0, 1), (2,), (3, 4))
    assert f.bfs == ((0, 1, 2, 3, 4), (-1, 0, -1, -1, 3))
    assert not f.is_tree and not f.is_connected
    g = parse_edge_list("b c\nvertex x\na b\nvertex y\nd e\n")
    assert g.labels == ("b", "c", "x", "a", "y", "d", "e")
    assert g.components() == ((0, 1, 3), (2,), (4,), (5, 6))
    norm = normalize_indices(g)
    assert norm.labels == ("b", "c", "a", "x", "y", "d", "e")
    assert norm.components() == ((0, 1, 2), (3,), (4,), (5, 6))
    assert serialize_edge_list(norm) == "0 1\n0 2\nvertex 3\nvertex 4\n5 6\n"
    _assert_round_trip(g)
    assert path(1).is_tree
    assert path(6).is_tree
