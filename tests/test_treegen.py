import random
from itertools import islice

import pytest

from dissoc.errors import GuardExceeded
from dissoc.forest import canonical_code
from dissoc.treegen import (
    _walk,
    forest_from_level_sequence,
    free_tree_count,
    free_trees,
    pruefer_decode,
    random_labeled_tree,
)

from util import (
    every_level_sequence,
    forest_from_level_sequence_oracle,
    labeled_trees_pruefer,
    level_sequences,
    level_sequences_oracle,
)

# number of unlabeled trees of order 1, 2, 3, ...
FREE_TREE_COUNTS = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159, 7741]


def test_level_sequence_validation():
    assert forest_from_level_sequence((1, 2, 3, 2)).is_tree
    start = "level sequence must start at level 1"
    for seq, message in (((2, 3), start), ((1, 3), "invalid level 3 at position 1"), ((), start),
                         ((1, 2, 4), "invalid level 4 at position 2"),
                         ((1, 2, 1), "invalid level 1 at position 2"),
                         ((1, 2, 3, 5), "invalid level 5 at position 3")):
        with pytest.raises(ValueError) as exc:
            forest_from_level_sequence(seq)
        assert str(exc.value) == message, seq


def test_walk_matches_allocating_oracle():
    # the in-place walk yields the sequences of the walk that copies the list
    # and splits it afresh at every step, in the same order
    for n in range(1, 17):
        assert list(level_sequences(n)) == list(level_sequences_oracle(n)), n


def test_decode_level_sequence():
    t = forest_from_level_sequence((1, 2, 3, 2))
    assert t.edges == ((0, 1), (0, 3), (1, 2))


def test_direct_decode_matches_validating_oracle():
    # dataclass equality: n, sorted edges, sorted adjacency and labels all match
    decoded = [seq for n in range(1, 13) for seq in level_sequences(n)]
    decoded += [seq for n in range(1, 11) for seq in every_level_sequence(n)]
    assert len(decoded) == 987 + 6918
    for seq in decoded:
        tree = forest_from_level_sequence(seq)
        assert tree == forest_from_level_sequence_oracle(seq), seq
        assert tree.is_tree


def test_free_tree_counts():
    for n, want in enumerate(FREE_TREE_COUNTS, start=1):
        assert free_tree_count(n) == want, n
    # Otter's formula, not a walk: the count equals the walk's wherever the walk is quick
    for n in range(1, 17):
        assert free_tree_count(n) == sum(1 for _ in _walk(n)), n


def test_free_trees_n4():
    trees = list(free_trees(4))
    assert len(trees) == 2
    degs = sorted(tuple(sorted(len(t.adjacency[v]) for v in range(4))) for t in trees)
    assert degs == [(1, 1, 1, 3), (1, 1, 2, 2)]


def test_free_trees_are_valid_and_distinct():
    for n in range(1, 11):
        codes = set()
        for t in free_trees(n):
            assert t.is_tree and t.n == n
            codes.add(canonical_code(t))
        assert len(codes) == FREE_TREE_COUNTS[n - 1]


def test_level_sequences_strictly_decreasing():
    seqs = list(level_sequences(8))
    assert all(a > b for a, b in zip(seqs, seqs[1:]))


def test_stream_chunks_cover_the_stream():
    whole = [t.edges for t in free_trees(9)]
    chunks = []
    for lo in range(0, len(whole), 17):
        chunks.extend(t.edges for t in islice(free_trees(9), lo, lo + 17))
    assert chunks == whole


def test_pruefer_cayley_counts():
    assert sum(1 for _ in labeled_trees_pruefer(3)) == 3
    assert sum(1 for _ in labeled_trees_pruefer(4)) == 16
    assert sum(1 for _ in labeled_trees_pruefer(6)) == 1296


def test_pruefer_class_counts():
    assert len({canonical_code(t) for t in labeled_trees_pruefer(3)}) == 1
    assert len({canonical_code(t) for t in labeled_trees_pruefer(4)}) == 2
    assert len({canonical_code(t) for t in labeled_trees_pruefer(6)}) == 6


def test_pruefer_classes_match_free_trees():
    for n in range(1, 9):
        free = {canonical_code(t) for t in free_trees(n)}
        labeled = {canonical_code(t) for t in labeled_trees_pruefer(n)}
        assert free == labeled, n


def test_pruefer_guard():
    with pytest.raises(GuardExceeded):
        next(labeled_trees_pruefer(10))


def test_pruefer_decode_known_sequence():
    # sequence (3, 3, 3, 4) encodes a double star on 0..5
    t = pruefer_decode((3, 3, 3, 4), 6)
    assert t.is_tree
    assert sorted(len(t.adjacency[v]) for v in range(6)) == [1, 1, 1, 1, 2, 4]


def test_random_labeled_tree_reproducible():
    a = random_labeled_tree(12, random.Random(99))
    b = random_labeled_tree(12, random.Random(99))
    assert a.edges == b.edges
    assert a.is_tree


def test_matches_networkx_generator_when_available():
    nx = pytest.importorskip("networkx")
    for n in range(2, 11):
        ours = free_tree_count(n)
        theirs = sum(1 for _ in nx.nonisomorphic_trees(n))
        assert ours == theirs, n
