import random

import pytest

from dissoc import structure
from dissoc.errors import GuardExceeded, TheoremViolation
from dissoc.extremal import lt8
from dissoc.forest import Forest, VertexSet
from dissoc.kpath import (
    CoverMatchingCertificate,
    _k_path_masks,
    _longest_path,
    alpha_k_brute,
    greedy_cover_matching,
    mu3_edge_deletions,
    verify_certificate,
)
from dissoc.structure import critical_edges_alpha3, critical_edges_mu3
from dissoc.treegen import free_trees, random_labeled_tree

from util import (
    alpha_k_raw,
    critical_edges_mu3_oracle,
    deadline,
    longest_path_in_mask,
    longest_path_order,
    mu_k_brute,
    mu_k_raw,
    path,
    random_forest_with_isolated_vertices,
    star,
    tau_k_brute,
    tree_k_path_sets,
)

LARGE = 10**5


def test_longest_path_order_examples():
    assert longest_path_order(Forest.from_edges(0, [])) == 0
    assert longest_path_order(path(1)) == 1
    assert longest_path_order(star(4)) == 3
    assert longest_path_order(lt8()) == 6
    assert longest_path_order(Forest.from_edges(5, [(0, 1), (2, 3), (3, 4)])) == 3


def test_one_pass_longest_path_matches_the_two_bfs_oracle_on_every_mask():
    checked = 0
    for n in range(1, 9):
        for t in free_trees(n):
            for mask in range(1 << n):
                assert _longest_path(t, mask) == longest_path_in_mask(t, mask), (t.edges, mask)
                checked += 1
    assert checked == sum(c << n for n, c in enumerate((1, 1, 1, 2, 3, 6, 11, 23), 1))


def test_one_pass_longest_path_matches_the_two_bfs_oracle_on_random_forest_masks():
    rng = random.Random(2011)
    for _ in range(300):
        forest = random_forest_with_isolated_vertices(rng, 30)
        for mask in [(1 << forest.n) - 1] + [rng.getrandbits(forest.n) for _ in range(20)]:
            assert _longest_path(forest, mask) == longest_path_in_mask(forest, mask), (
                forest.edges, mask)


def test_alpha_k_examples():
    assert alpha_k_brute(path(4), 2) == 2
    assert alpha_k_brute(path(4), 3) == 3
    assert alpha_k_brute(path(4), 9) == 4
    with pytest.raises(ValueError):
        alpha_k_brute(path(4), 1)
    with pytest.raises(GuardExceeded):
        alpha_k_brute(path(27), 3)


def _assert_masked_search_matches_oracles(forest):
    longest = longest_path_order(forest)
    for k in range(2, 7):
        masks = _k_path_masks(forest, k)
        assert sorted(masks) == sorted(tree_k_path_sets(forest, k)), (forest.edges, k)
        assert len(set(masks)) == len(masks), (forest.edges, k)
        alpha = alpha_k_brute(forest, k)
        assert alpha == forest.n - tau_k_brute(forest, k) == alpha_k_raw(forest.adjacency, k), (
            forest.edges, k)
        if k > longest:
            assert masks == [] and alpha == forest.n, (forest.edges, k)


def test_path_masks_and_alpha_k_match_the_oracles_on_every_small_tree():
    checked = 0
    for n in range(1, 10):
        for t in free_trees(n):
            _assert_masked_search_matches_oracles(t)
            checked += 1
    assert checked == 1 + 1 + 1 + 2 + 3 + 6 + 11 + 23 + 47


def test_path_masks_and_alpha_k_match_the_oracles_on_forests_with_isolated_vertices():
    rng = random.Random(29)
    for _ in range(200):
        _assert_masked_search_matches_oracles(random_forest_with_isolated_vertices(rng, 9))


def test_mu_tau_examples():
    assert mu_k_brute(path(3), 3) == 1
    assert tau_k_brute(path(3), 3) == 1
    assert mu_k_brute(path(7), 3) == 2
    assert mu_k_brute(path(4), 2) == 2
    with pytest.raises(GuardExceeded):
        mu_k_brute(path(19), 3)


def test_greedy_p3():
    cert = greedy_cover_matching(path(3), 3)
    assert len(cert.cover) == 1
    assert cert.paths == ((0, 1, 2),)
    assert verify_certificate(path(3), cert) == []


def test_greedy_empty_when_no_k_path():
    cert = greedy_cover_matching(star(4), 4)  # longest path order is 3
    assert len(cert.cover) == 0
    assert cert.paths == ()
    assert verify_certificate(star(4), cert) == []
    assert tau_k_brute(star(4), 4) == 0
    assert mu_k_brute(star(4), 4) == 0


def test_greedy_handles_forests():
    forest = Forest.from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    cert = greedy_cover_matching(forest, 3)
    assert len(cert.cover) == 2
    assert verify_certificate(forest, cert) == []


def test_greedy_is_deterministic():
    t = lt8()
    a = greedy_cover_matching(t, 3)
    b = greedy_cover_matching(t, 3)
    assert a.cover.members() == b.cover.members()
    assert a.paths == b.paths


def test_greedy_equals_brute_exhaustively():
    for n in range(1, 10):
        for t in free_trees(n):
            for k in (2, 3, 4, 5):
                cert = greedy_cover_matching(t, k)
                assert verify_certificate(t, cert) == [], (n, k, t.edges)
                mu = mu_k_brute(t, k)
                assert len(cert.paths) == mu == tau_k_brute(t, k), (n, k)
                assert alpha_k_brute(t, k) + mu == n, (n, k)


def test_certificate_checker_catches_tampering():
    t = path(6)
    cert = greedy_cover_matching(t, 3)
    assert verify_certificate(t, cert) == []
    # cover too small for the matching
    bad = CoverMatchingCertificate(k=3, cover=VertexSet(0, 6), paths=cert.paths)
    assert any("cover size" in p for p in verify_certificate(t, bad))
    # a fake path that is not a path of the tree
    bad = CoverMatchingCertificate(k=3, cover=cert.cover, paths=((0, 2, 4),))
    assert any("missing edge" in p for p in verify_certificate(t, bad))
    # overlapping paths
    bad = CoverMatchingCertificate(
        k=3, cover=VertexSet.from_iterable(6, [1, 3]), paths=((0, 1, 2), (2, 3, 4))
    )
    assert any("share vertices" in p for p in verify_certificate(t, bad))
    # cover missing a surviving path
    bad = CoverMatchingCertificate(k=3, cover=VertexSet.from_iterable(6, [5]), paths=((0, 1, 2),))
    assert any("survives" in p for p in verify_certificate(t, bad))


def test_kke_reports():
    assert (alpha_k_brute(path(3), 3), mu_k_brute(path(3), 3)) == (2, 1)
    assert (alpha_k_brute(lt8(), 3), mu_k_brute(lt8(), 3)) == (6, 2)
    assert alpha_k_brute(path(7), 4) + mu_k_brute(path(7), 4) == 7


def test_alpha_plus_mu_can_fall_short_off_forests():
    # 5-cycle: independence 2, edge matching 2, so the sum is 4 < 5
    c5 = [[1, 4], [0, 2], [1, 3], [2, 4], [0, 3]]
    assert alpha_k_raw(c5, 2) == 2
    assert mu_k_raw(c5, 2) == 2
    assert alpha_k_raw(c5, 2) + mu_k_raw(c5, 2) < 5
    # the inequality direction holds on assorted small graphs
    k4 = [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]]
    c4 = [[1, 3], [0, 2], [1, 3], [0, 2]]
    for adj in (c5, k4, c4):
        n = len(adj)
        for k in (2, 3):
            assert alpha_k_raw(adj, k) + mu_k_raw(adj, k) <= n


def _assert_mu3_pass_matches_oracle(forest):
    base, _ = mu3_edge_deletions(forest)
    assert base == len(greedy_cover_matching(forest, 3).paths), forest.edges
    assert critical_edges_mu3(forest) == critical_edges_mu3_oracle(forest), forest.edges


def test_mu3_pass_matches_per_edge_oracle_on_every_small_tree():
    checked = 0
    for n in range(1, 12):
        for t in free_trees(n):
            _assert_mu3_pass_matches_oracle(t)
            checked += 1
    assert checked == 436


def test_mu3_pass_matches_per_edge_oracle_on_forests_with_isolated_vertices():
    rng = random.Random(17)
    for _ in range(200):
        _assert_mu3_pass_matches_oracle(random_forest_with_isolated_vertices(rng, 30))


def test_mu3_pass_matches_per_edge_oracle_on_random_trees():
    rng = random.Random(2011)
    for _ in range(10):
        _assert_mu3_pass_matches_oracle(random_labeled_tree(80, rng))


@pytest.mark.parametrize("cut", [-2, 1])
def test_mu3_move_other_than_zero_or_minus_one_raises(monkeypatch, cut):
    monkeypatch.setattr(structure, "mu3_edge_deletions", lambda f: (1, (1, 1 + cut)))
    with pytest.raises(TheoremViolation, match=f"moved mu3 from 1 to {1 + cut}"):
        critical_edges_mu3(path(3))


def test_mu3_pass_on_a_long_path():
    # deleting edge (i-1, i) leaves paths of i and n-i vertices
    n = LARGE
    tree = path(n)
    with deadline(20):
        base, cut = mu3_edge_deletions(tree)
        crit = critical_edges_mu3(tree)
    assert base == n // 3
    assert cut == tuple(i // 3 + (n - i) // 3 for i in range(1, n))
    assert crit == tuple((i - 1, i) for i in range(1, n) if i // 3 + (n - i) // 3 < n // 3)


def test_mu3_pass_on_a_large_star():
    # one 3-path at most, and any two leaves left keep it
    tree = star(LARGE)
    with deadline(20):
        base, cut = mu3_edge_deletions(tree)
        crit = critical_edges_mu3(tree)
    assert base == 1 and set(cut) == {1} and crit == ()


def test_mu3_pass_on_a_large_random_tree():
    tree = random_labeled_tree(LARGE, random.Random(7))
    with deadline(20):
        crit = critical_edges_mu3(tree)
    assert crit == critical_edges_alpha3(tree)
