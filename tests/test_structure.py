import random

import pytest

from dissoc.dissociation import alpha3_count_dp, enumerate_mds
from dissoc.extremal import lt8, star_construction
from dissoc.forest import Forest, VertexSet, canonical_code
from dissoc.structure import (
    _CHECKS,
    CheckResult,
    _group_critical_edges,
    classify_vertices,
    critical_edges_alpha3,
    critical_edges_mu3,
    critical_structure,
    verify_structure_theorems,
)
from dissoc.treegen import free_trees, random_labeled_tree

from util import (
    CHECK_NAMES,
    brute_force_mds,
    build_canonical_mds,
    classify_vertices_oracle,
    containing_and_missed,
    count_identity_checks,
    critical_edges_alpha3_oracle,
    dp_forest,
    enumerated_structure_checks,
    group_critical_edges_oracle,
    path,
    random_forest_with_isolated_vertices,
    replaced,
    star,
    tree_k_path_sets,
)


def test_critical_edges_small_trees():
    assert critical_edges_alpha3(path(3)) == ((0, 1), (1, 2))
    assert critical_edges_alpha3(star(4)) == ()
    # on the 4-path only the middle edge is critical: deleting it frees
    # both halves (2 + 2 > 3) while deleting an end edge does not help
    assert critical_edges_alpha3(path(4)) == ((1, 2),)


def test_mu3_critical_matches_alpha3_critical():
    for n in range(2, 10):
        for t in free_trees(n):
            assert critical_edges_alpha3(t) == critical_edges_mu3(t), (n, t.edges)


def test_critical_structure_p3():
    s = critical_structure(path(3))
    assert s.insulated_edges == ()
    assert s.critical_triples == ((0, 1, 2),)
    assert s.eta == 2


def test_critical_structure_no_critical_edges():
    s = critical_structure(star(4))
    assert s.eta == 0
    assert s.insulated_edges == () and s.critical_triples == ()


def test_critical_structure_mixed_tree():
    # hub 0; 2-path leg (1,2); pendant 3; 3-path leg (4,5,6)
    t = star_construction(("P3", "P2", "P4"))
    s = critical_structure(t)
    assert s.insulated_edges == ((0, 1),)
    assert s.critical_triples == ((4, 5, 6),)
    assert s.eta == 3


def test_classify_p3_all_flexible():
    c = classify_vertices(path(3))
    assert c.flexible.members() == (0, 1, 2)
    assert len(c.static_included) == 0 and len(c.static_excluded) == 0


def test_classify_p5():
    c = classify_vertices(path(5))
    assert c.static_included.members() == (0, 1, 3, 4)
    assert c.static_excluded.members() == (2,)
    assert c.flexible.members() == ()


def test_classify_lt8():
    c = classify_vertices(lt8())
    assert c.flexible.members() == (0, 1, 2, 3)  # the inner 4-path
    assert c.static_included.members() == (4, 5, 6, 7)  # the pendant leaves
    assert c.static_excluded.members() == ()


def test_classification_matches_enumeration():
    for n in range(1, 8):
        for t in free_trees(n):
            sets = list(enumerate_mds(t))
            c = classify_vertices(t)
            for v in range(n):
                memberships = sum(1 for s in sets if v in s)
                if memberships == len(sets):
                    assert v in c.static_included
                elif memberships == 0:
                    assert v in c.static_excluded
                else:
                    assert v in c.flexible


def test_flexible_equals_critical_endpoints():
    for n in range(2, 9):
        for t in free_trees(n):
            endpoints = {v for e in critical_edges_alpha3(t) for v in e}
            assert set(classify_vertices(t).flexible) == endpoints


def test_build_canonical_mds_examples():
    for root in range(5):
        assert build_canonical_mds(path(5), root).members() == (0, 1, 3, 4)
    assert build_canonical_mds(path(3), 0).members() == (1, 2)


def test_build_canonical_mds_every_root():
    for n in range(1, 9):
        for t in free_trees(n):
            alpha = alpha3_count_dp(t).alpha3
            for root in range(n):
                assert len(build_canonical_mds(t, root)) == alpha


def test_deleting_critical_edge_forces_both_endpoints():
    for n in range(2, 8):
        for t in free_trees(n):
            alpha = alpha3_count_dp(t).alpha3
            for e in critical_edges_alpha3(t):
                reduced = t.without_edge(*e)
                r_alpha, r_sets = brute_force_mds(reduced)
                assert r_alpha == alpha + 1
                assert all(e[0] in s and e[1] in s for s in r_sets)


def _max_3_matchings(tree):
    """All maximum 3-matchings as tuples of vertex-set masks."""
    paths = tree_k_path_sets(tree, 3)
    best: list[tuple[int, ...]] = [()]

    def rec(i, used, chosen):
        nonlocal best
        if len(chosen) > len(best[0]):
            best = [tuple(chosen)]
        elif len(chosen) == len(best[0]) and chosen:
            best.append(tuple(chosen))
        for j in range(i, len(paths)):
            if used & paths[j] == 0:
                chosen.append(paths[j])
                rec(j + 1, used | paths[j], chosen)
                chosen.pop()

    rec(0, 0, [])
    top = max(len(m) for m in best)
    return [m for m in set(best) if len(m) == top]


def test_every_maximum_3_matching_covers_critical_edges():
    for n in range(3, 8):
        for t in free_trees(n):
            matchings = _max_3_matchings(t)
            for u, v in critical_edges_alpha3(t):
                want = (1 << u) | (1 << v)
                for m in matchings:
                    assert any(mask & want == want for mask in m), (t.edges, (u, v))


def test_verify_structure_theorems_all_pass():
    for n in range(1, 10):
        for t in free_trees(n):
            rep = verify_structure_theorems(t, critical_structure(t))
            bad = {k: v for k, v in rep.items() if v.status != "pass"}
            assert not bad, (n, t.edges, bad)


def test_report_names_every_check_in_a_fixed_order():
    rep = verify_structure_theorems(path(5), critical_structure(path(5)), (2, 3))
    per_k = ["certificate k=2", "kke k=2", "certificate k=3", "kke k=3"]
    assert list(rep) == [*CHECK_NAMES, *per_k]


def test_verify_pass_results_carry_no_witness():
    rep = verify_structure_theorems(path(5), critical_structure(path(5)))
    assert all(cr.witness is None for cr in rep.values() if cr.status == "pass")


def test_branching_bound_monotone_in_triple_count():
    # with the flexible count fixed, trading two insulated edges for a
    # triple (3 choices > 2*2/... ) never lowers the bound
    for flexible in range(0, 13):
        values = [
            3**x * 2 ** ((flexible - 3 * x) // 2)
            for x in range(flexible // 3 + 1)
            if (flexible - 3 * x) % 2 == 0
        ]
        assert values == sorted(values)


def test_structure_ops_work_on_forests():
    forest = Forest.from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    assert critical_edges_alpha3(forest) == ((0, 1), (1, 2), (3, 4), (4, 5))
    s = critical_structure(forest)
    assert len(s.critical_triples) == 2
    rep = verify_structure_theorems(forest, s)
    assert all(cr.status == "pass" for cr in rep.values())


def _assert_counts_match_brute_force(forest):
    s = critical_structure(forest)
    _, sets = brute_force_mds(forest)
    containing, missed = containing_and_missed(forest, s)
    assert containing == tuple(sum(v in m for m in sets) for v in range(forest.n)), forest.edges
    neither = tuple(sum(u not in m and v not in m for m in sets) for u, v in s.critical_edges)
    assert missed == neither, forest.edges


def test_containing_and_missed_match_brute_force_on_free_trees():
    for n in range(1, 11):
        for t in free_trees(n):
            _assert_counts_match_brute_force(t)


def test_containing_and_missed_match_brute_force_on_forests_with_isolated_vertices():
    rng = random.Random(11)
    for _ in range(40):
        _assert_counts_match_brute_force(random_forest_with_isolated_vertices(rng, 12))


def _assert_sizes_match_forced_dp(forest):
    s = critical_structure(forest)
    edges = [1 << u | 1 << v for u, v in s.critical_edges]
    assert s.neither_end == tuple(dp_forest(forest, 0, e)[0] for e in edges), forest.edges
    assert s.both_ends == tuple(dp_forest(forest, e, 0)[0] for e in edges), forest.edges
    alone = tuple(dp_forest(forest, 1 << m, 1 << a | 1 << b)[0] for a, m, b in s.critical_triples)
    assert s.middle_alone == alone, forest.edges


def test_existence_sizes_match_the_forced_dp_on_free_trees():
    for n in range(1, 11):
        for t in free_trees(n):
            _assert_sizes_match_forced_dp(t)


def test_existence_sizes_match_the_forced_dp_on_forests_with_isolated_vertices():
    rng = random.Random(12)
    for _ in range(60):
        _assert_sizes_match_forced_dp(random_forest_with_isolated_vertices(rng, 20))


def _assert_checks_match_oracles(forest):
    names = ("every_mds_hits_each_critical_edge", "mds_meets_exact_pattern")
    s = critical_structure(forest)
    rep = verify_structure_theorems(forest, s)
    sizes = {name: rep[name] for name in names}
    assert sizes == enumerated_structure_checks(forest, s), forest.edges
    assert sizes == count_identity_checks(forest, s), forest.edges


def test_count_checks_agree_with_enumeration_oracle():
    # the size tests of the registry, the set-by-set scan and the count identities agree
    for n in range(1, 13):
        for t in free_trees(n):
            _assert_checks_match_oracles(t)


def test_size_checks_agree_with_oracles_on_forests_with_isolated_vertices():
    rng = random.Random(13)
    for _ in range(60):
        _assert_checks_match_oracles(random_forest_with_isolated_vertices(rng, 16))


# hub 0; 2-path leg (1,2); pendant 3; 3-path leg (4,5,6)
MIXED = star_construction(("P3", "P2", "P4"))


def _perturbed(field, i):
    """The registry's report on MIXED with entry i of a size field raised to alpha3:
    a maximum set that breaks the claim that field tests."""
    s = critical_structure(MIXED)
    sizes = list(getattr(s, field))
    sizes[i] = s.alpha3
    return s, verify_structure_theorems(MIXED, replaced(s, **{field: tuple(sizes)}))


def test_size_checks_fail_when_a_maximum_set_misses_a_critical_edge():
    s = critical_structure(MIXED)
    assert (s.insulated_edges, s.critical_triples) == (((0, 1),), ((4, 5, 6),))
    for i, e in enumerate(s.critical_edges):
        _, rep = _perturbed("neither_end", i)
        assert rep["every_mds_hits_each_critical_edge"] == CheckResult(
            "fail", f"a maximum set holds neither end of critical edge {e}"
        )
        # a set missing an edge takes too few vertices of its insulated edge or triple
        part = e if e in s.insulated_edges else (4, 5, 6)
        pattern = rep["mds_meets_exact_pattern"]
        assert pattern.status == "fail" and str(part) in pattern.witness, e


def test_size_checks_fail_when_a_maximum_set_takes_both_ends_of_an_insulated_edge():
    s = critical_structure(MIXED)
    for i, e in enumerate(s.critical_edges):
        _, rep = _perturbed("both_ends", i)
        assert rep["every_mds_hits_each_critical_edge"].status == "pass"
        # both ends of one edge of a triple are two of its vertices, as the claim wants
        want = (CheckResult("fail", f"insulated edge {e}: a maximum set takes both ends")
                if e in s.insulated_edges else CheckResult("pass", None))
        assert rep["mds_meets_exact_pattern"] == want, e


def test_size_checks_fail_when_a_maximum_set_holds_a_triple_middle_alone():
    _, rep = _perturbed("middle_alone", 0)
    assert rep["every_mds_hits_each_critical_edge"].status == "pass"
    assert rep["mds_meets_exact_pattern"] == CheckResult(
        "fail", "triple (4, 5, 6): a maximum set holds fewer than 2 of its vertices"
    )


def test_an_inconsistent_critical_edge_fails_the_edge_set_check():
    witness = "deleting edge (0, 1) moved alpha3 from 2 to 4"
    s = replaced(critical_structure(path(3)), edge_failure=witness)
    rep = verify_structure_theorems(path(3), s)
    assert rep.pop("critical_edge_sets_coincide") == CheckResult("fail", witness)
    assert {cr.status for cr in rep.values()} == {"pass"}


def _mixed(**changes):
    return MIXED, replaced(critical_structure(MIXED), **changes)


def _classes(forest, **changes):
    s = critical_structure(forest)
    return forest, replaced(s, classes=replaced(s.classes, **changes))


GROUPING = "critical component with 3 edges: [(0, 1), (0, 4), (4, 5)]"
EDGE = "deleting edge (0, 1) moved alpha3 from 5 to 7"

# per check, in report order: a forest, its structure with a field the check reads changed
# (MIXED: static included {2, 3}, insulated edge (0, 1), triple (4, 5, 6), 4 maximum sets of
# size 5), and the witness the check must fail with
BROKEN = {
    "flexible_iff_critical_endpoint": (
        lambda: _classes(MIXED, flexible=VertexSet(0b1110111, 7)),
        "flexible=[0, 1, 2, 4, 5, 6] endpoints=[0, 1, 4, 5, 6]"),
    "critical_components_are_edge_or_3path": (
        lambda: _mixed(insulated_edges=None, critical_triples=None, grouping_failure=GROUPING),
        GROUPING),
    "insulated_endpoint_anchored_in_static_included": (
        lambda: _mixed(insulated_edges=((0, 1), (4, 5))),
        "insulated edge (4, 5): endpoint 4 anchors []"),
    "triple_avoids_static_included": (
        lambda: _classes(MIXED, static_included=VertexSet(0b0001101, 7)),
        "triple (4, 5, 6): vertex 4 adjacent to [0]"),
    "count_within_branching_bound": (
        lambda: _mixed(count=7), "count 7 exceeds 3^1 * 2^1 = 6"),
    "alpha3_equals_static_plus_critical": (
        lambda: _mixed(alpha3=6), "alpha3=6 static=2 eta=3"),
    "static_excluded_neighbor_rule": (  # leaf 3 of the star no longer static included
        lambda: _classes(star(4), static_included=VertexSet(0b0110, 4)),
        "excluded vertex 0 has p=2 q=0"),
    "every_mds_hits_each_critical_edge": (
        lambda: _mixed(neither_end=(5, 4, 4)),
        "a maximum set holds neither end of critical edge (0, 1)"),
    "mds_meets_exact_pattern": (
        lambda: _mixed(middle_alone=(5,)),
        "triple (4, 5, 6): a maximum set holds fewer than 2 of its vertices"),
    "critical_edge_sets_coincide": (lambda: _mixed(edge_failure=EDGE), EDGE),
}


def test_every_check_has_a_failing_case():
    assert list(BROKEN) == [name for name, _, _ in _CHECKS] == list(CHECK_NAMES)


@pytest.mark.parametrize("name", BROKEN)
def test_each_check_fails_with_its_witness(name):
    build, witness = BROKEN[name]
    assert verify_structure_theorems(*build())[name] == CheckResult("fail", witness)


def _assert_matches_oracles(forest):
    assert classify_vertices(forest) == classify_vertices_oracle(forest), forest.edges
    assert critical_edges_alpha3(forest) == critical_edges_alpha3_oracle(forest), forest.edges
    s = critical_structure(forest)
    assert (s.alpha3, s.count) == dp_forest(forest), forest.edges


def test_rerooted_structure_matches_oracles_on_free_trees():
    for n in range(1, 11):
        for t in free_trees(n):
            _assert_matches_oracles(t)


def test_rerooted_structure_matches_oracles_on_random_trees():
    rng = random.Random(20261018)
    for _ in range(200):
        _assert_matches_oracles(random_labeled_tree(rng.randint(1, 60), rng))


def test_rerooted_structure_matches_oracles_on_forests_with_isolated_vertices():
    rng = random.Random(7)
    for _ in range(60):
        _assert_matches_oracles(random_forest_with_isolated_vertices(rng, 30))


def test_grouping_matches_the_components_of_a_built_forest():
    rng = random.Random(14)
    failures = 0
    for _ in range(300):
        tree = random_labeled_tree(rng.randint(1, 30), rng)
        keep = rng.random()
        crit = [e for e in tree.edges if rng.random() < keep]
        got = _group_critical_edges(crit)
        assert got == group_critical_edges_oracle(tree.n, crit), crit
        failures += got[2] is not None
    assert 50 < failures < 250


def test_grouping_failure_fails_one_check_and_skips_the_grouped_ones():
    witness = "critical component with 3 edges: [(0, 1), (1, 2), (2, 3)]"
    s = replaced(
        critical_structure(path(3)),
        insulated_edges=None,
        critical_triples=None,
        grouping_failure=witness,
    )
    rep = verify_structure_theorems(path(3), s)
    assert rep["critical_components_are_edge_or_3path"] == CheckResult("fail", witness)
    for name in (
        "insulated_endpoint_anchored_in_static_included",
        "triple_avoids_static_included",
        "count_within_branching_bound",
        "mds_meets_exact_pattern",
    ):
        assert rep[name].status == "skipped", name
    others = set(rep) - {"critical_components_are_edge_or_3path"}
    assert {rep[name].status for name in others} == {"pass", "skipped"}
