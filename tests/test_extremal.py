import pytest

from dissoc import extremal, treegen
from dissoc.cli import VERIFY_LIMIT
from dissoc.dissociation import alpha3_count_dp
from dissoc.errors import GuardExceeded
from dissoc.extremal import (
    exhaustive_extremal_check,
    generate_extremal_family,
    lt8,
    max_mds_formula,
    star_construction,
)
from dissoc.forest import Forest, canonical_code, centroids
from dissoc.structure import classify_vertices, critical_structure

from util import (
    _next_rooted,
    block_record_stepwise,
    dp_forest,
    forest_from_level_sequence_oracle,
    multisets_stepwise,
    path,
    star,
)


def test_formula_values():
    known = {1: 1, 2: 1, 3: 3, 4: 2, 5: 1, 6: 6, 7: 4, 8: 3,
             9: 13, 10: 10, 11: 9, 12: 32, 16: 82}
    for n, want in known.items():
        assert max_mds_formula(n) == want, n


def test_formula_is_exact_at_scale():
    # 3^39 does not fit machine words; counts stay exact anyway
    assert max_mds_formula(120) == 3**39 + 41
    assert max_mds_formula(121) == 3**39 + 1
    assert max_mds_formula(122) == 3**39


def test_formula_rejects_nonpositive():
    with pytest.raises(ValueError):
        max_mds_formula(0)


def test_star_construction_shapes():
    assert canonical_code(star_construction(("P2",) * 4)) == canonical_code(star(5))
    assert canonical_code(star_construction(("P3", "P3"))) == canonical_code(path(5))
    assert star_construction(("P3", "P4")).n == 6
    assert star_construction(("P3", "P2", "P4")).n == 7
    k13_leg = star_construction(("K13",))
    assert sorted(len(k13_leg.adjacency[v]) for v in range(4)) == [1, 1, 1, 3]
    with pytest.raises(ValueError):
        star_construction(())
    with pytest.raises(ValueError):
        star_construction(("P9",))


def test_lt8_tree():
    t = lt8()
    assert t.n == 8
    assert sorted(len(t.adjacency[v]) for v in range(8)) == [1, 1, 1, 1, 2, 2, 3, 3]
    assert alpha3_count_dp(t).count == 3
    assert canonical_code(t) in {canonical_code(x) for x in generate_extremal_family(8).values()}


def test_family_sizes():
    sizes = {3: 1, 4: 1, 5: 3, 6: 1, 7: 2, 8: 7, 9: 1, 10: 3, 11: 9, 30: 1, 60: 1, 100: 33}
    for n, want in sizes.items():
        fam = generate_extremal_family(n)
        assert len(fam) == want, n
        codes = {canonical_code(t) for t in fam.values()}
        assert len(codes) == want  # pairwise non-isomorphic
    with pytest.raises(ValueError):
        generate_extremal_family(2)


def test_family_members_attain_the_formula():
    # past SWEEP_LIMIT no sweep checks the family, so this is its only check there
    assert extremal.SWEEP_LIMIT < 100
    for n in range(3, 101):
        want = max_mds_formula(n)
        family = generate_extremal_family(n)
        assert list(family) == sorted(family), n  # in code order
        for code, t in family.items():
            assert code == canonical_code(t), n
            assert t.n == n and t.is_tree, n
            assert alpha3_count_dp(t).count == want, n


def test_family_structure_for_multiples_of_three():
    for n in (3, 6, 9, 12):
        (t,) = generate_extremal_family(n).values()
        s = critical_structure(t)
        assert len(s.critical_triples) == n // 3
        assert s.insulated_edges == ()
        assert len(classify_vertices(t).static_included) == 0


def test_exhaustive_check_small_orders():
    for n, classes in [(5, 3), (6, 1), (7, 2), (8, 7)]:
        rep = exhaustive_extremal_check(n)
        assert rep.match is True
        assert rep.observed_max == max_mds_formula(n)
        assert len(rep.extremal_codes) == classes
        assert set(rep.extremal_codes) == set(rep.predicted_codes)


def test_exhaustive_check_n4_uncharacterized():
    rep = exhaustive_extremal_check(4)
    assert rep.characterized is False
    assert rep.match is True  # record value only
    assert rep.observed_max == 2
    assert "not characterized" in rep.note


def test_exhaustive_check_n5_degenerate_family():
    rep = exhaustive_extremal_check(5)
    assert len(rep.predicted_codes) == 3  # every tree of order 5
    assert "degenerates" in rep.note


def test_exhaustive_check_guards(monkeypatch):
    with pytest.raises(ValueError):
        exhaustive_extremal_check(2)
    with pytest.raises(GuardExceeded):  # past the limit, whatever it is: refused, no sweep
        exhaustive_extremal_check(extremal.SWEEP_LIMIT + 1)
    monkeypatch.setattr(extremal, "SWEEP_LIMIT", 5)  # read at each call
    assert exhaustive_extremal_check(5).trees_scanned == 3  # the limit itself runs
    with pytest.raises(GuardExceeded):
        exhaustive_extremal_check(6)


def test_sweep_agrees_across_job_counts():
    # 16 blocks at n=11 and 33 at n=12, 17 of them two-centroid pairs, sent 16 to a
    # task, so the pool splits n=12 between two workers
    for n in (11, 12):
        assert exhaustive_extremal_check(n, jobs=1) == exhaustive_extremal_check(n, jobs=2), n


def test_sweep_builds_each_tree_once(monkeypatch):
    # the sweep counts every tree once without building it, validates no tree,
    # and decodes and codes only the trees whose count reaches the formula and the
    # predicted family, each tree coded once; each multiset of record classes is
    # folded once and stands for its number of trees
    build = Forest.from_edges.__func__
    decode = treegen.forest_from_level_sequence
    code = extremal.canonical_code
    block_record = extremal._block_record
    validated = 0
    counted: list[tuple[int, tuple[int, ...], int]] = []
    decoded: dict[int, Forest] = {}  # holding each tree keeps its id unique
    coded: list[Forest] = []

    def counting_build(cls, *args, **kwargs):
        nonlocal validated
        validated += 1
        return build(cls, *args, **kwargs)

    def counting_decode(seq):
        tree = decode(seq)
        decoded[id(tree)] = tree
        return tree

    def counting_code(tree):
        coded.append(tree)
        return code(tree)

    def counting_block_record(block, classes=None):
        if classes is not None:  # the classes of the table, not trees of the sweep
            return block_record(block, classes)
        folded: dict[tuple, list] = {}  # every multiset the block folds, under its fold
        result = block_record(block, folded)
        counted.extend((block[1], path, ways) for made in folded.values() for ways, path in made)
        return result

    formula = max_mds_formula(12)
    holders = sum(alpha3_count_dp(t).count >= formula for t in treegen.free_trees(12))
    monkeypatch.setattr(Forest, "from_edges", classmethod(counting_build))
    for module in (treegen, extremal):
        monkeypatch.setattr(module, "forest_from_level_sequence", counting_decode)
    monkeypatch.setattr(extremal, "canonical_code", counting_code)
    monkeypatch.setattr(extremal, "_block_record", counting_block_record)
    report = exhaustive_extremal_check(12)
    assert report.trees_scanned == sum(ways for _, _, ways in counted) == 551
    # the 37 rooted trees of order 1..6 fall into 33 classes, so fewer multisets than trees
    assert len(counted) == len({(base, path) for base, path, _ in counted}) < 551
    assert validated == 0
    assert holders == len(report.extremal_codes) == len(report.predicted_codes) == 1
    # the decoded trees are the holder and the family tree, and each is coded once
    assert len(decoded) == holders + len(report.predicted_codes)
    assert len(coded) == len({id(t) for t in coded}) == len(decoded)
    assert {id(t) for t in coded} == set(decoded)
    assert {code(t) for t in coded} == set(report.extremal_codes) | set(report.predicted_codes)
    monkeypatch.undo()
    table, recipes = extremal._rooted_table(12)
    trees = extremal._expand(recipes, range(len(table[0])))
    codes = {_code(seq) for base, path, _ in counted for seq in extremal._grown(trees[base], trees, path)}
    assert len(codes) == 551


A000081 = (1, 1, 2, 4, 9, 20, 48, 115, 286, 719, 1842, 4766)


def _rooted_form(seq: tuple[int, ...]) -> tuple[int, ...]:
    """The level sequence of the same rooted tree with the root's subtrees, and theirs,
    in decreasing order: equal exactly for isomorphic rooted trees."""
    starts = [i for i, level in enumerate(seq) if level == 2] + [len(seq)]
    subtrees = [_rooted_form(tuple(v - 1 for v in seq[a:b])) for a, b in zip(starts, starts[1:])]
    return (1,) + tuple(v + 1 for sub in sorted(subtrees, reverse=True) for v in sub)


def _rooted_trees_oracle(k: int) -> set[tuple[int, ...]]:
    """Every rooted tree of order k from the rooted successor walk of the test oracles."""
    seq, found = list(range(1, k + 1)), set()
    while seq is not None:
        found.add(_rooted_form(tuple(seq)))
        seq = _next_rooted(seq) if k > 1 else None
    return found


def test_rooted_table_holds_every_rooted_tree_once_with_its_records():
    # the table of the sweep of order 24 holds the record classes of the rooted trees of
    # order 1..12, one per distinct fold; expanded through their recipes, the classes of
    # each order hold every rooted tree once, and each tree's records, from the second
    # DP on an independent decode, are its class's
    (sizes, records, folds, ends, ways), recipes = extremal._rooted_table(24)
    assert [sum(ways[ends[k - 1]:ends[k]]) for k in range(1, 13)] == list(A000081)
    assert ends[23] == len(sizes) == len(records) == len(folds) == len(ways) == len(recipes) == 2251
    assert (ends[7], ends[9]) == (68, 279)  # the tables of the sweeps of order 15 and 18
    trees = extremal._expand(recipes, range(len(sizes)))
    for k in range(1, 13):
        assert len(set(folds[ends[k - 1]:ends[k]])) == ends[k] - ends[k - 1], k  # one per fold
        forms = [_rooted_form(seq) for c in range(ends[k - 1], ends[k]) for seq in trees[c]]
        assert all(len(f) == k for f in forms)
        assert len(set(forms)) == len(forms) and set(forms) == _rooted_trees_oracle(k), k
    for c, record in enumerate(records):
        assert len(trees[c]) == ways[c] and record == extremal._close(folds[c]), c
        for seq in trees[c]:
            r = alpha3_count_dp(treegen.forest_from_level_sequence(seq))
            assert record[:2] == (r.alpha3, r.count), seq
            tree = forest_from_level_sequence_oracle(seq)
            children = sum(1 << v for v in tree.adjacency[0])
            assert record[:2] == dp_forest(tree), seq
            assert record[2:4] == dp_forest(tree, exclude_bits=1), seq  # root excluded
            assert record[4:] == dp_forest(tree, include_bits=1, exclude_bits=children), seq


def _folded(block) -> list[tuple[tuple[int, ...], tuple, int]]:
    """(path, fold, trees) of every multiset ``_block_record`` folds in a block, sorted."""
    classes: dict[tuple, list] = {}
    extremal._block_record(block, classes)
    return sorted((path, fold, ways) for fold, made in classes.items() for ways, path in made)


def _stepwise(block) -> list[tuple[tuple[int, ...], tuple, int]]:
    table, base, lo, hi, rem = block
    walk = multisets_stepwise(table, base, rem, lo, hi)
    return sorted((tuple(path), fold, ways) for path, fold, ways in walk)


def _stepwise_classes(block, classes):
    """``_block_record``'s filing of each multiset under its fold, from the stepwise fold."""
    for path, fold, ways in _stepwise(block):
        classes.setdefault(fold, []).append((ways, path))


def test_bare_vertex_tail_folds_as_one_step_per_vertex(monkeypatch):
    # _block_record folds the bare vertices that end a multiset in one closed-form step and
    # a run of rooted edges in its inner loop; it folds the multisets, folds and tree counts
    # of one child step per vertex, on every block of the sweeps of order 3..16 and every call
    # that builds the table of 24, and the table built from the stepwise fold is the same
    blocks = []
    for n in range(3, 17):
        table, _ = extremal._rooted_table(n)
        blocks += extremal._sweep_blocks(n, table)
    built = extremal._rooted_table(24)
    table, ends = built[0], built[0][3]
    blocks += [(table, 0, 0, ends[k - 1] - 1, k - 1) for k in range(2, 13)]
    for block in blocks:
        assert _folded(block) == _stepwise(block), block[1:]
    monkeypatch.setattr(extremal, "_block_record", _stepwise_classes)
    assert extremal._rooted_table(24) == built


def test_block_record_matches_the_stepwise_fold():
    # every block of the sweeps of order 3..18: trees, record and holders, from the walk's
    # in-place close and from one _close per multiset of the stepwise fold
    for n in range(3, 19):
        table, _ = extremal._rooted_table(n)
        for block in extremal._sweep_blocks(n, table):
            trees, record, holders = extremal._block_record(block)
            assert len(holders) == len(set(holders)), (n, block[1:])
            assert (trees, record, set(holders)) == block_record_stepwise(block), (n, block[1:])


def test_pair_block_at_order_4_takes_no_bare_vertex():
    # the two-centroid block of n=4 pairs the rooted edge with itself: lo = 1, so no bare
    # vertex may follow T1's root; two of them would add the claw (count 1) as a second tree
    table, _ = extremal._rooted_table(4)
    block = (table, 1, 1, 1, 2)
    assert block in extremal._sweep_blocks(4, table)
    assert extremal._block_record(block) == (1, 2, [(1, (1,))])  # the 4-path alone
    assert block_record_stepwise(block) == (1, 2, {(1, (1,))})


def _code(seq: tuple[int, ...]):
    return canonical_code(treegen.forest_from_level_sequence(seq))


def _sweep_trees(n: int):
    """(block, level sequence, (alpha3, count)) of every tree the sweep of order n folds,
    each once: the trees of each multiset of classes, as many as it stands for."""
    table, recipes = extremal._rooted_table(n)
    trees = extremal._expand(recipes, range(len(table[0])))
    for block in extremal._sweep_blocks(n, table):
        base = block[1]
        for path, fold, ways in _folded(block):
            # an ordered pair (T1, T2) of one class gives its free tree twice
            seqs = {_code(seq): seq for seq in extremal._grown(trees[base], trees, path)}
            assert len(seqs) == ways, (base, path)
            for seq in seqs.values():
                yield block, seq, extremal._close(fold)[:2]


def test_sweep_visits_every_free_tree_once():
    # one centroid: the root, a bare vertex; two: the root of T1 and of T2, its last child
    for n in range(3, 13):
        codes = []
        for (_, base, _, _, _), seq, _ in _sweep_trees(n):
            tree = treegen.forest_from_level_sequence(seq)
            codes.append(canonical_code(tree))
            assert centroids(tree) == ((0,) if base == 0 else (0, n // 2)), tree.edges
        assert sorted(codes) == sorted(canonical_code(t) for t in treegen.free_trees(n)), n


def test_sweep_counts_match_the_dp_on_every_tree():
    for n in range(3, 16):
        trees = 0
        for _, seq, count in _sweep_trees(n):
            trees += 1
            r = alpha3_count_dp(treegen.forest_from_level_sequence(seq))
            assert count == (r.alpha3, r.count), seq
            assert count == dp_forest(forest_from_level_sequence_oracle(seq)), seq
        assert trees == treegen.free_tree_count(n), n


def test_blocks_make_up_the_whole_sweep():
    # each block's trees, record and holders, merged, are those of one pass over all trees
    for n in range(3, 15):
        table, recipes = extremal._rooted_table(n)
        trees = extremal._expand(recipes, range(len(table[0])))
        results = [extremal._block_record(block) for block in extremal._sweep_blocks(n, table)]
        counts = [alpha3_count_dp(t).count for t in treegen.free_trees(n)]
        record = max(counts)
        assert sum(trees for trees, _, _ in results) == len(counts), n
        assert max(best for _, best, _ in results) == record, n
        holders = [h for _, best, found in results if best == record for h in found]
        codes = map(canonical_code, treegen.free_trees(n))
        want = [code for code, count in zip(codes, counts) if count == record]
        got = {_code(seq) for base, path in holders for seq in extremal._grown(trees[base], trees, path)}
        assert sorted(got) == sorted(want), n


@pytest.mark.parametrize("n, trees, record, holders", [
    (19, 317955, 244, 6), (20, 823065, 243, 18), (21, 2144505, 737, 1), (22, 5623756, 730, 7)])
def test_sweep_at_orders_past_verify_guard(n, trees, record, holders):
    assert VERIFY_LIMIT < n <= extremal.SWEEP_LIMIT  # verify refuses these orders
    report = exhaustive_extremal_check(n)
    assert report.trees_scanned == trees == treegen.free_tree_count(n)  # two independent counts
    assert report.observed_max == record == max_mds_formula(n)
    assert len(report.extremal_codes) == holders
    family = generate_extremal_family(n).values()
    assert set(report.extremal_codes) == {canonical_code(t) for t in family}
    assert report.match is True


@pytest.mark.parametrize("n", [8, 9])
@pytest.mark.parametrize("jobs", [1, 2])
def test_record_below_formula_codes_every_holder(monkeypatch, n, jobs):
    # a record below the formula still gets every holder coded, in the one pass
    plain = exhaustive_extremal_check(n)
    formula = max_mds_formula
    monkeypatch.setattr(extremal, "max_mds_formula", lambda m: formula(m) + 1)
    report = exhaustive_extremal_check(n, jobs=jobs)
    assert report.match is False
    assert report.observed_max == plain.observed_max
    assert report.extremal_codes == plain.extremal_codes
    assert report.trees_scanned == plain.trees_scanned
