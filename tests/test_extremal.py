import pytest

from dissoc import extremal, treegen
from dissoc.dissociation import alpha3_count_dp
from dissoc.errors import GuardExceeded
from dissoc.extremal import (
    exhaustive_extremal_check,
    generate_extremal_family,
    lt8,
    max_mds_formula,
    star_construction,
)
from dissoc.forest import Forest, canonical_code
from dissoc.structure import classify_vertices, critical_structure

from util import path, star


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
    assert sorted(k13_leg.degree(v) for v in range(4)) == [1, 1, 1, 3]
    with pytest.raises(ValueError):
        star_construction(())
    with pytest.raises(ValueError):
        star_construction(("P9",))


def test_lt8_tree():
    t = lt8()
    assert t.n == 8
    assert sorted(t.degree(v) for v in range(8)) == [1, 1, 1, 1, 2, 2, 3, 3]
    assert alpha3_count_dp(t).count == 3
    assert canonical_code(t) in {canonical_code(x) for x in generate_extremal_family(8)}


def test_family_sizes():
    sizes = {3: 1, 4: 1, 5: 3, 6: 1, 7: 2, 8: 7, 9: 1, 10: 3, 11: 9}
    for n, want in sizes.items():
        fam = generate_extremal_family(n)
        assert len(fam) == want, n
        codes = {canonical_code(t).code for t in fam}
        assert len(codes) == want  # pairwise non-isomorphic
    with pytest.raises(ValueError):
        generate_extremal_family(2)


def test_family_members_attain_the_formula():
    for n in range(3, 15):
        want = max_mds_formula(n)
        for t in generate_extremal_family(n):
            assert t.n == n
            assert alpha3_count_dp(t).count == want, n


def test_family_structure_for_multiples_of_three():
    for n in (3, 6, 9, 12):
        (t,) = generate_extremal_family(n)
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


def test_exhaustive_check_guards():
    with pytest.raises(ValueError):
        exhaustive_extremal_check(2)
    with pytest.raises(GuardExceeded):
        exhaustive_extremal_check(19)


def test_sweep_agrees_across_job_counts():
    # 235 trees, more than one chunk of 64, so the pool splits them between workers
    a = exhaustive_extremal_check(11, jobs=1)
    b = exhaustive_extremal_check(11, jobs=2)
    assert a == b


def test_sweep_builds_each_tree_once(monkeypatch):
    # the sweep counts every level sequence once without decoding it, validates
    # no tree, and decodes and codes only the trees whose count reaches the formula
    build = Forest.from_edges.__func__
    decode = treegen.forest_from_level_sequence
    code = extremal.canonical_code
    steps = extremal.alpha3_count_steps
    validated = 0
    counted: list[tuple[int, ...]] = []
    decoded: dict[int, Forest] = {}  # holding each tree keeps its id unique
    coded_decoded = 0

    def counting_build(cls, *args, **kwargs):
        nonlocal validated
        validated += 1
        return build(cls, *args, **kwargs)

    def counting_decode(ls):
        tree = decode(ls)
        decoded[id(tree)] = tree
        return tree

    def counting_code(tree):
        nonlocal coded_decoded
        coded_decoded += id(tree) in decoded
        return code(tree)

    def counting_steps(chunk):
        for (_, seq), result in zip(chunk, steps(chunk)):
            counted.append(tuple(seq))
            yield result

    formula = max_mds_formula(9)
    holders = sum(alpha3_count_dp(t).count >= formula for t in treegen.free_trees(9))
    monkeypatch.setattr(Forest, "from_edges", classmethod(counting_build))
    generate_extremal_family(9)
    family_builds, validated = validated, 0
    for module in (treegen, extremal):
        monkeypatch.setattr(module, "forest_from_level_sequence", counting_decode)
    monkeypatch.setattr(extremal, "canonical_code", counting_code)
    monkeypatch.setattr(extremal, "alpha3_count_steps", counting_steps)
    report = exhaustive_extremal_check(9)
    assert report.trees_scanned == len(counted) == len(set(counted)) == 47
    assert validated == family_builds
    assert len(decoded) == coded_decoded == holders == len(report.extremal_codes) == 1


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
