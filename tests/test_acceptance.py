"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and
per-criterion timing as they happen.
"""

import random
import time

import pytest

from dissoc.cli import main
from dissoc.dissociation import alpha3_count_dp, enumerate_mds
from dissoc.extremal import exhaustive_extremal_check, lt8, max_mds_formula
from dissoc.kpath import (
    alpha_k_brute,
    greedy_cover_matching,
    verify_certificate,
)
from dissoc.structure import (
    critical_edges_alpha3,
    critical_edges_mu3,
    critical_structure,
    verify_structure_theorems,
)
from dissoc.treegen import free_trees, random_labeled_tree

from util import brute_force_mds, mu_k_brute, path, tau_k_brute


def _report(name: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def sweep_reports():
    started = time.perf_counter()
    reports = {n: exhaustive_extremal_check(n) for n in range(3, 17)}
    elapsed = time.perf_counter() - started
    print(f"[sweep 3..16 single-threaded in {elapsed:.1f}s]")
    return reports


def test_criterion_1_formula_reproduction(sweep_reports):
    mismatches = [
        (n, rep.observed_max, max_mds_formula(n))
        for n, rep in sweep_reports.items()
        if rep.observed_max != max_mds_formula(n)
    ]
    spot = {n: sweep_reports[n].observed_max for n in (6, 7, 8, 9, 10, 11)}
    _report(
        "1 formula reproduction n=3..16",
        not mismatches,
        f"observed {spot}" if not mismatches else f"mismatches {mismatches}",
    )


def test_criterion_2_extremal_characterization(sweep_reports):
    bad = []
    for n in range(5, 17):
        rep = sweep_reports[n]
        if set(rep.extremal_codes) != set(rep.predicted_codes) or not rep.match:
            bad.append(n)
    sizes = {n: len(sweep_reports[n].extremal_codes) for n in (6, 7, 8)}
    ok = not bad and sizes == {6: 1, 7: 2, 8: 7}
    _report("2 extremal characterization n=5..16", ok, f"classes {sizes}")


def test_criterion_3_oracle_equivalence():
    trees = 0
    for n in range(1, 11):
        for t in free_trees(n):
            trees += 1
            alpha, sets = brute_force_mds(t)
            r = alpha3_count_dp(t)
            assert (r.alpha3, r.count) == (alpha, len(sets)), t.edges
            got = [s.members() for s in enumerate_mds(t)]
            assert got == [s.members() for s in sets], t.edges
    _report("3 oracle equivalence n<=10", True, f"{trees} trees")


def test_criterion_4_kke_property():
    checked = 0
    for n in range(1, 13):
        for t in free_trees(n):
            r = alpha3_count_dp(t)
            for k in (2, 3, 4, 5):
                cert = greedy_cover_matching(t, k)
                assert verify_certificate(t, cert) == [], (n, k, t.edges)
                assert len(cert.cover) == len(cert.paths)
                alpha = r.alpha3 if k == 3 else alpha_k_brute(t, k)
                assert alpha + len(cert.paths) == n, (n, k, t.edges)
                if n <= 10:
                    mu = mu_k_brute(t, k)
                    assert len(cert.paths) == mu == tau_k_brute(t, k), (n, k)
                checked += 1
    _report("4 k-KE greedy certificates n<=12, k in 2..5", True, f"{checked} checks")


def test_criterion_5_criticality_equivalence():
    for n in range(2, 11):
        for t in free_trees(n):
            assert critical_edges_alpha3(t) == critical_edges_mu3(t), (n, t.edges)
    rng = random.Random(20260810)
    for i in range(1000):
        t = random_labeled_tree(40, rng)
        assert critical_edges_alpha3(t) == critical_edges_mu3(t), i
    _report("5 criticality equivalence", True, "n<=10 exhaustive + 1000 random n=40")


def test_criterion_6_structure_theorems():
    failures = []
    skipped = []
    trees = 0
    for n in range(1, 11):
        for t in free_trees(n):
            trees += 1
            for name, cr in verify_structure_theorems(t, critical_structure(t)).items():
                if cr.status == "fail":
                    failures.append((n, t.edges, name, cr.witness))
                elif cr.status == "skipped":
                    skipped.append((n, name))
    ok = not failures and not skipped
    _report(
        "6 structure theorems n<=10",
        ok,
        f"{trees} trees, fully enumerated" if ok else f"{failures or skipped}",
    )


def test_criterion_7_named_single_tree_facts():
    p7 = alpha3_count_dp(path(7))
    t8 = alpha3_count_dp(lt8())
    p3 = alpha3_count_dp(path(3))
    ok = (
        (p7.alpha3, p7.count) == (5, 3)
        and t8.count == 3
        and p3.count == 3 == max_mds_formula(3)
    )
    _report("7 named single-tree facts", ok, "P7=(5,3) LT8=3 P3=3")


def test_criterion_8_determinism(capsys):
    outputs = []
    for _ in range(2):
        code = main(["verify", "--n-max", "12", "--jobs", "4"])
        captured = capsys.readouterr()
        assert code == 0
        outputs.append(captured.out)
    _report(
        "8 determinism of verify --n-max 12 --jobs 4",
        outputs[0] == outputs[1],
        f"{len(outputs[0].splitlines())} summary lines",
    )
