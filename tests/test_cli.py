import hashlib
import json
import re
from collections import Counter
from pathlib import Path

import pytest

from dissoc import cli, dissociation, extremal, structure, treegen
from dissoc.cli import main
from dissoc.errors import TheoremViolation
from dissoc.forest import canonical_code, parse_edge_list
from dissoc.structure import critical_structure

from util import CHECK_NAMES, deadline, replaced

LT8_TEXT = "u1 u2\nu2 u3\nu3 u4\nu1 v1\nu2 v2\nu3 v3\nu4 v4\n"
P5_TEXT = "0 1\n1 2\n2 3\n3 4\n"


@pytest.fixture
def lt8_file(tmp_path):
    p = tmp_path / "lt8.txt"
    p.write_text(LT8_TEXT)
    return str(p)


@pytest.fixture
def p5_file(tmp_path):
    p = tmp_path / "p5.txt"
    p.write_text(P5_TEXT)
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_lt8(capsys, lt8_file):
    code, out, _ = run(capsys, "analyze", lt8_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["mds_count"] == "3"
    assert doc["alpha3"] == 6
    assert doc["static_included"] == ["v1", "v2", "v3", "v4"]
    assert doc["insulated_edges"] == [["u1", "u2"], ["u3", "u4"]]
    assert set(doc["theorem_checks"].values()) == {"pass"}
    assert sorted(doc["theorem_checks"]) == sorted(CHECK_NAMES)
    assert doc["kke"]["3"] == {"alpha_k": 6, "mu_k": 2, "holds": True}


def test_analyze_multiple_k(capsys, p5_file):
    code, out, _ = run(capsys, "analyze", p5_file, "--k", "2,3,4")
    assert code == 0
    doc = json.loads(out)
    assert set(doc["kke"]) == {"2", "3", "4"}
    assert all(entry["holds"] for entry in doc["kke"].values())


def test_analyze_is_deterministic(capsys, lt8_file):
    _, out1, _ = run(capsys, "analyze", lt8_file)
    _, out2, _ = run(capsys, "analyze", lt8_file)
    assert out1 == out2


def test_enumerate_p5(capsys, p5_file):
    code, out, _ = run(capsys, "enumerate", p5_file)
    assert code == 0
    assert out == "0 1 3 4\n"


def test_enumerate_limit_truncates(capsys, tmp_path):
    p = tmp_path / "p3.txt"
    p.write_text("0 1\n1 2\n")
    code, out, err = run(capsys, "enumerate", str(p), "--limit", "2")
    assert code == 2
    assert out == "0 1\n0 2\n"
    assert "truncated" in err


def test_enumerate_limit_at_the_set_count(capsys, tmp_path):
    p = tmp_path / "p3.txt"
    p.write_text("0 1\n1 2\n")
    code, out, err = run(capsys, "enumerate", str(p), "--limit", "3")
    assert (code, out, err) == (0, "0 1\n0 2\n1 2\n", "")
    code, out, _ = run(capsys, "enumerate", str(p), "--limit", "2")
    assert (code, out) == (2, "0 1\n0 2\n")


def test_enumerate_prints_labels_in_vertex_order(capsys, tmp_path):
    # vertices are numbered by first appearance: c, b, a
    p = tmp_path / "cba.txt"
    p.write_text("c b\nb a\n")
    code, out, _ = run(capsys, "enumerate", str(p))
    assert (code, out) == (0, "c b\nc a\nb a\n")


def test_gen_trees_count_only(capsys, monkeypatch):
    code, out, _ = run(capsys, "gen-trees", "--n", "4", "--count-only")
    assert code == 0
    assert out == "2\n"

    def no_walk(n):
        raise AssertionError("trees were walked only to be counted")

    monkeypatch.setattr(treegen, "_walk", no_walk)
    assert run(capsys, "gen-trees", "--n", "12", "--count-only")[:2] == (0, "551\n")
    with deadline(1):  # a walk would take years: about 3.4e23 trees
        assert run(capsys, "gen-trees", "--n", "60", "--count-only")[:2] == (
            0, "339028211512423891688777\n")
    code, out, err = run(capsys, "gen-trees", "--n", "0", "--count-only")
    assert (code, out, err) == (1, "", "error: order must be positive\n")


def test_gen_trees_blocks_parse_back(capsys):
    code, out, _ = run(capsys, "gen-trees", "--n", "5")
    assert code == 0
    blocks = out.strip().split("\n\n")
    assert len(blocks) == 3
    codes = {canonical_code(parse_edge_list(b)) for b in blocks}
    assert len(codes) == 3


def test_extremal_sweep_n7(capsys, tmp_path):
    csv_path = tmp_path / "sweep.csv"
    code, out, err = run(capsys, "extremal", "--n", "7", "--sweep", "--csv", str(csv_path))
    assert code == 0
    assert re.fullmatch(r"n=7 trees=11 done in \d+\.\d\ds trees_per_s=\d+\n", err), err
    doc = json.loads(out)
    assert doc["formula_value"] == "4"
    assert doc["match"] is True
    assert len(doc["extremal_codes"]) == 2
    assert doc["trees_scanned"] == 11
    assert csv_path.read_text().strip().splitlines()[1] == "7,11,4,4,True,0"


GOLDEN_SWEEP = json.loads((Path(__file__).parent / "golden_extremal_sweep.json").read_text())


@pytest.mark.parametrize("n", sorted(GOLDEN_SWEEP, key=int))
def test_extremal_sweep_stdout_matches_golden(capsys, n):
    # golden_extremal_sweep.json holds the stdout and exit code of `extremal --n N --sweep`
    want = GOLDEN_SWEEP[n]
    assert run(capsys, "extremal", "--n", n, "--sweep")[:2] == (want["exit_code"], want["stdout"])


GOLDEN_VERIFY = json.loads((Path(__file__).parent / "golden_verify.json").read_text())


@pytest.mark.parametrize("argv", sorted(GOLDEN_VERIFY))
def test_verify_stdout_matches_golden(capsys, argv):
    # golden_verify.json holds the stdout and exit code of each `verify` command it names
    want = GOLDEN_VERIFY[argv]
    assert run(capsys, *argv.split())[:2] == (want["exit_code"], want["stdout"])


GOLDEN_SHA256 = json.loads((Path(__file__).parent / "golden_stdout_sha256.json").read_text())


@pytest.mark.parametrize("argv", list(GOLDEN_SHA256))
def test_edge_list_stdout_matches_its_digest(capsys, argv):
    # golden_stdout_sha256.json holds the sha256 of the stdout of each `gen-trees --n N` and
    # `extremal --n N`: both print serialize_edge_list(normalize_indices(tree)), which reads
    # Forest.edges, so the edge order of every tree they print is pinned
    code, out, _ = run(capsys, *argv.split())
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, GOLDEN_SHA256[argv])


def test_extremal_family_only(capsys):
    code, out, _ = run(capsys, "extremal", "--n", "6")
    assert code == 0
    doc = json.loads(out)
    assert doc["family_size"] == 1
    assert doc["formula_value"] == "6"
    parsed = parse_edge_list(doc["family_edge_lists"][0])
    assert parsed.n == 6


def test_verify_small(capsys, tmp_path):
    csv_path = tmp_path / "rows.csv"
    code, out, _ = run(capsys, "verify", "--n-max", "6", "--csv", str(csv_path))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "total trees=14 failures=0"
    assert lines[2] == "n=3 trees=1 failures=0 max_count=3 formula=3 match=true"
    header, *rows = csv_path.read_text().strip().splitlines()
    assert header == "n,trees,max_count,formula,match,failures"
    assert len(rows) == 6


@pytest.mark.parametrize("argv, where", [
    (("verify", "--n-max", "2"), "missing/x.csv"),
    (("extremal", "--n", "9", "--sweep"), "missing/x.csv"),
    (("verify", "--n-max", "2"), "."),  # a directory
])
def test_unwritable_csv_path_fails_before_any_work(capsys, tmp_path, argv, where):
    code, out, err = run(capsys, *argv, "--csv", str(tmp_path / where))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("argv, code", [
    (("verify", "--n-max", "19"), 2),
    (("extremal", "--n", str(extremal.SWEEP_LIMIT + 1), "--sweep"), 2),  # refused before any work
    (("verify", "--n-max", "3", "--k-list", "1"), 1),
], ids=["verify-guard", "sweep-guard", "bad-k-list"])
def test_a_run_that_writes_no_rows_creates_no_csv_file(capsys, tmp_path, argv, code):
    csv_path = tmp_path / "rows.csv"
    assert run(capsys, *argv, "--csv", str(csv_path))[:2] == (code, "")
    assert not csv_path.exists()
    csv_path.write_bytes(b"")  # an existing file, empty or not, stays as it was
    assert run(capsys, *argv, "--csv", str(csv_path))[0] == code
    assert csv_path.read_bytes() == b""
    csv_path.write_bytes(b"old\r\n" * 3)
    assert run(capsys, *argv, "--csv", str(csv_path))[0] == code
    assert csv_path.read_bytes() == b"old\r\n" * 3


def test_csv_keeps_an_existing_file_until_the_rows_are_written(capsys, tmp_path):
    csv_path = tmp_path / "rows.csv"
    csv_path.write_text("old\n" * 100)
    assert run(capsys, "verify", "--n-max", "19", "--csv", str(csv_path))[0] == 2
    assert csv_path.read_text() == "old\n" * 100
    assert run(capsys, "verify", "--n-max", "2", "--csv", str(csv_path))[0] == 0
    assert csv_path.read_text().splitlines() == [
        "n,trees,max_count,formula,match,failures", "1,1,1,1,True,0", "2,1,1,1,True,0"]


def test_verify_determinism_across_jobs(capsys):
    _, out1, _ = run(capsys, "verify", "--n-max", "8", "--jobs", "2")
    _, out2, _ = run(capsys, "verify", "--n-max", "8", "--jobs", "2")
    _, out3, _ = run(capsys, "verify", "--n-max", "8", "--jobs", "1")
    assert out1 == out2 == out3


def test_usage_errors(capsys, tmp_path):
    code, _, err = run(capsys, "gen-trees")
    assert code == 1
    code, _, err = run(capsys, "analyze", str(tmp_path / "missing.txt"))
    assert code == 1
    bad = tmp_path / "bad.txt"
    bad.write_text("1 2\n2 3\n3 1\n")
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 1
    assert "cycle" in err


def test_guard_exit_code(capsys, tmp_path):
    big = tmp_path / "p30.txt"
    big.write_text("".join(f"{i} {i + 1}\n" for i in range(29)))
    code, _, err = run(capsys, "analyze", str(big), "--k", "4")
    assert code == 2
    assert "limited" in err


def test_analyze_refuses_alpha_k_past_its_guard_before_any_work(capsys, monkeypatch, tmp_path):
    p27 = tmp_path / "p27.txt"
    p27.write_text("".join(f"{i} {i + 1}\n" for i in range(26)))

    def no_structure(forest):
        raise AssertionError("the structure was built")

    with monkeypatch.context() as m:
        m.setattr(cli, "critical_structure", no_structure)
        got = run(capsys, "analyze", str(p27), "--k", "3,4")
    assert got == (2, "", "error: alpha_k brute force limited to n <= 26, got 27\n")
    code, out, _ = run(capsys, "analyze", str(p27), "--k", "3")
    assert code == 0
    assert json.loads(out)["kke"]["3"] == {"alpha_k": 18, "mu_k": 9, "holds": True}


def no_pool(*args, **kwargs):
    raise AssertionError("a worker pool was started")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--n-max", "0"],
        ["verify", "--n-max", "-5"],
        ["enumerate", "P5", "--limit", "-1"],
        ["analyze", "P5", "--enumerate-cap", "-1"],
        ["verify", "--n-max", "4", "--jobs", "0"],
        ["extremal", "--n", "6", "--sweep", "--jobs", "0"],
    ],
)
def test_out_of_range_arguments_rejected(capsys, monkeypatch, p5_file, argv):
    monkeypatch.setattr("multiprocessing.Pool", no_pool)
    code, out, err = run(capsys, *[p5_file if a == "P5" else a for a in argv])
    assert code == 1
    assert out == ""
    assert "must be an integer >=" in err


def test_zero_enumerate_cap_is_valid(capsys, p5_file):
    # analyze still accepts --enumerate-cap, and ignores it
    _, plain, _ = run(capsys, "analyze", p5_file)
    code, out, _ = run(capsys, "analyze", p5_file, "--enumerate-cap", "0")
    assert code == 0
    assert out == plain
    assert json.loads(out)["theorem_checks"]["mds_meets_exact_pattern"] == "pass"


@pytest.mark.parametrize("argv", [
    ("verify", "--n-max", "4", "--enumerate-cap", "1"),
    ("extremal", "--n", "9", "--csv", "rows.csv"),  # --csv and --jobs need --sweep
    ("extremal", "--n", "9", "--jobs", "2"),
], ids=["verify-enumerate-cap", "extremal-csv", "extremal-jobs"])
def test_options_nothing_reads_are_usage_errors(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("multiprocessing.Pool", no_pool)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not (tmp_path / "rows.csv").exists()


def test_jobs_capped_at_cpu_count(capsys, monkeypatch):
    _, expected, _ = run(capsys, "verify", "--n-max", "4", "--jobs", "1")
    monkeypatch.setattr("os.cpu_count", lambda: 1)
    monkeypatch.setattr("multiprocessing.Pool", no_pool)
    code, out, _ = run(capsys, "verify", "--n-max", "4", "--jobs", "64")
    assert code == 0
    assert out == expected


def test_verify_order_guard(capsys, monkeypatch):
    def no_check(*args, **kwargs):
        raise AssertionError("a tree was checked")

    monkeypatch.setattr("dissoc.cli._check_tree", no_check)
    code, out, err = run(capsys, "verify", "--n-max", "19")
    assert code == 2
    assert out == ""
    assert "limited to --n-max <= 18" in err


def test_verify_reports_skipped_checks(capsys):
    # the structure checks count the maximum sets and list none, so none is skipped
    code, out, err = run(capsys, "verify", "--n-max", "8")
    assert code == 0
    assert out.splitlines()[-1] == "total trees=48 failures=0"
    skipped = re.findall(r"^n=\d+ done in [\d.]+s skipped=(\d+)$", err, re.M)
    assert skipped == ["0"] * 8


def count_engine_passes(monkeypatch) -> dict:
    """Count unmasked and masked ``_rerooted`` passes, and ``_down`` passes made
    outside a ``_rerooted`` pass, from here to the end of the test."""
    counts = {"unmasked_rerooted": 0, "masked_rerooted": 0, "standalone_down": 0}
    inside = []
    down, rerooted = dissociation._down, dissociation._rerooted

    def counting_down(*args):
        counts["standalone_down"] += not inside
        return down(*args)

    def counting_rerooted(forest, include_bits=0, exclude_bits=0):
        counts["masked_rerooted" if include_bits or exclude_bits else "unmasked_rerooted"] += 1
        inside.append(True)
        try:
            return rerooted(forest, include_bits, exclude_bits)
        finally:
            inside.pop()

    monkeypatch.setattr(dissociation, "_down", counting_down)
    monkeypatch.setattr(dissociation, "_rerooted", counting_rerooted)
    monkeypatch.setattr(structure, "_rerooted", counting_rerooted)
    return counts


def test_analyze_runs_one_engine_pass(capsys, monkeypatch, lt8_file):
    counts = count_engine_passes(monkeypatch)
    code, _, _ = run(capsys, "analyze", lt8_file)
    assert code == 0
    assert counts == {"unmasked_rerooted": 1, "masked_rerooted": 0, "standalone_down": 0}


def test_verify_runs_one_engine_pass_per_tree(capsys, monkeypatch):
    counts = count_engine_passes(monkeypatch)
    code, out, _ = run(capsys, "verify", "--n-max", "8", "--k-list", "3")
    assert code == 0
    assert out.splitlines()[-1] == "total trees=48 failures=0"
    assert counts == {"unmasked_rerooted": 48, "masked_rerooted": 0, "standalone_down": 0}


def test_analyze_reports_a_grouping_failure(capsys, monkeypatch, lt8_file):
    witness = "critical component with 3 edges: [(0, 1), (1, 2), (2, 3)]"

    def ungrouped(forest):
        return replaced(
            critical_structure(forest),
            insulated_edges=None,
            critical_triples=None,
            grouping_failure=witness,
        )

    monkeypatch.setattr("dissoc.cli.critical_structure", ungrouped)
    code, out, _ = run(capsys, "analyze", lt8_file)
    assert code == 3
    doc = json.loads(out)
    assert doc["insulated_edges"] is None and doc["critical_triples"] is None
    assert doc["violations"] == [f"critical_components_are_edge_or_3path: {witness}"]
    assert doc["theorem_checks"]["count_within_branching_bound"] == "skipped"
    assert doc["eta"] == len(doc["critical_edges"]) == 2


def test_analyze_reports_a_failed_kke_identity(capsys, monkeypatch, p5_file):
    # alpha_k + mu_k == n is a checked fact: its failure is a violation with
    # verify's wording, and analyze exits 3
    monkeypatch.setattr("dissoc.structure.alpha_k_brute", lambda forest, k: 0)
    code, out, _ = run(capsys, "analyze", p5_file, "--k", "2,3")
    assert code == 3
    doc = json.loads(out)
    assert doc["kke"]["2"] == {"alpha_k": 0, "mu_k": 2, "holds": False}
    assert doc["kke"]["3"]["holds"] is True
    assert doc["violations"] == ["kke k=2: alpha_k=0 mu_k=2 n=5"]


def test_analyze_reports_a_bad_certificate(capsys, monkeypatch, p5_file):
    # analyze checks each certificate as verify does: a path over a missing
    # edge is a violation, though alpha_k + mu_k == n still holds
    greedy = structure.greedy_cover_matching

    def tampered(forest, k):
        cert = greedy(forest, k)
        return replaced(cert, paths=((0, 2, 4),))

    monkeypatch.setattr(structure, "greedy_cover_matching", tampered)
    code, out, _ = run(capsys, "analyze", p5_file)
    assert code == 3
    doc = json.loads(out)
    assert doc["kke"]["3"] == {"alpha_k": 4, "mu_k": 1, "holds": True}
    assert doc["violations"] == [
        "certificate k=3: path (0, 2, 4) uses missing edge (0, 2); "
        "path (0, 2, 4) uses missing edge (2, 4)"
    ]


def _mu3_raises(fn, forest):
    raise TheoremViolation("deleting edge (0, 1) moved mu3 from 1 to 3")


# name -> (function of dissoc.structure, its broken form given the original, note on P3)
FAULTS = {
    "mu3 set drops an edge": (
        "critical_edges_mu3",
        lambda fn, forest: fn(forest)[1:],
        "critical_edge_sets_coincide: alpha3 and mu3 sets differ",
    ),
    "mu3 pass raises": (
        "critical_edges_mu3",
        _mu3_raises,
        "critical_edge_sets_coincide: deleting edge (0, 1) moved mu3 from 1 to 3",
    ),
    "certificate has a problem": (
        "verify_certificate",
        lambda fn, forest, cert: fn(forest, cert) + ["injected"] * (cert.k == 2),
        "certificate k=2: injected",
    ),
    "alpha_k one too large": (
        "alpha_k_brute",
        lambda fn, forest, k: fn(forest, k) + 1,
        "kke k=2: alpha_k=3 mu_k=1 n=3",
    ),
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_verify_reports_a_failed_check_and_finishes_the_sweep(capsys, monkeypatch, fault):
    # the fault hits only P3, the one tree of order 3: its row counts one
    # failure and names it, and every other row is as on a clean run
    argv = ("verify", "--n-max", "5", "--k-list", "2,3")
    clean = run(capsys, *argv)[1]
    name, broken, note = FAULTS[fault]
    fn = getattr(structure, name)

    def on_p3(forest, *args):
        return broken(fn, forest, *args) if forest.n == 3 else fn(forest, *args)

    monkeypatch.setattr(structure, name, on_p3)
    code, out, _ = run(capsys, *argv)
    assert code == 3
    row = "n=3 trees=1 failures=0 max_count=3 formula=3 match=true\n"
    assert clean.count(row) == 1 and clean.endswith("total trees=8 failures=0\n")
    want = clean.replace(row, row.replace("failures=0", "failures=1") + f"  counterexample at n=3: {note}\n")
    assert out == want.replace("total trees=8 failures=0", "total trees=8 failures=1")


def test_a_greedy_violation_fails_the_certificate_and_the_sweep_goes_on(
    capsys, monkeypatch, tmp_path
):
    # a TheoremViolation of the greedy on P3, the one tree of order 3, fails
    # "certificate k=3" with its witness and skips "kke k=3"; every order still runs
    witness = "no 3-path through vertex 1 although its subtree reports one"
    greedy = structure.greedy_cover_matching

    def raises_on_p3(forest, k):
        if forest.n == 3:
            raise TheoremViolation(witness)
        return greedy(forest, k)

    argv = ("verify", "--n-max", "5", "--k-list", "3")
    clean = run(capsys, *argv)[1]
    monkeypatch.setattr(structure, "greedy_cover_matching", raises_on_p3)
    code, out, err = run(capsys, *argv)
    assert code == 3 and "counterexample:" not in err
    row = "n=3 trees=1 failures=0 max_count=3 formula=3 match=true\n"
    note = f"  counterexample at n=3: certificate k=3: {witness}\n"
    assert clean.count(row) == 1 and clean.endswith("total trees=8 failures=0\n")
    assert out == clean.replace(row, row.replace("failures=0", "failures=1") + note).replace(
        "total trees=8 failures=0", "total trees=8 failures=1")
    assert len(out.splitlines()) == 5 + 1 + 1
    assert "n=3 done in" in err and [line.split()[-1] for line in err.splitlines()] == [
        "skipped=0", "skipped=0", "skipped=1", "skipped=0", "skipped=0"]
    p3 = tmp_path / "p3.txt"
    p3.write_text("a b\nb c\n")
    code, out, _ = run(capsys, "analyze", str(p3), "--k", "2,3")
    assert code == 3
    doc = json.loads(out)
    assert doc["violations"] == [f"certificate k=2: {witness}", f"certificate k=3: {witness}"]
    assert doc["kke"] == {"2": None, "3": None}


def _raise_alpha3(up):
    up[0][1] += 1  # the side of 0 across edge (0, 1) one larger than its optimum


def _avoid_an_end(up):
    up[1][1] = up[0][1]  # the side of 0 across edge (0, 1) as large without 0


# name -> (breaks the size-only tables of a 3-vertex path, witness of the failed check)
EDGE_FAULTS = {
    "deleting an edge raises alpha3 by two": (
        _raise_alpha3, "deleting edge (0, 1) moved alpha3 from 2 to 4"),
    "a split optimum avoids an end": (
        _avoid_an_end, "critical edge (0, 1): some optimum of the split forest avoids 0"),
}


@pytest.mark.parametrize("fault", sorted(EDGE_FAULTS))
def test_an_inconsistent_critical_edge_fails_a_check_and_the_sweep_goes_on(
    capsys, monkeypatch, tmp_path, fault
):
    # the failed edge check of P3 is a failed check like any other, so the orders after it still run
    argv = ("verify", "--n-max", "5", "--k-list", "3")
    clean = run(capsys, *argv)[1].splitlines()
    breaks, witness = EDGE_FAULTS[fault]
    rerooted = structure._rerooted

    def broken(forest, *masks):
        parent, down, up, whole = rerooted(forest, *masks)
        if forest.n == 3:
            breaks(up)
        return parent, down, up, whole

    monkeypatch.setattr(structure, "_rerooted", broken)
    code, out, err = run(capsys, *argv)
    assert code == 3 and "counterexample:" not in err
    lines = out.splitlines()
    notes = [line for line in lines if line.startswith("  counterexample at n=3: ")]
    assert f"  counterexample at n=3: critical_edge_sets_coincide: {witness}" in notes
    assert [line for line in lines if line not in notes] == [
        line.replace("n=3 trees=1 failures=0", f"n=3 trees=1 failures={len(notes)}")
        .replace("total trees=8 failures=0", f"total trees=8 failures={len(notes)}")
        for line in clean
    ]
    p3 = tmp_path / "p3.txt"
    p3.write_text("a b\nb c\n")
    code, out, _ = run(capsys, "analyze", str(p3))
    assert code == 3
    assert f"critical_edge_sets_coincide: {witness}" in json.loads(out)["violations"]


def test_verify_reaches_every_check_through_the_registry(capsys, monkeypatch):
    # per tree, dissoc.cli builds the structure and calls the registry once;
    # the certificate checks, alpha_k and the mu3 edges run inside the registry
    calls = Counter()

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls[f"{module.__name__}.{name}"] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for name in ("critical_structure", "verify_structure_theorems"):
        count(cli, name)
    for name in ("verify_certificate", "alpha_k_brute", "critical_edges_mu3"):
        assert not hasattr(cli, name), name
        count(structure, name)
    code, out, _ = run(capsys, "verify", "--n-max", "7")
    assert (code, out.splitlines()[-1]) == (0, "total trees=25 failures=0")
    assert calls == {
        "dissoc.cli.critical_structure": 25,
        "dissoc.cli.verify_structure_theorems": 25,
        "dissoc.structure.verify_certificate": 25 * 4,
        "dissoc.structure.alpha_k_brute": 25 * 3,
        "dissoc.structure.critical_edges_mu3": 25,
    }
