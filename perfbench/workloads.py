"""The four benchmark workloads: their arguments, output checks and rationale.

Each workload is a closed loop: one caller in one process runs
``dissoc.cli.main(argv)`` and starts the next call only when the previous
one has returned. ``prepare(seed, directory)`` writes the inputs and sets
``argvs``, which the calls cycle through. The two sweeps cover every free
tree of their orders, and ``enumerate_stream`` lists the sets of one fixed
tree, so for them the seed changes nothing; ``analyze_large`` draws its
trees from the seed. Checks use constants and code written here (OEIS
A000055, the closed form of the record count, the DP in ``inputs``),
never the library's own checkers.

``stresses`` names the input property that sets the cost, ``layers``
maps each per-layer metric to the end-to-end metric it should move on
this workload, and ``caveat`` records known limits a clean error rate
must not be read as having fixed.
"""

from __future__ import annotations

import json
import random
import re
from pathlib import Path

from inputs import is_dissociation_set, mds_count, random_tree, write_tree

HERE = Path(__file__).resolve().parent

# OEIS A000055: free trees of order 1..17
FREE_TREES = (1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159, 7741, 19320, 48629)


def record_count(n: int) -> int:
    """Largest number of maximum dissociation sets over trees of order n."""
    if n <= 2:
        return 1
    m, r = divmod(n, 3)
    return 3 ** (m - 1) + (m + 1 if r == 0 else 1 if r == 1 else 0)


class Workload:
    name = ""
    argv: list[str] = []
    trees = 0  # trees one call checks
    vertices = 0  # their total order
    sets = 0  # sets one call lists
    stresses = ""
    layers: dict[str, str] = {}
    caveat = ""

    def prepare(self, seed: int, directory: Path) -> None:
        self.argvs = [self.argv]

    def check(self, index: int, rc: int | None, out: str) -> list[str]:
        """Problems with the output of a call on ``argvs[index]``."""
        raise NotImplementedError

    def corruptions(self, index: int, out: str) -> dict[str, str]:
        """Damaged copies of a good stdout that ``check`` must reject."""
        raise NotImplementedError


class VerifySweep(Workload):
    name = "verify_sweep"
    N_MAX = 10
    argv = ["verify", "--n-max", str(N_MAX), "--jobs", "1"]
    trees = sum(FREE_TREES[:N_MAX])
    vertices = sum(n * FREE_TREES[n - 1] for n in range(1, N_MAX + 1))
    stresses = (
        f"all {trees} free trees of order 1..{N_MAX}, each tiny: per-tree check count, "
        "not tree size, sets the cost"
    )
    layers = {
        "structure.*.self_s": "wall_s, trees_per_s",
        "dissociation.alpha3_forced.self_s": "wall_s, trees_per_s",
        "dissociation.enumerate_mds.self_s, .sets": "wall_s, trees_per_s (a small share)",
        "kpath.alpha_k_brute.self_s": "wall_s, trees_per_s (this workload only)",
        "kpath.greedy_cover_matching.self_s": "wall_s, trees_per_s",
        "forest.from_edges.calls, forest.without_edge.calls": "wall_s, trees_per_s",
        "treegen.free_trees.self_s": "trees_per_s (small share)",
    }
    caveat = (
        f"orders above {N_MAX} are not run: n=12 takes about 5 s per call, and a run "
        "needs many short calls for the fastest one to be steady on a shared machine"
    )
    ROW = re.compile(
        r"n=(\d+) trees=(\d+) failures=(\d+) max_count=(\d+) formula=(\d+) match=(true|false)"
    )

    def check(self, index, rc, out):
        problems = [] if rc == 0 else [f"exit code {rc}"]
        rows = {}
        total = None
        for line in out.splitlines():
            m = self.ROW.fullmatch(line)
            if m:
                rows[int(m.group(1))] = m.groups()[1:]
            elif line.startswith("total "):
                total = line
            else:
                problems.append(f"unexpected line {line!r}")
        for n in range(1, self.N_MAX + 1):
            if n not in rows:
                problems.append(f"row n={n} missing")
                continue
            trees, failures, max_count, formula, match = rows[n]
            if int(trees) != FREE_TREES[n - 1]:
                problems.append(f"n={n}: trees={trees}, expected {FREE_TREES[n - 1]}")
            if failures != "0" or match != "true":
                problems.append(f"n={n}: failures={failures} match={match}")
            if int(max_count) != record_count(n) or int(formula) != record_count(n):
                problems.append(f"n={n}: max_count={max_count} formula={formula}")
        if set(rows) - set(range(1, self.N_MAX + 1)):
            problems.append(f"unexpected rows {sorted(rows)}")
        want_total = f"total trees={self.trees} failures=0"
        if total != want_total:
            problems.append(f"total line {total!r}, expected {want_total!r}")
        return problems

    def corruptions(self, index, out):
        lines = out.splitlines(keepends=True)
        return {
            "dropped tree row": "".join(line for line in lines if not line.startswith("n=7 ")),
            "wrong tree count": out.replace(
                f"n={self.N_MAX} trees={FREE_TREES[self.N_MAX - 1]} ",
                f"n={self.N_MAX} trees={FREE_TREES[self.N_MAX - 1] - 1} ",
            ),
        }


class ExtremalSweep(Workload):
    name = "extremal_sweep"
    N = 15
    argv = ["extremal", "--n", str(N), "--sweep", "--jobs", "1"]
    trees = FREE_TREES[N - 1]
    vertices = N * trees
    stresses = (
        f"all {trees:,} free trees of order {N}: tree generation, Forest construction "
        "(twice per tree), one counting DP and one canonical code per tree"
    )
    layers = {
        "treegen.free_trees.self_s, treegen.free_trees.trees": "trees_per_s",
        "forest.from_edges.calls, forest.from_edges.self_s": "trees_per_s",
        "forest.canonical_code.self_s": "trees_per_s (this workload only)",
        "dissociation.alpha3_count_dp.self_s": "trees_per_s (one call per tree)",
        "extremal.exhaustive_extremal_check.self_s": "wall_s",
        "structure.*, kpath.*, forest.parse_edge_list": "none: they do no work here, the bypass case",
    }

    def check(self, index, rc, out):
        problems = [] if rc == 0 else [f"exit code {rc}"]
        try:
            doc = json.loads(out)
        except json.JSONDecodeError as exc:
            return problems + [f"stdout is not JSON: {exc}"]
        want = str(record_count(self.N))
        if doc.get("trees_scanned") != self.trees:
            problems.append(f"trees_scanned={doc.get('trees_scanned')}, expected {self.trees}")
        if doc.get("observed_max") != want or doc.get("formula_value") != want:
            problems.append(
                f"observed_max={doc.get('observed_max')} formula_value="
                f"{doc.get('formula_value')}, expected {want}"
            )
        if doc.get("match") is not True:
            problems.append(f"match={doc.get('match')}")
        return problems

    def corruptions(self, index, out):
        doc = json.loads(out)
        return {
            "wrong trees_scanned": json.dumps(dict(doc, trees_scanned=doc["trees_scanned"] - 1)),
            "wrong observed_max": json.dumps(dict(doc, observed_max=str(int(doc["observed_max"]) - 1))),
        }



class AnalyzeLarge(Workload):
    name = "analyze_large"
    ORDER = 300
    TREES = 5
    DEFAULT_SEED = 1
    GOLDEN = HERE / "golden_analyze.json"
    vertices = ORDER
    GOLDEN_KEYS = ("alpha3", "mds_count", "critical_edges", "flexible", "static_included", "static_excluded")
    CLASSES = ("flexible", "static_included", "static_excluded")
    trees = 1
    stresses = (
        f"{TREES} uniform random labelled trees of order {ORDER} from the seed, one per call: "
        "tree order sets the cost of the O(n^2) per-query loops"
    )
    layers = {
        "structure.critical_edges_alpha3.self_s, structure.classify_vertices.self_s": "wall_s",
        "forest.without_edge.calls, forest.from_edges.self_s": "wall_s (one rebuild per edge)",
        "dissociation.alpha3_count_dp.self_s, dissociation.alpha3_forced.self_s": "wall_s",
        "kpath.greedy_cover_matching.self_s": "wall_s (one O(n^2) call)",
        "forest.parse_edge_list.self_s": "wall_s (must not grow)",
        "treegen.*, forest.canonical_code, dissociation.enumerate_mds": "none: no work here",
    }

    def prepare(self, seed, directory):
        rng = random.Random(seed)
        self.adjs = [random_tree(self.ORDER, rng) for _ in range(self.TREES)]
        self.argvs = []
        for i, adj in enumerate(self.adjs):
            path = directory / f"analyze-{i}.txt"
            write_tree(path, adj)
            self.argvs.append(["analyze", str(path), "--enumerate-cap", "0"])
        self.expected = [mds_count(adj) for adj in self.adjs]
        self.golden = None
        if seed == self.DEFAULT_SEED:
            golden = json.loads(self.GOLDEN.read_text(encoding="utf-8"))
            if (golden["seed"], golden["order"]) != (seed, self.ORDER):
                raise RuntimeError(f"{self.GOLDEN.name} is not for seed {seed}, order {self.ORDER}")
            self.golden = golden["trees"]

    def check(self, index, rc, out):
        problems = [] if rc == 0 else [f"exit code {rc}"]
        try:
            doc = json.loads(out)
        except json.JSONDecodeError as exc:
            return problems + [f"stdout is not JSON: {exc}"]
        alpha3, count = self.expected[index]
        if doc["n"] != self.ORDER:
            problems.append(f"n={doc['n']}, expected {self.ORDER}")
        if doc["violations"]:
            problems.append(f"violations {doc['violations'][:3]}")
        if doc["kke"]["3"]["holds"] is not True:
            problems.append(f"kke[3] {doc['kke']['3']}")
        if doc["alpha3"] != alpha3 or doc["mds_count"] != str(count):
            problems.append(f"alpha3={doc['alpha3']} mds_count={doc['mds_count']}, expected {alpha3}, {count}")
        if doc["alpha3"] != len(doc["static_included"]) + doc["eta"]:
            problems.append(f"alpha3={doc['alpha3']} but {len(doc['static_included'])} static included + eta {doc['eta']}")
        ends = {label for edge in doc["critical_edges"] for label in edge}
        if set(doc["flexible"]) != ends:
            problems.append("flexible vertices are not the endpoints of the critical edges")
        members = [label for key in self.CLASSES for label in doc[key]]
        if sorted(members) != sorted(str(v) for v in range(self.ORDER)):
            problems.append("the three vertex classes do not partition the vertices")
        if self.golden is not None:
            for key in self.GOLDEN_KEYS:
                if doc[key] != self.golden[index][key]:
                    problems.append(f"{key} differs from the value recorded for seed {self.DEFAULT_SEED}")
        return problems

    def corruptions(self, index, out):
        doc = json.loads(out)
        return {
            "wrong mds_count": json.dumps(dict(doc, mds_count=str(int(doc["mds_count"]) + 1))),
            "vertex dropped from a class": json.dumps(dict(doc, static_excluded=doc["static_excluded"][1:])),
        }


class EnumerateStream(Workload):
    name = "enumerate_stream"
    ORDER = 60
    TREE_SEED = 0  # the tree is the first one this generator draws with a count in SETS
    SETS = range(400, 601)
    trees = 1
    vertices = ORDER
    stresses = (
        f"one fixed random labelled tree of order {ORDER} with {SETS.start}-{SETS.stop - 1} "
        "maximum sets, listed in full: the delay per listed set sets the cost"
    )
    layers = {
        "dissociation.enumerate_mds.self_s, .sets": "wall_s, trees_per_s (this workload only dominates)",
        "forest.parse_edge_list.self_s": "wall_s (must not grow)",
        "structure.*, kpath.*, treegen.*": "none: no work here",
    }
    caveat = (
        "the tree does not change with the seed: between random trees of order 60 with "
        "900-1100 sets the time per set ranged 1.9-3.5 ms, which would put the choice of "
        "input, not the program, into wall_s"
    )

    def prepare(self, seed, directory):
        rng = random.Random(self.TREE_SEED)
        while True:
            self.adj = random_tree(self.ORDER, rng)
            self.alpha3, self.count = mds_count(self.adj)
            if self.count in self.SETS:
                break
        self.sets = self.count
        path = directory / "enumerate.txt"
        write_tree(path, self.adj)
        self.argvs = [["enumerate", str(path)]]

    def check(self, index, rc, out):
        problems = [] if rc == 0 else [f"exit code {rc}"]
        lines = out.splitlines()
        if len(lines) != self.count:
            problems.append(f"{len(lines)} lines, expected {self.count} sets")
        previous: tuple[int, ...] = ()
        for number, line in enumerate(lines, start=1):
            members = tuple(int(token) for token in line.split())
            if members <= previous:
                problems.append(f"line {number} is not after line {number - 1}: not distinct or not in order")
            previous = members
            if (
                len(members) != self.alpha3
                or list(members) != sorted(set(members))
                or not all(0 <= v < self.ORDER for v in members)
                or not is_dissociation_set(self.adj, list(members))
            ):
                problems.append(f"line {number} is not a dissociation set of size {self.alpha3}")
            if len(problems) > 3:
                break
        return problems

    def corruptions(self, index, out):
        lines = out.splitlines(keepends=True)
        return {
            "duplicated line": "".join(lines[:2] + lines[1:]),
            "non-dissociation line": "".join(lines[:-1]) + non_dissociation(lines[-1], self.ORDER),
        }


def non_dissociation(line: str, n: int) -> str:
    """The next vertex list after ``line`` in lexicographic order, of the same
    size. When ``line`` is the last maximum set, the result is in order and of
    size alpha3 but is no dissociation set, so only that test can reject it."""
    members = [int(token) for token in line.split()]
    for j in reversed(range(len(members))):
        limit = members[j + 1] if j + 1 < len(members) else n
        if members[j] + 1 < limit:
            members[j] += 1
            return " ".join(map(str, members)) + "\n"
    raise ValueError(f"no vertex list of its size follows {line!r}")


WORKLOADS = {w.name: w for w in (VerifySweep(), ExtremalSweep(), AnalyzeLarge(), EnumerateStream())}
