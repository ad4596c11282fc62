"""Command-line surface: analyze, enumerate, verify, extremal, gen-trees.

Exit codes: 0 success, 1 usage or input error, 2 guard exceeded,
3 a checked fact failed on some tree (a counterexample). Data output is
deterministic and goes to stdout; runtime statistics go to stderr.
"""

from __future__ import annotations

import functools
import sys
import time
from itertools import islice
from pathlib import Path
from typing import Sequence

from .dissociation import enumerate_mds
from .errors import GuardExceeded, ParseError, TheoremViolation
from .extremal import exhaustive_extremal_check, generate_extremal_family, max_mds_formula
from .forest import (
    Forest,
    canonical_code,
    normalize_indices,
    parse_edge_list,
    serialize_edge_list,
)
from .kpath import alpha_k_guard
from .structure import critical_structure, kpath_checks, verify_structure_theorems
from .treegen import free_tree_count, free_trees, map_free_trees

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_GUARD = 2
EXIT_VIOLATION = 3
VERIFY_LIMIT = 18  # verify's own order guard; extremal --sweep has SWEEP_LIMIT


class _UsageError(Exception):
    pass


def _parse_k_list(text: str) -> list[int]:
    try:
        ks = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise _UsageError(f"bad k list {text!r}") from exc
    if not ks or any(k < 2 for k in ks):
        raise _UsageError("k values must be integers >= 2")
    return list(dict.fromkeys(ks))  # a repeated k names the same checks


def _at_least(low: int):
    def integer(text: str) -> int:
        if int(text) < low:
            import argparse  # build_parser loaded it

            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text}")
        return int(text)

    return integer


def _load_forest(path: str) -> Forest:
    return parse_edge_list(Path(path).read_text(encoding="utf-8"))


def _labels(forest: Forest, vertices) -> list[str]:
    return [forest.label(v) for v in sorted(vertices)]


def _analysis_document(forest: Forest, k_values: Sequence[int]) -> dict:
    if any(k != 3 for k in k_values):  # before any work
        alpha_k_guard(forest.n)
    struct = critical_structure(forest)
    cls = struct.classes
    checks = verify_structure_theorems(forest, struct)
    insulated = triples = None
    if struct.grouping_failure is None:
        insulated = [[forest.label(u), forest.label(v)] for u, v in struct.insulated_edges]
        triples = [[forest.label(a), forest.label(b), forest.label(c)]
                   for a, b, c in struct.critical_triples]
    kke, kke_checks = {}, {}
    for k in k_values:  # the same per-k checks as verify
        kke[str(k)], kke_checks[f"certificate k={k}"], kke_checks[f"kke k={k}"] = kpath_checks(
            forest, k, struct.alpha3)
    violations = sorted(
        f"{name}: {cr.witness}" for name, cr in (checks | kke_checks).items() if cr.status == "fail"
    )
    return {
        "n": forest.n,
        "alpha3": struct.alpha3,
        "mds_count": str(struct.count),
        "eta": struct.eta,
        "critical_edges": [[forest.label(u), forest.label(v)] for u, v in struct.critical_edges],
        "insulated_edges": insulated,
        "critical_triples": triples,
        "flexible": _labels(forest, cls.flexible),
        "static_included": _labels(forest, cls.static_included),
        "static_excluded": _labels(forest, cls.static_excluded),
        "theorem_checks": {name: cr.status for name, cr in checks.items()},
        "violations": violations,
        "kke": kke,
    }


def _print_json(doc: dict) -> None:
    import json  # only analyze and extremal print JSON

    print(json.dumps(doc, indent=2, sort_keys=True))


def _cmd_analyze(args) -> int:
    forest = _load_forest(args.file)
    doc = _analysis_document(forest, _parse_k_list(args.k))
    _print_json(doc)
    return EXIT_VIOLATION if doc["violations"] else EXIT_OK


def _cmd_enumerate(args) -> int:
    forest = _load_forest(args.file)
    labels = [forest.label(v) for v in range(forest.n)]
    sets = enumerate_mds(forest)
    for vs in islice(sets, args.limit):  # a limit of None takes every set
        sys.stdout.write(" ".join([labels[v] for v in vs]) + "\n")  # in vertex order
    if next(sets, None) is not None:  # an empty set is falsy, so compare with None
        print(f"truncated at {args.limit} sets", file=sys.stderr)
        return EXIT_GUARD
    return EXIT_OK


def _check_tree(tree: Forest, k_list: tuple[int, ...]) -> tuple[int, tuple[str, ...], int]:
    """Per-tree verification work unit: one registry call over the structure
    and the k-list; returns (mds count, failure notes, skipped checks)."""
    struct = critical_structure(tree)
    checks = verify_structure_theorems(tree, struct, k_list).items()
    failures = tuple(f"{name}: {cr.witness}" for name, cr in checks if cr.status == "fail")
    return struct.count, failures, sum(cr.status == "skipped" for _, cr in checks)


def _cmd_verify(args) -> int:
    if args.n_max > VERIFY_LIMIT:
        raise GuardExceeded(f"verify limited to --n-max <= {VERIFY_LIMIT}, got {args.n_max}")
    check = functools.partial(_check_tree, k_list=tuple(_parse_k_list(args.k_list)))
    rows = []
    total_trees = 0
    total_failures = 0
    for n in range(1, args.n_max + 1):
        started = time.perf_counter()
        trees = 0
        failures = []
        skipped = 0
        best = -1
        for count, notes, tree_skipped in map_free_trees(free_trees(n), check, args.jobs):
            trees += 1
            best = max(best, count)
            failures.extend(notes)
            skipped += tree_skipped
        formula = max_mds_formula(n)
        match = best == formula
        print(
            f"n={n} trees={trees} failures={len(failures)} "
            f"max_count={best} formula={formula} match={str(match).lower()}"
        )
        for note in failures:
            print(f"  counterexample at n={n}: {note}")
        print(
            f"n={n} done in {time.perf_counter() - started:.2f}s skipped={skipped}",
            file=sys.stderr,
        )
        rows.append(
            {"n": n, "trees": trees, "max_count": best, "formula": formula,
             "match": match, "failures": len(failures)}
        )
        total_trees += trees
        total_failures += len(failures)
    print(f"total trees={total_trees} failures={total_failures}")
    if args.csv:
        _write_csv(args.csv, rows)
    return EXIT_VIOLATION if total_failures else EXIT_OK


def _write_csv(fh, rows: list[dict]) -> None:
    """Replace the contents of ``fh``, the ``--csv`` file ``main`` opened for append."""
    import csv  # only --csv needs it

    fh.truncate(0)
    fields = ["n", "trees", "max_count", "formula", "match", "failures"]
    writer = csv.DictWriter(fh, fieldnames=fields)
    writer.writeheader()
    writer.writerows(rows)


def _cmd_extremal(args) -> int:
    if args.sweep:
        started = time.perf_counter()
        report = exhaustive_extremal_check(args.n, jobs=args.jobs or 1)
        seconds = time.perf_counter() - started
        print(f"n={report.n} trees={report.trees_scanned} done in {seconds:.2f}s "
              f"trees_per_s={report.trees_scanned / seconds:.0f}", file=sys.stderr)
        doc = {
            "n": report.n,
            "formula_value": str(report.formula_value),
            "characterized": report.characterized,
            "predicted_codes": [c.decode("ascii") for c in report.predicted_codes],
            "observed_max": str(report.observed_max),
            "extremal_codes": [c.decode("ascii") for c in report.extremal_codes],
            "match": report.match,
            "trees_scanned": report.trees_scanned,
            "note": report.note,
        }
        _print_json(doc)
        if args.csv:
            _write_csv(args.csv, [{
                "n": report.n, "trees": report.trees_scanned,
                "max_count": report.observed_max, "formula": report.formula_value,
                "match": report.match, "failures": 0 if report.match else 1,
            }])
        return EXIT_OK if report.match else EXIT_VIOLATION
    family = generate_extremal_family(args.n)
    doc = {
        "n": args.n,
        "formula_value": str(max_mds_formula(args.n)),
        "family_size": len(family),
        "predicted_codes": [canonical_code(t).decode("ascii") for t in family],
        "family_edge_lists": [serialize_edge_list(normalize_indices(t)) for t in family],
    }
    _print_json(doc)
    return EXIT_OK


def _cmd_gen_trees(args) -> int:
    if args.count_only:
        print(free_tree_count(args.n))
        return EXIT_OK
    for i, tree in enumerate(free_trees(args.n)):
        if i:
            print()
        print(f"# tree {i} n={args.n}")
        print(serialize_edge_list(normalize_indices(tree)), end="")
    return EXIT_OK


@functools.cache  # building takes about 1 ms; in-process callers of main() share one parser
def build_parser():
    import argparse  # with the gettext it loads, it takes about as long to import as the package

    class _Parser(argparse.ArgumentParser):
        def error(self, message: str):  # noqa: A003 - argparse API
            raise _UsageError(message)

    parser = _Parser(prog="dissoc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full invariant report for one forest")
    p.add_argument("file")
    p.add_argument("--k", default="3", help="comma-separated k values (default 3)")
    p.add_argument("--enumerate-cap", type=_at_least(0),
                   help="accepted and ignored: the structure checks never list maximum sets")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("enumerate", help="stream all maximum dissociation sets")
    p.add_argument("file")
    p.add_argument("--limit", type=_at_least(0), default=None)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("verify", help="exhaustive checks over all trees up to an order")
    p.add_argument("--n-max", type=_at_least(1), required=True)
    p.add_argument("--k-list", default="2,3,4,5")
    p.add_argument("--jobs", type=_at_least(1), default=1)
    p.add_argument("--csv", default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("extremal", help="record formula, family, and optional sweep")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--sweep", action="store_true")
    p.add_argument("--jobs", type=_at_least(1), help="with --sweep only (default 1)")
    p.add_argument("--csv", default=None, help="with --sweep only")
    p.set_defaults(func=_cmd_extremal)

    p = sub.add_parser("gen-trees", help="emit every tree of one order")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(func=_cmd_gen_trees)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "extremal" and not args.sweep and (args.jobs or args.csv is not None):
            raise _UsageError("extremal: --jobs and --csv need --sweep")
        if getattr(args, "csv", None) is None:
            return args.func(args)
        # args.csv becomes the open file: a bad path fails before any work, append mode
        # leaves an existing file as it was until _write_csv replaces it, and a file
        # opened here that no row reached is removed again
        path = Path(args.csv)
        fresh = not path.exists()
        with open(path, "a", newline="", encoding="utf-8") as args.csv:
            try:
                return args.func(args)
            finally:
                if fresh and not args.csv.tell():
                    args.csv.close()
                    path.unlink()
    except (_UsageError, ParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GuardExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except TheoremViolation as exc:
        print(f"counterexample: {exc.witness}", file=sys.stderr)
        return EXIT_VIOLATION


if __name__ == "__main__":
    raise SystemExit(main())
