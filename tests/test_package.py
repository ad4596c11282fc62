"""The package surface: record behaviour, what importing loads, and the README example."""

import ast
import functools
import importlib
import importlib.util
import pickle
import re
import subprocess
import sys
import types
import typing
from pathlib import Path

import pytest

import dissoc
from dissoc import (
    CheckResult,
    DissociationResult,
    ExtremalReport,
    VertexClassification,
    alpha3_count_dp,
    critical_structure,
    exhaustive_extremal_check,
    greedy_cover_matching,
)
from dissoc.forest import Forest, VertexSet, canonical_code, parse_edge_list
from dissoc.kpath import CoverMatchingCertificate

from util import replaced

SRC = Path(dissoc.__file__).resolve().parent.parent
README = Path(__file__).resolve().parent.parent / "README.md"
PERFBENCH = README.parent / "perfbench"

P3 = parse_edge_list("a b\nb c")
P3_STRUCTURE = (
    "CriticalStructure(critical_edges=((0, 1), (1, 2)), insulated_edges=(), "
    "critical_triples=((0, 1, 2),), grouping_failure=None, alpha3=2, count=3, "
    "classes=VertexClassification(flexible=VertexSet(bits=7, n=3), "
    "static_included=VertexSet(bits=0, n=3), static_excluded=VertexSet(bits=0, n=3)), "
    "edge_failure=None, neither_end=(1, 1), both_ends=(2, 2), middle_alone=(1,))"
)


def _records():
    """(record, its repr text, an equal record built apart, one that differs in a field)."""
    s = critical_structure(P3)
    report = exhaustive_extremal_check(4)
    code = b"((())())"
    return [
        (P3, "Forest(n=3, adjacency=((1,), (0, 2), (1,)), labels=('a', 'b', 'c'))",
         Forest(3, ((1,), (0, 2), (1,)), ("a", "b", "c")),
         Forest(3, ((1,), (0, 2), (1,)), None)),
        (VertexSet(7, 3), "VertexSet(bits=7, n=3)", VertexSet.from_iterable(3, [2, 1, 0]),
         VertexSet(7, 4)),
        (alpha3_count_dp(P3), "DissociationResult(alpha3=2, count=3)", DissociationResult(2, 3),
         DissociationResult(2, 4)),
        (s, P3_STRUCTURE, critical_structure(parse_edge_list("x y\ny z")), replaced(s, count=4)),
        (s.classes, "VertexClassification(flexible=VertexSet(bits=7, n=3), "
         "static_included=VertexSet(bits=0, n=3), static_excluded=VertexSet(bits=0, n=3))",
         VertexClassification(VertexSet(7, 3), VertexSet(0, 3), VertexSet(0, 3)),
         VertexClassification(VertexSet(7, 3), VertexSet(0, 3), VertexSet(1, 3))),
        (CheckResult("pass", None), "CheckResult(status='pass', witness=None)",
         CheckResult(status="pass", witness=None), CheckResult("fail", "w")),
        (greedy_cover_matching(P3, 2), "CoverMatchingCertificate(k=2, cover=VertexSet(bits=2, n=3), "
         "paths=((1, 2),))",
         CoverMatchingCertificate(2, VertexSet(2, 3), ((1, 2),)),
         CoverMatchingCertificate(2, VertexSet(2, 3), ((0, 1),))),
        (report, f"ExtremalReport(n=4, formula_value=2, predicted_codes=({code!r},), "
         f"observed_max=2, extremal_codes=({code!r},), match=True, characterized=False, "
         f"trees_scanned=2, note='record holders at n=4 are not characterized; only the "
         f"record value is compared')",
         exhaustive_extremal_check(4), replaced(report, note="")),
    ]


RECORDS = _records()
REPORT = RECORDS[-1][0]  # exhaustive_extremal_check(4)


@pytest.mark.parametrize("record, text, same, other", RECORDS,
                         ids=[type(r[0]).__name__ for r in RECORDS])
def test_record_repr_eq_and_hash(record, text, same, other):
    assert repr(record) == text
    assert record == same and hash(record) == hash(same)
    assert record != other
    # hashed over the field values in order, as the frozen dataclasses were
    assert hash(record) == hash(tuple(getattr(record, f) for f in record._fields))


@pytest.mark.parametrize("record", [r[0] for r in RECORDS],
                         ids=[type(r[0]).__name__ for r in RECORDS])
def test_every_record_survives_a_pickle_round_trip(record):
    back = pickle.loads(pickle.dumps(record))
    assert back == record and hash(back) == hash(record) and repr(back) == repr(record)


def test_forest_equality_ignores_the_cached_bfs():
    cached, fresh = parse_edge_list("a b\nb c"), parse_edge_list("a b\nb c")
    assert cached.is_tree  # caches bfs too
    assert "bfs" in vars(cached) and "bfs" not in vars(fresh)
    assert cached == fresh and hash(cached) == hash(fresh)
    assert repr(cached) == repr(fresh)


@pytest.mark.parametrize("record, field", [
    (P3, "n"), (P3, "labels"), (P3, "bfs"), (VertexSet(5, 3), "bits"),
    (greedy_cover_matching(P3, 2), "paths"), (alpha3_count_dp(P3), "count"),
    (CheckResult("pass", None), "status"),
    (P3, "edges"), (critical_structure(P3), "eta"),  # the cached and the computed reads too
])
def test_fields_refuse_assignment(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)


def test_canonical_codes_sort_by_their_bytes():
    # a code is the AHU bytes themselves, so every sorted list of codes is in byte order
    texts = ("a b\nb c\nc d", "a b\na c\na d", "a b")
    codes = [canonical_code(parse_edge_list(text)) for text in texts]
    assert all(type(c) is bytes for c in codes)
    assert sorted(codes) == [b"((())())", b"(()()())", b"(())"]


def test_derived_reads_follow_their_source():
    s, cert = critical_structure(P3), greedy_cover_matching(P3, 2)
    assert s.eta == len(s.critical_edges) == 2 and replaced(s, critical_edges=()).eta == 0
    assert cert.k == 2 and "k" in cert._fields  # a field, not read through the paths
    assert P3.edges == ((0, 1), (1, 2)) and "edges" not in P3._fields


@pytest.mark.parametrize("build", [
    lambda: CheckResult(),
    lambda: CheckResult(witness="w"),
    lambda: DissociationResult(2),
    lambda: DissociationResult(2, 3, 4),
    lambda: DissociationResult(2, alpha3=2),
    lambda: DissociationResult(2, counts=3),
    # no record has defaults: every caller passes every field
    lambda: CheckResult("pass"),
    lambda: ExtremalReport(**{f: getattr(REPORT, f) for f in REPORT._fields if f != "note"}),
    lambda: Forest(1, ((),)),
    lambda: Forest(n=1, adjacency=((),)),
], ids=["no field", "no status", "missing", "too many", "twice", "unknown",
        "no witness", "no note", "no labels", "no labels by keyword"])
def test_a_record_built_with_a_field_missing_or_unknown_is_refused(build):
    with pytest.raises(TypeError):
        build()


@pytest.mark.parametrize("record", [P3, critical_structure(P3)], ids=["Forest", "CriticalStructure"])
def test_positional_and_keyword_builds_get_the_same_instance_dict(record):
    # the engines read fields in their inner loops; on CPython 3.11 a dict filled from
    # (name, value) pairs is larger than a keyword build's, and slower to read
    values = [getattr(record, f) for f in record._fields]
    positional = type(record)(*values)
    keyword = type(record)(**dict(zip(record._fields, values)))
    assert positional == keyword == record
    assert sys.getsizeof(vars(positional)) == sys.getsizeof(vars(keyword))


def test_reading_a_field_a_record_does_not_have_is_an_error():
    record = CheckResult("pass", None)
    with pytest.raises(AttributeError):
        record.witnesses  # noqa: B018
    with pytest.raises(TypeError):
        record[0]  # noqa: B018 - records are no longer tuples
    assert not hasattr(alpha3_count_dp(P3), "eta") and not isinstance(record, tuple)


def test_pickle_round_trip_of_a_forest_with_its_bfs_cached():
    forest = parse_edge_list("a b\nb c\nb d")
    order_parent = forest.bfs
    back = pickle.loads(pickle.dumps(forest))
    assert back == forest and hash(back) == hash(forest)
    assert back.labels == ("a", "b", "c", "d") and back.bfs == order_parent
    with pytest.raises(AttributeError):
        back.n = 5
    for record in (VertexSet(5, 3), greedy_cover_matching(forest, 2), critical_structure(forest)):
        assert pickle.loads(pickle.dumps(record)) == record


def test_import_loads_every_module_and_no_optional_dependency():
    # a fresh interpreter: under pytest, plugins may have loaded these already
    probe = "import sys; sys.path.insert(0, sys.argv[1]); import dissoc.cli; print(*sys.modules)"
    out = subprocess.run([sys.executable, "-I", "-c", probe, str(SRC)],
                         capture_output=True, text=True, check=True).stdout
    loaded = set(out.split())
    assert not loaded & {"multiprocessing", "csv", "dataclasses", "inspect", "json", "heapq",
                         "argparse", "gettext"}
    ours = {f"dissoc.{p.stem}" for p in (SRC / "dissoc").glob("*.py") if p.stem != "__init__"}
    assert len(ours) == 8 and ours <= loaded, ours - loaded


def _functions(module):
    """Every function a module defines, its methods and property getters included."""
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if isinstance(obj, type):
            for attr in vars(obj).values():
                attr = getattr(attr, "__func__", getattr(attr, "func", getattr(attr, "fget", attr)))
                if isinstance(attr, types.FunctionType):
                    yield attr
        elif isinstance(obj, types.FunctionType):
            yield obj


def test_every_annotation_resolves():
    # string annotations (from __future__ import annotations) must name what the module imports
    fns = [fn for path in sorted((SRC / "dissoc").glob("*.py"))
           for fn in _functions(importlib.import_module(f"dissoc.{path.stem}".removesuffix(".__init__")))]
    assert dissoc.random_labeled_tree in fns and dissoc.Forest.from_edges.__func__ in fns
    for fn in fns:
        typing.get_type_hints(fn)  # raises NameError on a name the module never bound


def _assigned_literal(path: Path, name: str):
    """The literal a file's module level assigns to ``name``, alone or in a tuple
    unpacking, read without importing the file."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                pairs = (zip(target.elts, node.value.elts) if isinstance(target, ast.Tuple)
                         else [(target, node.value)])
                for t, value in pairs:
                    if isinstance(t, ast.Name) and t.id == name:
                        return ast.literal_eval(value)
    raise LookupError(f"{path.name} assigns no {name}")


def test_every_name_the_traced_benchmark_patches_or_gates_on_exists():
    # the traced run patches each LAYERS entry by name and crashes on one the package lacks
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for mod_name, attrs in spans.LAYERS.items():
        home = importlib.import_module(f"dissoc.{mod_name}")
        for attr in attrs:
            *owner, last = attr.split(".")
            obj = functools.reduce(getattr, owner, home)
            # a method is patched through the class dict, so an inherited one would not do
            assert last in vars(obj), f"dissoc.{mod_name}.{attr}"
            assert callable(getattr(obj, last)), f"dissoc.{mod_name}.{attr}"
    names = spans.layer_names()
    assert len(set(names)) == len(names) and spans.ROOT in names
    run = PERFBENCH / "run.py"
    assert set(_assigned_literal(run, "ONLY_ON")) <= set(names)
    assert _assigned_literal(run, "DOMINANT") in names


def test_readme_library_example():
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    ns: dict = {}
    exec(block, ns)
    assert repr(ns["res"]) == "DissociationResult(alpha3=3, count=1)"
    assert ns["struct"].classes.static_included.members() == (0, 2, 3)
    assert repr(ns["checks"]["kke k=3"]) == "CheckResult(status='pass', witness=None)"
    assert ns["report"].n == 9 and ns["report"].trees_scanned == 47
    for comment, name in (("# DissociationResult(alpha3=3, count=1)", "res ="),
                          ("# (0, 2, 3)", "struct.classes.static_included.members()"),
                          ("# CheckResult(status='pass', witness=None)", 'checks["kke k=3"]'),
                          ("all 47 trees of order 9", "report =")):
        assert any(name in line and comment in line for line in block.splitlines()), comment
