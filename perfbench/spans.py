"""Span recorder for the traced benchmark run.

While installed, it replaces the public functions named in ``LAYERS`` on
every ``dissoc`` module that bound the name, so calls between modules
are seen as nested spans. Each span is (name, start, end, parent) and is
kept in memory; ``summary`` derives calls, items and self time from the
spans and ``write`` saves them when the run ends. Self time is a span's
duration minus the durations of its direct children.

Two entries are generators: ``free_trees`` does its work lazily, so only
each ``next()`` is timed; ``enumerate_mds`` runs a DP when called and then
returns an iterator, so both the call and each ``next()`` are timed.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

LAYERS = {
    "treegen": ("free_trees",),
    "forest": ("Forest.from_edges", "Forest.without_edge", "canonical_code", "parse_edge_list"),
    "dissociation": ("alpha3_count_dp", "alpha3_forced", "enumerate_mds"),
    "structure": (
        "classify_vertices",
        "critical_edges_alpha3",
        "critical_edges_mu3",
        "critical_structure",
        "verify_structure_theorems",
    ),
    "kpath": ("alpha_k_brute", "greedy_cover_matching", "verify_certificate"),
    "extremal": ("exhaustive_extremal_check", "generate_extremal_family"),
    "cli": ("main",),
}
ROOT = "cli.main"
LAZY_GENERATORS = {"treegen.free_trees"}
RETURNS_ITERATOR = {"dissociation.enumerate_mds"}
CHECK_STATUSES = ("pass", "fail", "skipped")

CALL, NEXT = 0, 1


def layer_names() -> list[str]:
    return [f"{mod}.{attr.rsplit('.', 1)[-1]}" for mod, attrs in LAYERS.items() for attr in attrs]


class SpanRecorder:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.code = array("i")  # name id * 2 + kind
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self._stack = [-1]
        self.items: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()

    def _open(self, code: int) -> int:
        idx = len(self.code)
        self.code.append(code)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        if name in LAZY_GENERATORS:
            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                return _TracedIterator(self, nid, name, fn(*args, **kwargs))

            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid * 2 + CALL)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if name in RETURNS_ITERATOR:
                return _TracedIterator(self, nid, name, result)
            if name == "structure.verify_structure_theorems":
                self.counts.update(f"structure.checks.{cr.status}" for cr in result.values())
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every listed function into every loaded ``dissoc`` module."""
        patches = []
        modules = [m for key, m in sys.modules.items() if key == "dissoc" or key.startswith("dissoc.")]
        try:
            for mod_name, attrs in LAYERS.items():
                home = importlib.import_module(f"dissoc.{mod_name}")
                for attr in attrs:
                    name = f"{mod_name}.{attr.rsplit('.', 1)[-1]}"
                    if "." in attr:
                        cls_name, method = attr.split(".")
                        cls = getattr(home, cls_name)
                        raw = cls.__dict__[method]
                        if isinstance(raw, classmethod):
                            new = classmethod(self.wrap(name, raw.__func__))
                        else:
                            new = self.wrap(name, raw)
                        patches.append((cls, method, raw))
                        setattr(cls, method, new)
                        continue
                    orig = getattr(home, attr)
                    wrapped = self.wrap(name, orig)
                    for mod in modules:
                        for key, value in list(vars(mod).items()):
                            if value is orig:
                                patches.append((mod, key, value))
                                setattr(mod, key, wrapped)
            yield self
        finally:
            for obj, key, value in reversed(patches):
                setattr(obj, key, value)

    def summary(self) -> dict:
        """Per layer: calls, yielded items and self time in seconds, plus
        a list of spans that break the nesting the accounting relies on."""
        n = len(self.code)
        child_ns = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_ns[p] += self.end[i] - self.start[i]
        calls: Counter[str] = Counter()
        self_ns: Counter[str] = Counter()
        problems = []
        for i in range(n):
            name = self.names[self.code[i] >> 1]
            dur = self.end[i] - self.start[i]
            if self.code[i] & 1 == CALL:
                calls[name] += 1
            self_ns[name] += dur - child_ns[i]
            if self.parent[i] < 0 and name != ROOT:
                problems.append(f"span {name} ran outside {ROOT}")
            if dur - child_ns[i] < 0:
                problems.append(f"span {name} has negative self time")
        return {
            "calls": calls,
            "items": self.items,
            "self_s": {k: v / 1e9 for k, v in self_ns.items()},
            "counts": self.counts,
            "spans": n,
            "problems": problems,
        }

    def write(self, path: Path, header: str) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# {header}\n# names: {' '.join(self.names)}\n")
            fh.write("# name_id\tkind\tstart_ns\tend_ns\tparent\n")
            for i in range(len(self.code)):
                c = self.code[i]
                fh.write(f"{c >> 1}\t{c & 1}\t{self.start[i]}\t{self.end[i]}\t{self.parent[i]}\n")


class _TracedIterator:
    """Times each ``next()`` of a wrapped iterator as a span and counts items."""

    def __init__(self, recorder: SpanRecorder, nid: int, name: str, it) -> None:
        self._rec = recorder
        self._code = nid * 2 + NEXT
        self._name = name
        self._it = iter(it)

    def __iter__(self):
        return self

    def __next__(self):
        idx = self._rec._open(self._code)
        try:
            item = next(self._it)
        finally:
            self._rec._close(idx)
        self._rec.items[self._name] += 1
        return item
