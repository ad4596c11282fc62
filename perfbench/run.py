"""Benchmark of the dissoc CLI, run in-process on four workloads.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It imports ``dissoc`` from ``src/`` of this checkout, writes the
workload's inputs under ``perfbench/out/inputs/`` and calls
``dissoc.cli.main(argv)`` with stdout and stderr captured, call after
call, until the next call would end after ``--seconds``. Every output
is checked; a nonzero exit, an exception or a failed check counts as a
failed operation. The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it print every metric by name and unit, the environment and the notes.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``. On a
machine shared with other tenants the speed the process gets drifts over
seconds to minutes, so each call and each set-up probe is followed by the
reference task of ``reference.py`` and every time is reported at
reference speed: scaled by ``REF_S`` over the reference times just before
and after it. ``wall_s`` is the median call (the mean of the medians
when the calls cycle through several inputs), ``trees_per_s`` derives from
it, and ``setup_s`` is the median of a fixed number of fresh-interpreter
imports spread evenly over the run. Raw times are printed as well.
``--trace 1`` alternates an untraced and a traced call and reports the
per-layer metrics from the spans (see ``spans.py``), written to
``perfbench/out/spans-<workload>.tsv``. Per-layer values are per traced
call; each layer's share of the traced time is printed as well.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
from spans import CHECK_STATUSES, ROOT as ROOT_SPAN, SpanRecorder, layer_names  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 40
ACCOUNTING_TOLERANCE = 0.01
# Layers one workload must call and the others must not; a miss fails the traced run.
ONLY_ON = {"kpath.alpha_k_brute": "verify_sweep", "forest.canonical_code": "extremal_sweep"}
# enumerate_mds must hold most of the traced time on its workload and only there.
DOMINANT, DOMINATES_ON = "dissociation.enumerate_mds", "enumerate_stream"
# Time in cli.main outside every layer span (argument parsing, JSON,
# printing) stays under 2% at seed; more means a hot function is unwrapped.
ROOT_SELF_MAX = 0.05
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import dissoc, dissoc.cli; print(time.perf_counter() - t, dissoc.__file__)"
)
NOTES = (
    "no workload runs with --jobs > 1: on a 2-core machine three runs of "
    "`extremal --n 16 --sweep` took 1.17-2.08 s with --jobs 2 against 2.27-2.51 s "
    "with --jobs 1, too unsteady to bound; the pool path waits for a steadier machine",
    "the ROADMAP tiers at n=2000 and n=10^5 are not run until the per-query loops are linear",
    "no workload enumerates a large tree: enumerate_mds recurses once per vertex and "
    "raises RecursionError near order 1500 (ROADMAP item 1); enumerate_stream lists the "
    "sets of a tree of order 60 and verify_sweep those of trees of order 10 or less, so a "
    "clean error rate does not mean that is fixed",
)


class StampedOutput(io.StringIO):
    """Captured stdout that notes when each line is ended."""

    def __init__(self) -> None:
        super().__init__()
        self.line_ends: list[float] = []

    def write(self, text: str) -> int:
        if "\n" in text:
            self.line_ends.append(time.perf_counter())
        return super().write(text)


def call_main(argv: list[str]) -> tuple[int | None, float, StampedOutput]:
    import dissoc.cli

    out = StampedOutput()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = dissoc.cli.main(argv)
    except Exception:  # an exception is a failed operation; keep measuring
        traceback.print_exc()
        rc = None
    return rc, time.perf_counter() - start, out


def checked(check, *args) -> list[str]:
    """The problems ``check`` finds; output it cannot read is a problem too."""
    try:
        return check(*args)
    except Exception as exc:  # noqa: BLE001 - malformed output fails the call
        return [f"output could not be checked: {exc!r}"]


class Tally:
    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.self_test: str | None = None
        self.sound = True  # the checker caught every corruption and the spans add up
        self.gaps: list[float] = []  # seconds between the lines of the last call

    def call(self) -> float:
        """One checked call of the workload; returns the seconds spent inside ``main``."""
        index = self.attempted % len(self.workload.argvs)
        argv = self.workload.argvs[index]
        rc, seconds, out = call_main(argv)
        self.attempted += 1
        self.gaps = [b - a for a, b in zip(out.line_ends, out.line_ends[1:])]
        text = out.getvalue()
        problems = checked(self.workload.check, index, rc, text)
        if problems:
            self.failed += 1
            self.problems.append(f"{' '.join(argv)}: {'; '.join(problems[:3])}")
        elif self.self_test is None:
            self._self_test(index, text)
        return seconds

    def _self_test(self, index: int, text: str) -> None:
        """The checker must count each corrupted copy of a good output as failed."""
        try:
            bad = self.workload.corruptions(index, text)
        except Exception as exc:  # noqa: BLE001 - a self-test that cannot run fails
            self.sound = False
            self.self_test = f"corruptions could not be made: {exc!r}"
            return
        missed = [label for label, damaged in bad.items() if not checked(self.workload.check, index, 0, damaged)]
        self.sound = not missed
        self.self_test = (
            f"{len(bad) - len(missed)} of {len(bad)} corrupted outputs counted as failed"
            + (f"; accepted: {', '.join(missed)}" if missed else f" ({', '.join(bad)})")
        )


def import_seconds() -> float:
    """Seconds to import dissoc and dissoc.cli in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-I", "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    seconds, path = proc.stdout.split(maxsplit=1)
    if Path(path.strip()).resolve().parent != (SRC / "dissoc").resolve():
        raise RuntimeError(f"imported dissoc from {path.strip()}, not from {SRC}")
    return float(seconds)


def git_commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown (no git)"
    lines = proc.stdout.split()
    # a checkout without .git inside another repository must not report that one's HEAD
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown (not a git checkout)"
    return lines[1]


def environment(args) -> dict:
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def until_deadline(seconds: float, step) -> list:
    """Results of ``step()``, repeated until the next one would end after ``seconds``."""
    results = []
    started = time.perf_counter()
    while True:
        step_start = time.perf_counter()
        results.append(step())
        now = time.perf_counter()
        if now - started + (now - step_start) > seconds:
            return results


def end_to_end(args, workload) -> tuple[dict, Tally, list[str]]:
    import_seconds()  # the first import compiles bytecode; users pay that once
    reference.seconds()  # warm-up
    tally = Tally(workload)
    refs = [reference.seconds()]
    calls: list[float] = []
    setups: list[float] = []
    scaled_calls: list[float] = []
    scaled_setups: list[float] = []
    scaled_gaps: list[float] = []
    started = time.perf_counter()
    spacing = args.seconds / SETUP_PROBES

    def measure(probes: int, call: bool) -> None:
        """Import probes and a call, then the reference task; each time is
        scaled by the reference times just before and after it."""
        raw_probes = [import_seconds() for _ in range(probes)]
        raw_call = tally.call() if call else None
        refs.append(reference.seconds())
        scale = reference.REF_S / statistics.fmean(refs[-2:])
        setups.extend(raw_probes)
        scaled_setups.extend(p * scale for p in raw_probes)
        if raw_call is not None:
            calls.append(raw_call)
            scaled_calls.append(raw_call * scale)
            scaled_gaps.extend(g * scale for g in tally.gaps)

    def step() -> None:
        # set-up probes are spread evenly over the run, like the calls
        due = min(SETUP_PROBES, int((time.perf_counter() - started) / spacing) + 1)
        measure(due - len(setups), call=True)

    until_deadline(args.seconds, step)
    while len(setups) < SETUP_PROBES:
        measure(1, call=False)
    # each input's median call, averaged over the inputs the calls reached
    per_input = [scaled_calls[i :: len(workload.argvs)] for i in range(len(workload.argvs))]
    inputs = sum(1 for times in per_input if times)
    wall = statistics.fmean(statistics.median(times) for times in per_input if times)
    metrics = {
        "setup_s": statistics.median(scaled_setups),
        "wall_s": wall,
        "trees_per_s": workload.trees / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra = [
        f"calls {len(calls)} on {inputs} inputs; wall_s is the mean over the inputs of "
        "their median call, at reference speed",
        f"raw call median {statistics.median(calls)} s (fastest {min(calls)} s, slowest {max(calls)} s)",
        f"reference task median {statistics.median(refs)} s (fastest {min(refs)} s, "
        f"slowest {max(refs)} s; REF_S {reference.REF_S} s)",
        f"setup_s is the median of {len(setups)} imports spread over the run, at reference "
        f"speed (raw median {statistics.median(setups)} s, fastest {min(setups)} s)",
        f"error_rate {tally.failed / tally.attempted} ratio ({tally.failed} of {tally.attempted})",
        f"vertices_per_s {workload.vertices / wall} 1/s at reference speed",
    ]
    if workload.sets:
        p50, p99 = (statistics.quantiles(scaled_gaps, n=100)[i] * 1000 for i in (49, 98))
        extra += [
            f"sets_per_s {workload.sets / wall} 1/s at reference speed",
            f"set_gap_ms.p50 {p50} ms, set_gap_ms.p99 {p99} ms, over {len(scaled_gaps)} gaps "
            "between consecutive lines, at reference speed",
        ]
    return metrics, tally, extra


def per_layer(args, workload, env) -> tuple[dict, Tally, list[str]]:
    tally = Tally(workload)
    recorder = SpanRecorder()
    untraced, traced = [], []

    def pair() -> None:
        untraced.append(tally.call())
        with recorder.installed():
            traced.append(tally.call())

    until_deadline(args.seconds, pair)
    summary = recorder.summary()
    recorder.write(OUT / f"spans-{workload.name}.tsv", json.dumps(env, sort_keys=True))
    calls = len(traced)
    traced_s = sum(traced)
    metrics = {}
    for name in layer_names():
        if name == "treegen.free_trees":
            metrics[f"{name}.trees"] = summary["items"][name] / calls
        else:
            metrics[f"{name}.calls"] = summary["calls"][name] / calls
        if name == "dissociation.enumerate_mds":
            metrics[f"{name}.sets"] = summary["items"][name] / calls
        metrics[f"{name}.self_s"] = summary["self_s"].get(name, 0.0) / calls
    for status in CHECK_STATUSES:
        key = f"structure.checks.{status}"
        metrics[key] = summary["counts"][key] / calls
    metrics["trace.overhead"] = traced_s / sum(untraced)
    metrics["trace.wall_s"] = statistics.median(traced)

    problems = list(summary["problems"]) + span_expectations(workload.name, summary, traced_s)
    # Self times sum to the root spans' total by construction while every
    # span nests in cli.main, so this only catches harness time outside main.
    accounted = sum(summary["self_s"].values())
    if abs(accounted - traced_s) > ACCOUNTING_TOLERANCE * traced_s:
        problems.append(f"self times add up to {accounted} s, traced wall_s is {traced_s} s")
    root_self = summary["self_s"].get(ROOT_SPAN, 0.0)
    extra = [
        f"calls {calls} traced, {len(untraced)} untraced; {summary['spans']} spans",
        f"accounting: layer self times {accounted - root_self} s + {ROOT_SPAN} self "
        f"{root_self} s = {accounted} s; traced wall {traced_s} s",
    ]
    for name in layer_names():
        share = 100 * summary["self_s"].get(name, 0.0) / traced_s
        line = f"{name}.self_pct {share} % of traced time"
        if name == "dissociation.enumerate_mds" and summary["items"][name]:
            line += f"; .s_per_set {summary['self_s'][name] / summary['items'][name]} s"
        extra.append(line)
    tally.problems.extend(problems)
    tally.sound = tally.sound and not problems
    return metrics, tally, extra


def span_expectations(workload: str, summary: dict, traced_s: float) -> list[str]:
    """Layer presence each workload must show in its spans."""
    problems = []
    for name, home in ONLY_ON.items():
        calls = summary["calls"][name]
        if (calls > 0) != (workload == home):
            problems.append(f"{name} has {calls} calls; it must run on {home} and only there")
    share = summary["self_s"].get(DOMINANT, 0.0) / traced_s
    if (share > 0.5) != (workload == DOMINATES_ON):
        problems.append(f"{DOMINANT} has {share:.1%} of traced time; it must dominate on {DOMINATES_ON} only")
    root_share = summary["self_s"].get(ROOT_SPAN, 0.0) / traced_s
    if root_share > ROOT_SELF_MAX:
        problems.append(f"{ROOT_SPAN} keeps {root_share:.1%} of traced time outside any layer span")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dissoc" / "cli.py").is_file():
        print(f"error: no dissoc sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    why = {w["name"]: w["why"] for w in spec["workloads"]}

    sys.path.insert(0, str(SRC))
    import dissoc

    if Path(dissoc.__file__).resolve().parent != (SRC / "dissoc").resolve():
        print(f"error: imported dissoc from {dissoc.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    workload.prepare(args.seed, OUT / "inputs" / workload.name)
    env = environment(args)
    if args.trace:
        metrics, tally, extra = per_layer(args, workload, env)
    else:
        metrics, tally, extra = end_to_end(args, workload)
    if set(metrics) != set(declared):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(declared))} do not match BENCHMARK.json")

    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {workload.name}: {why.get(workload.name, '')}")
    print(f"stresses: {workload.stresses}")
    for layer, target in workload.layers.items():
        print(f"layer {layer} -> {target}")
    for note in ((workload.caveat,) if workload.caveat else ()) + NOTES:
        print(f"note: {note}")
    print(f"checker self-test: {tally.self_test or 'not run (no passing output)'}")
    for problem in tally.problems[:10]:
        print(f"FAILED {problem}")
    for line in extra:
        print(line)
    for name, value in metrics.items():
        print(f"{name} {value} {declared[name]}")
    result = {
        "correct": tally.failed == 0 and tally.sound and tally.self_test is not None,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": declared[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
