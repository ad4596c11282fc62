"""A fixed reference task that measures how fast the host runs Python now.

On a machine shared with other tenants, the speed a process gets drifts
by up to 1.7 times over stretches of a minute, and CPU time drifts with
it (the slowdown is in the core, not in time stolen from it), so neither
wall nor CPU time of one run repeats on the next. The benchmark therefore
times this task next to every call it measures and scales each measured
time by ``REF_S / reference time``: a time "at reference speed" is what
the call would take when the task takes ``REF_S``. The task never changes
with the program, so the scaled times of two commits compare.

The task is of the same kind as the program's work: it lists every rooted
tree of order ``ORDER`` by level sequence (Beyer and Hedetniemi) and builds
each tree's canonical string, with dicts, lists, sorting and recursion.
"""

from __future__ import annotations

import time

ORDER = 12
ROOTED_TREES = 4766  # OEIS A000081 at n = 12
# Median time of the task on a 2-core Intel Xeon host with Python 3.11.7.
REF_S = 0.11


def rooted_tree_codes(n: int) -> int:
    """Number of distinct canonical codes over all rooted trees of order n."""
    levels = list(range(n))
    codes = set()
    while True:
        children: dict[int, list[int]] = {i: [] for i in range(n)}
        path: list[int] = []
        for i, level in enumerate(levels):
            while path and levels[path[-1]] >= level:
                path.pop()
            if path:
                children[path[-1]].append(i)
            path.append(i)

        def code(v: int) -> str:
            return "(" + "".join(sorted(code(c) for c in children[v])) + ")"

        codes.add(code(0))
        p = max((i for i in range(n) if levels[i] > 1), default=-1)
        if p < 0:
            return len(codes)
        q = max(i for i in range(p) if levels[i] == levels[p] - 1)
        for i in range(p, n):
            levels[i] = levels[i - p + q]


def seconds() -> float:
    """Seconds the reference task takes now."""
    start = time.perf_counter()
    found = rooted_tree_codes(ORDER)
    elapsed = time.perf_counter() - start
    if found != ROOTED_TREES:
        raise RuntimeError(f"reference task found {found} rooted trees, expected {ROOTED_TREES}")
    return elapsed
