"""Dissociation-set invariants on forests.

A dissociation set induces a subgraph of maximum degree at most one. The
counting DP keeps three records per vertex of a rooted component:
excluded, included with no partner yet, and included with a partner
already chosen inside its subtree. Each record is a (best size, number
of optimum sets) pair; a vertex included together with an included child
consumes that child's partner-free record, and at most one such child is
allowed. Components combine by adding sizes and multiplying counts.

Counts are plain Python integers, so they are exact at any magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import EnumerationCapExceeded, GuardExceeded
from .forest import PARENT_NONE, Forest, VertexSet

BRUTE_FORCE_LIMIT = 26


@dataclass(frozen=True)
class DissociationResult:
    alpha3: int
    count: int


def is_dissociation_set(forest: Forest, vs: VertexSet) -> bool:
    """True iff the subset induces maximum degree at most one."""
    bits = vs.bits
    for v in vs:
        inside = 0
        for w in forest.adjacency[v]:
            inside += (bits >> w) & 1
            if inside > 1:
                return False
    return True


def _dp_forest(forest: Forest, include_bits: int = 0, exclude_bits: int = 0) -> tuple[int, int]:
    """Best size and count of optimum dissociation sets honoring the two masks.

    Returns (-1, 0) when no set contains all of ``include_bits`` while
    avoiding ``exclude_bits``.
    """
    n = forest.n
    # per-vertex accumulators over the children folded so far:
    #   ex: parent excluded, children free to take their best states
    #   a0: parent included, every folded child excluded
    #   a1: parent included, exactly one folded child is its partner
    ex_s = [0] * n
    ex_w = [1] * n
    a0_s = [0] * n
    a0_w = [1] * n
    a1_s = [-1] * n
    a1_w = [0] * n
    order, parent = forest.bfs
    total_s = 0
    total_w = 1
    for v in reversed(order):
        # close out v's three states from its accumulators
        exc_s, exc_w = ex_s[v], ex_w[v]
        if a0_s[v] >= 0:
            unm_s, unm_w = a0_s[v] + 1, a0_w[v]
        else:
            unm_s, unm_w = -1, 0
        if a1_s[v] >= 0:
            mat_s, mat_w = a1_s[v] + 1, a1_w[v]
        else:
            mat_s, mat_w = -1, 0
        bit = 1 << v
        if include_bits & bit:
            exc_s, exc_w = -1, 0
        if exclude_bits & bit:
            unm_s, unm_w = -1, 0
            mat_s, mat_w = -1, 0
        p = parent[v]
        if p == PARENT_NONE:
            best = exc_s
            if unm_s > best:
                best = unm_s
            if mat_s > best:
                best = mat_s
            if best < 0:
                return -1, 0
            ways = 0
            if exc_s == best:
                ways += exc_w
            if unm_s == best:
                ways += unm_w
            if mat_s == best:
                ways += mat_w
            total_s += best
            total_w *= ways
            continue
        # fold v into p: p excluded lets v take its best state
        b = exc_s
        if unm_s > b:
            b = unm_s
        if mat_s > b:
            b = mat_s
        if b < 0:
            ex_s[p], ex_w[p] = -1, 0
        elif ex_s[p] >= 0:
            bw = 0
            if exc_s == b:
                bw += exc_w
            if unm_s == b:
                bw += unm_w
            if mat_s == b:
                bw += mat_w
            ex_s[p] += b
            ex_w[p] *= bw
        # p included: v is either excluded or the unique partner child,
        # in which case v must still be partner-free inside its subtree
        old0_s, old0_w = a0_s[p], a0_w[p]
        c1_s = a1_s[p] + exc_s if a1_s[p] >= 0 and exc_s >= 0 else -1
        c1_w = a1_w[p] * exc_w if c1_s >= 0 else 0
        c2_s = old0_s + unm_s if old0_s >= 0 and unm_s >= 0 else -1
        c2_w = old0_w * unm_w if c2_s >= 0 else 0
        if c1_s > c2_s:
            a1_s[p], a1_w[p] = c1_s, c1_w
        elif c2_s > c1_s:
            a1_s[p], a1_w[p] = c2_s, c2_w
        elif c1_s < 0:
            a1_s[p], a1_w[p] = -1, 0
        else:
            a1_s[p], a1_w[p] = c1_s, c1_w + c2_w
        if old0_s >= 0 and exc_s >= 0:
            a0_s[p] = old0_s + exc_s
            a0_w[p] = old0_w * exc_w
        else:
            a0_s[p], a0_w[p] = -1, 0
    return total_s, total_w


def alpha3_count_dp(forest: Forest) -> DissociationResult:
    """Dissociation number and exact number of maximum dissociation sets."""
    size, ways = _dp_forest(forest)
    return DissociationResult(alpha3=size, count=ways)


def alpha3_forced(forest: Forest, include: VertexSet, exclude: VertexSet) -> int | None:
    """Largest dissociation set containing ``include`` and avoiding ``exclude``.

    Returns None when infeasible, i.e. when ``include`` itself already
    induces a vertex of degree two or more.
    """
    if include.bits & exclude.bits:
        raise ValueError("include and exclude sets overlap")
    size, _ = _dp_forest(forest, include.bits, exclude.bits)
    return None if size < 0 else size


_EMPTY = ((0, 1), (0, 1), (-1, 0))  # fold over no neighbours: (ex, a0, a1) of _dp_forest


def _times(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    return (a[0] + b[0], a[1] * b[1]) if a[1] and b[1] else (-1, 0)


def _plus(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """The larger of two (size, count) records; on a tie, the counts add."""
    if a[0] != b[0]:
        return a if a[0] > b[0] else b
    return a[0], a[1] + b[1]


def _join(x, y):
    """Fold over two disjoint groups of neighbours: at most one partner in all."""
    return _times(x[0], y[0]), _times(x[1], y[1]), _plus(_times(x[2], y[1]), _times(x[1], y[2]))


def _close(fold):
    """Records (best, excluded, unmatched) of a vertex, also its fold as a neighbour."""
    exc, unm = fold[0], _times(fold[1], (1, 1))
    return _plus(_plus(exc, unm), _times(fold[2], (1, 1))), exc, unm


def _rerooted(forest: Forest) -> tuple[tuple[int, ...], list, list, list]:
    """Rerooting tables of the counting DP over every component, in O(n).

    Returns (parent, down, up, whole); each entry holds (size, count) records
    (best, excluded, unmatched): of v over its subtree, of parent(v) over the
    rest of the component (the empty fold at a root; built from prefix and
    suffix folds over its other neighbours), and of v over its component.
    """
    order, parent = forest.bfs
    down = [_EMPTY] * forest.n  # the fold over the children of v until v is closed
    for v in reversed(order):
        down[v] = _close(down[v])
        if parent[v] != PARENT_NONE:
            down[parent[v]] = _join(down[parent[v]], down[v])
    up = [_EMPTY] * forest.n
    whole = [_EMPTY] * forest.n
    for p in order:
        kids = [c for c in forest.adjacency[p] if c != parent[p]]
        prefix = [up[p]]
        for c in kids:
            prefix.append(_join(prefix[-1], down[c]))
        whole[p] = _close(prefix[-1])
        suffix = _EMPTY
        for i in range(len(kids) - 1, -1, -1):
            up[kids[i]] = _close(_join(prefix[i], suffix))
            suffix = _join(suffix, down[kids[i]])
    return parent, down, up, whole


def brute_force_mds(forest: Forest, guard: int = BRUTE_FORCE_LIMIT) -> tuple[int, list[VertexSet]]:
    """Definition-level oracle: scan all vertex subsets.

    Returns the dissociation number together with every maximum
    dissociation set, sorted lexicographically by member tuple.
    """
    n = forest.n
    if n > guard:
        raise GuardExceeded(f"brute force limited to n <= {guard}, got {n}")
    masks = forest.adjacency_masks()
    best = -1
    found: list[int] = []
    for subset in range(1 << n):
        size = subset.bit_count()
        if size < best:
            continue
        bits = subset
        ok = True
        while bits:
            low = bits & -bits
            v = low.bit_length() - 1
            if (masks[v] & subset).bit_count() > 1:
                ok = False
                break
            bits ^= low
        if not ok:
            continue
        if size > best:
            best = size
            found = [subset]
        else:
            found.append(subset)
    sets = sorted((VertexSet(bits, n) for bits in found), key=VertexSet.members)
    return best, sets


def enumerate_mds(forest: Forest, cap: int | None = None) -> Iterator[VertexSet]:
    """Yield every maximum dissociation set once, in lexicographic order.

    Include/exclude backtracking: a branch survives only while the forced
    optimum still matches the unconstrained one. Raises
    EnumerationCapExceeded after ``cap`` sets have been yielded.
    """
    n = forest.n
    target = _dp_forest(forest)[0]

    def walk() -> Iterator[VertexSet]:
        emitted = 0
        # (vertices decided, include, exclude); include is pushed last, so tried first
        stack = [(0, 0, 0)]
        while stack:
            i, inc, exc = stack.pop()
            if i and _dp_forest(forest, inc, exc)[0] != target:
                continue
            if i < n:
                stack += ((i + 1, inc, exc | 1 << i), (i + 1, inc | 1 << i, exc))
                continue
            if cap is not None and emitted >= cap:
                raise EnumerationCapExceeded(cap)
            emitted += 1
            yield VertexSet(inc, n)

    return walk()
