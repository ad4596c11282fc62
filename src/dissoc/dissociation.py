"""Dissociation-set invariants on forests.

A dissociation set induces a subgraph of maximum degree at most one. The
counting DP keeps three records per vertex of a rooted component:
excluded, included with no partner yet, and included with a partner
already chosen inside its subtree. Each record is a (best size, number
of optimum sets) pair; a vertex included together with an included child
consumes that child's partner-free record, and at most one such child is
allowed. Components combine by adding sizes and multiplying counts.
Include/exclude bit masks force vertices in or out. ``_dp_forest`` runs
the DP once, for counts and forced optima. ``_rerooted`` adds an up pass
that gives the records of every vertex over its component and of both
sides of every edge in O(n); vertex classes, critical edges and the
enumeration of all maximum sets read its tables. ``brute_force_mds``,
the oracle, scans every subset.

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


def _rerooted(forest: Forest, include_bits: int = 0, exclude_bits: int = 0):
    """Rerooting tables of the counting DP over every component, in O(n).

    Returns (parent, down, up, whole). ``down`` and ``up`` are six flat
    lists: size and count of the records best, excluded and unmatched, of
    v over its subtree and of parent(v) over the rest of the component (the
    empty fold at a root; built from prefix and suffix folds over its other
    neighbours). ``whole`` holds best and excluded of v over its component.
    A record is also its neighbour's fold (ex, a0, a1) of ``_dp_forest``,
    and the masks act in each close step as they do there. An infeasible
    record has count 0 and a negative size.
    """
    n = forest.n
    order, parent = forest.bfs
    none = -n - 1  # the size of an infeasible state: every sum holding it stays negative
    # until v is closed, best/excluded/unmatched hold its folds a1/ex/a0 over its children
    dbs, dbw, dxs, dxw, dus, duw = [none] * n, [0] * n, [0] * n, [1] * n, [0] * n, [1] * n
    for v in reversed(order):
        x_s, x_w, u_s, u_w, b_s, b_w = dxs[v], dxw[v], dus[v] + 1, duw[v], dbs[v] + 1, dbw[v]
        if include_bits >> v & 1:
            x_s, x_w = none, 0
        if exclude_bits >> v & 1:
            u_s = b_s = none
            u_w = b_w = 0
        if u_s >= b_s:
            b_s, b_w = u_s, u_w if u_s > b_s else b_w + u_w
        if x_s >= b_s:
            b_s, b_w = x_s, x_w if x_s > b_s else b_w + x_w
        dbs[v], dbw[v], dxs[v], dxw[v], dus[v], duw[v] = b_s, b_w, x_s, x_w, u_s, u_w
        p = parent[v]
        if p != PARENT_NONE:
            m_s, m_w, o_s, o_w = dbs[p] + x_s, dbw[p] * x_w, dus[p] + u_s, duw[p] * u_w
            if o_s >= m_s:
                m_s, m_w = o_s, o_w if o_s > m_s else m_w + o_w
            dbs[p], dbw[p], dxs[p], dxw[p] = m_s, m_w, dxs[p] + b_s, dxw[p] * b_w
            dus[p], duw[p] = dus[p] + x_s, duw[p] * x_w
    # a root keeps the empty fold as its record from the parent side
    ubs, ubw, uxs, uxw, uus, uuw = [0] * n, [1] * n, [0] * n, [1] * n, [none] * n, [0] * n
    wbs, wbw, wxs, wxw = [0] * n, [0] * n, [0] * n, [0] * n
    for p in order:
        fe_s, fe_w, f0_s, f0_w, f1_s, f1_w = ubs[p], ubw[p], uxs[p], uxw[p], uus[p], uuw[p]
        pre = []  # (child, fold over the neighbours before it); child -1 closes p itself
        for c in forest.adjacency[p]:
            if c == parent[p]:
                continue
            pre.append((c, fe_s, fe_w, f0_s, f0_w, f1_s, f1_w))
            m_s, m_w, o_s, o_w = f1_s + dxs[c], f1_w * dxw[c], f0_s + dus[c], f0_w * duw[c]
            if o_s >= m_s:
                m_s, m_w = o_s, o_w if o_s > m_s else m_w + o_w
            f1_s, f1_w, fe_s, fe_w = m_s, m_w, fe_s + dbs[c], fe_w * dbw[c]
            f0_s, f0_w = f0_s + dxs[c], f0_w * dxw[c]
        pre.append((-1, fe_s, fe_w, f0_s, f0_w, f1_s, f1_w))
        inc, exc = include_bits >> p & 1, exclude_bits >> p & 1
        ge_s, ge_w, g0_s, g0_w, g1_s, g1_w = 0, 1, 0, 1, none, 0  # over the children after c
        for c, fe_s, fe_w, f0_s, f0_w, f1_s, f1_w in reversed(pre):
            m_s, m_w, o_s, o_w = f1_s + g0_s, f1_w * g0_w, f0_s + g1_s, f0_w * g1_w
            if o_s >= m_s:
                m_s, m_w = o_s, o_w if o_s > m_s else m_w + o_w
            x_s, x_w, u_s, u_w = fe_s + ge_s, fe_w * ge_w, f0_s + g0_s + 1, f0_w * g0_w
            b_s, b_w = m_s + 1, m_w
            if inc:
                x_s, x_w = none, 0
            if exc:
                u_s = b_s = none
                u_w = b_w = 0
            if u_s >= b_s:
                b_s, b_w = u_s, u_w if u_s > b_s else b_w + u_w
            if x_s >= b_s:
                b_s, b_w = x_s, x_w if x_s > b_s else b_w + x_w
            if c < 0:
                wbs[p], wbw[p], wxs[p], wxw[p] = b_s, b_w, x_s, x_w
                continue
            ubs[c], ubw[c], uxs[c], uxw[c], uus[c], uuw[c] = b_s, b_w, x_s, x_w, u_s, u_w
            m_s, m_w, o_s, o_w = g1_s + dxs[c], g1_w * dxw[c], g0_s + dus[c], g0_w * duw[c]
            if o_s >= m_s:
                m_s, m_w = o_s, o_w if o_s > m_s else m_w + o_w
            g1_s, g1_w, ge_s, ge_w = m_s, m_w, ge_s + dbs[c], ge_w * dbw[c]
            g0_s, g0_w = g0_s + dxs[c], g0_w * dxw[c]
    down = (dbs, dbw, dxs, dxw, dus, duw)
    return parent, down, (ubs, ubw, uxs, uxw, uus, uuw), (wbs, wbw, wxs, wxw)


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

    Flashlight search (Read and Tarjan, 1975) on an explicit stack: each
    search node runs one masked ``_rerooted`` pass, fixes each following
    vertex that every optimum under its masks holds or avoids, and
    branches, include first, at the first vertex that allows both. So every
    node branches or yields: 2|sets| - 1 passes, O(n) amortized per set.
    The delay is not bounded that way, as a descent costs one pass per
    branching vertex. Raises EnumerationCapExceeded after ``cap`` sets.
    """
    n = forest.n
    emitted = 0
    # (first undecided vertex, include, exclude); include is pushed last, so tried first
    stack = [(0, 0, 0)]
    while stack:
        i, inc, exc = stack.pop()
        best_s, best_w, avoid_s, avoid_w = _rerooted(forest, inc, exc)[3]
        for v in range(i, n):
            if avoid_s[v] < best_s[v]:  # every optimum holds v
                inc |= 1 << v
            elif avoid_w[v] == best_w[v]:  # no optimum holds v
                exc |= 1 << v
            else:
                stack += ((v + 1, inc, exc | 1 << v), (v + 1, inc | 1 << v, exc))
                break
        else:
            if cap is not None and emitted >= cap:
                raise EnumerationCapExceeded(cap)
            emitted += 1
            yield VertexSet(inc, n)
