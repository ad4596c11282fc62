"""Dissociation-set invariants on forests.

A dissociation set induces a subgraph of maximum degree at most one. One
counting DP answers every question here. Its records per vertex of a
rooted component are best, excluded, and included with no partner yet
inside its subtree, each a (best size, number of optimum sets) pair. A
vertex included together with an included child consumes that child's
partner-free record, and at most one such child is allowed. Include and
exclude bit masks force vertices in or out. ``_down`` closes the records
bottom-up over a parent array into the flat lists the masks and the up
pass need; the extremal sweep carries the one other copy of its child
and close steps, without masks, to fold tabulated records of rooted
subtrees with no tree built. ``_rerooted`` adds an up pass giving
the records of every vertex over its component and of both sides of every
edge in O(n); vertex classes (``_classes``), critical edges, the number
of maximum sets holding each vertex and the enumeration of all maximum
sets read its tables. The subset-scan oracle that the tests compare
against is not part of the package.

Counts are plain Python integers, so they are exact at any magnitude.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .errors import EnumerationCapExceeded
from .forest import PARENT_NONE, Forest, VertexSet


class DissociationResult(NamedTuple):
    alpha3: int
    count: int


def alpha3_count_dp(tree: Forest) -> DissociationResult:
    """Dissociation number and exact number of maximum dissociation sets."""
    return DissociationResult(*_optimum(*tree.bfs))


def alpha3_forced(forest: Forest, include: VertexSet, exclude: VertexSet) -> int | None:
    """Largest dissociation set containing ``include`` and avoiding ``exclude``.

    Returns None when infeasible, i.e. when ``include`` itself already
    induces a vertex of degree two or more.
    """
    if include.bits & exclude.bits:
        raise ValueError("include and exclude sets overlap")
    size, ways = _optimum(*forest.bfs, include.bits, exclude.bits)
    return size if ways else None


def _optimum(order, parent, include_bits: int = 0, exclude_bits: int = 0) -> tuple[int, int]:
    """Best size and count of the optimum sets honoring the masks, from the
    down records of the component roots; (-1, 0) when infeasible."""
    best_s, best_w, _, _, _, _ = _down(order, parent, include_bits, exclude_bits)
    size, ways = 0, 1
    for r, p in enumerate(parent):
        if p == PARENT_NONE:
            size, ways = size + best_s[r], ways * best_w[r]
    return (size, ways) if ways else (-1, 0)


def _down(order, parent, include_bits: int, exclude_bits: int):
    """Down pass of the counting DP over a parent array (``PARENT_NONE`` at a root)
    and an ``order`` with parents first: six flat lists, size and count of the
    records best, excluded and unmatched of each vertex over its subtree. A record
    is also the fold its parent needs (unmatched is its partner-free state), and the
    masks act in each close step. An infeasible record has count 0 and a negative size."""
    n = len(parent)
    none = -n - 1  # the size of an infeasible state: every sum holding it stays negative
    # until v is closed, best/excluded/unmatched hold its folds over its children with v
    # included and one child its partner, v excluded, and v included with no partner
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
    return dbs, dbw, dxs, dxw, dus, duw


def _rerooted(forest: Forest, include_bits: int = 0, exclude_bits: int = 0):
    """Rerooting tables of the counting DP over every component, in O(n).

    Returns (parent, down, up, whole). ``down`` comes from ``_down``. ``up``
    holds the same three records of parent(v) over the rest of the
    component (the empty fold at a root), built from prefix and suffix folds
    over the parent's other neighbours; ``whole`` holds best and excluded
    of v over its component. The masks act as in ``_down``.
    """
    n = forest.n
    order, parent = forest.bfs
    none = -n - 1
    dbs, dbw, dxs, dxw, dus, duw = down = _down(order, parent, include_bits, exclude_bits)
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
    return parent, down, (ubs, ubw, uxs, uxw, uus, uuw), (wbs, wbw, wxs, wxw)


def _classes(whole, include_bits: int = 0, exclude_bits: int = 0) -> tuple[int, int]:
    """Bit masks of the vertices that every optimum honoring the masks holds, and
    of those that none holds, from the ``whole`` records of ``_rerooted`` under them."""
    best_s, best_w, avoid_s, avoid_w = whole
    n = len(best_s)
    held, avoided = include_bits, exclude_bits  # the masked vertices are decided already
    free = ((1 << n) - 1) & ~(held | avoided)
    # only the free vertices, byte by byte: low-bit steps on all of free copy n bits each
    for i, byte in enumerate(free.to_bytes((n + 7) // 8, "little")):
        while byte:
            low = byte & -byte
            byte ^= low
            v = 8 * i + low.bit_length() - 1
            if avoid_s[v] < best_s[v]:  # every optimum holds v
                held |= 1 << v
            elif avoid_w[v] == best_w[v]:  # the optima avoiding v are all of them
                avoided |= 1 << v
    return held, avoided


def enumerate_mds(forest: Forest, cap: int | None = None) -> Iterator[VertexSet]:
    """Yield every maximum dissociation set once, in lexicographic order.

    Flashlight search (Read and Tarjan, 1975) on an explicit stack of masks:
    each search node runs one masked ``_rerooted`` pass, reads its classes
    with ``_classes`` and yields when all optima under its masks agree on
    every vertex; otherwise it branches, include first, on its lowest free
    vertex, below which every vertex is forced in both children. So
    2|sets| - 1 passes, O(n) amortized per set; a descent costs one pass
    per branching vertex, so the delay is not bounded that way. Raises
    EnumerationCapExceeded after ``cap`` sets.
    """
    n = forest.n
    emitted = 0
    stack = [(0, 0)]  # (include, exclude); include is pushed last, so tried first
    while stack:
        include, exclude = stack.pop()
        held, avoided = _classes(_rerooted(forest, include, exclude)[3], include, exclude)
        free = ((1 << n) - 1) & ~(held | avoided)
        if free:
            low = free & -free
            stack += ((held, avoided | low), (held | low, avoided))
            continue
        if cap is not None and emitted >= cap:
            raise EnumerationCapExceeded(cap)
        emitted += 1
        yield VertexSet(held, n)
