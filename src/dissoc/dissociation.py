"""Dissociation-set invariants on forests.

A dissociation set induces a subgraph of maximum degree at most one. One
counting DP answers every question here. Its records per vertex of a
rooted component are best, excluded, and included with no partner yet
inside its subtree, each a (best size, number of optimum sets) pair. A
vertex included together with an included child consumes that child's
partner-free record, and at most one such child is allowed. Include and
exclude bit masks force vertices in or out. ``_down`` closes the records
bottom-up over a parent array into the flat lists the masks and the up
pass need, and ``_total`` reads the optimum off the component roots; the
extremal sweep carries the one other copy of its child and close steps,
without masks, to fold tabulated records of rooted subtrees with no tree
built. ``_rerooted`` adds a size-only up pass giving the optimum sizes of
every vertex over its component and of both sides of every edge in O(n).
Whether every optimum, or none, holds a vertex is an existence question
these sizes decide, so vertex classes (``_classes``), critical edges and
the enumeration of all maximum sets read its tables; only the number of
sets needs the counts of ``_down``.
The subset-scan oracle the tests compare against is not in the package.

Counts are plain Python integers, so they are exact at any magnitude.
"""

from __future__ import annotations

from typing import Iterator

from .forest import PARENT_NONE, Forest, VertexSet, _Frozen


class DissociationResult(_Frozen):
    _fields = ("alpha3", "count")


def alpha3_count_dp(tree: Forest) -> DissociationResult:
    """Dissociation number and exact number of maximum dissociation sets."""
    order, parent = tree.bfs
    return DissociationResult(*_total(parent, _down(order, parent, 0, 0)))


def alpha3_forced(forest: Forest, include: VertexSet, exclude: VertexSet) -> int | None:
    """Largest dissociation set containing ``include`` and avoiding ``exclude``.

    Returns None when infeasible, i.e. when ``include`` itself already
    induces a vertex of degree two or more.
    """
    if include.bits & exclude.bits:
        raise ValueError("include and exclude sets overlap")
    order, parent = forest.bfs
    size, ways = _total(parent, _down(order, parent, include.bits, exclude.bits))
    return size if ways else None


def _total(parent, down) -> tuple[int, int]:
    """Best size and count over the forest from the ``_down`` records of its roots;
    (-1, 0) when the masks of ``_down`` leave no set."""
    size, ways = 0, 1
    for r, p in enumerate(parent):
        if p == PARENT_NONE:
            size, ways = size + down[0][r], ways * down[1][r]
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
    """Rerooting tables of the optimum sizes over every component, in O(n).

    Returns (parent, down, up, whole). ``down`` is ``_down``'s counted tables;
    the up pass reads their sizes. ``up`` holds the sizes of the three records
    of parent(v) over the rest of the component (the empty fold at a root),
    ``whole`` the best, excluded and included sizes of v over its component.
    Sizes subtract exactly, so each vertex sums all of its sides once and
    leaves out one by subtraction; of the partner gains (unmatched minus
    excluded) it keeps the two best. The masks act as in ``_down``.
    """
    n = forest.n
    order, parent = forest.bfs
    none = -n - 1
    dbs, _, dxs, _, dus, _ = down = _down(order, parent, include_bits, exclude_bits)
    # a root keeps the empty fold as its record from the parent side
    ubs, uxs, uus = [0] * n, [0] * n, [none] * n
    wbs, wxs, wis = [0] * n, [0] * n, [0] * n
    for p in order:
        q = parent[p]
        e_s, x_s = ubs[p], uxs[p]  # over every side of p: sums of best and of excluded
        top, second, arg = uus[p] - x_s, none, q  # the two best partner gains, and top's side
        for c in forest.adjacency[p]:
            if c == q:
                continue
            e_s += dbs[c]
            x_s += dxs[c]
            gain = dus[c] - dxs[c]
            if gain > top:
                top, second, arg = gain, top, c
            elif gain > second:
                second = gain
        inc, exc = include_bits >> p & 1, exclude_bits >> p & 1
        out = none if inc else e_s
        held = none if exc else x_s + 1 + (top if top > 0 else 0)
        wbs[p], wxs[p], wis[p] = held if held > out else out, out, held
        for c in forest.adjacency[p]:  # p over its sides but c's, with c free to be its partner
            if c == q:
                continue
            out = none if inc else e_s - dbs[c]
            uus[c] = held = none if exc else x_s - dxs[c] + 1
            gain = second if c == arg else top
            if gain > 0 and not exc:
                held += gain
            ubs[c], uxs[c] = held if held > out else out, out
    return parent, down, (ubs, uxs, uus), (wbs, wxs, wis)


def _classes(whole, include_bits: int = 0, exclude_bits: int = 0) -> tuple[int, int]:
    """Bit masks of the vertices that every optimum honoring the masks holds, and
    of those that none holds, from the ``whole`` sizes of ``_rerooted`` under them."""
    best_s, out_s, held_s = whole
    n = len(best_s)
    free = ((1 << n) - 1) & ~(include_bits | exclude_bits)  # the masked vertices are decided
    # only the free vertices, byte by byte into byte arrays: a step on an n-bit int copies it
    held, avoided = bytearray((n + 7) // 8), bytearray((n + 7) // 8)
    for i, byte in enumerate(free.to_bytes((n + 7) // 8, "little")):
        while byte:
            low = byte & -byte
            byte ^= low
            v = 8 * i + low.bit_length() - 1
            if out_s[v] < best_s[v]:  # every optimum holds v
                held[i] |= low
            elif held_s[v] < best_s[v]:  # no optimum holds v
                avoided[i] |= low
    return (include_bits | int.from_bytes(held, "little"),
            exclude_bits | int.from_bytes(avoided, "little"))


def enumerate_mds(forest: Forest) -> Iterator[VertexSet]:
    """Yield every maximum dissociation set once, in lexicographic order.

    Flashlight search (Read and Tarjan, 1975) on an explicit stack of masks:
    each search node runs one masked ``_rerooted`` pass, reads its classes
    with ``_classes`` and yields when all optima under its masks agree on
    every vertex; otherwise it branches, include first, on its lowest free
    vertex, below which every vertex is forced in both children. So
    2|sets| - 1 passes, O(n) amortized per set; a descent costs one pass
    per branching vertex, so the delay is not bounded that way. The stream
    has no cap: take the first N sets with ``itertools.islice``.
    """
    n = forest.n
    stack = [(0, 0)]  # (include, exclude); include is pushed last, so tried first
    while stack:
        include, exclude = stack.pop()
        held, avoided = _classes(_rerooted(forest, include, exclude)[3], include, exclude)
        free = ((1 << n) - 1) & ~(held | avoided)
        if free:
            low = free & -free
            stack += ((held, avoided | low), (held | low, avoided))
            continue
        yield VertexSet(held, n)
