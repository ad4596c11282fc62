"""Record counts of maximum dissociation sets over all trees of one order.

The closed-form record value depends on n mod 3, and the record holders
are spiders S*(...), legs hung from a shared hub, plus one sporadic
8-vertex tree. A leg is data: its run of DFS preorder levels below the
hub at level 1. A spider's levels go through ``forest_from_level_sequence``,
the one decode of every tree the package builds from levels, and the
family of an order is keyed by canonical code, each tree coded once. The
sweep scans every free tree of the order as its centroid plus a multiset
of rooted subtrees (Otter, 1948; Jordan's centroid theorem) and compares
the record and holders with the prediction. It reads only the subtrees'
DP folds, so its table holds one record class per distinct (order, fold)
of rooted tree, with ``ways``, its number of trees, and recipes. One walk
folds class multisets depth first, for the table and for each block of
the sweep: each child step closes in place the multiset that ends there
in bare vertices, added in one closed-form step, and the rooted edges
that may end a multiset fold in an inner loop. It counts trees by
multiset binomials, and expands, decodes and codes only the holders of
the record. Orders above ``SWEEP_LIMIT``, read at each call, are refused
before any work.
"""

from __future__ import annotations

from itertools import chain, combinations_with_replacement, groupby, product
from typing import Iterable, Sequence

from .errors import GuardExceeded
from .forest import Forest, _Frozen, canonical_code
from .treegen import forest_from_level_sequence, map_free_trees

SWEEP_LIMIT = 28

# each leg's DFS preorder levels below the hub at level 1
_LEG_LEVELS = {"P2": (2,), "P3": (2, 3), "P4": (2, 3, 4), "K13": (2, 3, 3)}
LEG_KINDS = tuple(_LEG_LEVELS)
# n = 3m + r: the legs of each base shape of residue r, and the kinds of its m - 1 tail legs
_BASES = (((("P3",),), ("P4",)),
          ((("P3", "P2"),), ("P4", "K13")),
          ((("P3", "P3"), ("P2",) * 4, ("P3", "P2", "P2")), ("P4", "K13")))
_NOTES = {4: "record holders at n=4 are not characterized; only the record value is compared",
          5: "family list degenerates at n=5 to all three trees of order 5"}


def max_mds_formula(n: int) -> int:
    """Largest possible number of maximum dissociation sets in a tree of order n."""
    if n < 1:
        raise ValueError("order must be positive")
    if n <= 2:
        # single vertex and single edge each have exactly one maximum set
        return 1
    m, r = divmod(n, 3)
    return 3 ** (m - 1) + (m + 1, 1, 0)[r]


def star_construction(legs: Sequence[str]) -> Forest:
    """Hang legs from a shared hub, vertex 0, each leg's vertices in preorder.

    P2 adds a pendant vertex, P3 a pendant 2-path, P4 a pendant 3-path,
    K13 a pendant claw centre carrying two extra leaves.
    """
    legs = tuple(legs)
    if not legs:
        raise ValueError("at least one leg required")
    levels = [1]
    for leg in legs:
        if leg not in _LEG_LEVELS:
            raise ValueError(f"unknown leg kind {leg!r}; expected one of {LEG_KINDS}")
        levels += _LEG_LEVELS[leg]
    return forest_from_level_sequence(levels)


def lt8() -> Forest:
    """The sporadic 8-vertex record holder: a 4-path with a pendant leaf
    on each vertex."""
    edges = [(0, 1), (1, 2), (2, 3), (0, 4), (1, 5), (2, 6), (3, 7)]
    return Forest.from_edges(8, edges, labels=("u1", "u2", "u3", "u4", "v1", "v2", "v3", "v4"))


def generate_extremal_family(n: int) -> dict[bytes, Forest]:
    """All predicted record holders of order n, by canonical code, in code order.

    For n = 3m the single tree S*(P3, P4^(m-1)); for n = 3m+1 the trees
    S*(P3, P2, T1..Tm-1) with each Ti in {P4, K13}; for n = 3m+2 the three
    base shapes S*(P3,P3,...), S*(P2,P2,P2,P2,...), S*(P3,P2,P2,...) with
    the same tails, plus the sporadic tree at n = 8. The first tree built
    of each code is kept. At n = 4 the family degenerates to the 4-path,
    which is not asserted as a characterization.
    """
    if n < 3:
        raise ValueError("families are defined for n >= 3")
    m, r = divmod(n, 3)
    bases, kinds = _BASES[r]
    trees = [star_construction(base + tail)
             for base in bases for tail in combinations_with_replacement(kinds, m - 1)]
    if n == 8:
        trees.append(lt8())
    family: dict[bytes, Forest] = {}
    for t in trees:
        family.setdefault(canonical_code(t), t)
    return {code: family[code] for code in sorted(family)}


class ExtremalReport(_Frozen):
    _fields = ("n", "formula_value", "predicted_codes", "observed_max", "extremal_codes",
               "match", "characterized", "trees_scanned", "note")


def _close(fold: tuple) -> tuple:
    """Close a vertex over the fold of its children: its records best, excluded and
    unmatched, each (size, count). The close step of ``dissociation._down``, without masks."""
    b_s, b_w, x_s, x_w, u_s, u_w = fold
    u_s, b_s = u_s + 1, b_s + 1
    if u_s >= b_s:
        b_s, b_w = u_s, u_w if u_s > b_s else b_w + u_w
    if x_s >= b_s:
        b_s, b_w = x_s, x_w if x_s > b_s else b_w + x_w
    return b_s, b_w, x_s, x_w, u_s, u_w


def _block_record(block, classes: dict | None = None) -> tuple[int, int, list[tuple]]:
    """(trees, record, holders (base, child classes) at the record) of a block (table, base,
    lo, hi, rem): the trees of class ``base`` plus each multiset of table classes whose orders
    sum to ``rem``, non-increasing, its first class in [lo, hi] (classes of order at most
    ``rem``). With ``classes``, each multiset's (trees, child classes) is also added under its
    fold before the close.

    Depth first, one child fold step per class picked. Each step closes in place the multiset
    that ends there in its ``left`` bare vertices (class 0), added in one closed-form step, and
    tests it against the record, building a holder tuple only at the record. Once the largest
    class that may follow is the rooted edge (class 1), the edges fold in an inner loop, with
    no stack frame. ``base`` is the first pick of its own class, so a two-centroid pair of one
    class of g trees stands for g(g+1)/2 trees; classes 0 and 1 hold one tree each, so their
    picks keep the count. Iterative."""
    table, base, lo, hi, rem = block
    sizes, records, folds, ends, ways = table
    trees, best, holders = 0, -1, []
    path: list[int] = []
    stack: list[tuple] = []
    fold, w, last, r = folds[base], ways[base], base, 1
    cands = iter(range(hi, lo - 1, -1))
    while True:
        for c in cands:
            cb_s, cb_w, cx_s, cx_w, cu_s, cu_w = records[c]
            k = r + 1 if c == last else 1  # the k-th pick of a class of g trees: C(g+k-1, k)
            cw = w * ways[c] if k == 1 else w * (ways[c] + r) // k
            b_s, b_w, x_s, x_w, u_s, u_w = fold
            left, size, j = rem, sizes[c], 0  # j: the rooted edges picked after c
            while True:  # the child step of ``dissociation._down``, without masks
                m_s, m_w, o_s, o_w = b_s + cx_s, b_w * cx_w, u_s + cu_s, u_w * cu_w
                if o_s >= m_s:
                    m_s, m_w = o_s, o_w if o_s > m_s else m_w + o_w
                b_s, b_w, x_s, x_w, u_s, u_w = m_s, m_w, x_s + cb_s, x_w * cb_w, u_s + cx_s, u_w * cx_w
                left -= size
                e_s = x_s + left
                if left:  # then ``left`` bare vertices: excluded, or one kept with the root
                    o_s = u_s + 1
                    if o_s >= m_s:
                        m_s, m_w = o_s, left * u_w if o_s > m_s else m_w + left * u_w
                if classes is not None:
                    classes.setdefault((m_s, m_w, e_s, x_w, u_s, u_w), []).append(
                        (cw, (*path, c, *(1,) * j, *(0,) * left)))
                trees += cw
                if u_s >= m_s:  # the close of ``_close``, for the count alone
                    m_w = u_w if u_s > m_s else m_w + u_w
                    m_s = u_s
                if e_s > m_s:
                    m_w = x_w if e_s > m_s + 1 else m_w + x_w
                if m_w >= best:
                    if m_w > best:
                        best, holders = m_w, []
                    holders.append((base, (*path, c, *(1,) * j, *(0,) * left)))
                top = ends[left] - 1  # the largest class that may follow
                if c < top:
                    top = c
                if top != 1:
                    break
                # only rooted edges (class 1, one tree) and bare vertices can follow
                cb_s, cb_w, cx_s, cx_w, cu_s, cu_w = records[1]
                size = 2
                j += 1
            if top < 2:  # what may follow is folded already
                continue
            stack.append((fold, w, last, r, rem, cands))
            path.append(c)
            fold, w, last, r, rem = (b_s, b_w, x_s, x_w, u_s, u_w), cw, c, k, left
            cands = iter(range(top, 0, -1))  # not class 0: each step closes its bare vertices
            break
        else:
            if not stack:
                return trees, best, holders
            fold, w, last, r, rem, cands = stack.pop()
            path.pop()


def _rooted_table(n: int):
    """The record classes of the rooted trees of order at most n/2, one per distinct
    (order, fold), by order. Returns the table for the sweep of order n (sizes, closed
    records, folds of the children before the close, ends[k]: the number of classes of
    order at most k, for k < n, and ways: the rooted trees of each class, A000081 by
    order) and the recipes of each class: the multisets of smaller classes that build
    it. An infeasible state has size -n-1, so every sum holding it stays negative."""
    sizes, folds, ends, ways, recipes = [1], [(-n - 1, 0, 0, 1, 0, 1)], [0, 1], [1], [[()]]
    records = [_close(folds[0])]
    table = sizes, records, folds, ends, ways
    for k in range(2, n // 2 + 1):
        classes: dict[tuple, list] = {}  # fold: its (trees, recipe) pairs
        _block_record((table, 0, 0, ends[k - 1] - 1, k - 1), classes)
        built = sorted(classes.items())  # so the table does not depend on the walk's order
        sizes += [k] * len(built)
        folds += [fold for fold, _ in built]
        records += [_close(fold) for fold, _ in built]
        ways += [sum(w for w, _ in made) for _, made in built]
        recipes += [sorted(path for _, path in made) for _, made in built]
        ends.append(len(sizes))
    ends += [len(sizes)] * (n - len(ends))
    return table, recipes


def _sweep_blocks(n: int, table) -> list[tuple]:
    """The blocks of the sweep of order n, each (table, base, lo, hi, rem): the trees
    of class ``base`` plus each multiset of classes that ``_block_record`` folds.

    A free tree with one centroid is that vertex plus a multiset of rooted trees of
    order at most (n-1)/2 summing to n-1, one block per class of the largest child.
    One with two centroids (n even) is an unordered pair {T1, T2} of rooted trees of
    order n/2, T2 a child of T1's root, one block per class of T1. By Jordan's
    centroid theorem every free tree of order n is in exactly one block, once.
    """
    ends = table[3]
    blocks = [(table, 0, c, c, n - 1) for c in reversed(range(ends[(n - 1) // 2]))]
    if n % 2 == 0:
        half = ends[n // 2 - 1]
        blocks += [(table, t1, half, t1, n // 2) for t1 in reversed(range(half, ends[n // 2]))]
    return blocks


def _grown(roots, trees, path: Sequence[int]) -> list[tuple[int, ...]]:
    """The level sequences of each tree of ``roots`` with each multiset of trees of the
    classes of ``path`` added as root children."""
    choices = list(product(*[combinations_with_replacement(trees[c], len(list(g)))
                             for c, g in groupby(path)]))
    return [root + tuple([level + 1 for group in choice for seq in group for level in seq])
            for root in roots for choice in choices]


def _expand(recipes, wanted: Iterable[int]) -> dict[int, list[tuple[int, ...]]]:
    """The level sequences of every rooted tree of the classes ``wanted`` and of the
    classes they are built from, each tree once."""
    need = set(wanted)
    for c in range(max(need), 0, -1):  # a recipe holds classes of lower order, lower index
        if c in need:
            need.update(chain.from_iterable(recipes[c]))
    trees: dict[int, list[tuple[int, ...]]] = {}
    for c in sorted(need):
        trees[c] = [seq for recipe in recipes[c] for seq in _grown([(1,)], trees, recipe)]
    return trees


def exhaustive_extremal_check(n: int, jobs: int = 1) -> ExtremalReport:
    """Sweep all trees of order n, up to ``SWEEP_LIMIT``, and compare record
    and record holders against the closed form and the generated family."""
    if n < 3:
        raise ValueError("sweep is defined for n >= 3")
    if n > SWEEP_LIMIT:
        raise GuardExceeded(f"sweep limited to n <= {SWEEP_LIMIT}, got {n}")
    formula = max_mds_formula(n)
    predicted = tuple(generate_extremal_family(n))
    table, recipes = _rooted_table(n)
    best, holders, scanned = -1, [], 0
    for trees, record, found in map_free_trees(_sweep_blocks(n, table), _block_record, jobs):
        scanned += trees
        if record > best:
            best, holders = record, found
        elif record == best:
            holders += found
    seqs = _expand(recipes, [c for base, path in holders for c in (base, *path)])
    # an ordered pair (T1, T2) of one class gives its tree twice, so the codes make a set
    observed = tuple(sorted({
        canonical_code(forest_from_level_sequence(seq))
        for base, path in holders for seq in _grown(seqs[base], seqs, path)}))
    characterized = n != 4
    match = best == formula
    if characterized:
        match = match and set(observed) == set(predicted)
    return ExtremalReport(
        n=n,
        formula_value=formula,
        predicted_codes=predicted,
        observed_max=best,
        extremal_codes=observed,
        match=match,
        characterized=characterized,
        trees_scanned=scanned,
        note=_NOTES.get(n, ""),
    )
