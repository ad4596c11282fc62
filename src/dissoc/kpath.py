"""k-path invariants on forests.

A k-path is a (not necessarily induced) path on k vertices. alpha_k is
the largest vertex set inducing no k-path, mu_k the largest number of
vertex-disjoint k-paths, tau_k the smallest vertex set meeting every
k-path. On forests tau_k = mu_k and alpha_k + mu_k = n; the greedy here
produces one record ``(k, cover, paths)``, a cover and a matching of k-paths
of equal size, that certifies both.

The greedy repeatedly roots a component, takes the deepest vertex u
whose subtree still contains a k-path, covers u, extracts one k-path
through u into the matching, and deletes u's subtree. Ties on depth
break to the smallest vertex index and the extracted path is the
lexicographically smallest candidate, so runs are reproducible.

``mu3_edge_deletions`` gives mu3 after deleting each edge from one
rerooting pass of a maximum 3-path packing DP, in O(n) (the tree case of
the k-path cover algorithm of Bresar, Kardos, Katrenic and Semanisin,
2011). It imports nothing from the dissociation engine.
"""

from __future__ import annotations

from itertools import combinations

from .errors import GuardExceeded, TheoremViolation
from .forest import PARENT_NONE, Forest, VertexSet, _Frozen

ALPHA_BRUTE_LIMIT = 26


class CoverMatchingCertificate(_Frozen):
    """Equal-size k-vertex-cover (a ``VertexSet``) / k-matching pair for one forest:
    the matching is ``paths``, vertex-disjoint k-paths, each an ordered vertex tuple."""

    _fields = ("k", "cover", "paths")


def _longest_path(forest: Forest, mask: int) -> int:
    """Order of the longest path in the subforest induced by ``mask``, from one
    reverse pass over ``forest.bfs``: a mask vertex whose parent is outside the
    mask roots a component, and each vertex keeps its two tallest children in
    the mask, so the longest path through it has 1 + tallest + second vertices."""
    order, parent = forest.bfs
    tallest, second = [0] * forest.n, [0] * forest.n
    best = 0
    for v in reversed(order):
        if not mask >> v & 1:
            continue
        h = tallest[v]
        if h + second[v] >= best:
            best = h + second[v] + 1
        p = parent[v]
        if p != PARENT_NONE and mask >> p & 1:
            h += 1
            if h > tallest[p]:
                tallest[p], second[p] = h, tallest[p]
            elif h > second[p]:
                second[p] = h
    return best


def alpha_k_guard(n: int) -> None:
    """Refuse an order past ``ALPHA_BRUTE_LIMIT``, the guard of ``alpha_k_brute``."""
    if n > ALPHA_BRUTE_LIMIT:
        raise GuardExceeded(f"alpha_k brute force limited to n <= {ALPHA_BRUTE_LIMIT}, got {n}")


def _k_path_masks(forest: Forest, k: int) -> list[int]:
    """Bit masks of the k-paths, each once, as a forest path is fixed by its ends: every
    walk of k - 1 steps that never steps back and ends above its start."""
    adj = forest.adjacency
    walks = [(u, u, -1, 1 << u) for u in range(forest.n)]  # (start, end, vertex before it, mask)
    for _ in range(k - 1):
        walks = [(u, w, v, m | 1 << w) for u, v, back, m in walks for w in adj[v] if w != back]
    return [m for u, v, _, m in walks if v > u]


def alpha_k_brute(forest: Forest, k: int) -> int:
    """Exact alpha_k, up to ``ALPHA_BRUTE_LIMIT``: n - r for the fewest r removed vertices
    that meet every k-path mask, found by trying removed sets in ascending size. It stays
    exhaustive to be the oracle for any faster alpha_k, and reads no certificate or DP, so
    ``kke`` compares it with the greedy as two independent computations."""
    if k < 2:
        raise ValueError("k must be at least 2")
    n = forest.n
    alpha_k_guard(n)
    paths = _k_path_masks(forest, k)
    for r in range(n + 1):
        for removed in combinations([1 << v for v in range(n)], r):
            cut = sum(removed)
            for p in paths:
                if not p & cut:
                    break
            else:
                return n - r
    raise AssertionError("unreachable: removing every vertex meets every path")


def _root_alive(forest: Forest, root: int, alive: set[int]):
    """BFS order/parent/level restricted to the alive vertex set."""
    parent = {root: -1}
    level = {root: 0}
    order = [root]
    for v in order:
        for w in forest.adjacency[v]:
            if w in alive and w not in parent:
                parent[w] = v
                level[w] = level[v] + 1
                order.append(w)
    return order, parent, level


def _subtree_path_orders(order, parent):
    """Of each rooted subtree: its longest path order."""
    height = {v: 1 for v in order}
    longest = {v: 1 for v in order}
    top = {v: (0, 0) for v in order}  # two tallest child heights
    for v in reversed(order):
        h1, h2 = top[v]
        longest[v] = max(longest[v], 1 + h1 + h2)
        height[v] = 1 + h1
        p = parent[v]
        if p != -1:
            longest[p] = max(longest[p], longest[v])
            a, b = top[p]
            if height[v] > a:
                top[p] = (height[v], a)
            elif height[v] > b:
                top[p] = (a, height[v])
    return longest


def _min_k_path_through(forest: Forest, u: int, parent, level, k: int) -> tuple[int, ...]:
    """Lexicographically smallest k-path through u inside u's subtree."""
    # walk u's subtree, remembering the branch (child of u) and chain to u
    chain: dict[int, tuple[int, ...]] = {u: (u,)}
    branch = {u: -1}
    depth = {u: 0}
    queue = [u]
    for v in queue:
        for w in forest.adjacency[v]:
            if w in level and w not in depth and parent.get(w) == v:
                depth[w] = depth[v] + 1
                branch[w] = w if v == u else branch[v]
                chain[w] = chain[v] + (w,)
                queue.append(w)
    best: tuple[int, ...] | None = None
    down = [v for v, d in depth.items() if d == k - 1]
    for v in down:
        seq = chain[v]
        cand = min(seq, seq[::-1])
        if best is None or cand < best:
            best = cand
    deep = [v for v, d in depth.items() if 1 <= d <= k - 2]
    for x in deep:
        for y in deep:
            if y <= x or branch[x] == branch[y] or depth[x] + depth[y] != k - 1:
                continue
            seq = chain[x][::-1] + chain[y][1:]
            cand = min(seq, seq[::-1])
            if best is None or cand < best:
                best = cand
    if best is None:
        raise TheoremViolation(
            f"no {k}-path through vertex {u} although its subtree reports one"
        )
    return best


def greedy_cover_matching(forest: Forest, k: int) -> CoverMatchingCertificate:
    """Peel deepest subtrees containing a k-path; cover the peel point,
    extract one k-path through it. The resulting pair has equal size and
    is optimal on forests."""
    if k < 2:
        raise ValueError("k must be at least 2")
    cover: list[int] = []
    paths: list[tuple[int, ...]] = []
    for comp in forest.components():
        alive = set(comp)
        while len(alive) >= k:
            root = min(alive)
            order, parent, level = _root_alive(forest, root, alive)
            longest = _subtree_path_orders(order, parent)
            candidates = [v for v in order if longest[v] >= k]
            if not candidates:
                break
            u = min(candidates, key=lambda v: (-level[v], v))
            for w in forest.adjacency[u]:
                if w in alive and parent.get(w) == u and longest[w] >= k:
                    raise TheoremViolation(
                        f"deepest choice {u} has child {w} whose subtree still has a {k}-path"
                    )
            path = _min_k_path_through(forest, u, parent, level, k)
            cover.append(u)
            paths.append(path)
            # drop the whole subtree rooted at u
            doomed = [u]
            for v in doomed:
                for w in forest.adjacency[v]:
                    if w in alive and parent.get(w) == v:
                        doomed.append(w)
            alive -= set(doomed)
    cover.sort()
    paths.sort()
    # positional: the fast way to build a record, and verify builds these per tree and k
    return CoverMatchingCertificate(k, VertexSet.from_iterable(forest.n, cover), tuple(paths))


def mu3_edge_deletions(forest: Forest) -> tuple[int, tuple[int, ...]]:
    """mu3 of the forest, and mu3 after deleting each edge of ``forest.edges``
    in turn, from one rerooting pass of a maximum 3-path packing DP in O(n).

    Records of v over a rooted subtree: free (v on no path), pending (v and
    one free child wait for v's parent to close their path, which is not
    counted yet) and best. best is the largest of free, the middle case
    c1-v-c2 and the end case v-c-gc with c pending, the last two +1. A child
    folds in as best plus its free and pending deltas from best, so a vertex
    needs the sum of its neighbours' best, the top two free deltas and the
    top pending delta. The up pass keeps the top three free and the top two
    pending deltas over all neighbours, so leaving one child out is O(1) and
    each vertex costs O(deg).
    """
    n = forest.n
    order, parent = forest.bfs
    adj = forest.adjacency
    none = -n - 2  # an absent record's delta: below every real one, which is >= -n
    best, free_d, pend_d = [0] * n, [0] * n, [0] * n
    for v in reversed(order):
        s, f1, f2, e1 = 0, none, none, none
        for c in adj[v]:
            if c == parent[v]:
                continue
            s += best[c]
            d = free_d[c]
            if d > f1:
                f1, f2 = d, f1
            elif d > f2:
                f2 = d
            if pend_d[c] > e1:
                e1 = pend_d[c]
        b = max(s, s + f1 + f2 + 1, s + e1 + 1)
        best[v], free_d[v], pend_d[v] = b, s - b, s + f1 - b
    # the same records of parent(c) over the component with c's subtree cut off
    up_best, up_free, up_pend = [0] * n, [0] * n, [none] * n
    cut = [0] * n  # mu3 of the forest with the edge above c deleted
    base = sum(best[r] for r in order if parent[r] == PARENT_NONE)
    rest = 0  # mu3 of the other components
    for p in order:
        q = parent[p]
        if q == PARENT_NONE:  # p roots a new component and has no parent side
            rest = base - best[p]
            s, f1, f2, f3, i1, i2, e1, e2, j1 = 0, none, none, none, -1, -1, none, none, -1
        else:
            s, f1, f2, f3, i1, i2 = up_best[p], up_free[p], none, none, q, -1
            e1, e2, j1 = up_pend[p], none, q
        for c in adj[p]:
            if c == q:
                continue
            s += best[c]
            d = free_d[c]
            if d > f1:
                f1, f2, f3, i1, i2 = d, f1, f2, c, i1
            elif d > f2:
                f2, f3, i2 = d, f2, c
            elif d > f3:
                f3 = d
            d = pend_d[c]
            if d > e1:
                e1, e2, j1 = d, e1, c
            elif d > e2:
                e2 = d
        for c in adj[p]:
            if c == q:
                continue
            sc = s - best[c]
            g1, g2 = (f2, f3) if c == i1 else (f1, f3) if c == i2 else (f1, f2)
            b = max(sc, sc + g1 + g2 + 1, sc + (e2 if c == j1 else e1) + 1)
            up_best[c], up_free[c], up_pend[c] = b, sc - b, sc + g1 - b
            cut[c] = rest + best[c] + b
    return base, tuple(cut[v if parent[v] == u else u] for u, v in forest.edges)


def verify_certificate(forest: Forest, cert: CoverMatchingCertificate) -> list[str]:
    """Machine-check a certificate independently of how it was produced.

    Returns a list of violations; an empty list means the cover hits every
    k-path, the matching is a valid k-matching, and both have equal size.
    """
    problems = []
    k = cert.k
    used: set[int] = set()
    for path in cert.paths:
        if len(path) != k:
            problems.append(f"path {path} has {len(path)} vertices, expected {k}")
            continue
        if len(set(path)) != k:
            problems.append(f"path {path} repeats a vertex")
        for a, b in zip(path, path[1:]):
            if b not in forest.adjacency[a]:
                problems.append(f"path {path} uses missing edge ({a}, {b})")
        overlap = used & set(path)
        if overlap:
            problems.append(f"paths share vertices {sorted(overlap)}")
        used |= set(path)
    if len(cert.cover) != len(cert.paths):
        problems.append(f"cover size {len(cert.cover)} != matching size {len(cert.paths)}")
    alive = ((1 << forest.n) - 1) & ~cert.cover.bits
    if _longest_path(forest, alive) >= k:
        problems.append(f"a {k}-path survives removal of the cover")
    return problems
