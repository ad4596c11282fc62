"""k-path invariants on forests.

A k-path is a (not necessarily induced) path on k vertices. alpha_k is
the largest vertex set inducing no k-path, mu_k the largest number of
vertex-disjoint k-paths, tau_k the smallest vertex set meeting every
k-path. On forests tau_k = mu_k and alpha_k + mu_k = n; the greedy here
produces a cover/matching pair of equal size that certifies both.

The greedy repeatedly roots a component, takes the deepest vertex u
whose subtree still contains a k-path, covers u, extracts one k-path
through u into the matching, and deletes u's subtree. Ties on depth
break to the smallest vertex index and the extracted path is the
lexicographically smallest candidate, so runs are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import GuardExceeded, TheoremViolation
from .forest import Forest, VertexSet

ALPHA_BRUTE_LIMIT = 26
MU_BRUTE_LIMIT = 18
TAU_BRUTE_LIMIT = 26


@dataclass(frozen=True)
class PathFamily:
    """Vertex-disjoint k-paths, each an ordered vertex list."""

    k: int
    paths: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.paths)


@dataclass(frozen=True)
class CoverMatchingCertificate:
    """Equal-size k-vertex-cover / k-matching pair for one forest."""

    cover: VertexSet
    matching: PathFamily
    k: int


def _farthest_in_mask(forest: Forest, start: int, mask: int) -> tuple[int, int, int]:
    """BFS inside ``mask``; returns (farthest vertex, distance, visited bits)."""
    dist = {start: 0}
    queue = [start]
    far, far_d = start, 0
    visited = 1 << start
    for v in queue:
        dv = dist[v] + 1
        for w in forest.adjacency[v]:
            if (mask >> w) & 1 and not (visited >> w) & 1:
                visited |= 1 << w
                dist[w] = dv
                queue.append(w)
                if dv > far_d or (dv == far_d and w < far):
                    far, far_d = w, dv
    return far, far_d, visited


def _longest_path_in_mask(forest: Forest, mask: int) -> int:
    """Longest path order inside the induced subforest on the mask."""
    best = 0
    remaining = mask
    while remaining:
        start = (remaining & -remaining).bit_length() - 1
        a, _, comp = _farthest_in_mask(forest, start, remaining)
        _, d, _ = _farthest_in_mask(forest, a, comp)
        remaining &= ~comp
        if d + 1 > best:
            best = d + 1
    return best


def longest_path_order(forest: Forest) -> int:
    """Maximum number of vertices on any path; two-pass search per component."""
    if forest.n == 0:
        return 0
    return _longest_path_in_mask(forest, (1 << forest.n) - 1)


def alpha_k_brute(forest: Forest, k: int, guard: int = ALPHA_BRUTE_LIMIT) -> int:
    """Exact alpha_k by descending-size subset search."""
    if k < 2:
        raise ValueError("k must be at least 2")
    n = forest.n
    if n > guard:
        raise GuardExceeded(f"alpha_k brute force limited to n <= {guard}, got {n}")
    masks = forest.adjacency_masks()
    for size in range(n, -1, -1):
        for members in combinations(range(n), size):
            bits = 0
            for v in members:
                bits |= 1 << v
            if k == 2:
                # no 2-path means an independent set
                if all(masks[v] & bits == 0 for v in members):
                    return size
            elif _longest_path_in_mask(forest, bits) < k:
                return size
    raise AssertionError("unreachable: the empty set always qualifies")


def _tree_k_path_sets(forest: Forest, k: int) -> list[int]:
    """Vertex sets (bitmasks) of all k-paths; on a forest the endpoints fix the path."""
    out = []
    for u in range(forest.n):
        # BFS with parents; each vertex at distance k-1 beyond u closes one path
        parent = {u: -1}
        dist = {u: 0}
        queue = [u]
        for v in queue:
            if dist[v] >= k - 1:
                continue
            for w in forest.adjacency[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    parent[w] = v
                    queue.append(w)
        for v, d in dist.items():
            if d == k - 1 and v > u:
                mask = 0
                x = v
                while x != -1:
                    mask |= 1 << x
                    x = parent[x]
                out.append(mask)
    return out


def mu_k_brute(forest: Forest, k: int, guard: int = MU_BRUTE_LIMIT) -> int:
    """Exact mu_k by backtracking over vertex-disjoint k-path packings."""
    if k < 2:
        raise ValueError("k must be at least 2")
    n = forest.n
    if n > guard:
        raise GuardExceeded(f"mu_k brute force limited to n <= {guard}, got {n}")
    paths = _tree_k_path_sets(forest, k)
    best = 0

    def rec(i: int, used: int, size: int) -> None:
        nonlocal best
        if size > best:
            best = size
        if size + (n - used.bit_count()) // k <= best:
            return
        for j in range(i, len(paths)):
            p = paths[j]
            if used & p == 0:
                rec(j + 1, used | p, size + 1)

    rec(0, 0, 0)
    return best


def tau_k_brute(forest: Forest, k: int, guard: int = TAU_BRUTE_LIMIT) -> int:
    """Exact tau_k: smallest vertex set whose removal kills every k-path."""
    if k < 2:
        raise ValueError("k must be at least 2")
    n = forest.n
    if n > guard:
        raise GuardExceeded(f"tau_k brute force limited to n <= {guard}, got {n}")
    full = (1 << n) - 1
    for size in range(n + 1):
        for cut in combinations(range(n), size):
            bits = full
            for v in cut:
                bits &= ~(1 << v)
            if _longest_path_in_mask(forest, bits) < k:
                return size
    raise AssertionError("unreachable: removing everything kills all paths")


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
    """Of each rooted subtree: its height and its longest path order."""
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
    return height, longest


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
            _, longest = _subtree_path_orders(order, parent)
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
    return CoverMatchingCertificate(
        cover=VertexSet.from_iterable(forest.n, cover),
        matching=PathFamily(k=k, paths=tuple(paths)),
        k=k,
    )


def verify_certificate(forest: Forest, cert: CoverMatchingCertificate) -> list[str]:
    """Machine-check a certificate independently of how it was produced.

    Returns a list of violations; an empty list means the cover hits every
    k-path, the matching is a valid k-matching, and both have equal size.
    """
    problems = []
    k = cert.k
    used: set[int] = set()
    for path in cert.matching.paths:
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
    if len(cert.cover) != len(cert.matching.paths):
        problems.append(
            f"cover size {len(cert.cover)} != matching size {len(cert.matching.paths)}"
        )
    alive = ((1 << forest.n) - 1) & ~cert.cover.bits
    if _longest_path_in_mask(forest, alive) >= k:
        problems.append(f"a {k}-path survives removal of the cover")
    return problems
