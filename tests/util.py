"""Shared test helpers: tiny builders, seeded random forests, a brute-force isomorphism oracle,
per-query oracles for the vertex classes and the critical edges, and
definition-level k-path searches on arbitrary graphs."""

from __future__ import annotations

import random
from itertools import combinations

from dissoc.dissociation import alpha3_count_dp, alpha3_forced
from dissoc.errors import TheoremViolation
from dissoc.forest import Forest, VertexSet, parse_edge_list
from dissoc.structure import VertexClassification
from dissoc.treegen import random_labeled_tree


def path(n: int) -> Forest:
    return Forest.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def star(n: int) -> Forest:
    return Forest.from_edges(n, [(0, i) for i in range(1, n)])


def random_forest_with_isolated_vertices(rng: random.Random, max_tree: int) -> Forest:
    """A random tree of order 2..max_tree with about a fifth of its edges
    dropped, plus 1-3 ``vertex`` lines, parsed from shuffled lines."""
    tree = random_labeled_tree(rng.randint(2, max_tree), rng)
    lines = [f"x{u} x{v}" for u, v in tree.edges if rng.random() < 0.8]
    lines += [f"vertex iso{i}" for i in range(rng.randint(1, 3))]
    rng.shuffle(lines)
    forest = parse_edge_list("\n".join(lines))
    assert any(not forest.adjacency[v] for v in range(forest.n))
    return forest


def relabel(forest: Forest, perm: list[int]) -> Forest:
    """Apply vertex permutation: new index of old v is perm[v]."""
    return Forest.from_edges(forest.n, [(perm[u], perm[v]) for u, v in forest.edges])


def brute_isomorphic(a: Forest, b: Forest) -> bool:
    """Backtracking vertex-mapping search; exact, exponential, small n only."""
    if a.n != b.n or len(a.edges) != len(b.edges):
        return False
    if sorted(map(a.degree, range(a.n))) != sorted(map(b.degree, range(b.n))):
        return False
    order = sorted(range(a.n), key=a.degree, reverse=True)
    mapping: dict[int, int] = {}
    used: set[int] = set()

    def extend(i: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        for w in range(b.n):
            if w in used or b.degree(w) != a.degree(v):
                continue
            if any((x in a.adjacency[v]) != (y in b.adjacency[w]) for x, y in mapping.items()):
                continue
            mapping[v] = w
            used.add(w)
            if extend(i + 1):
                return True
            del mapping[v]
            used.discard(w)
        return False

    return extend(0)


def classify_vertices_oracle(forest: Forest) -> VertexClassification:
    """Vertex classes from two forced DPs per vertex."""
    n = forest.n
    alpha = alpha3_count_dp(forest).alpha3
    none = VertexSet.empty(n)
    included = 0
    excluded = 0
    for v in range(n):
        single = VertexSet.from_iterable(n, [v])
        if alpha3_forced(forest, none, single) < alpha:
            included |= 1 << v
        elif alpha3_forced(forest, single, none) < alpha:
            excluded |= 1 << v
    flexible = ((1 << n) - 1) & ~(included | excluded)
    return VertexClassification(
        flexible=VertexSet(flexible, n),
        static_included=VertexSet(included, n),
        static_excluded=VertexSet(excluded, n),
    )


def critical_edges_alpha3_oracle(forest: Forest) -> tuple[tuple[int, int], ...]:
    """Critical edges from one rebuilt forest, one DP and two forced DPs per edge."""
    base = alpha3_count_dp(forest).alpha3
    out = []
    for e in forest.edges:
        reduced = forest.without_edge(*e)
        val = alpha3_count_dp(reduced).alpha3
        if val == base:
            continue
        if val != base + 1:
            raise TheoremViolation(
                f"deleting edge {e} moved alpha3 from {base} to {val}"
            )
        for v in e:
            forced = alpha3_forced(
                reduced, VertexSet.empty(forest.n), VertexSet.from_iterable(forest.n, [v])
            )
            if forced == val:
                raise TheoremViolation(
                    f"critical edge {e}: some optimum of the split forest avoids {v}"
                )
        out.append(e)
    return tuple(out)

# definition-level helpers on arbitrary adjacency lists, used to probe the
# inequality alpha_k + mu_k <= n on small graphs that are not forests
def has_path_of_order(adj: list[list[int]], k: int) -> bool:
    n = len(adj)
    if k <= 1:
        return n >= k

    def extend(v: int, seen: int, length: int) -> bool:
        if length == k:
            return True
        for w in adj[v]:
            if not seen >> w & 1 and extend(w, seen | 1 << w, length + 1):
                return True
        return False

    return any(extend(v, 1 << v, 1) for v in range(n))


def alpha_k_raw(adj: list[list[int]], k: int) -> int:
    n = len(adj)
    for size in range(n, -1, -1):
        for members in combinations(range(n), size):
            remap = {v: i for i, v in enumerate(members)}
            sub = [[remap[w] for w in adj[v] if w in remap] for v in members]
            if not has_path_of_order(sub, k):
                return size
    return 0


def mu_k_raw(adj: list[list[int]], k: int) -> int:
    n = len(adj)
    path_sets: set[int] = set()

    def extend(v: int, seen: int, length: int) -> None:
        if length == k:
            path_sets.add(seen)
            return
        for w in adj[v]:
            if not seen >> w & 1:
                extend(w, seen | 1 << w, length + 1)

    for v in range(n):
        extend(v, 1 << v, 1)
    paths = sorted(path_sets)
    best = 0

    def rec(i: int, used: int, size: int) -> None:
        nonlocal best
        best = max(best, size)
        if size + (n - used.bit_count()) // k <= best:
            return
        for j in range(i, len(paths)):
            if used & paths[j] == 0:
                rec(j + 1, used | paths[j], size + 1)

    rec(0, 0, 0)
    return best
