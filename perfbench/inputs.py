"""Seeded tree inputs and the benchmark's own oracle for them.

Trees are uniform random labelled trees, decoded from a random Pruefer
sequence drawn from ``random.Random(seed)``; the benchmark writes them as
edge-list files, so the program receives only the files. Vertex ``i`` is
labelled ``str(i)`` and declared in order, so label order is index order.

``mds_count`` is an independent tree DP for the maximum dissociation set
size and the number of such sets; it shares no code with ``dissoc``.
"""

from __future__ import annotations

import heapq
import random
from pathlib import Path

Tree = list[list[int]]  # adjacency lists


def random_tree(n: int, rng: random.Random) -> Tree:
    """Uniform random labelled tree on 0..n-1 (Pruefer decoding)."""
    adj: Tree = [[] for _ in range(n)]
    if n < 2:
        return adj
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in seq:
        leaf = heapq.heappop(leaves)
        adj[leaf].append(v)
        adj[v].append(leaf)
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u, v = heapq.heappop(leaves), heapq.heappop(leaves)
    adj[u].append(v)
    adj[v].append(u)
    return adj


def edge_list(adj: Tree) -> str:
    lines = [f"vertex {v}" for v in range(len(adj))]
    lines += [f"{u} {v}" for u in range(len(adj)) for v in adj[u] if u < v]
    return "\n".join(lines) + "\n"


def write_tree(path: Path, adj: Tree) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(edge_list(adj), encoding="utf-8")


def _best(*options: tuple[int, int]) -> tuple[int, int]:
    """(size, count) pairs: the largest size, with the counts of all that reach it."""
    size = max(s for s, _ in options)
    return size, sum(c for s, c in options if s == size)


def mds_count(adj: Tree) -> tuple[int, int]:
    """(alpha3, number of maximum dissociation sets) of a tree, by DP from vertex 0.

    Per vertex, over its subtree: ``out`` = vertex not in the set; ``alone`` =
    in the set with no child in it; ``paired`` = in the set with exactly one
    child in it, that child being ``alone``.
    """
    n = len(adj)
    if n == 0:
        return 0, 1
    parent = [-1] * n
    order = [0]
    for v in order:
        for w in adj[v]:
            if w != parent[v]:
                parent[w] = v
                order.append(w)
    out, alone, paired = [None] * n, [None] * n, [None] * n
    for v in reversed(order):
        kids = [w for w in adj[v] if w != parent[v]]
        o_size, o_count = 0, 1
        a_size, a_count = 1, 1
        for w in kids:
            s, c = _best(out[w], alone[w], paired[w])
            o_size, o_count = o_size + s, o_count * c
            a_size, a_count = a_size + out[w][0], a_count * out[w][1]
        out[v], alone[v] = (o_size, o_count), (a_size, a_count)
        # one child alone, the others out
        pairs = [
            (a_size - out[w][0] + alone[w][0], a_count // out[w][1] * alone[w][1]) for w in kids
        ]
        paired[v] = _best(*pairs) if pairs else (-1, 0)
    return _best(out[0], alone[0], paired[0])


def is_dissociation_set(adj: Tree, members: list[int]) -> bool:
    """Every member has at most one neighbour in the set."""
    inside = set(members)
    return all(sum(w in inside for w in adj[v]) <= 1 for v in inside)

