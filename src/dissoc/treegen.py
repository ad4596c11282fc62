"""Exhaustive generation of free trees, plus random labeled trees.

Free trees come out one per isomorphism class via the successor walk over
level sequences in lexicographically decreasing order (Beyer and
Hedetniemi, 1980; Wright, Richmond, Odlyzko and McKay, 1986): a rooted
tree is written as its DFS preorder levels (root at 1), the successor
trims the last deep vertex and re-expands, and a centroid-canonicality
filter keeps exactly one rooted representative of every free tree (the
first root subtree must not be taller, larger, or lexicographically later
than the rest of the tree). ``_walk`` rewrites one list in place and
re-reads only the suffix each step wrote, in constant amortized time per
tree, and yields the list alone. ``forest_from_level_sequence`` is the one
way a level sequence becomes a tree: a single pass checks the level rule
and builds the adjacency, with no copy of the sequence. ``free_tree_count``
needs no walk: Otter's formula (Otter, 1948) gives the number of free trees
from the numbers of rooted trees. ``map_free_trees`` drives sweeps over
trees or blocks of trees, in this process or in a pool.

Labeled trees come from Pruefer sequences: ``random_labeled_tree``
decodes a uniform random one.
"""

from __future__ import annotations

import os
import random
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from .forest import Forest

T = TypeVar("T")
R = TypeVar("R")
# items a pool task carries: a sweep block holds the whole table, so the table
# is pickled once per task, not once per block
POOL_CHUNKSIZE = 16


def forest_from_level_sequence(seq: Sequence[int]) -> Forest:
    """The rooted tree of DFS preorder levels ``seq``: the root at level 1, then
    each level in 2..previous+1, else ``ValueError``. Vertex i is the i-th
    visit, and its parent the last vertex seen one level up, so every parent
    precedes its children, the tree needs no ``Forest.from_edges`` check, and
    adjacency comes sorted."""
    if not seq or seq[0] != 1:
        raise ValueError("level sequence must start at level 1")
    neighbors: list[list[int]] = [[]]
    last = [0] * (len(seq) + 1)  # last vertex seen at each level: the root at 1
    for i in range(1, len(seq)):
        level = seq[i]
        if not 2 <= level <= seq[i - 1] + 1:
            raise ValueError(f"invalid level {level} at position {i}")
        p = last[level - 1]
        neighbors[p].append(i)  # children come in preorder, after the parent
        neighbors.append([p])
        last[level] = i
    return Forest(len(neighbors), tuple([tuple(ns) for ns in neighbors]), None)


def _walk(n: int) -> Iterator[list[int]]:
    """The walk of order n: one list, rewritten in place, holds each canonical
    level sequence in turn."""
    if n < 1:
        raise ValueError("order must be positive")
    seq = list(range(1, n // 2 + 2)) + list(range(2, (n + 1) // 2 + 1))
    # m ends the first root subtree (the second level 2, or n); top[i]: peak of i's part to i
    top, m, lo, grow = [1] * n, 0, 0, False
    while True:
        if lo <= m:  # seq[2:lo] is unchanged and holds no level 2
            m = min(max(lo, 2), n)
            while m < n and seq[m] != 2:
                m += 1
        for i in range(lo or 1, n):
            top[i] = seq[i] if i == m else max(top[i - 1], seq[i])
        lo, low, high = n, top[m - 1] - 1, top[-1] if m < n else 1  # heights: first subtree, rest
        if grow:  # finish a jump: end the rest with a path as tall as the first subtree
            seq[n - low:] = range(2, low + 2)
            lo, grow = n - low, False
            continue
        size, rest = m - 1, n - m + 1
        if high > low or high == low and (size < rest or size == rest
                                          and [v - 1 for v in seq[1:m]] <= [1] + seq[m:]):
            yield seq
            p = n - 1  # successor: trim the last vertex above level 2
            while seq[p] == 2:
                p -= 1
            if p == 0:
                return
        else:  # not centroid-canonical: jump past every rooting with this first subtree
            p, grow = m - 1, seq[m - 1] > 3
        q = p - 1
        while seq[q] != seq[p] - 1:
            q -= 1
        for i in range(p, n):  # re-expand from p by repeating the subtree at q
            seq[i] = seq[i - p + q]
        lo = p


def free_trees(n: int) -> Iterator[Forest]:
    """One representative tree per isomorphism class of order n."""
    for seq in _walk(n):
        yield forest_from_level_sequence(seq)


def map_free_trees(items: Iterable[T], fn: Callable[[T], R], jobs: int = 1) -> Iterator[R]:
    """``fn`` of every item, in order: the trees of an order or blocks of them.

    With ``jobs`` > 1 the items go to a pool of worker processes, at most
    one per CPU, ``POOL_CHUNKSIZE`` items a task; ``fn`` must then be picklable
    (a module-level function or a ``functools.partial`` of one). The results
    keep the order either way.
    """
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs <= 1:
        yield from map(fn, items)
        return
    import multiprocessing  # only a pool needs it, and it takes about 11 ms to import

    with multiprocessing.Pool(jobs) as pool:
        yield from pool.imap(fn, items, chunksize=POOL_CHUNKSIZE)


def free_tree_count(n: int) -> int:
    """A000055(n) by Otter's formula over the rooted counts r = A000081:
    r(n) - sum of r(i)*r(n-i) over 1 <= i < n/2, less C(r(n/2), 2) for even n.
    r comes from its Euler-transform recurrence, r(m+1) = (1/m) * sum over
    k = 1..m of s(k)*r(m-k+1), with s(k) the sum of d*r(d) over the divisors d
    of k; no tree is built."""
    if n < 1:
        raise ValueError("order must be positive")
    r, s = [0, 1], [0] * n
    for m in range(1, n):
        for k in range(m, n, m):  # r(m) joins s at each multiple of m
            s[k] += m * r[m]
        r.append(sum(s[k] * r[m - k + 1] for k in range(1, m + 1)) // m)
    half = r[n // 2] if n % 2 == 0 else 0
    return r[n] - sum(r[i] * r[n - i] for i in range(1, (n + 1) // 2)) - half * (half - 1) // 2


def pruefer_decode(seq: tuple[int, ...], n: int) -> Forest:
    """Standard decode: attach the smallest current leaf to each entry."""
    from heapq import heapify, heappop, heappush  # only this decode needs a heap

    if n < 1:
        raise ValueError("order must be positive")
    if n == 1:
        return Forest.from_edges(1, [])
    if len(seq) != n - 2:
        raise ValueError(f"sequence length must be {n - 2}")
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapify(leaves)
    edges = []
    for x in seq:
        leaf = heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heappush(leaves, x)
    edges.append((heappop(leaves), heappop(leaves)))
    return Forest.from_edges(n, edges)


def random_labeled_tree(n: int, rng: random.Random) -> Forest:
    """Uniform random labeled tree via a random Pruefer sequence."""
    seq = tuple(rng.randrange(n) for _ in range(n - 2))
    return pruefer_decode(seq, n)
