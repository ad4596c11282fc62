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
tree, and yields the list alone; ``LevelSequence`` checks the level rule
on each copy. ``forest_from_level_sequence`` decodes a sequence's parent
array (``LevelSequence.parents``). ``map_free_trees`` drives sweeps over
trees or blocks of trees, in this process or in a pool.

Labeled trees come from Pruefer sequences: ``random_labeled_tree``
decodes a uniform random one.
"""

from __future__ import annotations

import os
import random
from typing import Callable, Iterable, Iterator, TypeVar

from .forest import PARENT_NONE, Forest, _Frozen

T = TypeVar("T")
R = TypeVar("R")
# items a pool task carries: a sweep block holds the whole table, so the table
# is pickled once per task, not once per block
POOL_CHUNKSIZE = 16


class LevelSequence(_Frozen):
    """DFS preorder levels of a rooted tree: the root at level 1, then each
    level in 2..previous+1."""

    _fields = ("seq",)

    def __init__(self, seq: tuple[int, ...]) -> None:
        if not seq or seq[0] != 1:
            raise ValueError("level sequence must start at level 1")
        for i in range(1, len(seq)):
            if not 2 <= seq[i] <= seq[i - 1] + 1:
                raise ValueError(f"invalid level {seq[i]} at position {i}")
        self.__dict__["seq"] = seq

    def parents(self) -> list[int]:
        """Parent of vertex i, the i-th preorder visit: the last vertex seen one
        level up, ``PARENT_NONE`` at the root; every parent precedes its children."""
        last = [PARENT_NONE] * (len(self.seq) + 1)  # last vertex seen at each level
        parent = []
        for i, level in enumerate(self.seq):
            parent.append(last[level - 1])
            last[level] = i
        return parent


def forest_from_level_sequence(ls: LevelSequence) -> Forest:
    """The tree of ``ls.parents()``. A valid level sequence is a tree, so
    ``Forest.from_edges`` is not needed; adjacency comes sorted."""
    parent = ls.parents()
    neighbors: list[list[int]] = [[] for _ in parent]
    for i, p in enumerate(parent[1:], 1):
        neighbors[p].append(i)  # children come in preorder, after the parent
        neighbors[i].append(p)
    return Forest(len(parent), tuple([tuple(ns) for ns in neighbors]), None)


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


def level_sequences(n: int) -> Iterator[LevelSequence]:
    """All centroid-canonical level sequences of order n, decreasing."""
    for seq in _walk(n):
        yield LevelSequence(tuple(seq))


def free_trees(n: int) -> Iterator[Forest]:
    """One representative tree per isomorphism class of order n."""
    for ls in level_sequences(n):
        yield forest_from_level_sequence(ls)


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
    return sum(1 for _ in _walk(n))


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
