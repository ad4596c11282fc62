"""Exhaustive generation of free trees, plus labeled-tree oracles.

Free trees come out one per isomorphism class via the classic
successor walk over level sequences in lexicographically decreasing
order: a rooted tree is written as its DFS preorder levels (root at 1),
the successor trims the last deep vertex and re-expands, and a
centroid-canonicality filter keeps exactly one rooted representative of
every free tree (the first root subtree must not be taller, larger, or
lexicographically later than the rest of the tree). A sequence is a
rooted parent array (``LevelSequence.parents``), which the counting DP
reads as it is and ``forest_from_level_sequence`` decodes, without
``Forest.from_edges``. ``map_free_trees`` is the one driver for sweeps
over the trees or level sequences of an order, in this process or in a
pool of worker processes.

Labeled trees come from Pruefer sequences and serve as an independent
oracle: decoding every sequence of length n-2 and deduplicating by
canonical code must produce the same isomorphism classes.
"""

from __future__ import annotations

import multiprocessing
import os
import random
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import product
from typing import Callable, Iterable, Iterator, TypeVar

from .errors import GuardExceeded
from .forest import PARENT_NONE, Forest

PRUEFER_LIMIT = 9

T = TypeVar("T")
R = TypeVar("R")


@dataclass(frozen=True)
class LevelSequence:
    """DFS preorder levels of a rooted tree; the root has level 1."""

    seq: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.seq or self.seq[0] != 1:
            raise ValueError("level sequence must start at level 1")
        for i in range(1, len(self.seq)):
            if not 2 <= self.seq[i] <= self.seq[i - 1] + 1:
                raise ValueError(f"invalid level {self.seq[i]} at position {i}")

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
    edges = sorted((p, i) for i, p in enumerate(parent) if i)
    return Forest(len(parent), tuple(edges), tuple(map(tuple, neighbors)))


def _next_rooted(seq: list[int], p: int | None = None) -> list[int] | None:
    """Successor rooted tree in decreasing lexicographic level order."""
    if p is None:
        p = len(seq) - 1
        while seq[p] == 2:
            p -= 1
    if p == 0:
        return None
    q = p - 1
    while seq[q] != seq[p] - 1:
        q -= 1
    out = list(seq)
    for i in range(p, len(out)):
        out[i] = out[i - p + q]
    return out


def _split(seq: list[int]) -> tuple[list[int], list[int]]:
    """First root subtree (re-rooted at level 1) and the tree without it."""
    m = len(seq)
    seen_child = False
    for i, lvl in enumerate(seq):
        if lvl == 2:
            if seen_child:
                m = i
                break
            seen_child = True
    left = [seq[i] - 1 for i in range(1, m)]
    rest = [1] + seq[m:]
    return left, rest


def _next_free(candidate: list[int]) -> list[int]:
    """Keep a centroid-canonical rooted tree, or jump to the next one."""
    left, rest = _split(candidate)
    left_height = max(left)
    rest_height = max(rest)
    valid = rest_height >= left_height
    if valid and rest_height == left_height:
        if len(left) > len(rest):
            valid = False
        elif len(left) == len(rest) and left > rest:
            valid = False
    if valid:
        return candidate
    p = len(left)
    nxt = _next_rooted(candidate, p)
    assert nxt is not None
    if candidate[p] > 3:
        new_left, _ = _split(nxt)
        suffix = list(range(2, max(new_left) + 2))
        nxt[len(nxt) - len(suffix):] = suffix
    return nxt


def level_sequences(n: int) -> Iterator[LevelSequence]:
    """All centroid-canonical level sequences of order n, decreasing."""
    if n < 1:
        raise ValueError("order must be positive")
    if n == 1:
        yield LevelSequence((1,))
        return
    seq: list[int] | None = list(range(1, n // 2 + 2)) + list(range(2, (n + 1) // 2 + 1))
    while seq is not None:
        nxt = _next_free(seq)
        if nxt is not seq:
            # jumped over non-canonical rootings; validate again before yielding
            seq = nxt
            continue
        yield LevelSequence(tuple(seq))
        seq = _next_rooted(seq)


def free_trees(n: int) -> Iterator[Forest]:
    """One representative tree per isomorphism class of order n."""
    for ls in level_sequences(n):
        yield forest_from_level_sequence(ls)


def map_free_trees(
    items: Iterable[T], fn: Callable[[T], R], jobs: int = 1, chunksize: int = 1
) -> Iterator[R]:
    """``fn`` of every item, in order: ``free_trees(n)`` or ``level_sequences(n)``.

    With ``jobs`` > 1 the items go to a pool of worker processes, at most
    one per CPU; ``fn`` must then be picklable (a module-level function or
    a ``functools.partial`` of one). The results keep the order either way.
    """
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs <= 1:
        yield from map(fn, items)
        return
    with multiprocessing.Pool(jobs) as pool:
        yield from pool.imap(fn, items, chunksize=chunksize)


def free_tree_count(n: int) -> int:
    return sum(1 for _ in level_sequences(n))


def pruefer_decode(seq: tuple[int, ...], n: int) -> Forest:
    """Standard decode: attach the smallest current leaf to each entry."""
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


def labeled_trees_pruefer(n: int, guard: int = PRUEFER_LIMIT) -> Iterator[Forest]:
    """Every labeled tree on n vertices, one per Pruefer sequence."""
    if n < 1:
        raise ValueError("order must be positive")
    if n > guard:
        raise GuardExceeded(f"labeled enumeration limited to n <= {guard}, got {n}")
    for seq in product(range(n), repeat=max(n - 2, 0)):
        yield pruefer_decode(seq, n)


def random_labeled_tree(n: int, rng: random.Random) -> Forest:
    """Uniform random labeled tree via a random Pruefer sequence."""
    seq = tuple(rng.randrange(n) for _ in range(n - 2))
    return pruefer_decode(seq, n)
