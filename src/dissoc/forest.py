"""Forests and trees over dense 0-based vertex indices.

A ``Forest`` keeps its order, per-vertex sorted adjacency, and the
original string labels when it was parsed from text (else None). All
structures are immutable after construction and safe to share between
threads; the edge list, read off the adjacency, and the one BFS that
roots every component at its smallest vertex are computed on first use
and cached. Centroids and an AHU code rooted at the centroid
(Aho, Hopcroft and Ullman, 1974) give isomorphism-level identity for
trees; a canonical code is plain ``bytes``, ordered as bytes. The code
folds a reversed BFS and holds only the open frontier, O(n) bytes,
though copying them costs O(n * depth). ``Forest.from_edges``
validates the edges of every input but a validated level sequence, which
``treegen`` decodes directly as a tree. ``Forest`` and ``VertexSet`` refuse
field assignment; they compare and hash by their fields, never by the cache.

Edge-list text format: one edge per line as two whitespace-separated
labels, ``#`` starts a comment, and ``vertex <label>`` declares an
isolated vertex. Labels are mapped to dense indices in order of first
appearance.
"""

from __future__ import annotations

from functools import cached_property
from itertools import compress, count
from typing import Iterable, Iterator

from .errors import ParseError

PARENT_NONE = -1


class _EdgeError(ValueError):
    """An invalid edge; ``position`` is its index in the edge sequence."""

    def __init__(self, message: str, position: int):
        super().__init__(message)
        self.position = position


class _Frozen:
    """Record over the attributes named in ``_fields``, built from positional or
    keyword values, one for every field: compared, hashed and shown by them
    alone; ``__init__`` fills ``__dict__``, and assignment is refused."""

    _fields: tuple[str, ...] = ()

    def __init__(self, *args, **kwargs) -> None:
        d, fields = self.__dict__, self._fields
        # a dict, not pairs: CPython 3.11 then gives a positional build a keyword build's dict
        d.update(dict(zip(fields, args)))
        d.update(kwargs)
        # each field once: none given twice, none past the last, none left out, none unknown
        if (not len(args) + len(kwargs) == len(d) == len(fields)
                or kwargs and not kwargs.keys() <= set(fields)):
            raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(fields)}; "
                            f"got {len(args)} positional and keywords {sorted(kwargs)}")

    def _key(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other: object) -> bool:
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._key()))
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__


class VertexSet(_Frozen):
    """Bit-indexed vertex subset over 0..n-1."""

    _fields = ("bits", "n")

    def __init__(self, bits: int, n: int) -> None:  # faster: enumeration builds one per set
        d = self.__dict__
        d["bits"], d["n"] = bits, n

    @classmethod
    def from_iterable(cls, n: int, members: Iterable[int]) -> "VertexSet":
        bits = 0
        for v in members:
            if not 0 <= v < n:
                raise ValueError(f"vertex {v} out of range for n={n}")
            bits |= 1 << v
        return cls(bits, n)

    def members(self) -> tuple[int, ...]:
        return tuple(self)

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.n and (self.bits >> v) & 1 == 1

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __iter__(self) -> Iterator[int]:
        # the binary digits, lowest first, with each "0" a false byte: one pass in C
        return compress(count(), bin(self.bits)[:1:-1].encode().replace(b"0", b"\0"))


class Forest(_Frozen):
    """Undirected simple acyclic graph on vertices 0..n-1."""

    _fields = ("n", "adjacency", "labels")  # labels: tuple[str, ...] | None

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Iterable[tuple[int, int]],
        labels: tuple[str, ...] | None = None,
    ) -> "Forest":
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        if labels is not None and len(labels) != n:
            raise ValueError("labels must cover all vertices")
        name = labels.__getitem__ if labels is not None else str
        uf = list(range(n))

        def find(x: int) -> int:
            while uf[x] != x:
                uf[x] = uf[uf[x]]
                x = uf[x]
            return x

        neighbors: list[list[int]] = [[] for _ in range(n)]
        for i, (u, v) in enumerate(edges):
            if not (0 <= u < n and 0 <= v < n):
                raise _EdgeError(f"edge ({u}, {v}) out of range for n={n}", i)
            if u == v:
                raise _EdgeError(f"self-loop at vertex {name(u)}", i)
            ru, rv = find(u), find(v)
            if ru == rv:  # an edge given twice joins two vertices already joined
                if v in neighbors[u]:
                    raise _EdgeError(f"duplicate edge {name(u)} {name(v)}", i)
                raise _EdgeError(f"edge {name(u)} {name(v)} closes a cycle", i)
            uf[ru] = rv
            neighbors[u].append(v)
            neighbors[v].append(u)
        return cls(n, tuple([tuple(sorted(ns)) for ns in neighbors]), labels)

    def label(self, v: int) -> str:
        return self.labels[v] if self.labels is not None else str(v)

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Each edge once as (smaller, larger), ascending: the sorted adjacency, read in order."""
        return tuple([(u, v) for u, ns in enumerate(self.adjacency) for v in ns if u < v])

    @cached_property
    def bfs(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(order, parent) of a BFS over every component, each rooted at its
        smallest vertex; components follow one another in that order."""
        parent = [PARENT_NONE] * self.n
        seen = [False] * self.n
        order: list[int] = []
        for start in range(self.n):
            if seen[start]:
                continue
            seen[start] = True
            comp = [start]
            for v in comp:
                for w in self.adjacency[v]:
                    if not seen[w]:
                        seen[w] = True
                        parent[w] = v
                        comp.append(w)
            order += comp
        return tuple(order), tuple(parent)

    def components(self) -> tuple[tuple[int, ...], ...]:
        """Connected components in BFS order, keyed by smallest vertex."""
        order, parent = self.bfs
        out: list[list[int]] = []
        for v in order:
            if parent[v] == PARENT_NONE:
                out.append([])
            out[-1].append(v)
        return tuple(map(tuple, out))

    @cached_property
    def is_connected(self) -> bool:
        return self.bfs[1].count(PARENT_NONE) <= 1

    @cached_property
    def is_tree(self) -> bool:
        return self.n >= 1 and self.is_connected  # a forest has no cycle

    def without_edge(self, u: int, v: int) -> "Forest":
        e = (u, v) if u < v else (v, u)
        if e not in self.edges:
            raise ValueError(f"no edge {e}")
        return Forest.from_edges(self.n, (x for x in self.edges if x != e), self.labels)


def centroids(forest: Forest) -> tuple[int, ...]:
    """The one or two vertices minimizing the largest component left by their removal."""
    if not forest.is_tree:
        raise ValueError("centroids are defined on connected trees")
    order, parent = forest.bfs
    n = forest.n
    size = [1] * n
    heaviest = [0] * n
    for v in reversed(order):
        p = parent[v]
        if p != PARENT_NONE:
            size[p] += size[v]
            heaviest[p] = max(heaviest[p], size[v])
    best = n + 1
    out = []
    for v in range(n):
        weight = max(heaviest[v], n - size[v])
        if weight < best:
            best = weight
            out = [v]
        elif weight == best:
            out.append(v)
    return tuple(out)


def _ahu_code(forest: Forest, root: int) -> bytes:
    """AHU code rooted at ``root``; a vertex's children are its neighbours already
    coded, and a parent pops their codes, so ``code`` holds at most 2n bytes."""
    order, seen = [root], [False] * forest.n
    seen[root] = True
    for v in order:
        for w in forest.adjacency[v]:
            if not seen[w]:
                seen[w] = True
                order.append(w)
    code: dict[int, bytes] = {}
    for v in reversed(order):
        kids = sorted([code.pop(w) for w in forest.adjacency[v] if w in code])
        code[v] = b"(" + b"".join(kids) + b")"
    return code[root]


def canonical_code(forest: Forest) -> bytes:
    """AHU code rooted at the centroid; for two centroids, the smaller of both codes.
    Equal iff the trees are isomorphic; the ASCII of ``(`` and ``)``."""
    if not forest.is_tree:
        raise ValueError("canonical codes are defined on connected trees")
    return min(_ahu_code(forest, c) for c in centroids(forest))


def parse_edge_list(text: str) -> Forest:
    """Parse the edge-list text format into a Forest.

    Raises ParseError naming the offending line on malformed lines,
    self-loops, duplicate edges, and cycles; the last three are found by
    ``Forest.from_edges``.
    """
    index: dict[str, int] = {}
    order: list[str] = []

    def vid(token: str) -> int:
        if token not in index:
            index[token] = len(order)
            order.append(token)
        return index[token]

    edges: list[tuple[int, int]] = []
    edge_lines: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "vertex":
            if len(tokens) != 2:
                raise ParseError(f"line {lineno}: vertex declaration needs one label: {raw!r}")
            vid(tokens[1])
            continue
        if len(tokens) != 2:
            raise ParseError(f"line {lineno}: expected two labels: {raw!r}")
        edges.append((vid(tokens[0]), vid(tokens[1])))
        edge_lines.append(lineno)
    try:
        return Forest.from_edges(len(order), edges, labels=tuple(order))
    except _EdgeError as exc:
        raise ParseError(f"line {edge_lines[exc.position]}: {exc}") from exc


def serialize_edge_list(forest: Forest) -> str:
    """Canonical text: edges sorted by (min, max) index, isolated vertices declared,
    in one pass over the sorted adjacency: each vertex declares itself if isolated,
    else writes its edges to larger neighbours."""
    return "".join(
        "".join(f"{v} {w}\n" for w in ns if w > v) if ns else f"vertex {v}\n"
        for v, ns in enumerate(forest.adjacency)
    )


def normalize_indices(forest: Forest) -> Forest:
    """Relabel by per-component BFS so serialization round-trips through parsing."""
    order = forest.bfs[0]
    new_of_old = {old: new for new, old in enumerate(order)}
    edges = [(new_of_old[u], new_of_old[v]) for u, v in forest.edges]
    labels = None
    if forest.labels is not None:
        labels = tuple(forest.labels[old] for old in order)
    return Forest.from_edges(forest.n, edges, labels=labels)
