"""Shared test helpers: the names of the structure checks in report order, a record copy with
fields changed, tiny builders, seeded random forests, a brute-force isomorphism oracle, every
labeled tree of an order, every valid level sequence of an order, the allocating successor walk
over the canonical ones, a level-sequence decoder through the validating constructor, the
dissociation-set test, the subset scan for every maximum dissociation set, a second counting DP
with its own state layout, per-query oracles for the vertex classes and the critical edges
built on it, the critical-edge grouping from a built forest, the structure checks over every
listed maximum set and as count identities over membership counts, the masked vertex classes by
subset scan, the constructive maximum set, the per-edge mu3 loop, the two-BFS longest path in a
vertex mask, exact k-path packing and cover searches on forests, and definition-level k-path
searches on arbitrary graphs."""

from __future__ import annotations

import random
import signal
from contextlib import contextmanager
from itertools import combinations, product

from dissoc.dissociation import enumerate_mds
from dissoc.errors import GuardExceeded, TheoremViolation
from dissoc.forest import PARENT_NONE, Forest, VertexSet, centroids, parse_edge_list
from dissoc.kpath import greedy_cover_matching
from dissoc.structure import (
    CheckResult,
    CriticalStructure,
    VertexClassification,
    critical_structure,
)
from dissoc.treegen import LevelSequence, pruefer_decode, random_labeled_tree

BRUTE_FORCE_LIMIT = 26
PRUEFER_LIMIT = 9
MU_BRUTE_LIMIT = 18
TAU_BRUTE_LIMIT = 26

# spelled out, not read from the registry: a renamed or reordered check fails the tests
CHECK_NAMES = (
    "flexible_iff_critical_endpoint",
    "critical_components_are_edge_or_3path",
    "insulated_endpoint_anchored_in_static_included",
    "triple_avoids_static_included",
    "count_within_branching_bound",
    "alpha3_equals_static_plus_critical",
    "static_excluded_neighbor_rule",
    "every_mds_hits_each_critical_edge",
    "mds_meets_exact_pattern",
    "critical_edge_sets_coincide",
)


def replaced(record, **changes):
    """A copy of a ``dissoc`` record with the named fields changed."""
    fields = {f: changes.pop(f, getattr(record, f)) for f in record._fields}
    return type(record)(**fields, **changes)  # a name left in changes is refused


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


def labeled_trees_pruefer(n: int, guard: int = PRUEFER_LIMIT):
    """Every labeled tree on n vertices, one per Pruefer sequence."""
    if n < 1:
        raise ValueError("order must be positive")
    if n > guard:
        raise GuardExceeded(f"labeled enumeration limited to n <= {guard}, got {n}")
    for seq in product(range(n), repeat=max(n - 2, 0)):
        yield pruefer_decode(seq, n)


def every_level_sequence(n: int):
    """Every valid level sequence of order n, canonical for its free tree or not."""
    stack = [(1,)]
    while stack:
        seq = stack.pop()
        if len(seq) == n:
            yield LevelSequence(seq)
            continue
        stack.extend(seq + (lvl,) for lvl in range(2, seq[-1] + 2))


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


def level_sequences_oracle(n: int):
    """All centroid-canonical level sequences of order n, decreasing: the
    successor walk that copies the list at every step and splits it afresh."""
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


def forest_from_level_sequence_oracle(ls: LevelSequence) -> Forest:
    """Stack decode of preorder levels, validated by ``Forest.from_edges``."""
    seq = ls.seq
    edges = []
    stack: list[int] = []
    for i, lvl in enumerate(seq):
        while stack and seq[stack[-1]] >= lvl:
            stack.pop()
        if stack:
            edges.append((stack[-1], i))
        stack.append(i)
    return Forest.from_edges(len(seq), edges)


def is_dissociation_set(forest: Forest, vs: VertexSet) -> bool:
    """True iff the subset induces maximum degree at most one."""
    bits = vs.bits
    for v in vs:
        inside = 0
        for w in forest.adjacency[v]:
            inside += (bits >> w) & 1
            if inside > 1:
                return False
    return True


def brute_force_mds(forest: Forest, guard: int = BRUTE_FORCE_LIMIT) -> tuple[int, list[VertexSet]]:
    """Definition-level oracle: scan all vertex subsets.

    Returns the dissociation number together with every maximum
    dissociation set, sorted lexicographically by member tuple.
    """
    n = forest.n
    if n > guard:
        raise GuardExceeded(f"brute force limited to n <= {guard}, got {n}")
    masks = forest.adjacency_masks()
    best = -1
    found: list[int] = []
    for subset in range(1 << n):
        size = subset.bit_count()
        if size < best:
            continue
        bits = subset
        ok = True
        while bits:
            low = bits & -bits
            v = low.bit_length() - 1
            if (masks[v] & subset).bit_count() > 1:
                ok = False
                break
            bits ^= low
        if not ok:
            continue
        if size > best:
            best = size
            found = [subset]
        else:
            found.append(subset)
    sets = sorted((VertexSet(bits, n) for bits in found), key=VertexSet.members)
    return best, sets


def dp_forest(forest: Forest, include_bits: int = 0, exclude_bits: int = 0) -> tuple[int, int]:
    """Best size and count of optimum dissociation sets honoring the two masks.

    Returns (-1, 0) when no set contains all of ``include_bits`` while
    avoiding ``exclude_bits``.
    """
    n = forest.n
    # per-vertex accumulators over the children folded so far:
    #   ex: parent excluded, children free to take their best states
    #   a0: parent included, every folded child excluded
    #   a1: parent included, exactly one folded child is its partner
    ex_s = [0] * n
    ex_w = [1] * n
    a0_s = [0] * n
    a0_w = [1] * n
    a1_s = [-1] * n
    a1_w = [0] * n
    order, parent = forest.bfs
    total_s = 0
    total_w = 1
    for v in reversed(order):
        # close out v's three states from its accumulators
        exc_s, exc_w = ex_s[v], ex_w[v]
        if a0_s[v] >= 0:
            unm_s, unm_w = a0_s[v] + 1, a0_w[v]
        else:
            unm_s, unm_w = -1, 0
        if a1_s[v] >= 0:
            mat_s, mat_w = a1_s[v] + 1, a1_w[v]
        else:
            mat_s, mat_w = -1, 0
        bit = 1 << v
        if include_bits & bit:
            exc_s, exc_w = -1, 0
        if exclude_bits & bit:
            unm_s, unm_w = -1, 0
            mat_s, mat_w = -1, 0
        p = parent[v]
        if p == PARENT_NONE:
            best = exc_s
            if unm_s > best:
                best = unm_s
            if mat_s > best:
                best = mat_s
            if best < 0:
                return -1, 0
            ways = 0
            if exc_s == best:
                ways += exc_w
            if unm_s == best:
                ways += unm_w
            if mat_s == best:
                ways += mat_w
            total_s += best
            total_w *= ways
            continue
        # fold v into p: p excluded lets v take its best state
        b = exc_s
        if unm_s > b:
            b = unm_s
        if mat_s > b:
            b = mat_s
        if b < 0:
            ex_s[p], ex_w[p] = -1, 0
        elif ex_s[p] >= 0:
            bw = 0
            if exc_s == b:
                bw += exc_w
            if unm_s == b:
                bw += unm_w
            if mat_s == b:
                bw += mat_w
            ex_s[p] += b
            ex_w[p] *= bw
        # p included: v is either excluded or the unique partner child,
        # in which case v must still be partner-free inside its subtree
        old0_s, old0_w = a0_s[p], a0_w[p]
        c1_s = a1_s[p] + exc_s if a1_s[p] >= 0 and exc_s >= 0 else -1
        c1_w = a1_w[p] * exc_w if c1_s >= 0 else 0
        c2_s = old0_s + unm_s if old0_s >= 0 and unm_s >= 0 else -1
        c2_w = old0_w * unm_w if c2_s >= 0 else 0
        if c1_s > c2_s:
            a1_s[p], a1_w[p] = c1_s, c1_w
        elif c2_s > c1_s:
            a1_s[p], a1_w[p] = c2_s, c2_w
        elif c1_s < 0:
            a1_s[p], a1_w[p] = -1, 0
        else:
            a1_s[p], a1_w[p] = c1_s, c1_w + c2_w
        if old0_s >= 0 and exc_s >= 0:
            a0_s[p] = old0_s + exc_s
            a0_w[p] = old0_w * exc_w
        else:
            a0_s[p], a0_w[p] = -1, 0
    return total_s, total_w


def classify_vertices_oracle(forest: Forest) -> VertexClassification:
    """Vertex classes from two forced DPs per vertex."""
    n = forest.n
    alpha = dp_forest(forest)[0]
    included = 0
    excluded = 0
    for v in range(n):
        if dp_forest(forest, 0, 1 << v)[0] < alpha:
            included |= 1 << v
        elif dp_forest(forest, 1 << v, 0)[0] < alpha:
            excluded |= 1 << v
    flexible = ((1 << n) - 1) & ~(included | excluded)
    return VertexClassification(
        flexible=VertexSet(flexible, n),
        static_included=VertexSet(included, n),
        static_excluded=VertexSet(excluded, n),
    )


def critical_edges_alpha3_oracle(forest: Forest) -> tuple[tuple[int, int], ...]:
    """Critical edges from one rebuilt forest, one DP and two forced DPs per edge."""
    base = dp_forest(forest)[0]
    out = []
    for e in forest.edges:
        reduced = forest.without_edge(*e)
        val = dp_forest(reduced)[0]
        if val == base:
            continue
        if val != base + 1:
            raise TheoremViolation(
                f"deleting edge {e} moved alpha3 from {base} to {val}"
            )
        for v in e:
            if dp_forest(reduced, 0, 1 << v)[0] == val:
                raise TheoremViolation(
                    f"critical edge {e}: some optimum of the split forest avoids {v}"
                )
        out.append(e)
    return tuple(out)


def group_critical_edges_oracle(n: int, crit: list[tuple[int, int]]):
    """``structure._group_critical_edges`` from the components of a forest of all n
    vertices built on the given edges."""
    critical = Forest.from_edges(n, crit)
    insulated = []
    triples = []
    for comp in critical.components():
        if len(comp) == 2:
            insulated.append(comp)  # BFS from the smaller end: already sorted
        elif len(comp) == 3:
            mid = next(v for v in comp if critical.degree(v) == 2)
            ends = sorted(v for v in comp if v != mid)
            triples.append((ends[0], mid, ends[1]))
        elif len(comp) > 3:
            edges = sorted(e for e in crit if e[0] in comp)
            return None, None, f"critical component with {len(edges)} edges: {edges}"
    return tuple(sorted(insulated)), tuple(sorted(triples)), None


def enumerated_structure_checks(
    forest: Forest, structure: CriticalStructure
) -> dict[str, CheckResult]:
    """``every_mds_hits_each_critical_edge`` and ``mds_meets_exact_pattern``
    checked set by set over every listed maximum set."""

    def outcome(bad: str | None) -> CheckResult:
        return CheckResult("fail", bad) if bad else CheckResult("pass")

    sets = list(enumerate_mds(forest))
    missing = (
        f"set {s.members()} misses critical edge {e}"
        for s in sets
        for e in structure.critical_edges
        if e[0] not in s and e[1] not in s
    )
    checks = {"every_mds_hits_each_critical_edge": outcome(next(missing, None))}
    if structure.grouping_failure:
        checks["mds_meets_exact_pattern"] = CheckResult("skipped", "critical structure unavailable")
        return checks
    wrong = (
        f"set {s.members()} takes {took} of {part}"
        for s in sets
        for part, want in [(e, 1) for e in structure.insulated_edges]
        + [(t, 2) for t in structure.critical_triples]
        if (took := sum(v in s for v in part)) != want
    )
    checks["mds_meets_exact_pattern"] = outcome(next(wrong, None))
    return checks


def containing_and_missed(forest: Forest, structure: CriticalStructure):
    """(number of maximum sets holding each vertex, number holding neither end of each
    critical edge of ``structure``), from forced runs of the second DP ``dp_forest``."""
    alpha = dp_forest(forest)[0]

    def optima(include: int = 0, exclude: int = 0) -> int:
        size, ways = dp_forest(forest, include, exclude)
        return ways if size == alpha else 0

    containing = tuple(optima(include=1 << v) for v in range(forest.n))
    missed = tuple(optima(exclude=1 << u | 1 << v) for u, v in structure.critical_edges)
    return containing, missed


def count_identity_checks(forest: Forest, structure: CriticalStructure) -> dict[str, CheckResult]:
    """``every_mds_hits_each_critical_edge`` and ``mds_meets_exact_pattern`` as count
    identities over ``containing_and_missed``. With N maximum sets and N(v) of them holding
    v: every set meets a critical edge iff none holds neither end; takes exactly one end of
    an insulated edge (u, v) iff also N(u) + N(v) = N, which counts the sets holding both
    ends twice; and takes exactly two vertices of a critical 3-path iff their N sum to 2N,
    as no dissociation set holds all three vertices of a path."""

    def outcome(bad: str | None) -> CheckResult:
        return CheckResult("fail", bad) if bad else CheckResult("pass")

    count = dp_forest(forest)[1]
    holding, missed_list = containing_and_missed(forest, structure)
    missed = dict(zip(structure.critical_edges, missed_list))
    checks = {"every_mds_hits_each_critical_edge": outcome(next(
        (f"{m} maximum sets hold neither end of critical edge {e}" for e, m in missed.items() if m),
        None,
    ))}
    if structure.grouping_failure:
        checks["mds_meets_exact_pattern"] = CheckResult("skipped", "critical structure unavailable")
        return checks
    wrong = (
        f"{part}: maximum sets hold {held} of its vertices, not {want} * {count}"
        for part, want in [(e, 1) for e in structure.insulated_edges]
        + [(t, 2) for t in structure.critical_triples]
        if (held := sum(holding[v] for v in part)) != want * count
        or (want == 1 and missed[part])
    )
    checks["mds_meets_exact_pattern"] = outcome(next(wrong, None))
    return checks


def brute_force_masked_classes(forest: Forest, include: int, exclude: int):
    """(held by every optimum, held by none) over the dissociation sets that hold
    ``include`` and avoid ``exclude``, by scanning every subset of the other vertices;
    None when no such set exists."""
    n = forest.n
    if n > BRUTE_FORCE_LIMIT:
        raise GuardExceeded(f"brute force limited to n <= {BRUTE_FORCE_LIMIT}, got {n}")
    masks = forest.adjacency_masks()
    free = ((1 << n) - 1) & ~(include | exclude)
    best, every, some = -1, 0, 0
    sub = free
    while True:
        s = sub | include
        if all((masks[v] & s).bit_count() <= 1 for v in range(n) if s >> v & 1):
            size = s.bit_count()
            if size > best:
                best, every, some = size, s, s
            elif size == best:
                every, some = every & s, some | s
        if not sub:
            break
        sub = (sub - 1) & free
    return None if best < 0 else (every, ((1 << n) - 1) & ~some)


def root_at(forest: Forest, root: int) -> tuple[list[int], list[int], list[int]]:
    """(parent, level, BFS order) of a connected tree rooted at ``root``."""
    if not 0 <= root < forest.n:
        raise ValueError(f"root {root} out of range")
    if not forest.is_tree:
        raise ValueError("input is disconnected; root each component separately")
    parent = [PARENT_NONE] * forest.n
    level = [0] * forest.n
    order = [root]
    seen = [False] * forest.n
    seen[root] = True
    for v in order:
        for w in forest.adjacency[v]:
            if not seen[w]:
                seen[w] = True
                parent[w] = v
                level[w] = level[v] + 1
                order.append(w)
    return parent, level, order


def ahu_code_oracle(forest: Forest) -> bytes:
    """``canonical_code``'s bytes from one nested byte string per vertex: the AHU
    code rooted at each centroid, children's codes sorted, the smaller of both."""

    def code_at(root: int) -> bytes:
        parent, _, order = root_at(forest, root)
        kids: list[list[int]] = [[] for _ in parent]
        for v, p in enumerate(parent):
            if p != PARENT_NONE:
                kids[p].append(v)
        code = [b""] * forest.n
        for v in reversed(order):
            code[v] = b"(" + b"".join(sorted(code[c] for c in kids[v])) + b")"
        return code[root]

    return min(code_at(c) for c in centroids(forest))


def build_canonical_mds(forest: Forest, root: int) -> VertexSet:
    """Constructive maximum dissociation set: all static-included vertices
    plus the deeper endpoint of every critical edge for the given root."""
    _, level, _ = root_at(forest, root)
    struct = critical_structure(forest)
    bits = struct.classes.static_included.bits
    for u, v in struct.critical_edges:
        deeper = u if level[u] > level[v] else v
        bits |= 1 << deeper
    result = VertexSet(bits, forest.n)
    if not is_dissociation_set(forest, result) or len(result) != struct.alpha3:
        raise TheoremViolation(
            f"constructive set {result.members()} at root {root} is not a maximum "
            f"dissociation set (alpha3={struct.alpha3})"
        )
    return result


@contextmanager
def deadline(seconds: float):
    """Fail with TimeoutError when the block runs longer than ``seconds`` (POSIX main thread),
    so a quadratic loop at a large order fails instead of hanging."""

    def expire(signum, frame):
        raise TimeoutError(f"ran longer than {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _mu3(forest: Forest) -> int:
    return len(greedy_cover_matching(forest, 3).matching.paths)


def critical_edges_mu3_oracle(forest: Forest) -> tuple[tuple[int, int], ...]:
    """Edges whose deletion lowers mu3 (by exactly one), from one rebuilt forest
    and one greedy run per edge."""
    base = _mu3(forest)
    out = []
    for e in forest.edges:
        val = _mu3(forest.without_edge(*e))
        if val == base:
            continue
        if val != base - 1:
            raise TheoremViolation(f"deleting edge {e} moved mu3 from {base} to {val}")
        out.append(e)
    return tuple(out)


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


def longest_path_in_mask(forest: Forest, mask: int) -> int:
    """Longest path order inside the induced subforest on the mask: per component,
    a BFS from its least vertex to the farthest one, then a second BFS from that."""
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
    return longest_path_in_mask(forest, (1 << forest.n) - 1)


def tree_k_path_sets(forest: Forest, k: int) -> list[int]:
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
    paths = tree_k_path_sets(forest, k)
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
            if longest_path_in_mask(forest, bits) < k:
                return size
    raise AssertionError("unreachable: removing everything kills all paths")


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
