"""Critical-edge structure and vertex classification on trees.

An edge is alpha3-critical when deleting it raises the dissociation
number (by exactly one on forests) and mu3-critical when deleting it
lowers the 3-matching number; on trees the two notions coincide.
Critical edges group into connected components that are single edges
(insulated) or two adjacent edges (a critical 3-path) and never anything
larger. Vertices split into three classes by their membership across
all maximum dissociation sets: flexible (some but not all), static
included (all), static excluded (none). Classes and critical edges come
from one O(n) rerooting pass of the counting DP, which gives the records
of every vertex over its component and of both sides of every edge.

``verify_structure_theorems`` re-checks all of these facts plus the
branching bound on the number of maximum dissociation sets for one tree
and reports each outcome separately; a failed check carries a witness.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dissociation import _classes, _rerooted, alpha3_count_dp, enumerate_mds, is_dissociation_set
from .errors import TheoremViolation
from .forest import PARENT_NONE, Forest, VertexSet, root_at
from .kpath import greedy_cover_matching

ENUMERATION_CAP = 1_000_000

Edge = tuple[int, int]


@dataclass(frozen=True)
class CriticalStructure:
    critical_edges: tuple[Edge, ...]
    insulated_edges: tuple[Edge, ...]
    critical_triples: tuple[tuple[int, int, int], ...]  # (end, middle, end)
    eta: int


@dataclass(frozen=True)
class VertexClassification:
    flexible: VertexSet
    static_included: VertexSet
    static_excluded: VertexSet


@dataclass(frozen=True)
class CheckResult:
    status: str  # "pass" | "fail" | "skipped"
    witness: str | None = None


def _passed() -> CheckResult:
    return CheckResult("pass")


def _failed(witness: str) -> CheckResult:
    return CheckResult("fail", witness)


def _skipped(reason: str) -> CheckResult:
    return CheckResult("skipped", reason)


def critical_edges_alpha3(forest: Forest) -> tuple[Edge, ...]:
    """Edges whose deletion raises alpha3; checks the rise is exactly one
    and that every optimum of the split forest keeps both endpoints."""
    parent, down, up, (whole, _, _, _) = _rerooted(forest)
    base = sum(whole[r] for r in range(forest.n) if parent[r] == PARENT_NONE)
    out = []
    for e in forest.edges:
        c = e[1] if parent[e[1]] == e[0] else e[0]
        val = base - whole[c] + down[0][c] + up[0][c]
        if val == base:
            continue
        if val != base + 1:
            raise TheoremViolation(
                f"deleting edge {e} moved alpha3 from {base} to {val}"
            )
        for v in e:
            best, _, avoid, _, _, _ = down if v == c else up
            if avoid[c] == best[c]:
                raise TheoremViolation(
                    f"critical edge {e}: some optimum of the split forest avoids {v}"
                )
        out.append(e)
    return tuple(out)


def _mu3(forest: Forest) -> int:
    return len(greedy_cover_matching(forest, 3).matching.paths)


def critical_edges_mu3(forest: Forest) -> tuple[Edge, ...]:
    """Edges whose deletion lowers the 3-matching number (by exactly one)."""
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


def critical_structure(forest: Forest) -> CriticalStructure:
    """Group critical edges into insulated edges and critical 3-paths.

    A connected group of three or more critical edges would falsify the
    structure theory and raises TheoremViolation instead of being
    classified.
    """
    return _group_critical_edges(forest.n, critical_edges_alpha3(forest))


def _group_critical_edges(n: int, crit: tuple[Edge, ...]) -> CriticalStructure:
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
            raise TheoremViolation(f"critical component with {len(edges)} edges: {edges}")
    return CriticalStructure(
        critical_edges=crit,
        insulated_edges=tuple(sorted(insulated)),
        critical_triples=tuple(sorted(triples)),
        eta=len(crit),
    )


def classify_vertices(forest: Forest) -> VertexClassification:
    """Partition vertices by membership across all maximum dissociation sets."""
    n = forest.n
    included, excluded = _classes(forest)
    flexible = ((1 << n) - 1) & ~(included | excluded)
    return VertexClassification(
        flexible=VertexSet(flexible, n),
        static_included=VertexSet(included, n),
        static_excluded=VertexSet(excluded, n),
    )


def build_canonical_mds(forest: Forest, root: int) -> VertexSet:
    """Constructive maximum dissociation set: all static-included vertices
    plus the deeper endpoint of every critical edge for the given root."""
    view = root_at(forest, root)
    crit = critical_edges_alpha3(forest)
    cls = classify_vertices(forest)
    bits = cls.static_included.bits
    for u, v in crit:
        deeper = u if view.level[u] > view.level[v] else v
        bits |= 1 << deeper
    result = VertexSet(bits, forest.n)
    alpha = alpha3_count_dp(forest).alpha3
    if not is_dissociation_set(forest, result) or len(result) != alpha:
        raise TheoremViolation(
            f"constructive set {result.members()} at root {root} is not a maximum "
            f"dissociation set (alpha3={alpha})"
        )
    return result


def _static_profile(forest: Forest, included: VertexSet) -> tuple[set[int], set[int]]:
    """Isolated vertices and endpoints of isolated edges inside the induced
    subgraph on the static-included class."""
    bits = included.bits
    iso, edge_ends = set(), set()
    for v in included:
        inside = [w for w in forest.adjacency[v] if (bits >> w) & 1]
        if not inside:
            iso.add(v)
        elif len(inside) == 1:
            edge_ends.add(v)
    return iso, edge_ends


def verify_structure_theorems(
    forest: Forest, enumeration_cap: int = ENUMERATION_CAP
) -> dict[str, CheckResult]:
    """Run every structural check on one tree and report each outcome.

    A failed check is reported with its witness, except the two checks of
    ``critical_edges_alpha3`` (alpha3 rises by exactly one when a critical
    edge is deleted, and every optimum of the split forest keeps both of its
    endpoints): their TheoremViolation propagates to the caller.
    Enumeration-backed checks are reported "skipped" (never "pass") when
    the number of maximum dissociation sets exceeds ``enumeration_cap``.
    """
    checks: dict[str, CheckResult] = {}
    res = alpha3_count_dp(forest)
    cls = classify_vertices(forest)
    a_set = set(cls.static_included)
    crit = critical_edges_alpha3(forest)

    # flexible vertices are exactly the endpoints of critical edges
    endpoints = {v for e in crit for v in e}
    flexible = set(cls.flexible)
    if flexible == endpoints:
        checks["flexible_iff_critical_endpoint"] = _passed()
    else:
        checks["flexible_iff_critical_endpoint"] = _failed(
            f"flexible={sorted(flexible)} endpoints={sorted(endpoints)}"
        )

    # critical components must be single edges or 3-paths
    struct: CriticalStructure | None
    try:
        struct = _group_critical_edges(forest.n, crit)
        checks["critical_components_are_edge_or_3path"] = _passed()
    except TheoremViolation as exc:
        struct = None
        checks["critical_components_are_edge_or_3path"] = _failed(exc.witness)

    structural = (
        "insulated_endpoint_anchored_in_static_included",
        "triple_avoids_static_included",
        "count_within_branching_bound",
    )
    iso, edge_ends = _static_profile(forest, cls.static_included)
    if struct is None:
        for name in structural:
            checks[name] = _skipped("critical structure unavailable")
    else:
        bad = None
        for e in struct.insulated_edges:
            for v in e:
                anchors = [w for w in forest.adjacency[v] if w in a_set]
                if len(anchors) != 1 or anchors[0] not in iso:
                    bad = f"insulated edge {e}: endpoint {v} anchors {anchors}"
                    break
            if bad:
                break
        checks["insulated_endpoint_anchored_in_static_included"] = (
            _failed(bad) if bad else _passed()
        )

        bad = None
        for triple in struct.critical_triples:
            for v in triple:
                hits = [w for w in forest.adjacency[v] if w in a_set]
                if hits:
                    bad = f"triple {triple}: vertex {v} adjacent to {hits}"
                    break
            if bad:
                break
        checks["triple_avoids_static_included"] = _failed(bad) if bad else _passed()

        x = len(struct.critical_triples)
        ins = len(struct.insulated_edges)
        bound = 3**x * 2**ins
        if res.count <= bound:
            checks["count_within_branching_bound"] = _passed()
        else:
            checks["count_within_branching_bound"] = _failed(
                f"count {res.count} exceeds 3^{x} * 2^{ins} = {bound}"
            )

    # alpha3 decomposes into the static-included size plus the critical edge count
    if res.alpha3 == len(cls.static_included) + len(crit):
        checks["alpha3_equals_static_plus_critical"] = _passed()
    else:
        checks["alpha3_equals_static_plus_critical"] = _failed(
            f"alpha3={res.alpha3} static={len(cls.static_included)} eta={len(crit)}"
        )

    # neighborhood rule for statically excluded vertices
    bad = None
    for v in cls.static_excluded:
        p = sum(1 for w in forest.adjacency[v] if w in iso)
        q = sum(1 for w in forest.adjacency[v] if w in edge_ends)
        if not (p + 2 * q >= 4 or p == 3):
            bad = f"excluded vertex {v} has p={p} q={q}"
            break
    if bad is None and len(cls.static_excluded) > 0 and len(cls.static_included) < 3:
        bad = (
            f"static-excluded nonempty but only {len(cls.static_included)} "
            "static-included vertices"
        )
    checks["static_excluded_neighbor_rule"] = _failed(bad) if bad else _passed()

    # enumeration-backed checks
    enum_names = ("every_mds_hits_each_critical_edge", "mds_meets_exact_pattern")
    if res.count > enumeration_cap:
        for name in enum_names:
            checks[name] = _skipped(f"{res.count} maximum sets exceed cap {enumeration_cap}")
    else:
        sets = list(enumerate_mds(forest))
        bad = None
        for s in sets:
            for e in crit:
                if e[0] not in s and e[1] not in s:
                    bad = f"set {s.members()} misses critical edge {e}"
                    break
            if bad:
                break
        checks["every_mds_hits_each_critical_edge"] = _failed(bad) if bad else _passed()

        if struct is None:
            checks["mds_meets_exact_pattern"] = _skipped("critical structure unavailable")
        else:
            bad = None
            for s in sets:
                for e in struct.insulated_edges:
                    took = (e[0] in s) + (e[1] in s)
                    if took != 1:
                        bad = f"set {s.members()} takes {took} ends of insulated {e}"
                        break
                if bad:
                    break
                for triple in struct.critical_triples:
                    took = sum(1 for v in triple if v in s)
                    if took != 2:
                        bad = f"set {s.members()} takes {took} of triple {triple}"
                        break
                if bad:
                    break
            checks["mds_meets_exact_pattern"] = _failed(bad) if bad else _passed()
    return checks
