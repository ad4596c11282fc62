"""Critical-edge structure and vertex classification on trees.

An edge is alpha3-critical when deleting it raises the dissociation
number (by exactly one on forests) and mu3-critical when deleting it
lowers the 3-matching number; on trees the two notions coincide.
Critical edges group into connected components that are single edges
(insulated) or two adjacent edges (a critical 3-path) and never anything
larger. Vertices split into three classes by their membership across
all maximum dissociation sets: flexible (some but not all), static
included (all), static excluded (none).

``critical_structure`` reads all of it from one O(n) rerooting pass of
the counting DP, which gives the records of every vertex over its
component and of both sides of every edge: the dissociation number and
the number of maximum sets, the vertex classes, the critical edges and
their grouping. ``classify_vertices`` and ``critical_edges_alpha3`` are
reads of that structure. ``critical_edges_mu3`` reads the rerooted 3-path
packing pass of ``kpath``, which shares no code with the counting DP, so
equal edge sets are two independent computations agreeing.
``verify_structure_theorems`` re-checks the theorems plus the branching
bound on the number of maximum sets against a given structure and
reports each outcome separately; a failed check carries a witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dissociation import _classes, _rerooted, enumerate_mds, is_dissociation_set
from .errors import TheoremViolation
from .forest import PARENT_NONE, Forest, VertexSet, root_at
from .kpath import mu3_edge_deletions

ENUMERATION_CAP = 1_000_000

Edge = tuple[int, int]


@dataclass(frozen=True)
class CriticalStructure:
    """What one rerooting pass tells about a forest.

    ``insulated_edges`` and ``critical_triples`` are None when some critical
    component has more than three vertices, which the structure theory
    rules out; ``grouping_failure`` then names that component.
    """

    critical_edges: tuple[Edge, ...]
    insulated_edges: tuple[Edge, ...] | None
    critical_triples: tuple[tuple[int, int, int], ...] | None  # (end, middle, end)
    eta: int
    grouping_failure: str | None
    alpha3: int
    count: int
    classes: VertexClassification


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


def critical_structure(forest: Forest) -> CriticalStructure:
    """Count, vertex classes and critical edges of a forest from one
    rerooting pass, with the critical edges grouped into insulated edges
    and critical 3-paths.

    Raises TheoremViolation when deleting an edge moves alpha3 by anything
    but 0 or +1, or when some optimum of the forest split at a critical edge
    avoids one of its endpoints.
    """
    n = forest.n
    parent, down, up, whole = _rerooted(forest)
    roots = [r for r in range(n) if parent[r] == PARENT_NONE]
    alpha3 = sum(whole[0][r] for r in roots)
    crit = []
    for e in forest.edges:
        c = e[1] if parent[e[1]] == e[0] else e[0]
        val = alpha3 - whole[0][c] + down[0][c] + up[0][c]
        if val == alpha3:
            continue
        if val != alpha3 + 1:
            raise TheoremViolation(f"deleting edge {e} moved alpha3 from {alpha3} to {val}")
        for v in e:
            best, _, avoid, _, _, _ = down if v == c else up
            if avoid[c] == best[c]:
                raise TheoremViolation(
                    f"critical edge {e}: some optimum of the split forest avoids {v}"
                )
        crit.append(e)
    insulated, triples, failure = _group_critical_edges(n, crit)
    included, excluded = _classes(whole)
    return CriticalStructure(
        critical_edges=tuple(crit),
        insulated_edges=insulated,
        critical_triples=triples,
        eta=len(crit),
        grouping_failure=failure,
        alpha3=alpha3,
        count=math.prod(whole[1][r] for r in roots),
        classes=VertexClassification(
            flexible=VertexSet(((1 << n) - 1) & ~(included | excluded), n),
            static_included=VertexSet(included, n),
            static_excluded=VertexSet(excluded, n),
        ),
    )


def _group_critical_edges(n: int, crit: list[Edge]):
    """(insulated edges, triples, None), or (None, None, witness) past a 3-path."""
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


def critical_edges_alpha3(forest: Forest) -> tuple[Edge, ...]:
    """Edges whose deletion raises alpha3 (checked to be by exactly one),
    read from ``critical_structure``."""
    return critical_structure(forest).critical_edges


def critical_edges_mu3(forest: Forest) -> tuple[Edge, ...]:
    """Edges whose deletion lowers the 3-matching number (checked to be by
    exactly one), read from ``mu3_edge_deletions``: one rerooting pass of a
    3-path packing DP that shares no code with the dissociation engine."""
    base, cut = mu3_edge_deletions(forest)
    out = []
    for e, val in zip(forest.edges, cut):
        if val == base:
            continue
        if val != base - 1:
            raise TheoremViolation(f"deleting edge {e} moved mu3 from {base} to {val}")
        out.append(e)
    return tuple(out)


def classify_vertices(forest: Forest) -> VertexClassification:
    """Vertex classes across all maximum dissociation sets, from ``critical_structure``."""
    return critical_structure(forest).classes


def build_canonical_mds(forest: Forest, root: int) -> VertexSet:
    """Constructive maximum dissociation set: all static-included vertices
    plus the deeper endpoint of every critical edge for the given root."""
    view = root_at(forest, root)
    struct = critical_structure(forest)
    bits = struct.classes.static_included.bits
    for u, v in struct.critical_edges:
        deeper = u if view.level[u] > view.level[v] else v
        bits |= 1 << deeper
    result = VertexSet(bits, forest.n)
    if not is_dissociation_set(forest, result) or len(result) != struct.alpha3:
        raise TheoremViolation(
            f"constructive set {result.members()} at root {root} is not a maximum "
            f"dissociation set (alpha3={struct.alpha3})"
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
    forest: Forest, structure: CriticalStructure, enumeration_cap: int = ENUMERATION_CAP
) -> dict[str, CheckResult]:
    """Run every structural check on one tree against its ``critical_structure``
    and report each outcome.

    A failed check is reported with its witness. A critical component of
    more than three vertices fails ``critical_components_are_edge_or_3path``
    and skips the checks that read the grouping. The two checks that
    ``critical_structure`` itself makes (alpha3 rises by exactly one when a
    critical edge is deleted, and every optimum of the split forest keeps
    both of its endpoints) raise TheoremViolation there instead.
    Enumeration-backed checks are reported "skipped" (never "pass") when
    the number of maximum dissociation sets exceeds ``enumeration_cap``.
    """
    checks: dict[str, CheckResult] = {}
    cls = structure.classes
    a_set = set(cls.static_included)
    crit = structure.critical_edges

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
    failure = structure.grouping_failure
    checks["critical_components_are_edge_or_3path"] = _failed(failure) if failure else _passed()

    structural = (
        "insulated_endpoint_anchored_in_static_included",
        "triple_avoids_static_included",
        "count_within_branching_bound",
    )
    iso, edge_ends = _static_profile(forest, cls.static_included)
    if failure:
        for name in structural:
            checks[name] = _skipped("critical structure unavailable")
    else:
        bad = None
        for e in structure.insulated_edges:
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
        for triple in structure.critical_triples:
            for v in triple:
                hits = [w for w in forest.adjacency[v] if w in a_set]
                if hits:
                    bad = f"triple {triple}: vertex {v} adjacent to {hits}"
                    break
            if bad:
                break
        checks["triple_avoids_static_included"] = _failed(bad) if bad else _passed()

        x = len(structure.critical_triples)
        ins = len(structure.insulated_edges)
        bound = 3**x * 2**ins
        if structure.count <= bound:
            checks["count_within_branching_bound"] = _passed()
        else:
            checks["count_within_branching_bound"] = _failed(
                f"count {structure.count} exceeds 3^{x} * 2^{ins} = {bound}"
            )

    # alpha3 decomposes into the static-included size plus the critical edge count
    if structure.alpha3 == len(cls.static_included) + len(crit):
        checks["alpha3_equals_static_plus_critical"] = _passed()
    else:
        checks["alpha3_equals_static_plus_critical"] = _failed(
            f"alpha3={structure.alpha3} static={len(cls.static_included)} eta={len(crit)}"
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
    if structure.count > enumeration_cap:
        for name in enum_names:
            checks[name] = _skipped(f"{structure.count} maximum sets exceed cap {enumeration_cap}")
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

        if failure:
            checks["mds_meets_exact_pattern"] = _skipped("critical structure unavailable")
        else:
            bad = None
            for s in sets:
                for e in structure.insulated_edges:
                    took = (e[0] in s) + (e[1] in s)
                    if took != 1:
                        bad = f"set {s.members()} takes {took} ends of insulated {e}"
                        break
                if bad:
                    break
                for triple in structure.critical_triples:
                    took = sum(1 for v in triple if v in s)
                    if took != 2:
                        bad = f"set {s.members()} takes {took} of triple {triple}"
                        break
                if bad:
                    break
            checks["mds_meets_exact_pattern"] = _failed(bad) if bad else _passed()
    return checks
