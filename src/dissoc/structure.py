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
the number of maximum sets, the number of maximum sets that hold each
vertex, the number that hold neither end of each critical edge, the
vertex classes, the critical edges and their grouping.
``classify_vertices`` and ``critical_edges_alpha3`` are reads of that
structure. ``critical_edges_mu3`` reads the rerooted 3-path packing pass
of ``kpath``, which shares no code with the counting DP, so equal edge
sets are two independent computations agreeing.
``verify_structure_theorems`` is the one registry of per-tree checks: the
theorems plus the branching bound on the number of maximum sets, read from
a given structure, the agreement of the alpha3- and mu3-critical edge
sets, and for each k-path cover/matching certificate it is given the
certificate itself and the k-König–Egerváry identity alpha_k + mu_k = n
(``kke_identity``). Each check ends as pass, fail with a witness, or skip.

The claims about every maximum set are count identities, exact at any
number of sets. With N the number of maximum sets and N(v) the number
that hold v: every maximum set meets a critical edge iff the number
holding neither end is 0; it takes exactly one end of an insulated edge
(u, v) iff also N(u) + N(v) = N, since N(u) + N(v) counts the sets
holding both ends twice; and it takes exactly two vertices of a critical
3-path a-m-b iff N(a) + N(m) + N(b) = 2N. No dissociation set holds all three vertices of
a path, so each set adds at most 2 to that sum, and the sum reaches 2N
only when every set adds exactly 2.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .dissociation import _classes, _rerooted
from .errors import TheoremViolation
from .forest import PARENT_NONE, Forest, VertexSet
from .kpath import CoverMatchingCertificate, alpha_k_brute, mu3_edge_deletions, verify_certificate

Edge = tuple[int, int]


class CriticalStructure(NamedTuple):
    """What one rerooting pass tells about a forest.

    ``insulated_edges`` and ``critical_triples`` are None when some critical
    component has more than three vertices, which the structure theory
    rules out; ``grouping_failure`` then names that component.
    ``containing[v]`` is the number of maximum sets that hold vertex v, and
    ``missed[i]`` the number that hold neither end of ``critical_edges[i]``.
    """

    critical_edges: tuple[Edge, ...]
    insulated_edges: tuple[Edge, ...] | None
    critical_triples: tuple[tuple[int, int, int], ...] | None  # (end, middle, end)
    eta: int
    grouping_failure: str | None
    alpha3: int
    count: int
    classes: VertexClassification
    containing: tuple[int, ...]
    missed: tuple[int, ...]


class VertexClassification(NamedTuple):
    flexible: VertexSet
    static_included: VertexSet
    static_excluded: VertexSet


class CheckResult(NamedTuple):
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
    and critical 3-paths, plus the number of optima holding each vertex
    (``containing``) and holding neither end of each critical edge
    (``missed``).

    Raises TheoremViolation when deleting an edge moves alpha3 by anything
    but 0 or +1, or when some optimum of the forest split at a critical edge
    avoids one of its endpoints.
    """
    n = forest.n
    parent, down, up, whole = _rerooted(forest)
    best_s, best_w, avoid_s, avoid_w = whole
    roots = [r for r in range(n) if parent[r] == PARENT_NONE]
    alpha3 = sum(best_s[r] for r in roots)
    count = math.prod(best_w[r] for r in roots)
    # count // best_w[v]: the optima of the components other than v's
    containing = tuple(
        count - avoid_w[v] * (count // best_w[v]) if avoid_s[v] == best_s[v] else count
        for v in range(n)
    )
    crit, missed = [], []
    for e in forest.edges:
        c = e[1] if parent[e[1]] == e[0] else e[0]
        val = alpha3 - best_s[c] + down[0][c] + up[0][c]
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
        # an optimum holding neither end excludes c below the edge and its parent above it
        neither = down[2][c] + up[2][c] == best_s[c]
        missed.append(down[3][c] * up[3][c] * (count // best_w[c]) if neither else 0)
    insulated, triples, failure = _group_critical_edges(n, crit)
    included, excluded = _classes(whole)
    return CriticalStructure(
        critical_edges=tuple(crit),
        insulated_edges=insulated,
        critical_triples=triples,
        eta=len(crit),
        grouping_failure=failure,
        alpha3=alpha3,
        count=count,
        classes=VertexClassification(
            flexible=VertexSet(((1 << n) - 1) & ~(included | excluded), n),
            static_included=VertexSet(included, n),
            static_excluded=VertexSet(excluded, n),
        ),
        containing=containing,
        missed=tuple(missed),
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


def kke_identity(
    forest: Forest, cert: CoverMatchingCertificate, alpha3: int
) -> tuple[dict, CheckResult]:
    """alpha_k + mu_k == n for the k of ``cert``: alpha_k is the counting DP's
    ``alpha3`` at k=3 and the subset search ``alpha_k_brute`` otherwise, mu_k
    the size of the certificate's matching. Returns the record
    ``{"alpha_k", "mu_k", "holds"}`` and the check's outcome, whose witness
    is ``alpha_k=… mu_k=… n=…``."""
    alpha = alpha3 if cert.k == 3 else alpha_k_brute(forest, cert.k)
    mu = len(cert.matching.paths)
    holds = alpha + mu == forest.n
    record = {"alpha_k": alpha, "mu_k": mu, "holds": holds}
    return record, _passed() if holds else _failed(f"alpha_k={alpha} mu_k={mu} n={forest.n}")


def verify_structure_theorems(
    forest: Forest,
    structure: CriticalStructure,
    certificates: Sequence[CoverMatchingCertificate] = (),
) -> dict[str, CheckResult]:
    """Run every per-tree check on one tree against its ``critical_structure``
    and report each outcome by name, in a fixed order.

    The structure checks come first, then ``critical_edge_sets_coincide``:
    the alpha3-critical edges of ``structure`` equal those of
    ``critical_edges_mu3``, an independent pass. For each certificate
    ``certificate k=K`` holds the problems ``verify_certificate`` finds,
    joined by ``; ``, and ``kke k=K`` the identity of ``kke_identity``.

    A failed check is reported with its witness; a TheoremViolation from
    ``critical_edges_mu3`` is the witness of ``critical_edge_sets_coincide``.
    A critical component of more than three vertices fails
    ``critical_components_are_edge_or_3path`` and skips the checks that read
    the grouping. The two checks that ``critical_structure`` itself makes
    (alpha3 rises by exactly one when a critical edge is deleted, and every
    optimum of the split forest keeps both of its endpoints) raise
    TheoremViolation there instead.
    ``every_mds_hits_each_critical_edge`` and ``mds_meets_exact_pattern``
    are the count identities of the module docstring over ``containing``
    and ``missed``, so they hold for every maximum set however many there
    are; the sum 2 * count for a 3-path suffices because no dissociation set
    holds all three of its vertices.
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

    # claims about every maximum set, as count identities
    bad = next((f"{m} maximum sets hold neither end of critical edge {e}"
                for e, m in zip(crit, structure.missed) if m), None)
    checks["every_mds_hits_each_critical_edge"] = _failed(bad) if bad else _passed()

    if failure:
        checks["mds_meets_exact_pattern"] = _skipped("critical structure unavailable")
    else:
        count, holding = structure.count, structure.containing
        missed = dict(zip(crit, structure.missed))
        bad = None
        for e in structure.insulated_edges:
            held = holding[e[0]] + holding[e[1]]
            if missed[e] or held != count:
                both = held - count + missed[e]
                bad = f"insulated edge {e}: {missed[e]} maximum sets take neither end, {both} both"
                break
        for triple in structure.critical_triples:
            held = sum(holding[v] for v in triple)
            if bad is None and held != 2 * count:
                bad = f"triple {triple}: maximum sets hold {held} of its vertices, not 2 * {count}"
        checks["mds_meets_exact_pattern"] = _failed(bad) if bad else _passed()

    try:
        differ = set(crit) != set(critical_edges_mu3(forest))
    except TheoremViolation as exc:
        checks["critical_edge_sets_coincide"] = _failed(exc.witness)
    else:
        checks["critical_edge_sets_coincide"] = (
            _failed("alpha3 and mu3 sets differ") if differ else _passed()
        )

    for cert in certificates:
        problems = verify_certificate(forest, cert)
        checks[f"certificate k={cert.k}"] = _failed("; ".join(problems)) if problems else _passed()
        checks[f"kke k={cert.k}"] = kke_identity(forest, cert, structure.alpha3)[1]
    return checks
