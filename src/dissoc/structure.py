"""Critical-edge structure and vertex classification on trees.

An edge is alpha3-critical when deleting it raises the dissociation
number (by exactly one on forests) and mu3-critical when deleting it
lowers the 3-matching number; on trees the two notions coincide.
Critical edges group into connected components that are single edges
(insulated) or two adjacent edges (a critical 3-path) and never anything
larger. Vertices split into three classes by their membership across
all maximum dissociation sets: flexible (some but not all), static
included (all), static excluded (none).

``critical_structure`` reads all of it from one counted down pass of the
DP, giving the dissociation number and the number of maximum sets, and
one O(n) size-only rerooting pass, giving the optimum sizes of every
vertex and of both sides of every edge: the vertex classes, the critical
edges and their grouping, and the sizes the claims about every maximum
set are tested on.
``classify_vertices`` and ``critical_edges_alpha3`` are reads of that
structure. ``critical_edges_mu3`` reads the rerooted 3-path packing pass
of ``kpath``, which shares no code with the counting DP, so equal edge
sets are two independent computations agreeing.
``verify_structure_theorems`` is the one registry of per-tree checks: a
table of witness functions for the theorems, the branching bound on the
number of maximum sets and the agreement of the alpha3- and mu3-critical
edge sets, then for each k the greedy k-path cover/matching certificate and
the k-König–Egerváry identity alpha_k + mu_k = n of ``kpath_checks``. Each
check ends as pass, fail with a witness, or skip.

The claims about every maximum set are size tests, exact at any number
of sets: a claim holds for every maximum set iff the largest set breaking
it is smaller than alpha3. Every maximum set meets a critical edge iff the
largest set holding neither end is smaller; it takes exactly one end of an
insulated edge iff, also, the largest holding both ends is smaller; and it
takes exactly two vertices of a critical 3-path a-m-b iff it meets both
edges and the largest set holding m but neither a nor b is smaller. No
dissociation set holds a whole path, so a set meeting both edges with one
vertex holds m alone.
"""

from __future__ import annotations

from typing import Sequence

from .dissociation import _classes, _rerooted, _total
from .errors import TheoremViolation
from .forest import Forest, VertexSet, _Frozen
from .kpath import alpha_k_brute, greedy_cover_matching
from .kpath import mu3_edge_deletions, verify_certificate

Edge = tuple[int, int]


class CriticalStructure(_Frozen):
    """What one rerooting pass tells about a forest.

    ``insulated_edges`` and ``critical_triples`` (end, middle, end) are None
    when some critical component has more than three vertices, which the
    structure theory rules out; ``grouping_failure`` then names that component.
    ``edge_failure`` is the witness of an inconsistent critical edge, else
    None. ``neither_end[i]`` and ``both_ends[i]`` are the sizes of the largest
    dissociation sets holding neither and both ends of ``critical_edges[i]``,
    ``middle_alone[j]`` of the largest holding only the middle of
    ``critical_triples[j]`` of its three vertices. ``eta`` is the number of
    critical edges.
    """

    _fields = ("critical_edges", "insulated_edges", "critical_triples", "grouping_failure",
               "alpha3", "count", "classes", "edge_failure", "neither_end", "both_ends",
               "middle_alone")

    @property
    def eta(self) -> int:
        return len(self.critical_edges)


class VertexClassification(_Frozen):
    _fields = ("flexible", "static_included", "static_excluded")


class CheckResult(_Frozen):
    _fields = ("status", "witness")  # "pass" | "fail" | "skipped", and why (None on a pass)


_PASS = CheckResult("pass", None)  # records are immutable, so every pass shares one


def _outcome(witness: str | None) -> CheckResult:
    """The one rule: no witness passes, a witness fails with it."""
    return _PASS if witness is None else CheckResult("fail", witness)


def critical_structure(forest: Forest) -> CriticalStructure:
    """Count, vertex classes and critical edges of a forest from one counted
    down pass and one size-only rerooting pass, with the critical edges
    grouped and the sizes the checks of every maximum set read. The first
    edge whose deletion moves alpha3 by other than 0 or +1, or critical edge
    with a split optimum avoiding an end, is named in ``edge_failure``."""
    n = forest.n
    parent, down, up, whole = _rerooted(forest)
    (best_s, _, dxs, _, dus, _), (ubs, uxs, uus) = down, up
    alpha3, count = _total(parent, down)
    crit, neither, both, edge_failure = [], [], [], None
    for e in forest.edges:
        c = e[1] if parent[e[1]] == e[0] else e[0]
        rest = alpha3 - whole[0][c]  # the optima of the other components
        val = rest + best_s[c] + ubs[c]
        if val == alpha3:
            continue
        if val != alpha3 + 1:
            edge_failure = edge_failure or f"deleting edge {e} moved alpha3 from {alpha3} to {val}"
            continue
        for v in e:
            best, avoid = (best_s, dxs) if v == c else (ubs, uxs)
            if avoid[c] == best[c] and edge_failure is None:
                edge_failure = f"critical edge {e}: some optimum of the split forest avoids {v}"
        crit.append(e)
        # c and its parent each excluded on their side of the edge, or each the other's partner
        neither.append(rest + dxs[c] + uxs[c])
        both.append(rest + dus[c] + uus[c])
    insulated, triples, failure = _group_critical_edges(crit)
    alone = []
    for a, m, b in triples or ():
        # m included with its partner, if any, on a side other than a's and b's
        size, gain = alpha3 - whole[0][m] + 1, 0
        for w in forest.adjacency[m]:
            x_s, u_s = (uxs[m], uus[m]) if w == parent[m] else (dxs[w], dus[w])
            size += x_s
            if w != a and w != b and u_s - x_s > gain:
                gain = u_s - x_s
        alone.append(size + gain)
    included, excluded = _classes(whole)
    return CriticalStructure(
        critical_edges=tuple(crit),
        insulated_edges=insulated,
        critical_triples=triples,
        grouping_failure=failure,
        alpha3=alpha3,
        count=count,
        classes=VertexClassification(
            flexible=VertexSet(((1 << n) - 1) & ~(included | excluded), n),
            static_included=VertexSet(included, n),
            static_excluded=VertexSet(excluded, n),
        ),
        edge_failure=edge_failure,
        neither_end=tuple(neither),
        both_ends=tuple(both),
        middle_alone=tuple(alone),
    )


def _group_critical_edges(crit: list[Edge]):
    """(insulated edges, triples, None), or (None, None, witness) past a 3-path,
    from the degrees in the critical edges: no forest of all n vertices is built."""
    ends: dict[int, list[int]] = {}
    for u, v in crit:
        ends.setdefault(u, []).append(v)
        ends.setdefault(v, []).append(u)
    insulated = tuple(e for e in crit if len(ends[e[0]]) == len(ends[e[1]]) == 1)
    triples = tuple(sorted((min(nb), m, max(nb)) for m, nb in ends.items()
                           if len(nb) == 2 and len(ends[nb[0]]) == len(ends[nb[1]]) == 1))
    if len(insulated) + 2 * len(triples) == len(crit):
        return insulated, triples, None
    grouped = {v for part in insulated + triples for v in part}
    comp = [min(v for v in ends if v not in grouped)]  # the first larger component's least vertex
    for v in comp:
        comp += [w for w in ends[v] if w not in comp]
    edges = sorted(e for e in crit if e[0] in comp)
    return None, None, f"critical component with {len(edges)} edges: {edges}"


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


def _static_profile(forest: Forest, included: VertexSet) -> tuple[set[int], set[int], set[int]]:
    """The static-included class as a set, and the isolated vertices and the
    endpoints of isolated edges of the subgraph it induces."""
    bits = included.bits
    iso, edge_ends = set(), set()
    for v in included:
        inside = [w for w in forest.adjacency[v] if (bits >> w) & 1]
        if not inside:
            iso.add(v)
        elif len(inside) == 1:
            edge_ends.add(v)
    return set(included), iso, edge_ends


def kpath_checks(
    forest: Forest, k: int, alpha3: int
) -> tuple[dict | None, CheckResult, CheckResult]:
    """The checks of one k: the ``greedy_cover_matching`` certificate through
    ``verify_certificate`` (``certificate k=K``, its problems joined by ``; ``),
    and alpha_k + mu_k == n (``kke k=K``, witness ``alpha_k=… mu_k=… n=…``),
    alpha_k the counting DP's ``alpha3`` at k=3 and ``alpha_k_brute`` otherwise
    and mu_k the size of the certificate's matching; returned after the record
    ``{"alpha_k", "mu_k", "holds"}``. A TheoremViolation of the greedy is the
    witness of ``certificate k=K``; the record is then None, ``kke k=K`` skipped."""
    try:
        cert = greedy_cover_matching(forest, k)
    except TheoremViolation as exc:
        return None, _outcome(exc.witness), CheckResult("skipped", "no certificate")
    problems = verify_certificate(forest, cert)
    alpha = alpha3 if k == 3 else alpha_k_brute(forest, k)
    mu = len(cert.paths)
    holds = alpha + mu == forest.n
    return (
        {"alpha_k": alpha, "mu_k": mu, "holds": holds},
        _outcome("; ".join(problems) if problems else None),
        _outcome(None if holds else f"alpha_k={alpha} mu_k={mu} n={forest.n}"),
    )


def _flexible_iff_critical_endpoint(forest, structure, static):
    endpoints = {v for e in structure.critical_edges for v in e}
    flexible = set(structure.classes.flexible)
    if flexible != endpoints:
        return f"flexible={sorted(flexible)} endpoints={sorted(endpoints)}"


def _critical_components_are_edge_or_3path(forest, structure, static):
    return structure.grouping_failure


def _insulated_endpoint_anchored(forest, structure, static):
    """Each end of an insulated edge has exactly one static-included neighbour,
    and that one is isolated in the static-included class."""
    included, iso, _ = static
    for e in structure.insulated_edges:
        for v in e:
            anchors = [w for w in forest.adjacency[v] if w in included]
            if len(anchors) != 1 or anchors[0] not in iso:
                return f"insulated edge {e}: endpoint {v} anchors {anchors}"


def _triple_avoids_static_included(forest, structure, static):
    included = static[0]
    for triple in structure.critical_triples:
        for v in triple:
            hits = [w for w in forest.adjacency[v] if w in included]
            if hits:
                return f"triple {triple}: vertex {v} adjacent to {hits}"


def _count_within_branching_bound(forest, structure, static):
    """At most 3^x * 2^ins maximum sets, x critical 3-paths and ins insulated edges."""
    x, ins = len(structure.critical_triples), len(structure.insulated_edges)
    bound = 3**x * 2**ins
    if structure.count > bound:
        return f"count {structure.count} exceeds 3^{x} * 2^{ins} = {bound}"


def _alpha3_equals_static_plus_critical(forest, structure, static):
    included, eta = len(structure.classes.static_included), len(structure.critical_edges)
    if structure.alpha3 != included + eta:
        return f"alpha3={structure.alpha3} static={included} eta={eta}"


def _static_excluded_neighbor_rule(forest, structure, static):
    """A static-excluded vertex with p isolated and q edge-end static-included
    neighbours has p + 2q >= 4 or p == 3. In a forest each of the q ends has its
    own partner, so the rule also gives at least three static-included vertices."""
    _, iso, edge_ends = static
    for v in structure.classes.static_excluded:
        p = sum(1 for w in forest.adjacency[v] if w in iso)
        q = sum(1 for w in forest.adjacency[v] if w in edge_ends)
        if not (p + 2 * q >= 4 or p == 3):
            return f"excluded vertex {v} has p={p} q={q}"


def _every_mds_hits_each_critical_edge(forest, structure, static):
    for e, size in zip(structure.critical_edges, structure.neither_end):
        if size >= structure.alpha3:
            return f"a maximum set holds neither end of critical edge {e}"


def _mds_meets_exact_pattern(forest, structure, static):
    """Every maximum set takes one end of each insulated edge and two vertices
    of each critical 3-path."""
    alpha3 = structure.alpha3
    neither = dict(zip(structure.critical_edges, structure.neither_end))
    both = dict(zip(structure.critical_edges, structure.both_ends))
    for e in structure.insulated_edges:
        if neither[e] >= alpha3 or both[e] >= alpha3:
            took = "neither end" if neither[e] >= alpha3 else "both ends"
            return f"insulated edge {e}: a maximum set takes {took}"
    for (a, m, b), alone in zip(structure.critical_triples, structure.middle_alone):
        if max(neither[min(a, m), max(a, m)], neither[min(m, b), max(m, b)], alone) >= alpha3:
            return f"triple {(a, m, b)}: a maximum set holds fewer than 2 of its vertices"


def _critical_edge_sets_coincide(forest, structure, static):
    """The alpha3-critical edges are the mu3-critical edges of an independent pass.
    An inconsistent alpha3-critical edge, ``structure.edge_failure``, or a
    TheoremViolation of ``critical_edges_mu3`` is the witness."""
    if structure.edge_failure is not None:
        return structure.edge_failure
    try:
        if set(structure.critical_edges) != set(critical_edges_mu3(forest)):
            return "alpha3 and mu3 sets differ"
    except TheoremViolation as exc:
        return exc.witness


# (name, check, reads_grouping) in report order; a new check is one more entry. Each
# check(forest, structure, static) returns the witness of its first failure, or None when
# it holds; static is the static-included set, its isolated vertices and the ends of its
# isolated edges.
_CHECKS = (
    ("flexible_iff_critical_endpoint", _flexible_iff_critical_endpoint, False),
    ("critical_components_are_edge_or_3path", _critical_components_are_edge_or_3path, False),
    ("insulated_endpoint_anchored_in_static_included", _insulated_endpoint_anchored, True),
    ("triple_avoids_static_included", _triple_avoids_static_included, True),
    ("count_within_branching_bound", _count_within_branching_bound, True),
    ("alpha3_equals_static_plus_critical", _alpha3_equals_static_plus_critical, False),
    ("static_excluded_neighbor_rule", _static_excluded_neighbor_rule, False),
    ("every_mds_hits_each_critical_edge", _every_mds_hits_each_critical_edge, False),
    ("mds_meets_exact_pattern", _mds_meets_exact_pattern, True),
    ("critical_edge_sets_coincide", _critical_edge_sets_coincide, False),
)
_UNAVAILABLE = CheckResult("skipped", "critical structure unavailable")


def verify_structure_theorems(
    forest: Forest,
    structure: CriticalStructure,
    k_values: Sequence[int] = (),
) -> dict[str, CheckResult]:
    """Run every per-tree check on one tree against its ``critical_structure``
    and report each outcome by name, in a fixed order: the checks of
    ``_CHECKS``, then for each k of ``k_values`` ``certificate k=K`` and
    ``kke k=K``, the outcomes of ``kpath_checks``. A check passes with no
    witness and fails with the one it returns; one that reads the grouping
    of the critical edges is skipped while ``structure.grouping_failure``,
    the witness of ``critical_components_are_edge_or_3path``, is set."""
    # all before any check: with the greedy interleaved with them, verify ran 3-6% slower
    per_k = [(k, kpath_checks(forest, k, structure.alpha3)) for k in k_values]
    static = _static_profile(forest, structure.classes.static_included)
    ungrouped = structure.grouping_failure is not None
    checks = {name: _UNAVAILABLE if ungrouped and reads_grouping
              else _outcome(check(forest, structure, static))
              for name, check, reads_grouping in _CHECKS}
    for k, (_, cert_check, kke_check) in per_k:
        checks[f"certificate k={k}"], checks[f"kke k={k}"] = cert_check, kke_check
    return checks
