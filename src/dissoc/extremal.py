"""Record counts of maximum dissociation sets over all trees of one order.

The closed-form record value depends on n mod 3, and the record holders
are spider-like trees S*(...) built by gluing one designated leaf of each
leg tree into a shared hub, plus one sporadic 8-vertex tree. The sweep
counts the level sequence of every isomorphism class of the given order
and compares the observed record and holders against the prediction: each
chunk of walk steps gets one prefix-sharing count and reports its record
and the level sequences reaching it, and only the holders of the overall
record are decoded and coded, in one pass.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from typing import Iterable, NamedTuple, Sequence

from .dissociation import alpha3_count_steps
from .errors import GuardExceeded
from .forest import CanonicalCode, Forest, canonical_code
from .treegen import LevelSequence, forest_from_level_sequence, map_free_trees, walk_chunks

SWEEP_LIMIT = 18

LEG_KINDS = ("P2", "P3", "P4", "K13")

LegSpec = tuple[str, ...]


def max_mds_formula(n: int) -> int:
    """Largest possible number of maximum dissociation sets in a tree of order n."""
    if n < 1:
        raise ValueError("order must be positive")
    if n <= 2:
        # single vertex and single edge each have exactly one maximum set
        return 1
    m, r = divmod(n, 3)
    if r == 0:
        return 3 ** (m - 1) + m + 1
    if r == 1:
        return 3 ** (m - 1) + 1
    return 3 ** (m - 1)


def star_construction(legs: Sequence[str]) -> Forest:
    """Glue legs at a shared hub vertex 0.

    P2 adds a pendant vertex, P3 a pendant 2-path, P4 a pendant 3-path,
    K13 a pendant claw centre carrying two extra leaves.
    """
    legs = tuple(legs)
    if not legs:
        raise ValueError("at least one leg required")
    edges: list[tuple[int, int]] = []
    nxt = 1
    for leg in legs:
        if leg == "P2":
            edges.append((0, nxt))
            nxt += 1
        elif leg == "P3":
            edges += [(0, nxt), (nxt, nxt + 1)]
            nxt += 2
        elif leg in ("P4", "K13"):
            c = nxt
            if leg == "P4":
                edges += [(0, c), (c, c + 1), (c + 1, c + 2)]
            else:
                edges += [(0, c), (c, c + 1), (c, c + 2)]
            nxt += 3
        else:
            raise ValueError(f"unknown leg kind {leg!r}; expected one of {LEG_KINDS}")
    return Forest.from_edges(nxt, edges)


def lt8() -> Forest:
    """The sporadic 8-vertex record holder: a 4-path with a pendant leaf
    on each vertex."""
    edges = [(0, 1), (1, 2), (2, 3), (0, 4), (1, 5), (2, 6), (3, 7)]
    return Forest.from_edges(8, edges, labels=("u1", "u2", "u3", "u4", "v1", "v2", "v3", "v4"))


def _dedupe(trees: Iterable[Forest]) -> list[Forest]:
    by_code: dict[bytes, Forest] = {}
    for t in trees:
        by_code.setdefault(canonical_code(t).code, t)
    return [by_code[c] for c in sorted(by_code)]


def generate_extremal_family(n: int) -> list[Forest]:
    """All predicted record holders of order n, deduplicated and sorted by code.

    For n = 3m the single tree S*(P3, P4^(m-1)); for n = 3m+1 the trees
    S*(P3, P2, T1..Tm-1) with each Ti in {P4, K13}; for n = 3m+2 the three
    base shapes S*(P3,P3,...), S*(P2,P2,P2,P2,...), S*(P3,P2,P2,...) with
    the same tails, plus the sporadic tree at n = 8. At n = 4 the list
    degenerates to the 4-path, which is not asserted as a characterization.
    """
    if n < 3:
        raise ValueError("families are defined for n >= 3")
    m, r = divmod(n, 3)
    specs: list[LegSpec] = []
    if r == 0:
        specs.append(("P3",) + ("P4",) * (m - 1))
    elif r == 1:
        for tail in combinations_with_replacement(("P4", "K13"), m - 1):
            specs.append(("P3", "P2") + tail)
    else:
        for base in (("P3", "P3"), ("P2", "P2", "P2", "P2"), ("P3", "P2", "P2")):
            for tail in combinations_with_replacement(("P4", "K13"), m - 1):
                specs.append(base + tail)
    trees = [star_construction(s) for s in specs]
    if n == 8:
        trees.append(lt8())
    return _dedupe(trees)


class ExtremalReport(NamedTuple):
    n: int
    formula_value: int
    predicted_codes: tuple[CanonicalCode, ...]
    observed_max: int | None
    extremal_codes: tuple[CanonicalCode, ...] | None
    match: bool | None
    characterized: bool
    trees_scanned: int | None
    note: str = ""


def _chunk_record(chunk) -> tuple[int, int, list[tuple[int, ...]]]:
    """(trees, record, level sequences at the record) of a chunk of walk steps."""
    best, holders = -1, []
    for (_, seq), (_, count) in zip(chunk, alpha3_count_steps(chunk)):
        if count > best:
            best, holders = count, [seq]
        elif count == best:
            holders.append(seq)
    return len(chunk), best, holders


def _family_note(n: int) -> str:
    if n == 4:
        return "record holders at n=4 are not characterized; only the record value is compared"
    if n == 5:
        return "family list degenerates at n=5 to all three trees of order 5"
    return ""


def exhaustive_extremal_check(n: int, jobs: int = 1, guard: int = SWEEP_LIMIT) -> ExtremalReport:
    """Sweep all trees of order n and compare record and record holders
    against the closed form and the generated family."""
    if n < 3:
        raise ValueError("sweep is defined for n >= 3")
    if n > guard:
        raise GuardExceeded(f"sweep limited to n <= {guard}, got {n}")
    formula = max_mds_formula(n)
    predicted = tuple(canonical_code(t) for t in generate_extremal_family(n))
    best, holders, scanned = -1, [], 0
    for trees, record, seqs in map_free_trees(walk_chunks(n, 64), _chunk_record, jobs):
        scanned += trees  # 64 walk steps per chunk
        if record > best:
            best, holders = record, seqs
        elif record == best:
            holders += seqs
    observed = tuple(sorted(
        canonical_code(forest_from_level_sequence(LevelSequence(seq))) for seq in holders))
    characterized = n != 4
    match = best == formula
    if characterized:
        match = match and set(observed) == set(predicted)
    return ExtremalReport(
        n=n,
        formula_value=formula,
        predicted_codes=predicted,
        observed_max=best,
        extremal_codes=observed,
        match=match,
        characterized=characterized,
        trees_scanned=scanned,
        note=_family_note(n),
    )
