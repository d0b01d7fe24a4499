"""Ground-truth enumerators and the two conjecture checkers.

The enumerators are independent of the closure engine: perfect matchings
by vertex-order backtracking, even cycle covers by matching
complementation (a 2-factor of a cubic graph is exactly the complement
of a perfect matching), and proper labellings by edge-order backtracking.
They exist to *check* the fast path, so they share none of its search
logic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .closure import cover_closure
from .errors import CapExceeded
from .growth import compatible_cover, face_pairs
from .incidence import Cover, CubicMap, decompose_two_factor
from .labelling import Labelling, canonical_labelling
from .serialize import map_fingerprint

DEFAULT_ORACLE_CAP = 45


def _check_cap(m: CubicMap, cap: int | None) -> None:
    cap = DEFAULT_ORACLE_CAP if cap is None else cap
    if m.n_edges > cap:
        raise CapExceeded(f"map has {m.n_edges} edges, oracle cap is {cap}")


def all_perfect_matchings(m: CubicMap, cap: int | None = None) -> tuple[frozenset[int], ...]:
    """Every edge set covering each vertex exactly once, by backtracking
    over vertices in id order."""
    _check_cap(m, cap)
    vertices = list(m.vertex_ids)
    out: list[frozenset[int]] = []

    def extend(covered: set[int], chosen: list[int]) -> None:
        free = next((v for v in vertices if v not in covered), None)
        if free is None:
            out.append(frozenset(chosen))
            return
        for e in m.vertex_edges[free]:
            w = m.other_endpoint(e, free)
            if w not in covered:
                covered.update((free, w))
                chosen.append(e)
                extend(covered, chosen)
                chosen.pop()
                covered.difference_update((free, w))

    extend(set(), [])
    return tuple(sorted(out, key=sorted))


def all_even_cycle_covers(m: CubicMap, cap: int | None = None) -> tuple[Cover, ...]:
    """Every spanning set of vertex-disjoint even cycles, canonical-sorted.

    Complement each perfect matching to get a 2-factor, decompose it and
    keep the all-even ones.
    """
    covers = []
    for matching in all_perfect_matchings(m, cap):
        cover = decompose_two_factor(m, m.all_edges - matching)
        if all(len(c) % 2 == 0 for c in cover):
            covers.append(cover)
    return tuple(sorted(covers))


def all_proper_labellings(m: CubicMap, cap: int | None = None) -> tuple[Labelling, ...]:
    """Every proper 3-edge-labelling up to role permutation.

    Backtracking over edges in id order; the first edge's class is pinned
    (role names are arbitrary) and the final role quotient is taken by
    canonicalization.
    """
    _check_cap(m, cap)
    edges = list(m.edge_ids)
    class_of: dict[int, int] = {}
    found: set[Labelling] = set()

    def conflicts(e: int, c: int) -> bool:
        for v in m.edge_vertices[e]:
            for e2 in m.vertex_edges[v]:
                if e2 != e and class_of.get(e2) == c:
                    return True
        return False

    def assign(i: int) -> None:
        if i == len(edges):
            classes: list[list[int]] = [[], [], []]
            for e, c in class_of.items():
                classes[c].append(e)
            found.add(canonical_labelling(classes))
            return
        e = edges[i]
        for c in (0,) if i == 0 else (0, 1, 2):
            if not conflicts(e, c):
                class_of[e] = c
                assign(i + 1)
                del class_of[e]

    assign(0)
    return tuple(sorted(found))


@dataclass(frozen=True)
class ConjectureReport:
    """Machine-checked verdict for one conjecture on one map."""

    conjecture: int
    fingerprint: str
    verdict: str  # "holds" | "refuted"
    witness: dict | None = None

    @property
    def holds(self) -> bool:
        return self.verdict == "holds"

    def to_document(self) -> dict:
        doc = {
            "conjecture": self.conjecture,
            "map_fingerprint": self.fingerprint,
            "verdict": self.verdict,
        }
        if self.witness is not None:
            doc["witness"] = self.witness
        return doc


def compare_cover_sets(
    m: CubicMap, closure: Iterable[Cover], oracle: Iterable[Cover]
) -> ConjectureReport:
    """Verdict for closure completeness given both cover sets explicitly.

    Split out so checker sensitivity can be exercised with a planted gap.
    """
    closure_set, oracle_set = set(closure), set(oracle)
    missing = sorted(oracle_set - closure_set)
    extra = sorted(closure_set - oracle_set)
    if not missing and not extra:
        return ConjectureReport(1, map_fingerprint(m), "holds")
    witness = {}
    if missing:
        witness["missing_from_closure"] = [[list(c) for c in cov] for cov in missing]
    if extra:
        witness["not_in_oracle"] = [[list(c) for c in cov] for cov in extra]
    return ConjectureReport(1, map_fingerprint(m), "refuted", witness)


def check_closure_completeness(
    m: CubicMap, seed: Cover, cap: int | None = None
) -> ConjectureReport:
    """Conjecture 1: the closure of any one cover is every even cycle cover."""
    return compare_cover_sets(m, cover_closure(m, seed), all_even_cycle_covers(m, cap))


def check_shared_cycle(
    m: CubicMap, cap: int | None = None, covers: Iterable[Cover] | None = None
) -> ConjectureReport:
    """Conjecture 2: any two edges on a common face lie on a common cycle
    of some cover.

    ``covers`` defaults to the oracle enumeration; passing a truncated set
    exercises the refutation path.
    """
    if covers is None:
        covers = all_even_cycle_covers(m, cap)
    covers = tuple(covers)
    for face, a, b in face_pairs(m):
        if compatible_cover(covers, a, b) is None:
            witness = {"face": face, "edges": [a, b]}
            return ConjectureReport(2, map_fingerprint(m), "refuted", witness)
    return ConjectureReport(2, map_fingerprint(m), "holds")
