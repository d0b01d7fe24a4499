"""Ground-truth enumerators and the two conjecture checkers.

The enumerators are independent of the closure engine: perfect matchings
by vertex-order backtracking, even cycle covers by matching
complementation (a 2-factor of a cubic graph is exactly the complement
of a perfect matching), and proper labellings by edge-order backtracking.
They exist to *check* the fast path, so they share none of its search
logic.

Input contract: every edge has two distinct ends (``CubicMap.edge_vertices``
raises NotTwoRegular otherwise), so matchings are found on any loop-free
multigraph.  The cover and the labelling enumerators also check that
every vertex meets three distinct edges, else NotTwoRegular.  A map too
deep for a search's recursion raises CapExceeded, like a map over the cap.

Work that depends only on the map is done once per map.  After its one
degree check, the cover enumerator walks each matching's complement, a
spanning 2-factor, unchecked and canonicalises only the all-even walks.
The shared-cycle check gives every (cover, cycle) slot one bit and every
edge the mask of the slots that hold it, so a face pair shares a cycle
iff its masks meet.

Both searches test conflicts with integer bitmasks.  The matching search
holds the covered vertices as a bitmask over the positions of
``vertex_ids`` and always matches the lowest uncovered vertex.  The
labelling search visits the edges breadth first, so an edge is labelled
soon after its neighbours and a conflict shows early; the classes of its
labelled neighbours form a forbidden mask, and classes are opened in
order, so each labelling is built once rather than once per role name.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable

from .closure import cover_closure
from .errors import CapExceeded, NotTwoRegular
from .incidence import Cover, CubicMap, canonical_cover, edge_mask, walk_cycles
from .labelling import Labelling, canonical_labelling
from .serialize import map_fingerprint

DEFAULT_ORACLE_CAP = 45


def _check_cap(m: CubicMap, cap: int) -> None:
    if m.n_edges > cap:
        raise CapExceeded(f"map has {m.n_edges} edges, oracle cap is {cap}")


def all_perfect_matchings(m: CubicMap, cap: int = DEFAULT_ORACLE_CAP) -> tuple[frozenset[int], ...]:
    """Every edge set covering each vertex exactly once, sorted by their
    sorted edges.

    Backtracks over vertices in id order.  The covered vertices are an
    integer bitmask over the positions of ``vertex_ids``; the next vertex
    to match is the lowest uncovered one, ``~covered & (covered + 1)``,
    and it offers its precomputed (edge, neighbour bit) pairs.
    """
    _check_cap(m, cap)
    bit = {v: 1 << i for i, v in enumerate(m.vertex_ids)}
    options = {
        bit[v]: [(e, bit[m.other_endpoint(e, v)]) for e in es]
        for v, es in m.vertex_edges.items()
    }
    full = (1 << m.n_vertices) - 1
    out: list[frozenset[int]] = []
    chosen: list[int] = []

    def extend(covered: int) -> None:
        if covered == full:
            out.append(frozenset(chosen))
            return
        low = ~covered & (covered + 1)
        for e, other in options[low]:
            if not covered & other:
                chosen.append(e)
                extend(covered | low | other)
                chosen.pop()

    try:
        extend(0)
    except RecursionError:
        raise CapExceeded("map is too deep for the matching search") from None
    return tuple(sorted(out, key=sorted))


def _check_cubic(m: CubicMap) -> None:
    """Raise NotTwoRegular unless every vertex meets three distinct edges.
    With ``edge_vertices``' check of the edge ends, the complement of each
    perfect matching is then a spanning 2-factor."""
    for v, es in m.vertex_edges.items():
        if len(set(es)) != 3 or len(es) != 3:
            raise NotTwoRegular(f"vertex {v} lists edges {list(es)} (expected 3 distinct)")


def all_even_cycle_covers(m: CubicMap, cap: int = DEFAULT_ORACLE_CAP) -> tuple[Cover, ...]:
    """Every spanning set of vertex-disjoint even cycles, canonical-sorted.

    After the cap check, one degree check of the map (``_check_cubic``)
    makes the complement of every perfect matching a spanning 2-factor.
    Each complement is walked unchecked and canonicalised only if all its
    cycles are even.
    """
    _check_cap(m, cap)
    _check_cubic(m)
    covers = []
    for matching in all_perfect_matchings(m, cap):
        walks = walk_cycles(m, m._all_mask ^ edge_mask(matching))
        if all(len(w) % 2 == 0 for w in walks):
            covers.append(canonical_cover(walks))
    return tuple(sorted(covers))


def _breadth_first_edges(m: CubicMap) -> list[int]:
    """Every edge once, breadth first over shared vertices from the lowest
    edge id, restarting from the lowest unseen id when the queue runs dry."""
    order: list[int] = []
    seen: set[int] = set()
    for start in m.edge_ids:
        if start in seen:
            continue
        seen.add(start)
        queue = deque([start])
        while queue:
            e = queue.popleft()
            order.append(e)
            for v in m.edge_vertices[e]:
                for f in m.vertex_edges[v]:
                    if f not in seen:
                        seen.add(f)
                        queue.append(f)
    return order


def all_proper_labellings(m: CubicMap, cap: int = DEFAULT_ORACLE_CAP) -> tuple[Labelling, ...]:
    """Every proper 3-edge-labelling up to role permutation, sorted.

    Backtracks over the edges in breadth-first order (``_breadth_first_edges``).
    At each position the classes of the earlier edges that share a vertex
    with it form a forbidden bitmask.  Classes are opened in order: the
    first edge takes class 0, and a later edge takes a class already used
    or the next unused one, so each labelling is built exactly once
    before canonicalization.
    """
    _check_cap(m, cap)
    _check_cubic(m)
    order = _breadth_first_edges(m)
    pos = {e: i for i, e in enumerate(order)}
    neighbours = [{pos[f] for v in m.edge_vertices[e] for f in m.vertex_edges[v]} for e in order]
    earlier = [[j for j in ns if j < i] for i, ns in enumerate(neighbours)]
    class_at = [0] * len(order)
    found: list[Labelling] = []

    def assign(i: int, opened: int) -> None:
        if i == len(order):
            classes: tuple[list[int], ...] = ([], [], [])
            for e, c in zip(order, class_at):
                classes[c].append(e)
            found.append(canonical_labelling(classes))
            return
        forbidden = 0
        for j in earlier[i]:
            forbidden |= 1 << class_at[j]
        for c in range(min(opened + 1, 3)):
            if not forbidden >> c & 1:
                class_at[i] = c
                assign(i + 1, max(opened, c + 1))

    try:
        assign(0, 0)
    except RecursionError:
        raise CapExceeded("map is too deep for the labelling search") from None
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


def check_closure_completeness(m: CubicMap, seed: Cover) -> ConjectureReport:
    """Conjecture 1: the closure of any one cover is every even cycle cover."""
    return compare_cover_sets(m, cover_closure(m, seed), all_even_cycle_covers(m))


def face_pairs(m: CubicMap):
    """Every (face, edge, edge) with both edges on the face, unordered,
    equal pairs included."""
    for face in m.face_ids:
        edges = m.face_edges[face]
        for i, a in enumerate(edges):
            for b in edges[i:]:
                yield face, a, b


def check_shared_cycle(m: CubicMap, covers: Iterable[Cover]) -> ConjectureReport:
    """Conjecture 2 on the given covers: any two edges on a common face lie
    on a common cycle of one of them.

    The check judges only the covers it is handed; the conjecture itself
    is decided on ``all_even_cycle_covers(m)``.  Each (cover, cycle) slot
    is one bit, and each edge gets the mask of the slots that hold it, so
    a pair shares a cycle iff its two masks meet.  The witness is the
    first failing pair in ``face_pairs`` order.
    """
    slots: dict[int, int] = {}
    bit = 1
    for cover in covers:
        for cycle in cover:
            for e in cycle:
                slots[e] = slots.get(e, 0) | bit
            bit <<= 1
    for face, a, b in face_pairs(m):
        if not slots.get(a, 0) & slots.get(b, 0):
            witness = {"face": face, "edges": [a, b]}
            return ConjectureReport(2, map_fingerprint(m), "refuted", witness)
    return ConjectureReport(2, map_fingerprint(m), "holds")
