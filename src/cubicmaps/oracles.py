"""Ground-truth enumerators and the two conjecture checkers.

The enumerators are independent of the closure engine: perfect matchings
by vertex-order backtracking, even cycle covers by matching
complementation (a 2-factor of a cubic graph is exactly the complement
of a perfect matching), and proper labellings by splitting complements
(each class of a proper 3-edge-labelling meets every vertex once, so a
labelling is a perfect matching plus a split of its 2-factor complement
into two more).  The matching search is their one search.  They exist to
*check* the fast path, so they share none of its search or pick logic
(the closure's step, ``growth``), only what both read: ``walk_cycles``,
the edge-mask conversions and ``_to_labellings``.

Input contract: every edge has two distinct ends (``CubicMap.edge_vertices``
raises NotTwoRegular otherwise), so matchings are found on any loop-free
multigraph.  The cover and the labelling enumerators also check that
every vertex meets three distinct edges, else NotTwoRegular: building the
map's turn table (``CubicMap._turns``) is that check.  A map too
deep for the matching search's recursion raises CapExceeded, like a map
over the cap.

Work that depends only on the map is done once per map.  After their one
degree check, both the cover and the labelling enumerator read the
matchings through ``_even_complements``, which walks each matching's
complement, a spanning 2-factor, unchecked into its canonical cover and
keeps the all-even ones; the cover enumerator sorts the covers it gets.
The shared-cycle check gives every (cover, cycle) slot one bit and every
edge the mask of the slots that hold it, so a face pair shares a cycle
iff its masks meet.

The matching search visits the vertices in depth-first order from the
lowest id, so each vertex it matches, bar the first of a component, has
a neighbour already matched.  It holds the covered vertices as an
integer bitmask over the positions of that order, and returns each
matching as an edge mask.  ``all_perfect_matchings`` converts the masks
to edge sets.  The labelling oracle searches only the matchings that hold
the first vertex's first edge and splits each all-even complement into
its cycles' alternating halves on masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .closure import cover_closure
from .errors import CapExceeded
from .incidence import Cover, CubicMap, edge_mask, mask_edges, walk_cycles
from .labelling import Labelling, _to_labellings
from .serialize import map_fingerprint

DEFAULT_ORACLE_CAP = 45


def _check_cap(m: CubicMap, cap: int) -> None:
    if m.n_edges > cap:
        raise CapExceeded(f"map has {m.n_edges} edges, oracle cap is {cap}")


def _search_order(m: CubicMap) -> list[int]:
    """The vertex ids in depth-first preorder from the lowest id.

    Each vertex visits its edges in id order.  A vertex that no earlier
    vertex reaches starts the next tree, lowest unvisited id first, so a
    disconnected map still lists every vertex.
    """
    order: list[int] = []
    seen: set[int] = set()
    for root in m.vertex_ids:
        stack = [root]
        while stack:
            v = stack.pop()
            if v not in seen:
                seen.add(v)
                order.append(v)
                stack.extend(m.other_endpoint(e, v) for e in reversed(m.vertex_edges[v]))
    return order


def _matchings(m: CubicMap, _anchored: bool = False) -> list[int]:
    """The edge mask of every perfect matching, unsorted; with ``_anchored``,
    only those that hold the first vertex's first edge.

    Backtracks over the vertices in ``_search_order``, so each vertex to
    match, bar the first of a component, has a neighbour already matched
    and a dead end shows early.  The covered vertices are an integer
    bitmask, bit i for the i-th vertex of that order; the next vertex to
    match is the lowest uncovered bit, ``~covered & (covered + 1)``, and
    it offers its precomputed (edge bit, neighbour bit) pairs.  Each
    matching's edge mask is built while the search recurses.
    """
    bit = {v: 1 << i for i, v in enumerate(_search_order(m))}
    options = {
        bit[v]: [(1 << e, bit[m.other_endpoint(e, v)]) for e in es]
        for v, es in m.vertex_edges.items()
    }
    if _anchored and options:
        options[1] = options[1][:1]  # bit 1 is the lowest vertex id
    full = (1 << m.n_vertices) - 1
    out: list[int] = []

    def extend(covered: int, edges: int) -> None:
        if covered == full:
            out.append(edges)
            return
        low = ~covered & (covered + 1)
        for e, other in options[low]:
            if not covered & other:
                extend(covered | low | other, edges | e)

    try:
        extend(0, 0)
    except RecursionError:
        raise CapExceeded("map is too deep for the matching search") from None
    return out


def all_perfect_matchings(m: CubicMap, cap: int = DEFAULT_ORACLE_CAP) -> tuple[frozenset[int], ...]:
    """Every edge set covering each vertex exactly once, sorted by their
    sorted edges (``_matchings`` after the cap check)."""
    _check_cap(m, cap)
    return tuple(map(frozenset, sorted(map(mask_edges, _matchings(m)))))


def _even_complements(m: CubicMap, masks: Iterable[int]) -> Iterator[tuple[int, Cover]]:
    """``(mask, cover)`` for each perfect matching mask whose complement,
    walked unchecked into its canonical cover, has only even cycles (Tait).
    The caller's degree check makes every complement a spanning 2-factor."""
    for mask in masks:
        cycles = walk_cycles(m, m._all_mask ^ mask)
        if all(len(c) % 2 == 0 for c in cycles):
            yield mask, cycles


def all_even_cycle_covers(m: CubicMap, cap: int = DEFAULT_ORACLE_CAP) -> tuple[Cover, ...]:
    """Every spanning set of vertex-disjoint even cycles, canonical-sorted.

    After the cap check, the map's turn table checks that every vertex
    meets three distinct edges (NotTwoRegular otherwise), which makes the
    complement of every perfect matching a spanning 2-factor.  The covers
    of the all-even complements are sorted (``_even_complements``).
    """
    _check_cap(m, cap)
    m._turns  # the degree check
    matchings = map(edge_mask, all_perfect_matchings(m, cap))
    return tuple(sorted(cover for _, cover in _even_complements(m, matchings)))


def all_proper_labellings(m: CubicMap, cap: int = DEFAULT_ORACLE_CAP) -> tuple[Labelling, ...]:
    """Every proper 3-edge-labelling up to role permutation, sorted.

    On a cubic map each class meets every vertex once, so a labelling is a
    perfect matching plus a split of its complement, a spanning 2-factor,
    into two more matchings (Tait).  Such a split exists iff every cycle of
    the complement is even, and then takes one alternating half of each
    cycle: 2**(c-1) splits up to order for c cycles.  Only the matchings
    that hold the first vertex's first edge are searched, and the class
    holding that edge is unique, so each labelling is found exactly once.
    """
    _check_cap(m, cap)
    m._turns  # the degree check of the cover oracle
    found = []
    for p, cycles in _even_complements(m, _matchings(m, _anchored=True)):
        # the first cycle's even positions always go to x, so each split
        # (x, y) is listed once, not once per order
        splits = [(0, 0)]
        for i, cycle in enumerate(cycles):
            a, b = edge_mask(cycle[0::2]), edge_mask(cycle[1::2])
            splits = [(x | a, y | b) for x, y in splits] + [(x | b, y | a) for x, y in splits if i]
        found += [(p, x, y) for x, y in splits]
    return _to_labellings(found)


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
