"""Random edge insertion that keeps a compatible even cycle cover.

An insertion picks one internal face and two of its edges (possibly the
same edge), subdivides each target with a new vertex, and joins the two
new vertices by a new edge across the face.  The edge membership of the
vertices and faces is updated, the chosen cover is rewritten onto the new
map, and the closure is recomputed, so after every step the map carries
the covers, labellings and Hamiltonian cycles of the reselection class
(Kempe class) that holds the rewritten cover.  On maps whose covers
split into several classes the others are not reached; the Hamiltonian
subset may then be empty even on a Hamiltonian map, and it is empty on
every non-Hamiltonian map.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import count, islice
from typing import Iterable

from .closure import cover_closure
from .errors import (
    EdgeNotOnFace,
    IncompatibleCover,
    NoCompatibleInsertion,
    NoHamiltonian,
)
from .incidence import (
    Cover,
    CubicMap,
    check_cover,
    decompose_two_factor,
    face_boundary_walk,
)
from .labelling import Labelling, closure_labellings, hamiltonian_covers
from .serialize import map_to_document


@dataclass(frozen=True)
class InsertionEvent:
    """Record of one edge insertion: ids are in the new map's id space,
    except ``face`` and ``targets`` which name the old map's objects."""

    face: int
    targets: tuple[int, int]
    new_vertices: tuple[int, int]
    new_edge: int
    split_edges: dict[int, tuple[int, ...]]
    new_face: int


@dataclass(frozen=True)
class GrowthStep:
    """One entry of a growth trace: the map after ``event`` (None for the
    seed map), its growth cover and the closure of that cover with the
    labellings and Hamiltonian cycles it induces."""

    map: CubicMap
    cover: Cover
    covers: tuple[Cover, ...]
    labellings: tuple[Labelling, ...]
    hamiltonian: tuple[Cover, ...]
    event: InsertionEvent | None = None


def choose_insertion(m: CubicMap, rng: random.Random) -> tuple[int, int, int]:
    """Draw (face, edge, edge): face uniform over internal faces, then two
    edges uniform with replacement from that face's boundary.

    Draw order is fixed (face, first edge, second edge) so traces are
    reproducible from the generator seed.
    """
    faces = m.face_ids
    face = faces[rng.randrange(len(faces))]
    edges = m.face_edges[face]
    e1 = edges[rng.randrange(len(edges))]
    e2 = edges[rng.randrange(len(edges))]
    return face, e1, e2


def insert_edge(
    m: CubicMap, face: int, e1: int, e2: int
) -> tuple[CubicMap, InsertionEvent]:
    """Insert a new edge across ``face`` between targets ``e1`` and ``e2``.

    Each target retires and its segments get fresh ids: two per target
    for distinct targets (H-insertion), three for equal targets, then the
    new edge ``g``.  The face boundary is walked from ``e1``'s entry
    vertex, subdividing the targets and placing the new vertices ``x`` and
    then ``y`` at their inner points.  The walk from ``x`` to ``y`` plus
    ``g`` becomes ``new_face`` (a bigon for equal targets); the rest plus
    ``g`` keeps ``face``.
    """
    walk = face_boundary_walk(m, face)
    walk_edges = [e for _, e in walk]
    for e in (e1, e2):
        if e not in walk_edges:
            raise EdgeNotOnFace(f"edge {e} not on face {face}")
    x = m.next_ids.vertex
    y = x + 1
    new_face = m.next_ids.face
    fresh = count(m.next_ids.edge)
    segments = 3 if e1 == e2 else 2
    split = {e: tuple(islice(fresh, segments)) for e in dict.fromkeys((e1, e2))}
    g = next(fresh)

    vertex_edges = {v: set(es) for v, es in m.vertex_edges.items()}
    vertex_edges[x], vertex_edges[y] = {g}, {g}
    face_sets = {f: set(es) for f, es in m.face_edges.items()}
    for old, segs in split.items():
        for v in m.edge_vertices[old]:
            vertex_edges[v].remove(old)
        for edges in face_sets.values():
            if old in edges:
                edges.remove(old)
                edges.update(segs)

    i = walk_edges.index(e1)
    inner = iter((x, y))
    cut = []  # (entry vertex, edge) around the subdivided boundary
    for v, e in walk[i:] + walk[:i]:
        segs = split.get(e, (e,))
        points = [v, *islice(inner, len(segs) - 1), m.other_endpoint(e, v)]
        for k, seg in enumerate(segs):
            # re-adding an untouched edge to its own ends changes nothing
            vertex_edges[points[k]].add(seg)
            vertex_edges[points[k + 1]].add(seg)
            cut.append((points[k], seg))
    entries = [v for v, _ in cut]
    ix, iy = entries.index(x), entries.index(y)
    face_sets[new_face] = {e for _, e in cut[ix:iy]} | {g}
    face_sets[face] = {e for _, e in cut[iy:] + cut[:ix]} | {g}

    new_map = CubicMap.from_membership(vertex_edges, face_sets)
    event = InsertionEvent(
        face=face,
        targets=(e1, e2),
        new_vertices=(x, y),
        new_edge=g,
        split_edges=split,
        new_face=new_face,
    )
    return new_map, event


def compatible_cover(covers: Iterable[Cover], e1: int, e2: int) -> Cover | None:
    """First cover in the given order with a single cycle through both
    targets, or None."""
    for cover in covers:
        for cycle in cover:
            if e1 in cycle and e2 in cycle:
                return cover
    return None


def rewrite_cover(cover: Cover, event: InsertionEvent, new_map: CubicMap) -> Cover:
    """Rewrite a cover of the old map onto the post-insertion map.

    Each split target edge is replaced by all of its segments, so the
    host cycle grows by exactly two vertices and stays even; the inserted
    edge joins two host-cycle vertices and becomes an off-cover edge.
    Every other edge keeps its id, so the rewritten on-edges are
    decomposed once on the new map.
    """
    e1, e2 = event.targets
    host = [c for c in cover if e1 in c or e2 in c]
    if len(host) != 1 or e1 not in host[0] or e2 not in host[0]:
        raise IncompatibleCover(
            f"targets {event.targets} do not lie on a single cycle of the cover"
        )
    on = {e for cycle in cover for e in cycle}
    for old, segments in event.split_edges.items():
        on.remove(old)
        on.update(segments)
    return decompose_two_factor(new_map, on)


def face_pairs(m: CubicMap):
    """Every (face, edge, edge) with both edges on the face, unordered,
    equal pairs included."""
    for face in m.face_ids:
        edges = m.face_edges[face]
        for i, a in enumerate(edges):
            for b in edges[i:]:
                yield face, a, b


def _draw_insertion(m, covers, rng, step):
    """Redraw until the drawn pair has a compatible cover.

    Only when an exhaustive scan shows that *no* face/edge pair of the
    current map admits one does the run halt: that map is a candidate
    counterexample to the shared-cycle conjecture and is serialized as a
    witness.
    """
    scanned = False
    while True:
        face, e1, e2 = choose_insertion(m, rng)
        host = compatible_cover(covers, e1, e2)
        if host is not None:
            return face, e1, e2, host
        if not scanned:
            scanned = True
            if not any(
                compatible_cover(covers, a, b) is not None
                for _, a, b in face_pairs(m)
            ):
                first_face, a, b = next(iter(face_pairs(m)))
                raise NoCompatibleInsertion(
                    "no face/edge pair admits a compatible cover",
                    witness={
                        "step": step,
                        "map": map_to_document(m),
                        "failing_pair": {"face": first_face, "edges": [a, b]},
                    },
                )


def grow(
    m: CubicMap,
    seed_cover: Cover,
    iterations: int,
    rng_seed: int,
) -> list[GrowthStep]:
    """Run ``iterations`` random insertions starting from a covered map.

    Every step records the current map, its cover closure, the distinct
    labellings, the Hamiltonian subset and the insertion that produced
    the map (None for step 0).  Fully reproducible from ``rng_seed``.
    """
    if iterations < 0:
        raise ValueError("iterations must be >= 0")
    rng = random.Random(rng_seed)
    cover = check_cover(m, seed_cover)
    event: InsertionEvent | None = None
    steps: list[GrowthStep] = []
    for step in range(iterations + 1):
        covers = cover_closure(m, cover)
        labellings = closure_labellings(m, covers)
        try:
            hams = hamiltonian_covers(m, covers)
        except NoHamiltonian:
            # A step with no Hamiltonian cover is a noteworthy event, but
            # aborting would hide the rest of the run from the conjecture
            # sweeps; it is recorded as an empty subset instead.
            hams = ()
        steps.append(GrowthStep(m, cover, covers, labellings, hams, event))
        if step == iterations:
            break
        face, e1, e2, host = _draw_insertion(m, covers, rng, step)
        m, event = insert_edge(m, face, e1, e2)
        cover = rewrite_cover(host, event, m)
    return steps
