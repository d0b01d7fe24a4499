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
from .errors import EdgeNotOnFace, IncompatibleCover, NoHamiltonian
from .incidence import (
    Cover,
    CubicMap,
    check_cover,
    decompose_two_factor,
    face_boundary_walk,
)
from .labelling import Labelling, closure_labellings, hamiltonian_covers


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
    labellings and Hamiltonian cycles it induces, built by ``growth_step``."""

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
    new edge ``g``.  Every new row follows from one boundary walk
    (``face_boundary_walk``), with ``s1`` and ``s2`` the segments of ``e1``
    and ``e2``, and ``walk`` the face's edges from ``e1``, ``e2`` at index
    ``k`` (0 for equal targets):

    - each target's entry vertex gets its first segment and its far end
      its last; each face holding a target gets all its segments instead;
    - the new vertices are ``x = {s1[0], s1[1], g}`` and
      ``y = {s2[-2], s2[-1], g}``;
    - ``new_face = {s1[1], *walk[1:k], s2[-2], g}``, the bigon
      ``{s[1], g}`` for equal targets, and ``face`` keeps the rest,
      ``{s2[-1], *walk[k + 1:], s1[0], g}``.

    Only the rows the insertion touches are rebuilt: the targets' ends,
    ``x`` and ``y``, the faces that hold a target, and ``new_face``.  Every
    other row of the new map is the parent's tuple, shared.
    """
    entry = {e: v for v, e in face_boundary_walk(m, face)}  # in walk order
    for e in (e1, e2):
        if e not in entry:
            raise EdgeNotOnFace(f"edge {e} not on face {face}")
    # every constructor keeps the id registries sorted, so one past the
    # last entry of each is a fresh id (the walk found the face, so none
    # of them is empty)
    x = m.vertex_ids[-1] + 1
    y = x + 1
    new_face = m.face_ids[-1] + 1
    first_edge = m.edge_ids[-1] + 1
    fresh = count(first_edge)
    segments = 3 if e1 == e2 else 2
    split = {e: tuple(islice(fresh, segments)) for e in dict.fromkeys((e1, e2))}
    g = next(fresh)
    s1, s2 = split[e1], split[e2]

    vertex_sets = {v: set(m.vertex_edges[v]).difference(split) for old in split
                   for v in m.edge_vertices[old]}
    face_sets = {f: set(m.face_edges[f]).difference(split) for old in split
                 for f in m.edge_internal_faces[old]}
    for old, segs in split.items():
        vertex_sets[entry[old]].add(segs[0])
        vertex_sets[m.other_endpoint(old, entry[old])].add(segs[-1])
        for f in m.edge_internal_faces[old]:
            face_sets[f].update(segs)
    vertex_sets[x], vertex_sets[y] = {*s1[:2], g}, {*s2[-2:], g}
    edges = list(entry)
    i = edges.index(e1)
    walk = edges[i:] + edges[:i]
    k = walk.index(e2)
    face_sets[new_face] = {s1[1], *walk[1:k], s2[-2], g}
    face_sets[face] = {s2[-1], *walk[k + 1:], s1[0], g}

    # fresh ids exceed every existing id, so appending them keeps id order
    new_map = CubicMap._from_rows(
        _with_rows(m.vertex_edges, vertex_sets),
        _with_rows(m.face_edges, face_sets),
        tuple(e for e in m.edge_ids if e not in split) + tuple(range(first_edge, g + 1)),
    )
    event = InsertionEvent(
        face=face,
        targets=(e1, e2),
        new_vertices=(x, y),
        new_edge=g,
        split_edges=split,
        new_face=new_face,
    )
    return new_map, event


def _with_rows(rows, changed):
    """``rows`` with the ``changed`` rows sorted in; new keys come last."""
    return {**rows, **{k: tuple(sorted(es)) for k, es in changed.items()}}


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


def growth_step(m: CubicMap, cover: Cover, event: InsertionEvent | None = None) -> GrowthStep:
    """The per-map work of growth: the closure of ``cover`` on ``m``, its
    labellings and its Hamiltonian subset.  A map without a Hamiltonian
    cover is recorded with an empty subset rather than aborting, so the
    rest of a run stays visible to the conjecture sweeps."""
    covers = cover_closure(m, cover)
    labellings = closure_labellings(m, covers)
    try:
        hams = hamiltonian_covers(m, covers)
    except NoHamiltonian:
        hams = ()
    return GrowthStep(m, cover, covers, labellings, hams, event)


def grow(
    m: CubicMap,
    seed_cover: Cover,
    iterations: int,
    rng_seed: int,
) -> list[GrowthStep]:
    """Run ``iterations`` random insertions starting from a covered map.

    Step 0 is ``growth_step`` on the checked seed cover.  Each later step
    redraws with ``choose_insertion`` until ``compatible_cover`` finds a
    host in the closure, inserts the edge, rewrites the host onto the new
    map and runs ``growth_step`` on it with the insertion event.  Fully
    reproducible from ``rng_seed``.

    The redraw loop ends: if an edge e is off a closure cover C, every half
    pick (p, q, off) of C has e in ``off``, and the successor ``p | off`` is
    in the closure with e on a cycle, so any draw with e1 == e2 succeeds.
    This rests on drawing against the full closure of the previous step.
    """
    if iterations < 0:
        raise ValueError("iterations must be >= 0")
    rng = random.Random(rng_seed)
    steps = [growth_step(m, check_cover(m, seed_cover))]
    for _ in range(iterations):
        host = None
        while host is None:
            face, e1, e2 = choose_insertion(m, rng)
            host = compatible_cover(steps[-1].covers, e1, e2)
        m, event = insert_edge(m, face, e1, e2)
        steps.append(growth_step(m, rewrite_cover(host, event, m), event))
    return steps
