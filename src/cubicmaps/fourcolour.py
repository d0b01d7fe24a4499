"""Face four-colouring from a proper edge labelling, and vertex blow-up
of arbitrary planar maps down to cubic ones.

Colours are sign pairs.  Crossing an edge flips signs according to the
edge's class: first index, second index, or both.  The three flips plus
identity form the Klein four-group (xor on two bits), which is exactly
why propagation around any closed dual walk is consistent when the
labelling is proper.  The dual's edges and its breadth-first spanning
tree from the outer face depend only on the map, so ``CubicMap`` caches
them (``dual_edges``, ``dual_tree``); each colouring is one pass along
the tree and one check of every dual edge.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import InconsistentLabelling, InvalidRotation
from .incidence import OUTER, CubicMap, FaceKey
from .labelling import _class_positions, canonical_labelling

COLOURS = ("++", "+-", "-+", "--")
# canonical class 1 flips the first index, class 2 the second, class 3 both
_CLASS_FLIPS = (0b10, 0b01, 0b11)

FaceColouring = dict[FaceKey, str]


def face_colouring_from_labelling(m: CubicMap, lab) -> FaceColouring:
    """Propagate sign-pair colours over the dual from the outer face.

    The outer face takes (+,+); each crossed edge applies its class flip.
    Propagation follows the map's cached dual spanning tree
    (``m.dual_tree``), which also fixes the key order of the result.
    Afterwards every dual edge is checked, so an improper labelling cannot
    slip through.  Raises InconsistentLabelling unless the labelling has
    exactly three classes that partition the edges.
    """
    position = _class_positions(m, canonical_labelling(lab))
    if position is None:
        raise InconsistentLabelling("labelling classes do not partition the edges")
    bits: dict[FaceKey, int] = {OUTER: 0}
    for face, parent, e in m.dual_tree:
        bits[face] = bits[parent] ^ _CLASS_FLIPS[position[e]]
    for e, (a, b) in m.dual_edges.items():
        if bits[a] ^ _CLASS_FLIPS[position[e]] != bits[b]:
            raise InconsistentLabelling(
                f"edge {e}: colour flip inconsistent between faces {a} and {b}"
            )
    return {f: COLOURS[v] for f, v in bits.items()}


def _proper_colouring(fc: FaceColouring, faces: set, separated) -> bool:
    """True iff ``fc`` colours exactly ``faces``, each from ``COLOURS``,
    and gives the two faces of every pair in ``separated`` different colours."""
    total = set(fc) == faces and all(c in COLOURS for c in fc.values())
    return total and all(fc[a] != fc[b] for a, b in separated)


def validate_face_colouring(m: CubicMap, fc: FaceColouring) -> bool:
    """True iff the colouring is total (all faces plus outer), uses only
    ``COLOURS``, and every edge separates two different colours."""
    return _proper_colouring(fc, {*m.face_ids, OUTER}, m.dual_edges.values())


# ---------------------------------------------------------------------
# Rotation maps and vertex blow-up
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class RotationMap:
    """Arbitrary bridgeless planar map as a rotation system: each vertex
    lists its incident edges in cyclic order."""

    rotations: dict[int, tuple[int, ...]]
    endpoints: dict[int, tuple[int, int]]

    def other_endpoint(self, edge: int, vertex: int) -> int:
        a, b = self.endpoints[edge]
        return b if vertex == a else a


def validate_rotation(rmap: RotationMap) -> None:
    """Raise InvalidRotation unless every row is a tuple or list, every id is a
    positive int, and the rotation system is a connected loop-free map with
    at least one vertex and every vertex of degree >= 3."""
    if not rmap.rotations:
        raise InvalidRotation("rotation map has no vertices")
    rows = (*rmap.rotations.values(), *rmap.endpoints.values())
    for row in rows:
        if not isinstance(row, (tuple, list)):
            raise InvalidRotation(f"rotation and endpoint rows must be sequences, not {row!r}")
    for i in (*rmap.rotations, *rmap.endpoints, *(i for row in rows for i in row)):
        if type(i) is not int or i < 1:
            raise InvalidRotation(f"vertex and edge ids must be positive integers, not {i!r}")
    seen: dict[int, list[int]] = {}
    for v, rot in rmap.rotations.items():
        if len(rot) < 3:
            raise InvalidRotation(f"vertex {v} has degree {len(rot)} (< 3)")
        for e in rot:
            seen.setdefault(e, []).append(v)
    for e, vs in sorted(seen.items()):
        if len(vs) != 2:
            raise InvalidRotation(f"edge {e} appears {len(vs)} times in rotations")
        if vs[0] == vs[1]:
            raise InvalidRotation(f"edge {e} is a loop at vertex {vs[0]}")
        if e not in rmap.endpoints or sorted(vs) != sorted(rmap.endpoints[e]):
            raise InvalidRotation(f"edge {e} rotations disagree with endpoints")
    extra = set(rmap.endpoints) - set(seen)
    if extra:
        raise InvalidRotation(f"endpoints list unknown edges {sorted(extra)}")

    vertices = sorted(rmap.rotations)
    reached = {vertices[0]}
    queue = deque(reached)
    while queue:
        v = queue.popleft()
        for e in rmap.rotations[v]:
            w = rmap.other_endpoint(e, v)
            if w not in reached:
                reached.add(w)
                queue.append(w)
    if reached != set(vertices):
        raise InvalidRotation("rotation map is not connected")


def _face_orbits(rmap: RotationMap) -> list[tuple]:
    """Orbits of darts (vertex, outgoing edge) under face traversal: after
    crossing an edge, leave along its predecessor in the arrival rotation."""
    darts = [(v, e) for v in sorted(rmap.rotations) for e in rmap.rotations[v]]
    pending = set(darts)
    orbits = []
    for cur in darts:
        orbit = []
        while cur in pending:
            pending.remove(cur)
            orbit.append(cur)
            v, e = cur
            w = rmap.other_endpoint(e, v)
            rot = rmap.rotations[w]
            cur = (w, rot[rot.index(e) - 1])
        if orbit:
            orbits.append(tuple(orbit))
    return orbits


def _orbit_key(orbit) -> tuple[int, ...]:
    return tuple(sorted(e for _, e in orbit))


@dataclass(frozen=True)
class BlowUpMapping:
    """Face correspondence of a blow-up.

    ``face_to_new`` sends each original face key (int id or OUTER) to the
    blown-up face carrying the same region; ``vertex_ring_face`` gives the
    small face each original vertex becomes.  ``original_edge_faces``
    records which original faces every original edge separates, which is
    all a pulled-back colouring needs for validation.
    """

    face_to_new: dict[FaceKey, FaceKey]
    vertex_ring_face: dict[int, int]
    original_faces: dict[FaceKey, tuple[int, ...]]
    original_edge_faces: dict[int, tuple[FaceKey, FaceKey]]


def blow_up(rmap: RotationMap) -> tuple[CubicMap, BlowUpMapping]:
    """Replace every degree-d vertex by a d-cycle of degree-3 vertices in
    rotation order; original edges reattach to the matching ring vertex.

    The corner of edge ``e`` at ``v`` has rotation (``e``, ring edge
    (v, e), ring edge before it), where ring edge (v, e) joins it to the
    next corner of ``v``.  Face traversal in the blown-up map therefore
    crosses each original edge and then one ring edge: the counterpart of
    an original face is its own edges plus ring edge (v, e) for each of its
    darts (v, e), and the ring face of ``v`` is its d ring edges.

    Returns the cubic map plus the face mapping.  The original face with
    the smallest boundary key becomes the outer face, and so does its
    blown-up counterpart; the other blown-up faces are numbered from 1 in
    order of their sorted edges.
    """
    validate_rotation(rmap)
    orig_orbits = _face_orbits(rmap)
    n_edges = len(rmap.endpoints)
    n_vertices = len(rmap.rotations)
    if len(orig_orbits) != n_edges - n_vertices + 2:
        raise InvalidRotation("rotation system is not a sphere embedding")
    for orbit in orig_orbits:
        edges = [e for _, e in orbit]
        if len(edges) != len(set(edges)):
            raise InvalidRotation("map has a bridge (an edge borders one face twice)")

    # corners and ring edges, minted in sorted vertex / rotation order
    new_rotations: dict[int, tuple[int, ...]] = {}
    ring: dict[tuple[int, int], int] = {}
    rings: dict[int, tuple[int, ...]] = {}
    next_edge = max(rmap.endpoints) + 1
    for v in sorted(rmap.rotations):
        rot = rmap.rotations[v]
        rings[v] = tuple(range(next_edge, next_edge + len(rot)))
        for i, e in enumerate(rot):
            ring[(v, e)] = rings[v][i]
            new_rotations[len(new_rotations) + 1] = (e, rings[v][i], rings[v][i - 1])
        next_edge += len(rot)

    orig_orbits.sort(key=_orbit_key)
    orbit_face: list[FaceKey] = [OUTER] + list(range(1, len(orig_orbits)))
    dart_to_orig: dict[tuple[int, int], FaceKey] = {}
    original_faces = {}
    counterpart = {}
    for face, orbit in zip(orbit_face, orig_orbits):
        original_faces[face] = _orbit_key(orbit)
        counterpart[face] = tuple(sorted(original_faces[face] + tuple(ring[d] for d in orbit)))
        for dart in orbit:
            dart_to_orig[dart] = face
    original_edge_faces = {
        e: (dart_to_orig[(p, e)], dart_to_orig[(q, e)]) for e, (p, q) in rmap.endpoints.items()
    }

    internal = sorted([*counterpart.values(), *rings.values()])
    internal.remove(counterpart[OUTER])
    face_id: dict[tuple[int, ...], FaceKey] = {counterpart[OUTER]: OUTER}
    for fid, key in enumerate(internal, start=1):
        face_id[key] = fid
    cubic = CubicMap.from_membership(new_rotations, dict(enumerate(internal, start=1)))

    mapping = BlowUpMapping(
        face_to_new={face: face_id[key] for face, key in counterpart.items()},
        vertex_ring_face={v: face_id[key] for v, key in rings.items()},
        original_faces=original_faces,
        original_edge_faces=original_edge_faces,
    )
    return cubic, mapping


def pull_back_colouring(fc: FaceColouring, mapping: BlowUpMapping) -> FaceColouring:
    """Colour each original face like its blown-up counterpart.

    Collapsing the rings removes neighbours and adds none, so properness
    survives; ring faces are simply dropped.
    """
    return {face: fc[new] for face, new in mapping.face_to_new.items()}


def validate_pulled_back(mapping: BlowUpMapping, fc: FaceColouring) -> bool:
    """Properness of a colouring on the original (pre-blow-up) map: total,
    from ``COLOURS``, and every original edge separates two colours."""
    return _proper_colouring(fc, set(mapping.face_to_new), mapping.original_edge_faces.values())
