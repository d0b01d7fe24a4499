"""Edge-membership model of cubic planar maps.

A map is its edge membership: each vertex lists its incident edges and
each internal face its boundary edges (the outer face has no entry, so
external edges lie on a single listed face).  The 0/1 incidence matrices
``vertex_edge`` (rows = vertices, columns = edges) and ``face_edge``
(rows = internal faces) are parsed into that form and built back from it.
Parallel edges are first class (identical columns); loops are
inexpressible and rejected.  All adjacency queries are edge-id based,
never endpoint based, so parallel edges never collide.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import InvalidCover, MalformedFace, NotACycle, NotTwoRegular

Cycle = tuple[int, ...]
Cover = tuple[Cycle, ...]
Members = dict[int, tuple[int, ...]]


@dataclass(frozen=True)
class NextIds:
    """Counters for fresh vertex/edge/face ids."""

    vertex: int
    edge: int
    face: int


class CubicMap:
    """A cubic planar map with opaque positive integer ids.

    ``vertex_edges`` and ``face_edges`` give each vertex and internal face
    its id-sorted edges; a parsed matrix entry above 1 lists its edge
    twice, so ``validate_map`` can report it.  The incidence matrices
    ``vertex_edge`` and ``face_edge`` (rows and columns id-sorted) are
    read-only uint8 arrays, built and numpy imported on first read.
    Instances are immutable after construction; every operation that
    changes the map returns a new instance, so values can be shared freely
    across threads.
    """

    def __init__(self, vertex_edge, face_edge):
        """Parse the two incidence matrices; ids are positional (1..n)."""
        ve, width = _matrix_rows(vertex_edge)
        fe, face_width = _matrix_rows(face_edge)
        self._set_members(
            {v: _members(row) for v, row in enumerate(ve, start=1)},
            {f: _members(row) for f, row in enumerate(fe, start=1)},
            tuple(range(1, width + 1)),
            tuple(range(1, face_width + 1)),
        )

    @classmethod
    def from_membership(cls, vertex_edges, face_edges) -> CubicMap:
        """Map from vertex -> incident edge ids and internal face ->
        boundary edge ids.  The keys are the vertex and face ids, and the
        edge ids are the ones the vertices meet."""
        vertex_edges, face_edges = (
            {k: tuple(sorted(set(es))) for k, es in sorted(members.items())}
            for members in (vertex_edges, face_edges)
        )
        edge_ids = tuple(sorted(set().union(*vertex_edges.values())))
        m = cls.__new__(cls)
        m._set_members(vertex_edges, face_edges, edge_ids, edge_ids)
        return m

    def _set_members(self, vertex_edges, face_edges, edge_ids, face_columns):
        self.vertex_edges: Members = vertex_edges
        self.face_edges: Members = face_edges
        self.vertex_ids, self.face_ids = tuple(vertex_edges), tuple(face_edges)
        self.edge_ids = edge_ids
        self._face_columns = face_columns  # edge ids of the face-edge columns
        self.next_ids = NextIds(
            *(max(ids, default=0) + 1 for ids in (self.vertex_ids, edge_ids, self.face_ids))
        )

    # -- sizes ---------------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.vertex_ids)

    @property
    def n_edges(self) -> int:
        return len(self.edge_ids)

    @property
    def n_internal_faces(self) -> int:
        return len(self.face_ids)

    # -- incidence matrices --------------------------------------------

    def matrix_rows(self) -> tuple[list[list[int]], list[list[int]]]:
        """The vertex-edge and face-edge matrices as lists of rows."""
        return (
            _incidence_rows(self.vertex_edges, self.edge_ids),
            _incidence_rows(self.face_edges, self._face_columns),
        )

    @cached_property
    def vertex_edge(self):
        return _read_only(self.matrix_rows()[0], self.n_edges)

    @cached_property
    def face_edge(self):
        return _read_only(self.matrix_rows()[1], len(self._face_columns))

    # -- derived adjacency (valid maps only) ---------------------------

    @cached_property
    def _edge_ends(self) -> Members:
        """Edge id -> the vertex ids that list it, in id order (any number)."""
        return _transpose(self.vertex_edges, self.edge_ids)

    @cached_property
    def edge_vertices(self) -> dict[int, tuple[int, int]]:
        """Edge id -> its two endpoint vertex ids (sorted)."""
        for e, vs in self._edge_ends.items():
            if len(vs) != 2:
                raise ValueError(f"edge {e} has {len(vs)} endpoints")
        return self._edge_ends

    @cached_property
    def face_edge_sets(self) -> dict[int, frozenset[int]]:
        """Internal face id -> the set of edges on its boundary."""
        return {f: frozenset(es) for f, es in self.face_edges.items()}

    @cached_property
    def edge_internal_faces(self) -> dict[int, tuple[int, ...]]:
        """Edge id -> internal face ids containing it (1 for external edges)."""
        return _transpose(self.face_edges, self.edge_ids)

    @cached_property
    def external_edges(self) -> frozenset[int]:
        """Edges on the outer boundary (on a single internal face)."""
        return frozenset(e for e, fs in self.edge_internal_faces.items() if len(fs) == 1)

    @cached_property
    def all_edges(self) -> frozenset[int]:
        return frozenset(self.edge_ids)

    @cached_property
    def _all_mask(self) -> int:
        """The edge mask of every edge (see ``edge_mask``)."""
        return edge_mask(self.edge_ids)

    def other_endpoint(self, edge: int, vertex: int) -> int:
        a, b = self.edge_vertices[edge]
        return b if vertex == a else a

    def __repr__(self):
        return (
            f"CubicMap(V={self.n_vertices}, E={self.n_edges}, "
            f"F_internal={self.n_internal_faces})"
        )


def _matrix_rows(matrix) -> tuple[list, int]:
    """Rows and width of a non-empty rectangular matrix of integers 0..255,
    given as nested lists or as an array; ValueError otherwise."""
    if hasattr(matrix, "tolist"):
        matrix = matrix.tolist()
    rows = (list, tuple)
    if not matrix or not isinstance(matrix, rows) or not all(isinstance(r, rows) for r in matrix):
        raise ValueError("incidence matrices must be two-dimensional")
    width = len(matrix[0])
    for row in matrix:
        if len(row) != width:
            raise ValueError("incidence matrix rows differ in length")
        for x in row:
            # bool is an int subclass, and JSON true is not a matrix entry
            if type(x) is not int or not 0 <= x <= 255:
                raise ValueError(f"incidence matrix entry {x!r} is not an integer in 0..255")
    return matrix, width


def _members(row: list[int]) -> tuple[int, ...]:
    """The positional column ids of a matrix row; an entry above 1 lists
    its column twice, which is all validation needs, and keeps a document
    of large entries from growing with their size."""
    return tuple(j for j, x in enumerate(row, start=1) for _ in range(min(x, 2)))


def _incidence_rows(members: Members, columns: tuple[int, ...]) -> list[list[int]]:
    col = {e: j for j, e in enumerate(columns)}
    rows = []
    for edges in members.values():
        row = [0] * len(columns)
        for e in edges:
            row[col[e]] += 1
        rows.append(row)
    return rows


def _read_only(rows: list[list[int]], width: int):
    import numpy as np

    mat = np.array(rows, dtype=np.uint8).reshape(len(rows), width)
    mat.setflags(write=False)
    return mat


def _transpose(members: Members, ids: tuple[int, ...]) -> Members:
    """Column id -> the row ids whose members include it, in row order."""
    out: dict[int, list[int]] = {i: [] for i in ids}
    for r, edges in members.items():
        for e in edges:
            out[e].append(r)
    return {i: tuple(rs) for i, rs in out.items()}


# ---------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------

def validate_map(m: CubicMap) -> list[str]:
    """Check every structural invariant and report each violation.

    An empty report means the map is valid.  Nothing is raised: a report
    is data, not a failure.
    """
    widths = (m.n_edges, len(m._face_columns))
    if 0 in (m.n_vertices, m.n_internal_faces, *widths):
        return ["incidence matrices must be non-empty"]
    report: list[str] = []
    for kind, rows in (("vertex", m.vertex_edges), ("face", m.face_edges)):
        if any(len(set(es)) != len(es) for es in rows.values()):
            report.append(f"{kind}-edge matrix has entries outside {{0,1}}")
    if widths[0] != widths[1]:
        report.append(f"face-edge matrix has {widths[1]} columns, vertex-edge has {widths[0]}")
    if report:
        return report

    for v, edges in m.vertex_edges.items():
        if len(edges) != 3:
            report.append(f"vertex row {v} has {len(edges)} ones (expected 3)")
    for e, vs in m._edge_ends.items():
        if len(vs) != 2:
            report.append(f"edge column {e} has {len(vs)} ones in vertex-edge (expected 2)")
    for e, fs in m.edge_internal_faces.items():
        if len(fs) not in (1, 2):
            report.append(f"edge column {e} has {len(fs)} ones in face-edge (expected 1 or 2)")
    if not euler_check(m):
        report.append(
            f"Euler check failed: V={m.n_vertices} - E={m.n_edges} + "
            f"F={m.n_internal_faces}+1 != 2"
        )
    if report:
        return report

    # Outer boundary: every vertex lies on 0 or 2 external edges.
    external = m.external_edges
    for v, edges in m.vertex_edges.items():
        k = sum(1 for e in edges if e in external)
        if k not in (0, 2):
            report.append(f"vertex {v} touches {k} external edges (expected 0 or 2)")
    for f in m.face_ids:
        try:
            face_boundary(m, f)
        except MalformedFace:
            report.append(f"face {f} edges do not form one closed boundary")
    return report


def euler_check(m: CubicMap) -> bool:
    """V - E + (F_internal + 1) == 2, counting the rowless outer face."""
    return m.n_vertices - m.n_edges + m.n_internal_faces + 1 == 2


# ---------------------------------------------------------------------
# Cycle walking and canonical forms
# ---------------------------------------------------------------------

def canonical_cycle(seq: Sequence[int]) -> Cycle:
    """Canonical form of a cyclic edge sequence.

    Rotate so the minimum edge id comes first, then orient so the second
    entry is the smaller of the first edge's two cyclic neighbours.
    """
    seq = tuple(seq)
    i = seq.index(min(seq))
    rot = seq[i:] + seq[:i]
    if len(rot) > 2 and rot[-1] < rot[1]:
        rot = (rot[0],) + tuple(reversed(rot[1:]))
    return rot


def edge_mask(edges: Iterable[int]) -> int:
    """Edge set as an integer: bit e stands for edge id e."""
    mask = 0
    for e in edges:
        mask |= 1 << e
    return mask


def mask_edges(mask: int) -> tuple[int, ...]:
    """The sorted edge ids of an edge mask."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def walk_cycles(m: CubicMap, mask: int) -> list[list[int]]:
    """Split an edge mask into its cycles, each as a list of edge ids.

    The only cycle walker of the package.  Every vertex the mask touches
    must meet exactly two of its edges; callers check that with
    ``_degree_two_mask`` (or, like the closure, build only such masks).
    Each cycle is walked from its lowest edge id, and cycles come out in
    order of their lowest edge id.
    """
    ends, incident = m.edge_vertices, m.vertex_edges
    cycles = []
    while mask:
        low = mask & -mask
        mask ^= low
        e = low.bit_length() - 1
        start, cur = ends[e]
        walk = [e]
        while cur != start:
            for e in incident[cur]:
                if mask >> e & 1:
                    break
            mask ^= 1 << e
            walk.append(e)
            a, b = ends[e]
            cur = b if a == cur else a
        cycles.append(walk)
    return cycles


def mask_cover(m: CubicMap, mask: int) -> Cover:
    """The canonical cover formed by a 2-regular spanning edge mask."""
    return canonical_cover(walk_cycles(m, mask))


def _degree_two_mask(
    m: CubicMap, edges: Iterable[int], error: type[Exception], spanning: bool = False
) -> int:
    """Edge mask of an edge set in which every vertex meets exactly two edges.

    The one degree check of the package.  Checks the vertices the edges
    touch, or with ``spanning`` every vertex of the map in id order, and
    raises ``error`` at the first edge that is not an edge id of the map
    (floats, booleans and strings are not ids) or offending vertex.
    """
    ends = m.edge_vertices
    degree = dict.fromkeys(m.vertex_ids, 0) if spanning else {}
    mask = 0
    for e in edges:
        if type(e) is not int or e not in ends:
            raise error(f"unknown edge id {e!r}")
        mask |= 1 << e
        for v in ends[e]:
            degree[v] = degree.get(v, 0) + 1
    for v, d in degree.items():
        if d != 2:
            raise error(f"vertex {v} meets {d} of the edges (expected 2)")
    return mask


def order_cycle(m: CubicMap, edge_set: Iterable[int]) -> Cycle:
    """Order an unordered edge set into its canonical closed-walk sequence.

    Every touched vertex must have induced degree exactly 2 and the edges
    must form one cycle; raises NotACycle otherwise.
    """
    edges = frozenset(edge_set)
    if not edges:
        raise NotACycle("empty edge set")
    walks = walk_cycles(m, _degree_two_mask(m, edges, NotACycle))
    if len(walks) > 1:
        raise NotACycle("edge set is disconnected")
    return canonical_cycle(walks[0])


def face_boundary(m: CubicMap, face: int) -> Cycle:
    """Edges of an internal face in canonical boundary order."""
    edges = m.face_edges.get(face)
    if edges is None:
        raise MalformedFace(f"face {face} is not a row of the face-edge matrix")
    try:
        return order_cycle(m, edges)
    except NotACycle as exc:
        raise MalformedFace(f"face {face}: {exc}") from exc


def face_boundary_walk(m: CubicMap, face: int) -> list[tuple[int, int]]:
    """Boundary of ``face`` as (entry vertex, edge) pairs in walk order.

    The walk follows the canonical boundary sequence.  The first edge is
    entered at the vertex it shares with the last edge (the smaller one on
    a bigon, where the two edges share both); every later edge is entered
    at the far endpoint of the edge before it, so edge ``i`` runs from the
    i-th entry vertex to the (i+1)-th.  Edge insertion reads the walk
    direction through each target from it.
    """
    cyc = face_boundary(m, face)
    v = min(set(m.edge_vertices[cyc[0]]) & set(m.edge_vertices[cyc[-1]]))
    pairs = []
    for e in cyc:
        pairs.append((v, e))
        v = m.other_endpoint(e, v)
    return pairs


# ---------------------------------------------------------------------
# Covers (sets of vertex-disjoint even cycles spanning all vertices)
# ---------------------------------------------------------------------

def off_edges(m: CubicMap, cover: Cover) -> frozenset[int]:
    """Edges on no cycle of the cover: exactly V/2 of them for a valid cover."""
    on = set()
    for cycle in cover:
        on.update(cycle)
    return m.all_edges - on


def decompose_two_factor(m: CubicMap, on_edges: Iterable[int]) -> Cover:
    """Partition a 2-regular spanning edge set into its cycles.

    Every vertex of the map must have exactly two incident edges in the
    set (NotTwoRegular otherwise).  Cycles come out canonical, sorted by
    (length, sequence).
    """
    return mask_cover(m, _degree_two_mask(m, frozenset(on_edges), NotTwoRegular, spanning=True))


def canonical_cover(cover: Iterable[Sequence[int]]) -> Cover:
    """Canonicalize each cycle, then sort by (length, first edge id)."""
    cycles = [canonical_cycle(c) for c in cover]
    return tuple(sorted(cycles, key=lambda c: (len(c), c)))


def check_cover(m: CubicMap, cover: Iterable[Sequence[int]]) -> Cover:
    """Validate the cover invariants; return the canonical form.

    Raises InvalidCover unless the cycles are pairwise vertex-disjoint
    even closed walks whose vertices together cover the whole map.
    """
    cover = tuple(tuple(c) for c in cover)
    if not cover:
        raise InvalidCover("cover has no cycles")
    cycles = []
    for cyc in cover:
        if len(set(cyc)) != len(cyc):
            raise InvalidCover(f"cycle {cyc} repeats an edge")
        try:
            ordered = order_cycle(m, cyc)
        except NotACycle as exc:
            raise InvalidCover(f"cycle {cyc}: {exc}") from exc
        if len(ordered) % 2 != 0:
            raise InvalidCover(f"cycle {ordered} has odd length {len(ordered)}")
        cycles.append(ordered)
    on = set().union(*cycles)
    if len(on) != sum(map(len, cycles)):
        raise InvalidCover("cycles share an edge")
    # Each cycle meets its own vertices twice, so a vertex meeting two
    # edges of the union lies on exactly one cycle.
    _degree_two_mask(m, on, InvalidCover, spanning=True)
    return canonical_cover(cycles)
