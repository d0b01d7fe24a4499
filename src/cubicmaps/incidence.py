"""Edge-membership model of cubic planar maps.

A map is its edge membership: each vertex lists its incident edges and
each internal face its boundary edges (the outer face has no entry, so
external edges lie on a single listed face).  The 0/1 incidence matrices
``vertex_edge`` (rows = vertices, columns = edges) and ``face_edge``
(rows = internal faces) are parsed into that form and built back from it.
Parallel edges are first class (identical columns); loops are
inexpressible and rejected.  All adjacency queries are edge-id based,
never endpoint based, so parallel edges never collide.

Cycles are walked on a turn table that each map builds from its own
vertex rows (``CubicMap._turns``): a step of ``walk_cycles`` is one table
lookup and one byte read, every walk starts on its lowest edge's dart
``2*e`` and is oriented as ``canonical_cycle`` orients, and the walker
returns its cycles as the canonical cover.  The one cycle test,
``_one_cycle``, walks an edge set once on the same table, for
``validate_map``'s face rows and ``order_cycle``.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property
from itertools import compress, count
from typing import Iterable, Sequence

from .errors import InvalidCover, MalformedFace, NotACycle, NotTwoRegular

Cycle = tuple[int, ...]
Cover = tuple[Cycle, ...]
Members = dict[int, tuple[int, ...]]
FaceKey = int | str

# key of the outer face, which has no face-edge row
OUTER = "outer"

# binary digits to 0/1 bytes: ``_mask_bits``
_DIGIT_BITS = bytes.maketrans(b"01", b"\0\1")


class CubicMap:
    """A cubic planar map with non-negative int vertex, edge and face ids
    (``from_membership`` checks them): edge ids are the bits of an edge
    mask, and edge insertion mints one past the last id of each kind.

    ``vertex_edges`` and ``face_edges`` give each vertex and internal face
    its id-sorted edges; an edge listed twice, or a matrix entry above 1,
    stays listed twice, so ``validate_map`` can report it.  These rows are
    the map: ``matrix_rows()`` builds the two incidence matrices back from
    them, rows and columns id-sorted.  Every constructor keeps the id
    registries ``vertex_ids``, ``edge_ids`` and ``face_ids`` sorted; the one
    edge registry holds every edge id a row names, or every matrix column.
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
            tuple(range(1, max(width, face_width) + 1)),
        )

    @classmethod
    def from_membership(cls, vertex_edges, face_edges) -> CubicMap:
        """Map from vertex -> incident edge ids and internal face ->
        boundary edge ids.  The keys are the vertex and face ids, and the
        edge ids every id a row names.  ValueError, before any sort,
        unless every key and row entry is a non-negative int."""
        rows = [{k: tuple(es) for k, es in d.items()} for d in (vertex_edges, face_edges)]
        if not all(type(i) is int and i >= 0 for r in rows for k in r for i in (k, *r[k])):
            raise ValueError("vertex, edge and face ids must be non-negative integers")
        edge_ids = tuple(sorted({e for r in rows for es in r.values() for e in es}))
        vertex_edges, face_edges = ({k: tuple(sorted(r[k])) for k in sorted(r)} for r in rows)
        return cls._from_rows(vertex_edges, face_edges, edge_ids)

    @classmethod
    def _from_rows(cls, vertex_edges: Members, face_edges: Members, edge_ids) -> CubicMap:
        """The constructor core: the map of rows already in the constructed
        form (keys in id order, each row an id-sorted tuple) and the sorted
        ids of every edge a row names.  The row dicts are kept, not copied,
        so a caller may share unchanged rows with another map."""
        m = cls.__new__(cls)
        m._set_members(vertex_edges, face_edges, edge_ids)
        return m

    def _set_members(self, vertex_edges, face_edges, edge_ids):
        self.vertex_edges: Members = vertex_edges
        self.face_edges: Members = face_edges
        self.vertex_ids, self.face_ids = tuple(vertex_edges), tuple(face_edges)
        self.edge_ids = edge_ids

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
            _incidence_rows(self.face_edges, self.edge_ids),
        )

    # -- derived adjacency (valid maps only) ---------------------------

    @cached_property
    def _edge_ends(self) -> Members:
        """Edge id -> the vertex ids that list it, in id order (any number)."""
        return _transpose(self.vertex_edges, self.edge_ids)

    @cached_property
    def edge_vertices(self) -> dict[int, tuple[int, int]]:
        """Edge id -> its two endpoint vertex ids (sorted).  The one edge-ends
        check: NotTwoRegular unless every edge has two distinct ends."""
        for e, vs in self._edge_ends.items():
            if len(vs) != 2 or vs[0] == vs[1]:
                raise NotTwoRegular(f"edge {e} has ends {list(vs)} (expected 2 distinct)")
        return self._edge_ends

    @cached_property
    def _turns(self) -> dict[int, tuple[int, int, int, int]]:
        """Dart -> ``(y, dy, z, dz)``: the other two edges at the vertex the
        dart points to, each with the dart that leaves that vertex along it.

        Dart ``2*e + k`` is edge e travelled toward ``edge_vertices[e][k]``.
        Built from this map's own rows, never from a parent map, so the face
        check of ``validate_map`` stays independent of edge insertion.
        NotTwoRegular unless every vertex lists three distinct edges.  A
        dict, so an edge id far above the edge count costs no memory.
        """
        ends = self.edge_vertices
        turns = {}
        for v, es in self.vertex_edges.items():
            # rows are id-sorted, so an edge listed twice sits next to itself
            if len(es) != 3 or es[0] == es[1] or es[1] == es[2]:
                raise NotTwoRegular(f"vertex {v} lists edges {list(es)} (expected 3 distinct)")
            a, b, c = es
            # the dart that leaves v along each edge; its partner (^ 1) arrives
            da = 2 * a + (ends[a][0] == v)
            db = 2 * b + (ends[b][0] == v)
            dc = 2 * c + (ends[c][0] == v)
            turns[da ^ 1] = (b, db, c, dc)
            turns[db ^ 1] = (a, da, c, dc)
            turns[dc ^ 1] = (a, da, b, db)
        return turns

    @cached_property
    def edge_internal_faces(self) -> dict[int, tuple[int, ...]]:
        """Edge id -> internal face ids containing it (1 for external edges)."""
        return _transpose(self.face_edges, self.edge_ids)

    @cached_property
    def external_edges(self) -> frozenset[int]:
        """Edges on the outer boundary (on a single internal face)."""
        return frozenset(e for e, fs in self.edge_internal_faces.items() if len(fs) == 1)

    @cached_property
    def dual_edges(self) -> dict[int, tuple[FaceKey, FaceKey]]:
        """Edge id -> the two faces it separates (an external edge pairs its
        internal face with ``OUTER``)."""
        return {
            e: (faces[0], faces[1] if len(faces) == 2 else OUTER)
            for e, faces in self.edge_internal_faces.items()
        }

    @cached_property
    def dual_tree(self) -> tuple[tuple[FaceKey, FaceKey, int], ...]:
        """Breadth-first spanning tree of the dual from ``OUTER``, as
        (face, parent face, crossed edge) in visiting order; each face
        scans its dual edges in edge id order."""
        neighbours: dict[FaceKey, list[tuple[FaceKey, int]]] = {
            f: [] for f in (OUTER, *self.face_ids)
        }
        for e, (a, b) in sorted(self.dual_edges.items()):
            neighbours[a].append((b, e))
            neighbours[b].append((a, e))
        seen = {OUTER}
        tree = []
        queue: deque[FaceKey] = deque([OUTER])
        while queue:
            f = queue.popleft()
            for g, e in neighbours[f]:
                if g not in seen:
                    seen.add(g)
                    tree.append((g, f, e))
                    queue.append(g)
        return tuple(tree)

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
    """Rows and width of a non-empty rectangular matrix of non-negative
    integers (nested lists or tuples); ValueError otherwise."""
    rows = (list, tuple)
    if not matrix or not isinstance(matrix, rows) or not all(isinstance(r, rows) for r in matrix):
        raise ValueError("incidence matrices must be two-dimensional")
    width = len(matrix[0])
    for row in matrix:
        if len(row) != width:
            raise ValueError("incidence matrix rows differ in length")
        for x in row:
            # bool is an int subclass, and JSON true is not a matrix entry
            if type(x) is not int or x < 0:
                raise ValueError(f"incidence matrix entry {x!r} is not a non-negative integer")
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
    """Report each violation, in stages that run when the ones before pass:
    non-empty 0/1 matrices; vertex and edge degrees (an id that meets no
    vertex has 0 ends), one or two face rows per edge, Euler's formula;
    each face row one closed boundary (``_one_cycle``).  A row that passes
    meets each of its vertices twice, so none is on 1 or 3 external edges.

    An empty report means the map is valid.  Nothing is raised: a report
    is data, not a failure.
    """
    if 0 in (m.n_vertices, m.n_internal_faces, m.n_edges):
        return ["incidence matrices must be non-empty"]
    report: list[str] = []
    for kind, rows in (("vertex", m.vertex_edges), ("face", m.face_edges)):
        if any(len(set(es)) != len(es) for es in rows.values()):
            report.append(f"{kind}-edge matrix has entries outside {{0,1}}")
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
    for f, edges in m.face_edges.items():
        if not _one_cycle(m, edge_mask(edges)):
            report.append(f"face {f} edges do not form one closed boundary")
    return report


def _one_cycle(m: CubicMap, mask: int) -> bool:
    """Whether a mask of the map's edges is one cycle: one walk from the
    lowest edge, in which at each vertex exactly one of the two exits must
    be in the mask, closing on that edge after exactly ``mask.bit_count()``
    steps.  The empty mask is not a cycle."""
    if not mask:
        return False
    turns, n, first = m._turns, mask.bit_count(), (mask & -mask).bit_length() - 1
    d = 2 * first
    for step in range(1, n + 1):
        y, dy, z, dz = turns[d]
        on_y = mask >> y & 1
        if on_y == mask >> z & 1:
            return False
        if on_y:
            x, d = y, dy
        else:
            x, d = z, dz
        if x == first:
            return step == n
    return False


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


def _mask_bits(mask: int) -> bytes:
    """The binary digits of a mask, lowest first, as 0/1 bytes: byte e is
    bit e, and the last byte is the top bit."""
    return bin(mask)[:1:-1].encode().translate(_DIGIT_BITS)


def mask_edges(mask: int) -> tuple[int, ...]:
    """The sorted edge ids of an edge mask.

    The mask's bytes (``_mask_bits``) are the selectors of ``compress``,
    so the bits are read in C.  The tuple is built from a list: ``tuple``
    over the iterator itself over-allocates.
    """
    return tuple(list(compress(count(), _mask_bits(mask))))


def walk_cycles(m: CubicMap, mask: int) -> Cover:
    """The canonical cover of an edge mask: its cycles, canonical, sorted
    by (length, sequence).

    The only cycle walker of the package.  Every vertex that meets the
    mask must meet exactly two of its edges, or the walk need not end, may
    raise IndexError, or may return a wrong cover: callers check with
    ``_one_cycle`` or ``_two_factor_mask``, or build 2-factors (closure
    successors, oracle matching complements).  The mask becomes one 0/1
    byte per edge id up to its top bit (``_mask_bits``); a step is one
    turn-table lookup and a read of its lower exit y's byte (``_turns``
    lists y < z, one of them on the mask, so y is in range).  Each cycle
    starts on its lowest edge's dart ``2*e``, as ``_one_cycle`` does, and
    is oriented by ``canonical_cycle``'s comparison, so cycles are found
    canonical in order of their first edges and sort stably by length."""
    turns = m._turns
    bits = bytearray(_mask_bits(mask))
    cycles = []
    e = bits.find(1)
    while e >= 0:
        y, dy, z, dz = turns[2 * e]
        x, d = (y, dy) if bits[y] else (z, dz)
        # clear each edge's byte as it is walked, and e's at the end: e is the
        # one walked edge the walk meets again, as its last step's exit
        walk = [e]
        while x != e:
            walk.append(x)
            bits[x] = 0
            y, dy, z, dz = turns[d]
            if bits[y]:
                x, d = y, dy
            else:
                x, d = z, dz
        bits[e] = 0
        cycles.append((e, *walk[:0:-1]) if walk[-1] < walk[1] else tuple(walk))
        e = bits.find(1, e)
    return tuple(sorted(cycles, key=len))


def _edge_set_mask(m: CubicMap, edges: Iterable[int], error: type[Exception]) -> int:
    """Edge mask of distinct edge ids of the map; raises ``error`` at the
    first edge that is not one (floats, booleans, strings and unhashable
    values are not ids), or if an edge is listed twice."""
    ends = m.edge_vertices
    mask = n = 0
    for n, e in enumerate(edges, start=1):
        if type(e) is not int or e not in ends:
            raise error(f"unknown edge id {e!r}")
        mask |= 1 << e
    if mask.bit_count() != n:
        raise error("an edge is listed twice")
    return mask


def _two_factor_mask(m: CubicMap, edges: Iterable[int], error: type[Exception]) -> int:
    """``_edge_set_mask`` of a 2-factor: raises ``error`` at the first
    vertex, in id order, that does not meet exactly two of the edges."""
    mask = _edge_set_mask(m, edges, error)
    for v, es in m.vertex_edges.items():
        d = sum(mask >> e & 1 for e in es)
        if d != 2:
            raise error(f"vertex {v} meets {d} of the edges (expected 2)")
    return mask


def order_cycle(m: CubicMap, edge_set: Iterable[int]) -> Cycle:
    """Order an unordered edge set into its canonical closed-walk sequence.

    NotACycle unless the edges are distinct edge ids of the map that form
    one cycle by ``_one_cycle``, the face test of ``validate_map``.
    """
    mask = _edge_set_mask(m, edge_set, NotACycle)
    if not mask:
        raise NotACycle("empty edge set")
    if not _one_cycle(m, mask):
        raise NotACycle("the edges do not form one cycle")
    return walk_cycles(m, mask)[0]


def face_boundary(m: CubicMap, face: int) -> Cycle:
    """Edges of an internal face in canonical boundary order; MalformedFace
    unless ``order_cycle`` orders its row, by ``validate_map``'s face test."""
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
    i-th entry vertex to the (i+1)-th.  Edge insertion reads each target's
    entry vertex from it.
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
    return frozenset(m.edge_ids).difference(e for cycle in cover for e in cycle)


def decompose_two_factor(m: CubicMap, on_edges: Iterable[int]) -> Cover:
    """Partition a 2-regular spanning edge set into its cycles.

    Every vertex of the map must have exactly two incident edges in the
    set (NotTwoRegular otherwise).  The set's walk (``walk_cycles``) is
    the canonical cover: cycles canonical, sorted by (length, sequence).
    """
    return walk_cycles(m, _two_factor_mask(m, on_edges, NotTwoRegular))


def canonical_cover(cover: Iterable[Sequence[int]]) -> Cover:
    """Canonicalize each cycle, then sort by (length, sequence)."""
    cycles = [canonical_cycle(c) for c in cover]
    return tuple(sorted(cycles, key=lambda c: (len(c), c)))


def check_cover(m: CubicMap, cover: Iterable[Sequence[int]]) -> Cover:
    """Validate the cover invariants; return the canonical form.

    Raises InvalidCover unless the cycles, as edge sets, are pairwise
    vertex-disjoint even cycles that together cover the whole map.  One
    degree check covers all the given edges, and the walk of their union,
    the canonical cover returned, must hold the given cycles as edge sets:
    edge order is not checked, so the cube's ``(1, 10, 9, 11)`` comes back
    as the walked ``(1, 9, 10, 11)``.
    """
    cover = tuple(tuple(c) for c in cover)
    if not cover:
        raise InvalidCover("cover has no cycles")
    edges = [e for cycle in cover for e in cycle]
    mask = _two_factor_mask(m, edges, InvalidCover)
    walks = walk_cycles(m, mask)
    if {frozenset(w) for w in walks} != {frozenset(c) for c in cover}:
        raise InvalidCover("the given cycles are not the cycles of their union")
    for walk in walks:
        if len(walk) % 2 != 0:
            raise InvalidCover(f"cycle {walk} has odd length {len(walk)}")
    return walks
