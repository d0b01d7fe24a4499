"""Incidence-matrix model of cubic planar maps.

A map is stored as two 0/1 matrices: ``vertex_edge`` (rows = vertices,
columns = edges) and ``face_edge`` (rows = internal faces only; the outer
face has no row, so columns of external edges carry a single 1).  Parallel
edges are first class (identical columns); loops are inexpressible and
rejected.  All adjacency queries are edge-id based, never endpoint based,
so parallel edges never collide.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidCover, MalformedFace, NotACycle, NotTwoRegular

Cycle = tuple[int, ...]
Cover = tuple[Cycle, ...]


@dataclass(frozen=True)
class NextIds:
    """Counters for fresh vertex/edge/face ids."""

    vertex: int
    edge: int
    face: int


class CubicMap:
    """A cubic planar map with opaque positive integer ids.

    Matrix row/column order is id-sorted.  Instances are immutable after
    construction (the arrays are write-protected); every operation that
    changes the map returns a new instance, so values can be shared freely
    across threads.
    """

    def __init__(
        self,
        vertex_edge,
        face_edge,
        vertex_ids: Sequence[int] | None = None,
        edge_ids: Sequence[int] | None = None,
        face_ids: Sequence[int] | None = None,
        next_ids: NextIds | None = None,
    ):
        ve = np.array(vertex_edge, dtype=np.uint8)
        fe = np.array(face_edge, dtype=np.uint8)
        if ve.ndim != 2 or fe.ndim != 2:
            raise ValueError("incidence matrices must be two-dimensional")
        ve.setflags(write=False)
        fe.setflags(write=False)
        self.vertex_edge = ve
        self.face_edge = fe
        self.vertex_ids = self._ids(vertex_ids, ve.shape[0], "vertex")
        self.edge_ids = self._ids(edge_ids, ve.shape[1], "edge")
        self.face_ids = self._ids(face_ids, fe.shape[0], "face")
        if next_ids is None:
            next_ids = NextIds(
                vertex=(max(self.vertex_ids) + 1) if self.vertex_ids else 1,
                edge=(max(self.edge_ids) + 1) if self.edge_ids else 1,
                face=(max(self.face_ids) + 1) if self.face_ids else 1,
            )
        self.next_ids = next_ids

    @staticmethod
    def _ids(ids, count, kind) -> tuple[int, ...]:
        if ids is None:
            return tuple(range(1, count + 1))
        ids = tuple(int(i) for i in ids)
        if len(ids) != count:
            raise ValueError(f"{kind} id count {len(ids)} != matrix dimension {count}")
        if sorted(ids) != list(ids) or len(set(ids)) != count:
            raise ValueError(f"{kind} ids must be strictly increasing")
        return ids

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

    # -- derived adjacency (valid maps only) ---------------------------

    @cached_property
    def _edge_col(self) -> dict[int, int]:
        return {e: j for j, e in enumerate(self.edge_ids)}

    @cached_property
    def _col_ends(self) -> list[tuple[int, int]]:
        """Edge column -> its two endpoint vertex ids."""
        return [self.edge_vertices[e] for e in self.edge_ids]

    @cached_property
    def _vertex_cols(self) -> dict[int, tuple[int, ...]]:
        """Vertex id -> the columns of its incident edges."""
        col = self._edge_col
        return {v: tuple(col[e] for e in es) for v, es in self.vertex_edges.items()}

    @cached_property
    def edge_vertices(self) -> dict[int, tuple[int, int]]:
        """Edge id -> its two endpoint vertex ids (sorted)."""
        out = _row_members(self.vertex_edge.T, self.edge_ids, self.vertex_ids)
        for e, vs in out.items():
            if len(vs) != 2:
                raise ValueError(f"edge {e} has {len(vs)} endpoints")
        return out

    @cached_property
    def vertex_edges(self) -> dict[int, tuple[int, ...]]:
        """Vertex id -> its incident edge ids (sorted)."""
        return _row_members(self.vertex_edge, self.vertex_ids, self.edge_ids)

    @cached_property
    def face_edge_sets(self) -> dict[int, frozenset[int]]:
        """Internal face id -> the set of edges on its boundary."""
        out = _row_members(self.face_edge, self.face_ids, self.edge_ids)
        return {f: frozenset(es) for f, es in out.items()}

    @cached_property
    def edge_internal_faces(self) -> dict[int, tuple[int, ...]]:
        """Edge id -> internal face ids containing it (1 for external edges)."""
        out = {e: [] for e in self.edge_ids}
        for f, edges in sorted(self.face_edge_sets.items()):
            for e in edges:
                out[e].append(f)
        return {e: tuple(fs) for e, fs in out.items()}

    @cached_property
    def external_edges(self) -> frozenset[int]:
        """Edges on the outer boundary (face-edge column sum 1)."""
        sums = self.face_edge.sum(axis=0)
        return frozenset(e for j, e in enumerate(self.edge_ids) if sums[j] == 1)

    @cached_property
    def all_edges(self) -> frozenset[int]:
        return frozenset(self.edge_ids)

    def other_endpoint(self, edge: int, vertex: int) -> int:
        a, b = self.edge_vertices[edge]
        return b if vertex == a else a

    def __repr__(self):
        return (
            f"CubicMap(V={self.n_vertices}, E={self.n_edges}, "
            f"F_internal={self.n_internal_faces})"
        )


def incidence_matrix(row_ids, col_ids, members) -> np.ndarray:
    """0/1 uint8 matrix: row r has a 1 in the column of each edge of ``members[r]``."""
    col_of = {e: j for j, e in enumerate(col_ids)}
    mat = np.zeros((len(row_ids), len(col_ids)), dtype=np.uint8)
    for i, r in enumerate(row_ids):
        for e in members[r]:
            mat[i, col_of[e]] = 1
    return mat


def _row_members(matrix, row_ids, col_ids) -> dict[int, tuple[int, ...]]:
    """Row id -> the ids of the columns where that row is non-zero, sorted."""
    out: dict[int, list[int]] = {r: [] for r in row_ids}
    rows, cols = np.nonzero(matrix)
    for i, j in zip(rows.tolist(), cols.tolist()):
        out[row_ids[i]].append(col_ids[j])
    return {r: tuple(members) for r, members in out.items()}


# ---------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------

def validate_map(m: CubicMap) -> list[str]:
    """Check every structural invariant and report each violation.

    An empty report means the map is valid.  Nothing is raised: a report
    is data, not a failure.
    """
    report: list[str] = []
    ve, fe = m.vertex_edge, m.face_edge
    if ve.size == 0 or fe.size == 0:
        return ["incidence matrices must be non-empty"]
    if not np.isin(ve, (0, 1)).all():
        report.append("vertex-edge matrix has entries outside {0,1}")
    if not np.isin(fe, (0, 1)).all():
        report.append("face-edge matrix has entries outside {0,1}")
    if fe.shape[1] != ve.shape[1]:
        report.append(
            f"face-edge matrix has {fe.shape[1]} columns, vertex-edge has {ve.shape[1]}"
        )
    if report:
        return report

    for i, v in enumerate(m.vertex_ids):
        k = int(ve[i].sum())
        if k != 3:
            report.append(f"vertex row {v} has {k} ones (expected 3)")
    col_sums = ve.sum(axis=0)
    for j, e in enumerate(m.edge_ids):
        k = int(col_sums[j])
        if k != 2:
            report.append(f"edge column {e} has {k} ones in vertex-edge (expected 2)")
    face_col_sums = fe.sum(axis=0)
    for j, e in enumerate(m.edge_ids):
        k = int(face_col_sums[j])
        if k not in (1, 2):
            report.append(f"edge column {e} has {k} ones in face-edge (expected 1 or 2)")
    if not euler_check(m):
        report.append(
            f"Euler check failed: V={m.n_vertices} - E={m.n_edges} + "
            f"F={m.n_internal_faces}+1 != 2"
        )
    if report:
        return report

    # Outer boundary: every vertex lies on 0 or 2 external edges.
    external = m.external_edges
    for v, edges in sorted(m.vertex_edges.items()):
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


def edge_mask(m: CubicMap, edges: Iterable[int]) -> int:
    """Edge set as an integer: bit i stands for ``m.edge_ids[i]``."""
    col = m._edge_col
    mask = 0
    for e in edges:
        mask |= 1 << col[e]
    return mask


def mask_edges(m: CubicMap, mask: int) -> tuple[int, ...]:
    """The sorted edge ids of an edge mask."""
    ids = m.edge_ids
    out = []
    while mask:
        low = mask & -mask
        out.append(ids[low.bit_length() - 1])
        mask ^= low
    return tuple(out)


def walk_cycles(m: CubicMap, mask: int) -> list[list[int]]:
    """Split an edge mask into its cycles, each as a list of columns.

    The only cycle walker of the package.  Every vertex the mask touches
    must meet exactly two of its edges; callers check that with
    ``_degree_two_mask`` (or, like the closure, build only such masks).
    Each cycle is walked from its lowest column, and cycles come out in
    order of their lowest column.
    """
    ends, cols = m._col_ends, m._vertex_cols
    cycles = []
    while mask:
        low = mask & -mask
        mask ^= low
        c = low.bit_length() - 1
        start, cur = ends[c]
        walk = [c]
        while cur != start:
            for c in cols[cur]:
                if mask >> c & 1:
                    break
            mask ^= 1 << c
            walk.append(c)
            a, b = ends[c]
            cur = b if a == cur else a
        cycles.append(walk)
    return cycles


def mask_cover(m: CubicMap, mask: int) -> Cover:
    """The canonical cover formed by a 2-regular spanning edge mask."""
    ids = m.edge_ids
    return canonical_cover([ids[c] for c in walk] for walk in walk_cycles(m, mask))


def _degree_two_mask(
    m: CubicMap, edges: Iterable[int], error: type[Exception], spanning: bool = False
) -> int:
    """Edge mask of an edge set in which every vertex meets exactly two edges.

    The one degree check of the package.  Checks the vertices the edges
    touch, or with ``spanning`` every vertex of the map in id order, and
    raises ``error`` at the first unknown edge id or offending vertex.
    """
    col, ends = m._edge_col, m._col_ends
    degree = dict.fromkeys(m.vertex_ids, 0) if spanning else {}
    mask = 0
    for e in edges:
        c = col.get(e)
        if c is None:
            raise error(f"unknown edge id {e}")
        mask |= 1 << c
        for v in ends[c]:
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
    return canonical_cycle([m.edge_ids[c] for c in walks[0]])


def face_boundary(m: CubicMap, face: int) -> Cycle:
    """Edges of an internal face in canonical boundary order."""
    edges = m.face_edge_sets.get(face)
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
