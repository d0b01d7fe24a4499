"""JSON documents, growth traces and DOT export.

The map document carries exactly the three user inputs: the two incidence
matrices and the cycle list of the seed cover.  Ids are positional: matrix
row i / column j belong to the i-th vertex id / j-th edge id in sorted
order, so a document is always written with ids renumbered to 1..n.

A growth trace is one line per step: the compact, key-sorted JSON of the
step's record (``canonical_json``), so its bytes are fixed.  Each line is
encoded as its record is built, from one JSON fragment per distinct edge
tuple instead of one encoding per slot.
"""

from __future__ import annotations

import functools
import hashlib
import json
from typing import Any, Iterable, Iterator

from .incidence import Cover, CubicMap

Document = dict[str, Any]


def canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


IdMap = dict[int, int]


def positional_ids(m: CubicMap) -> tuple[IdMap, IdMap, IdMap]:
    """The vertex/edge/face id translations to 1..n by sorted order."""
    ids = (m.vertex_ids, m.edge_ids, m.face_ids)
    return tuple({x: i for i, x in enumerate(xs, start=1)} for xs in ids)


def map_to_document(m: CubicMap, cycles: Iterable[Iterable[int]] | None = None) -> Document:
    """Canonical map document; optional ``cycles`` are translated along."""
    ve, fe = m.matrix_rows()
    doc: Document = {"vertex_edge": ve, "face_edge": fe, "cycles": []}
    if cycles is not None:
        _, emap, _ = positional_ids(m)
        doc["cycles"] = [[emap[e] for e in cycle] for cycle in cycles]
    return doc


def cycles_from_json(cycles) -> tuple[tuple[int, ...], ...]:
    """A list of cycles, each a list of integer edge ids; ValueError
    otherwise.  Floats, strings and booleans are not integers."""
    rows = (list, tuple)
    if not isinstance(cycles, rows) or not all(isinstance(c, rows) for c in cycles):
        raise ValueError("cycles must be a list of lists of edge ids")
    if any(type(e) is not int for cycle in cycles for e in cycle):
        raise ValueError("cycle edge ids must be integers")
    return tuple(tuple(cycle) for cycle in cycles)


def map_from_document(doc: Document) -> tuple[CubicMap, tuple[tuple[int, ...], ...]]:
    """Parse a map document; ids become 1..n positionally.

    No structural validation happens here: invalid maps must load so the
    validator can report on them.  Raises ValueError on malformed JSON
    shape only: a missing matrix key, a matrix that is not a 2-D array of
    non-negative integers, or cycles that ``cycles_from_json`` rejects.  A
    missing ``cycles`` key means no cycles; ``null``, ``{}``, ``0`` and
    ``""`` are malformed cycles like any other non-list.
    """
    try:
        ve = doc["vertex_edge"]
        fe = doc["face_edge"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"map document missing key: {exc}") from exc
    return CubicMap(ve, fe), cycles_from_json(doc.get("cycles", []))


def load_map(path) -> tuple[CubicMap, tuple[tuple[int, ...], ...]]:
    with open(path, "r", encoding="utf-8") as fh:
        return map_from_document(json.load(fh))


def map_fingerprint(m: CubicMap) -> str:
    """Stable identity of a map: hash of its canonical document."""
    return hashlib.sha256(canonical_json(map_to_document(m)).encode()).hexdigest()


# ---------------------------------------------------------------------
# Growth traces (JSON lines, one record per step)
# ---------------------------------------------------------------------

def _array(items) -> str:
    return "[" + ",".join(items) + "]"


def _object(members) -> str:
    """A JSON object from ``(key, JSON text)`` pairs, keys sorted as in
    ``canonical_json``; keys are plain ASCII names."""
    return "{" + ",".join([f'"{key}":{text}' for key, text in sorted(members)]) + "}"


def _edges_json(emap: IdMap):
    """Edge tuple -> its JSON fragment in ``emap``'s positional ids, such as
    ``[3,7,9]``.  Each id's text is made once, and each distinct tuple is
    encoded once, for the one record that ``emap`` numbers."""
    text = {e: str(i) for e, i in emap.items()}
    return functools.cache(lambda edges: _array([text[e] for e in edges]))


_LABELLING_JSON = '{{"class_1":{},"class_2":{},"class_3":{}}}'.format


def _closure_members(step, edges) -> list[tuple[str, str]]:
    """The ``covers``, ``hamiltonian`` and ``labellings`` of a step as
    ``(key, JSON text)`` pairs, each edge tuple through ``edges``."""

    def covers(cs) -> str:
        return _array([_array(map(edges, cover)) for cover in cs])

    labellings = _array([_LABELLING_JSON(*map(edges, lab)) for lab in step.labellings])
    return [("covers", covers(step.covers)), ("hamiltonian", covers(step.hamiltonian)),
            ("labellings", labellings)]


def _closure_json(step) -> str:
    """``canonical_json`` of a step's ``covers``, ``hamiltonian`` and
    ``labellings``: the three keys of its trace record."""
    _, emap, _ = positional_ids(step.map)
    return _object(_closure_members(step, _edges_json(emap)))


def trace_documents(steps) -> Iterator[str]:
    """Yield one trace record per step, as its ``canonical_json`` text.

    Edge ids in the map/covers/labellings are the step's positional ids;
    the insertion's ``face``/``targets`` (and split keys) use the
    *previous* record's ids, while its minted ids use the current ones.

    Each record is encoded as it is built: each distinct edge tuple (a
    cycle or a labelling class) is translated and encoded once per record
    (``_edges_json``).  Labellings must be canonical, as from
    ``closure_labellings``: positional ids keep the id order, so the
    translated classes stay sorted.
    """
    prev_emap = prev_fmap = None
    for index, step in enumerate(steps):
        vmap, emap, fmap = positional_ids(step.map)
        edges = _edges_json(emap)
        ve, fe = step.map.matrix_rows()
        map_json = _object([("vertex_edge", canonical_json(ve)), ("face_edge", canonical_json(fe)),
                            ("cycles", _array(map(edges, step.cover)))])
        insertion = None
        ev = step.event
        if ev is not None:
            insertion = {
                "face": prev_fmap[ev.face],
                "targets": [prev_emap[e] for e in ev.targets],
                "new_vertices": [vmap[v] for v in ev.new_vertices],
                "new_edge": emap[ev.new_edge],
                "split_edges": {
                    str(prev_emap[old]): [emap[e] for e in segs]
                    for old, segs in sorted(ev.split_edges.items())
                },
                "new_face": fmap[ev.new_face],
            }
        yield _object([("step", str(index)), ("map", map_json),
                       ("insertion", canonical_json(insertion)),
                       *_closure_members(step, edges)])
        prev_emap, prev_fmap = emap, fmap


def write_trace(steps, path) -> None:
    """Write one JSON line per step, each record of ``trace_documents(steps)``
    as it is yielded, so identical steps give identical bytes."""
    with open(path, "w", encoding="utf-8") as fh:
        for record in trace_documents(steps):
            fh.write(record)
            fh.write("\n")


# ---------------------------------------------------------------------
# Rotation maps and face colourings
# ---------------------------------------------------------------------

def rotation_to_document(rotations: dict, endpoints: dict) -> Document:
    return {
        "rotations": {str(v): list(rot) for v, rot in sorted(rotations.items())},
        "endpoints": {str(e): list(vw) for e, vw in sorted(endpoints.items())},
    }


def rotation_from_document(doc: Document) -> tuple[dict, dict]:
    """Parse a rotation document: ``rotations`` and ``endpoints`` are objects
    keyed by integer ids written plainly (``"7"``, not ``"07"``), each value
    a list of integers under the rule of ``cycles_from_json``; ValueError otherwise."""
    try:
        sections = (doc["rotations"], doc["endpoints"])
        if not all(isinstance(section, dict) for section in sections):
            raise ValueError("rotations and endpoints must be objects")
        rows = [row for section in sections for row in section.values()]
        if not all(isinstance(r, (list, tuple)) and all(type(x) is int for x in r) for r in rows):
            raise ValueError("every entry must be a list of integers")
        if not all(k == str(int(k)) for section in sections for k in section):
            raise ValueError("every key must be an integer id written plainly")
        rotations, endpoints = ({int(k): tuple(row) for k, row in s.items()} for s in sections)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed rotation document: {exc}") from exc
    return rotations, endpoints


def colouring_to_document(fc: dict) -> Document:
    return {str(face): colour for face, colour in sorted(fc.items(), key=lambda kv: str(kv[0]))}


# ---------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------

def to_dot(m: CubicMap, labelling=None, cover: Cover | None = None) -> str:
    """Graphviz source for a map; edges keyed by id so parallel edges
    survive.  Labelling classes and cover membership become attributes."""
    class_of = {e: i for i, cls in enumerate(labelling or (), start=1) for e in cls}
    on_cycle = {e for cycle in cover or () for e in cycle}
    lines = ["graph map {"]
    for v in m.vertex_ids:
        lines.append(f"  v{v};")
    for e in m.edge_ids:
        a, b = m.edge_vertices[e]
        attrs = [f'label="e{e}"']
        if e in class_of:
            attrs.append(f"class={class_of[e]}")
        if e in on_cycle:
            attrs.append("style=bold")
        lines.append(f"  v{a} -- v{b} [{', '.join(attrs)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
