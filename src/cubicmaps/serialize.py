"""JSON documents, growth traces and DOT export.

The map document carries exactly the three user inputs: the two incidence
matrices and the cycle list of the seed cover.  Ids are positional: matrix
row i / column j belong to the i-th vertex id / j-th edge id in sorted
order, so a document is always written with ids renumbered to 1..n.

A growth trace is one line per step: the compact, key-sorted JSON of the
step's record (``canonical_json``), so its bytes are fixed.  The writer
builds each line from per-tuple fragments instead of encoding every slot.
"""

from __future__ import annotations

import hashlib
import json
from itertools import chain
from typing import Any, Iterable

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

_CLASS_KEYS = ("class_1", "class_2", "class_3")


def trace_documents(steps) -> list[Document]:
    """One trace record per step.

    Edge ids in the map/covers/labellings are the step's positional ids;
    the insertion's ``face``/``targets`` (and split keys) use the
    *previous* record's ids, while its minted ids use the current ones.

    Each distinct edge tuple (a cycle or a labelling class) is translated
    once per record, and every slot holding it shares that immutable
    tuple, which encodes like a list.  Labellings must be canonical, as
    from ``closure_labellings``: positional ids keep the id order, so the
    translated classes stay sorted.
    """
    docs = []
    prev_emap = prev_fmap = None
    for index, step in enumerate(steps):
        vmap, emap, fmap = positional_ids(step.map)
        distinct = set(chain(step.cover, *step.covers, *step.labellings, *step.hamiltonian))
        positional = {edges: tuple([emap[e] for e in edges]) for edges in distinct}.__getitem__
        doc: Document = {
            "step": index,
            "map": map_to_document(step.map),
            "covers": [list(map(positional, cover)) for cover in step.covers],
            "labellings": [dict(zip(_CLASS_KEYS, map(positional, lab))) for lab in step.labellings],
            "hamiltonian": [list(map(positional, cover)) for cover in step.hamiltonian],
            "insertion": None,
        }
        doc["map"]["cycles"] = list(map(positional, step.cover))
        ev = step.event
        if ev is not None:
            doc["insertion"] = {
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
        docs.append(doc)
        prev_emap, prev_fmap = emap, fmap
    return docs


_LABELLING_JSON = '{{"class_1":{},"class_2":{},"class_3":{}}}'.format


class _DecimalText(dict):
    """Int -> its decimal text, each ``str`` made once per process.

    Only exact ints enter: ``True`` stored under the key 1 would make every
    later 1 encode as ``True``.  A value equal to a stored int (``True``,
    ``1.0``) reads that int's text; edge ids are ints.  Trace ids are
    positional, so the table holds about as many entries as the largest
    map written has edges."""

    def __missing__(self, n) -> str:
        text = str(n)
        if type(n) is int:
            self[n] = text
        return text


_decimal = _DecimalText().__getitem__


def _record_json(doc: Document) -> str:
    """``canonical_json(doc)`` for a trace-shaped document: a record of
    ``trace_documents``, or a subset of its keys.

    ``covers`` and ``hamiltonian`` are lists of covers (lists of edge
    tuples), and each ``labellings`` entry holds exactly the three class
    keys; every other key goes through ``canonical_json``.  Each distinct
    edge tuple is encoded once per record, as a fragment such as
    ``[3,7,9]``; edge ids are ints, whose JSON is their ``str``, read from
    a table that makes each id's text once (``_DecimalText``).
    """
    # Keyed by id(): trace_documents gives every slot of one distinct tuple
    # the same tuple object, and doc keeps every tuple alive while it is
    # encoded, so no id can be reused by another tuple meanwhile.
    memo: dict[int, str] = {}

    def edges(t) -> str:
        text = memo.get(id(t))
        if text is None:
            text = memo[id(t)] = "[" + ",".join(map(_decimal, t)) + "]"
        return text

    def cover(c) -> str:
        return "[" + ",".join(map(edges, c)) + "]"

    def labelling(lab) -> str:
        return _LABELLING_JSON(edges(lab["class_1"]), edges(lab["class_2"]), edges(lab["class_3"]))

    def covers(cs) -> str:
        return "[" + ",".join(map(cover, cs)) + "]"

    def labellings(labs) -> str:
        return "[" + ",".join(map(labelling, labs)) + "]"

    encode = {"covers": covers, "hamiltonian": covers, "labellings": labellings}
    parts = (f"{canonical_json(key)}:{encode.get(key, canonical_json)(doc[key])}"
             for key in sorted(doc))
    return "{" + ",".join(parts) + "}"


def write_trace(steps, path) -> None:
    """Write one JSON line per step: ``canonical_json`` of each record of
    ``trace_documents(steps)``, so identical steps give identical bytes."""
    with open(path, "w", encoding="utf-8") as fh:
        for doc in trace_documents(steps):
            fh.write(_record_json(doc) + "\n")


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
