"""JSON documents, growth traces and DOT export.

The map document carries exactly the three user inputs: the two incidence
matrices and the cycle list of the seed cover.  Ids are positional: matrix
row i / column j belong to the i-th vertex id / j-th edge id in sorted
order, so a document is always written with ids renumbered to 1..n.
"""

from __future__ import annotations

import hashlib
import json
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
    shape only: a missing key, a matrix that is not a 2-D array of small
    non-negative integers, or cycles that ``cycles_from_json`` rejects.
    """
    try:
        ve = doc["vertex_edge"]
        fe = doc["face_edge"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"map document missing key: {exc}") from exc
    return CubicMap(ve, fe), cycles_from_json(doc.get("cycles") or [])


def load_map(path) -> tuple[CubicMap, tuple[tuple[int, ...], ...]]:
    with open(path, "r", encoding="utf-8") as fh:
        return map_from_document(json.load(fh))


def map_fingerprint(m: CubicMap) -> str:
    """Stable identity of a map: hash of its canonical document."""
    return hashlib.sha256(canonical_json(map_to_document(m)).encode()).hexdigest()


def covers_to_lists(covers: Iterable[Cover], emap: dict[int, int]) -> list:
    return [[[emap[e] for e in c] for c in cover] for cover in covers]


def labelling_to_document(lab, emap: dict[int, int] | None = None) -> Document:
    classes = [sorted(c if emap is None else (emap[e] for e in c)) for c in lab]
    classes.sort()
    return {f"class_{i + 1}": cls for i, cls in enumerate(classes)}


# ---------------------------------------------------------------------
# Growth traces (JSON lines, one record per step)
# ---------------------------------------------------------------------

def step_to_document(index: int, step, prev_emap=None, prev_fmap=None) -> Document:
    """One trace record.

    Edge ids in the map/covers/labellings are the current map's positional
    ids; the insertion's ``face``/``targets`` (and split keys) use the
    *previous* record's ids, while its minted ids use the current ones.
    """
    vmap, emap, fmap = positional_ids(step.map)
    doc: Document = {
        "step": index,
        "map": map_to_document(step.map, cycles=step.cover),
        "covers": covers_to_lists(step.covers, emap),
        "labellings": [labelling_to_document(l, emap) for l in step.labellings],
        "hamiltonian": covers_to_lists(step.hamiltonian, emap),
        "insertion": None,
    }
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
    return doc


def trace_documents(steps) -> list[Document]:
    docs = []
    prev_emap = prev_fmap = None
    for i, step in enumerate(steps):
        docs.append(step_to_document(i, step, prev_emap, prev_fmap))
        _, prev_emap, prev_fmap = positional_ids(step.map)
    return docs


def write_trace(steps, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for doc in trace_documents(steps):
            fh.write(canonical_json(doc) + "\n")


# ---------------------------------------------------------------------
# Rotation maps and face colourings
# ---------------------------------------------------------------------

def rotation_to_document(rotations: dict, endpoints: dict) -> Document:
    return {
        "rotations": {str(v): list(rot) for v, rot in sorted(rotations.items())},
        "endpoints": {str(e): list(vw) for e, vw in sorted(endpoints.items())},
    }


def rotation_from_document(doc: Document) -> tuple[dict, dict]:
    try:
        rotations = {int(v): tuple(int(e) for e in rot) for v, rot in doc["rotations"].items()}
        endpoints = {int(e): tuple(int(v) for v in vw) for e, vw in doc["endpoints"].items()}
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
    class_of = {}
    if labelling is not None:
        for i, cls in enumerate(labelling):
            for e in cls:
                class_of[e] = i + 1
    on_cycle = set()
    if cover is not None:
        for cycle in cover:
            on_cycle.update(cycle)
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
