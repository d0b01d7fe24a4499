import json

import pytest

from cubicmaps import CubicMap, grow, map_from_document, map_to_document, serialize, to_dot
from cubicmaps.fixtures import cube_map, cube_seed, fixture_path, theta_map, theta_seed
from cubicmaps.serialize import (
    _DecimalText,
    _record_json,
    canonical_json,
    load_map,
    map_fingerprint,
    positional_ids,
    rotation_from_document,
    trace_documents,
    write_trace,
)


@pytest.fixture(scope="module")
def cube_42_steps():
    """Cube seed 42 grown 20 times: retired edge ids leave gaps, so the
    positional ids differ from the map's own."""
    steps = grow(cube_map(), cube_seed(), iterations=20, rng_seed=42)
    m = steps[-1].map
    assert max(m.edge_ids) > m.n_edges
    return steps


def test_document_round_trip(cube):
    doc = map_to_document(cube, cycles=cube_seed())
    m2, cycles = map_from_document(doc)
    assert map_to_document(m2, cycles=cycles) == doc
    assert cycles == cube_seed()


@pytest.mark.parametrize(
    "mutate",
    [
        lambda ve: [ve[0][:-1]] + ve[1:],
        lambda ve: [[-1, *ve[0][1:]], *ve[1:]],
        lambda ve: [[300, *ve[0][1:]], *ve[1:]],
        lambda ve: ve[0],
        lambda ve: 1,
        lambda ve: [],
    ],
    ids=["ragged_rows", "entry_minus_one", "entry_300", "one_dimensional", "scalar", "empty_list"],
)
def test_malformed_matrix_raises_value_error(mutate):
    doc = json.loads(fixture_path("cube.json").read_text())
    doc["vertex_edge"] = mutate(doc["vertex_edge"])
    with pytest.raises(ValueError) as caught:
        map_from_document(doc)
    assert type(caught.value) is ValueError


def test_bundled_fixture_matches_builder(cube, theta):
    for name, m, seed in [
        ("cube.json", cube, cube_seed()),
        ("theta.json", theta, theta_seed()),
    ]:
        with open(fixture_path(name), "r", encoding="utf-8") as fh:
            assert json.load(fh) == map_to_document(m, cycles=seed)


def test_renumber_is_stable_for_positional_ids(cube):
    vmap, emap, fmap = positional_ids(cube)
    assert list(vmap.values()) == sorted(vmap.values())
    assert emap == {e: e for e in cube.edge_ids}
    rows = cube.matrix_rows()
    assert CubicMap(*rows).matrix_rows() == rows


def test_renumber_compacts_grown_ids():
    steps = grow(theta_map(), theta_seed(), iterations=3, rng_seed=9)
    m = steps[-1].map
    assert max(m.edge_ids) > m.n_edges  # retired ids leave gaps
    _, emap, _ = positional_ids(m)
    assert sorted(emap.values()) == list(range(1, m.n_edges + 1))


def test_fingerprint_is_invariant_under_renumbering():
    steps = grow(theta_map(), theta_seed(), iterations=2, rng_seed=1)
    m = steps[-1].map
    fresh = CubicMap(*m.matrix_rows())
    assert map_fingerprint(m) == map_fingerprint(fresh)
    assert map_fingerprint(m) != map_fingerprint(theta_map())


def test_labelling_document_shape(cube_42_steps):
    record = json.loads(canonical_json(trace_documents(cube_42_steps)[-1]))
    assert record["labellings"]
    for lab in record["labellings"]:
        assert list(lab) == ["class_1", "class_2", "class_3"]
        classes = list(lab.values())
        assert all(cls == sorted(cls) for cls in classes)
        assert classes == sorted(classes)
        n_edges = len(record["map"]["vertex_edge"][0])
        assert sorted(e for cls in classes for e in cls) == list(range(1, n_edges + 1))


def _reference_record(index, step, prev_emap, prev_fmap):
    """A trace record built edge by edge: every cover, Hamiltonian cover
    and labelling class is translated and sorted on its own."""
    vmap, emap, fmap = positional_ids(step.map)

    def covers_to_lists(covers):
        return [[[emap[e] for e in c] for c in cover] for cover in covers]

    def labelling_to_document(lab):
        classes = sorted(sorted(emap[e] for e in c) for c in lab)
        return {f"class_{i + 1}": cls for i, cls in enumerate(classes)}

    doc = {
        "step": index,
        "map": map_to_document(step.map, cycles=step.cover),
        "covers": covers_to_lists(step.covers),
        "labellings": [labelling_to_document(lab) for lab in step.labellings],
        "hamiltonian": covers_to_lists(step.hamiltonian),
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


def test_write_trace_matches_edge_by_edge_reference(cube_42_steps, tmp_path):
    lines = []
    prev_emap = prev_fmap = None
    for i, step in enumerate(cube_42_steps):
        lines.append(canonical_json(_reference_record(i, step, prev_emap, prev_fmap)) + "\n")
        _, prev_emap, prev_fmap = positional_ids(step.map)
    path = tmp_path / "trace.jsonl"
    write_trace(cube_42_steps, path)
    written = path.read_text(encoding="utf-8").splitlines(keepends=True)
    # the acceptance digests hash trace_documents: tie them to the bytes written
    documents = [canonical_json(d) + "\n" for d in trace_documents(cube_42_steps)]
    for expected in (lines, documents):
        # compared record by record: a diff of megabyte lines would not end
        differ = [i for i, (a, b) in enumerate(zip(written, expected)) if a != b]
        assert len(written) == len(expected) == 21 and not differ, f"records {differ} differ"


@pytest.fixture(scope="module")
def grow_cube_documents(cube_42_steps):
    """The records of the benchmark's three traced runs: cube seeds 42, 13
    and 16, grown 20 times each."""
    runs = [cube_42_steps] + [grow(cube_map(), cube_seed(), iterations=20, rng_seed=seed)
                              for seed in (13, 16)]
    return [doc for steps in runs for doc in trace_documents(steps)]


def _hand_built_records():
    """Trace-shaped documents that growth does not produce: empty lists, no
    insertion, equal tuples that are distinct objects, one tuple object in
    every kind of slot, the ``enumerate --out`` subset, and ids at each
    digit-count boundary up to three digits, a 13-digit id and a negative one."""
    equal = (1, 2, 3)
    twin = tuple([1, 2, 3])
    assert equal == twin and equal is not twin
    shared, rest = (1, 2, 3, 4), (5, 6)
    digits, negative = (0, 9, 10, 99, 100, 10**12), (-3, 0)
    empty_map = {"vertex_edge": [], "face_edge": [], "cycles": []}
    return [
        {"step": 0, "map": empty_map, "covers": [], "labellings": [], "hamiltonian": [],
         "insertion": None},
        {"step": 1, "map": dict(empty_map, cycles=[equal]), "covers": [[equal], [twin]],
         "labellings": [{"class_1": twin, "class_2": equal, "class_3": (4,)}],
         "hamiltonian": [[twin]], "insertion": None},
        {"step": 2, "map": dict(empty_map, cycles=[shared, rest]), "covers": [[shared, rest]],
         "labellings": [{"class_1": rest, "class_2": shared, "class_3": shared}],
         "hamiltonian": [[shared]],
         "insertion": {"face": 1, "targets": [2, 2], "new_vertices": [7, 8], "new_edge": 9,
                       "split_edges": {"2": [2, 10, 11]}, "new_face": 3}},
        {"covers": [[shared, rest]], "labellings": [{"class_1": rest, "class_2": shared,
                                                     "class_3": shared}],
         "hamiltonian": []},
        {"covers": [[digits, negative]], "labellings": [{"class_1": digits, "class_2": negative,
                                                         "class_3": (10**12, -3)}],
         "hamiltonian": [[negative]]},
    ]


def test_record_json_is_canonical_json(grow_cube_documents):
    subsets = [{key: doc[key] for key in ("covers", "labellings", "hamiltonian")}
               for doc in grow_cube_documents]
    documents = grow_cube_documents + subsets + _hand_built_records()
    differ = [i for i, doc in enumerate(documents) if _record_json(doc) != canonical_json(doc)]
    assert len(grow_cube_documents) == 63 and not differ, f"documents {differ} differ"


def test_a_bool_or_float_id_does_not_change_how_ints_encode(monkeypatch):
    """The decimal table keeps exact ints only: a dict stores ``True`` under
    the key 1 (and 4.0 under 4), so one record holding them would make every
    later 1 (or 4) encode as their text.  A fresh table, so the keys are
    not already there."""
    monkeypatch.setattr(serialize, "_decimal", _DecimalText().__getitem__)
    _record_json({"covers": [[(True, 4.0)]]})
    doc = {"covers": [[(1, 4)]], "labellings": [{"class_1": (1,), "class_2": (4,), "class_3": (1, 4)}],
           "hamiltonian": [[(4, 1)]]}
    assert _record_json(doc) == canonical_json(doc)


def test_trace_documents_share_one_object_per_distinct_tuple(cube_42_steps):
    """``write_trace`` encodes each tuple object once per record, so its
    speed rests on this sharing; the bytes would stay right without it."""
    for doc in trace_documents(cube_42_steps):
        slots = [t for cover in doc["covers"] + doc["hamiltonian"] for t in cover]
        slots += [t for lab in doc["labellings"] for t in lab.values()]
        slots += doc["map"]["cycles"]
        assert len({id(t) for t in slots}) == len(set(slots)), doc["step"]


def test_trace_documents_reference_consistent_ids():
    steps = grow(theta_map(), theta_seed(), iterations=4, rng_seed=2)
    docs = trace_documents(steps)
    assert [d["step"] for d in docs] == [0, 1, 2, 3, 4]
    assert docs[0]["insertion"] is None
    for prev, doc in zip(docs, docs[1:]):
        ins = doc["insertion"]
        n_prev_edges = len(prev["map"]["vertex_edge"][0])
        n_edges = len(doc["map"]["vertex_edge"][0])
        assert all(1 <= t <= n_prev_edges for t in ins["targets"])
        assert 1 <= ins["new_edge"] <= n_edges
        for old, segs in ins["split_edges"].items():
            assert 1 <= int(old) <= n_prev_edges
            assert all(1 <= s <= n_edges for s in segs)
        # covers serialize against the current positional ids
        for cover in doc["covers"]:
            for cycle in cover:
                assert all(1 <= e <= n_edges for e in cycle)


def test_canonical_json_is_bytewise_stable():
    doc = {"b": [1, 2], "a": {"y": 1, "x": 2}}
    assert canonical_json(doc) == '{"a":{"x":2,"y":1},"b":[1,2]}'


def test_every_bundled_map_fixture_is_valid():
    from cubicmaps import check_cover, validate_map

    for name in ("cube.json", "theta.json", "tetrahedron.json",
                 "two_kempe_classes.json", "non_hamiltonian_16.json"):
        m, cycles = load_map(fixture_path(name))
        assert validate_map(m) == [], name
        assert check_cover(m, cycles), name


def test_rotation_document_round_trip():
    import json as _json

    from cubicmaps import RotationMap, blow_up
    from cubicmaps.fixtures import wheel_rotation
    from cubicmaps.serialize import rotation_from_document, rotation_to_document

    for n in (4, 5):
        built = wheel_rotation(n)
        with open(fixture_path(f"wheel{n}.json"), "r", encoding="utf-8") as fh:
            doc = _json.load(fh)
        rotations, endpoints = rotation_from_document(doc)
        assert rotations == built.rotations
        assert endpoints == built.endpoints
        assert rotation_to_document(rotations, endpoints) == doc
        cubic, _ = blow_up(RotationMap(rotations, endpoints))
        assert cubic.n_vertices == sum(len(r) for r in rotations.values())


@pytest.mark.parametrize(
    "mutate",
    [
        lambda doc: doc.update(rotations=list(doc["rotations"].values())),
        lambda doc: doc.update(endpoints=list(doc["endpoints"].values())),
        lambda doc: doc["rotations"]["1"].__setitem__(0, 1.5),
        lambda doc: doc["rotations"]["1"].__setitem__(0, True),
        lambda doc: doc["endpoints"]["1"].__setitem__(0, "3"),
        lambda doc: doc["rotations"].update({"1": "123"}),
        lambda doc: doc["rotations"].update({"01": [1, 2, 3]}),
        lambda doc: doc["rotations"].__setitem__("1_0", doc["rotations"].pop("1")),
        lambda doc: doc["endpoints"].__setitem__(" 1", doc["endpoints"].pop("1")),
        lambda doc: doc["endpoints"].__setitem__("+1", doc["endpoints"].pop("1")),
    ],
    ids=["rotations_list", "endpoints_list", "float_entry", "bool_entry", "string_entry",
         "string_row", "leading_zero_key", "underscore_key", "space_key", "plus_key"],
)
def test_malformed_rotation_document_raises_value_error(mutate):
    doc = json.loads(fixture_path("wheel4.json").read_text())
    rotation_from_document(doc)
    mutate(doc)
    with pytest.raises(ValueError, match="malformed rotation document") as caught:
        rotation_from_document(doc)
    assert type(caught.value) is ValueError


def test_colouring_document_keys_are_strings():
    from cubicmaps import OUTER, face_colouring_from_labelling
    from cubicmaps.fixtures import theta_map
    from cubicmaps.serialize import colouring_to_document

    fc = face_colouring_from_labelling(theta_map(), ((1,), (2,), (3,)))
    doc = colouring_to_document(fc)
    assert set(doc) == {"1", "2", OUTER}
    assert all(v in ("++", "+-", "-+", "--") for v in doc.values())


def test_dot_export_keeps_parallel_edges(theta):
    dot = to_dot(theta, labelling=((1,), (2,), (3,)), cover=((1, 2),))
    assert dot.count("v1 -- v2") == 3
    assert 'label="e1"' in dot and "class=1" in dot
    assert dot.count("style=bold") == 2


def test_dot_export_cube_classes(cube):
    from cubicmaps import labelling_from_cover

    lab = labelling_from_cover(cube, cube_seed())
    dot = to_dot(cube, labelling=lab)
    for cls in (1, 2, 3):
        assert f"class={cls}" in dot
