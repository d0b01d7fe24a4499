import json

import pytest

from cubicmaps import (
    CubicMap,
    check_cover,
    grow,
    insert_edge,
    map_from_document,
    map_to_document,
    to_dot,
    validate_labelling,
)
from cubicmaps.fixtures import cube_map, cube_seed, fixture_path, theta_map, theta_seed
from cubicmaps.serialize import (
    _closure_json,
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


@pytest.fixture(scope="module")
def theta_93_steps():
    """Theta seed 93 grown 14 times: parallel edges and bigon faces, which
    the cube runs never have, and closures without a Hamiltonian cycle."""
    steps = grow(theta_map(), theta_seed(), iterations=14, rng_seed=93)
    assert any(len(set(map(frozenset, step.map.edge_vertices.values()))) < step.map.n_edges
               for step in steps)
    assert any(len(es) == 2 for step in steps for es in step.map.face_edges.values())
    assert [i for i, step in enumerate(steps) if not step.hamiltonian] == [12, 13]
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
        lambda ve: [[1.5, *ve[0][1:]], *ve[1:]],
        lambda ve: ve[0],
        lambda ve: 1,
        lambda ve: [],
    ],
    ids=["ragged_rows", "entry_minus_one", "entry_float", "one_dimensional", "scalar", "empty_list"],
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
    record = json.loads(list(trace_documents(cube_42_steps))[-1])
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


def test_write_trace_matches_edge_by_edge_reference(cube_42_steps, theta_93_steps, tmp_path):
    for steps in (cube_42_steps, theta_93_steps):
        lines = []
        prev_emap = prev_fmap = None
        for i, step in enumerate(steps):
            lines.append(canonical_json(_reference_record(i, step, prev_emap, prev_fmap)) + "\n")
            _, prev_emap, prev_fmap = positional_ids(step.map)
        path = tmp_path / "trace.jsonl"
        write_trace(steps, path)
        written = path.read_text(encoding="utf-8").splitlines(keepends=True)
        yielded = [record + "\n" for record in trace_documents(steps)]
        for expected in (lines, yielded):
            # compared record by record: a diff of megabyte lines would not end
            differ = [i for i, (a, b) in enumerate(zip(written, expected)) if a != b]
            assert len(written) == len(expected) == len(steps), len(steps)
            assert not differ, f"records {differ} of {len(steps)} differ"


@pytest.mark.parametrize("run", ["cube_42_steps", "theta_93_steps"])
def test_trace_reads_back(run, request, tmp_path):
    """The written trace alone replays its growth: ``insert_edge`` on record
    k - 1's map at record k's face and targets gives record k's matrices
    and minted ids, and every record's cycles, covers, labellings and
    Hamiltonian covers hold on its own map."""
    path = tmp_path / "trace.jsonl"
    write_trace(request.getfixturevalue(run), path)
    records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    maps = [map_from_document(record["map"]) for record in records]
    for (prev, _), record in zip(maps, records[1:]):
        ins = record["insertion"]
        m, ev = insert_edge(prev, ins["face"], *ins["targets"])
        doc = map_to_document(m)
        assert [doc["vertex_edge"], doc["face_edge"]] == [
            record["map"]["vertex_edge"], record["map"]["face_edge"]], record["step"]
        vmap, emap, fmap = positional_ids(m)
        replayed = {
            "new_vertices": [vmap[v] for v in ev.new_vertices],
            "new_edge": emap[ev.new_edge],
            "new_face": fmap[ev.new_face],
            "split_edges": {str(old): [emap[e] for e in segs]
                            for old, segs in ev.split_edges.items()},
        }
        assert replayed == {key: ins[key] for key in replayed}, record["step"]
    for (m, cycles), record in zip(maps, records):
        check_cover(m, cycles)
        for cover in record["covers"]:
            check_cover(m, cover)
        assert all(validate_labelling(m, lab.values()) for lab in record["labellings"])
        for cover in record["hamiltonian"]:
            assert len(cover) == 1 and check_cover(m, cover), record["step"]


def test_records_are_canonical_json(cube_42_steps):
    """Every record of the benchmark's three traced runs (cube seeds 42, 13
    and 16, grown 20 times each), and every step's ``enumerate --out``
    document, is the ``canonical_json`` of what it parses to."""
    runs = [cube_42_steps] + [grow(cube_map(), cube_seed(), iterations=20, rng_seed=seed)
                              for seed in (13, 16)]
    records = [record for steps in runs for record in trace_documents(steps)]
    texts = records + [_closure_json(step) for steps in runs for step in steps]
    differ = [i for i, text in enumerate(texts) if text != canonical_json(json.loads(text))]
    assert len(records) == 63 and not differ, f"texts {differ} differ"


def test_trace_documents_reference_consistent_ids():
    steps = grow(theta_map(), theta_seed(), iterations=4, rng_seed=2)
    docs = [json.loads(record) for record in trace_documents(steps)]
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
