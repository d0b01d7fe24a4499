import json

import pytest

from cubicmaps import CubicMap, grow, map_from_document, map_to_document, to_dot
from cubicmaps.fixtures import cube_seed, fixture_path, theta_map, theta_seed
from cubicmaps.serialize import (
    canonical_json,
    labelling_to_document,
    load_map,
    map_fingerprint,
    positional_ids,
    trace_documents,
)


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
    fresh = CubicMap(*cube.matrix_rows())
    assert list(vmap.values()) == sorted(vmap.values())
    assert emap == {e: e for e in cube.edge_ids}
    assert (fresh.vertex_edge == cube.vertex_edge).all()


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


def test_labelling_document_shape():
    doc = labelling_to_document(((2,), (1,), (3,)))
    assert doc == {"class_1": [1], "class_2": [2], "class_3": [3]}


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
