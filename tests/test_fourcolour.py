import hashlib
from collections import deque

import pytest

from cubicmaps import (
    COLOURS,
    InconsistentLabelling,
    InvalidRotation,
    OUTER,
    RotationMap,
    all_proper_labellings,
    blow_up,
    euler_check,
    face_colouring_from_labelling,
    pull_back_colouring,
    validate_face_colouring,
    validate_map,
    validate_pulled_back,
)
from cubicmaps.fixtures import (
    tetrahedron_labelling,
    tetrahedron_map,
    tetrahedron_rotation,
    wheel_rotation,
)
from cubicmaps.fourcolour import _CLASS_FLIPS, BlowUpMapping
from cubicmaps.labelling import canonical_labelling, validate_labelling
from cubicmaps.serialize import canonical_json, map_to_document

from conftest import reference_maps

REFERENCE_MAPS = reference_maps()


def test_dual_adjacency_cube(cube):
    dual = cube.dual_edges
    external = [e for e, pair in dual.items() if OUTER in pair]
    assert sorted(external) == [1, 2, 3, 12]
    for e, pair in dual.items():
        if OUTER not in pair:
            assert len(cube.face_edges[pair[0]]) == 4
            assert len(cube.face_edges[pair[1]]) == 4


def test_dual_adjacency_theta(theta):
    assert theta.dual_edges == {1: (1, OUTER), 2: (1, 2), 3: (2, OUTER)}


def test_tetrahedron_colouring():
    m = tetrahedron_map()
    fc = face_colouring_from_labelling(m, tetrahedron_labelling())
    assert validate_face_colouring(m, fc)
    assert fc[OUTER] == "++"
    assert len(set(fc.values())) == 4  # K4 needs all four colours


def test_theta_colouring_three_distinct(theta):
    fc = face_colouring_from_labelling(theta, ((1,), (2,), (3,)))
    assert validate_face_colouring(theta, fc)
    assert len(set(fc.values())) == 3


def test_cube_colourings_for_every_labelling(cube):
    for lab in all_proper_labellings(cube):
        fc = face_colouring_from_labelling(cube, lab)
        assert validate_face_colouring(cube, fc)
        assert len(set(fc.values())) <= 4


def test_validate_rejects_bad_colourings(theta):
    constant = {OUTER: "++", 1: "++", 2: "++"}
    assert not validate_face_colouring(theta, constant)
    fc = face_colouring_from_labelling(theta, ((1,), (2,), (3,)))
    fc[1] = fc[OUTER]  # faces 1 and outer share edge 1
    assert not validate_face_colouring(theta, fc)
    assert not validate_face_colouring(theta, {OUTER: "++", 1: "-+"})  # not total


def test_improper_labelling_is_caught(theta):
    with pytest.raises(InconsistentLabelling):
        face_colouring_from_labelling(theta, ((1, 2), (3,), ()))


def test_labelling_that_is_not_a_partition_is_rejected(cube):
    lab = all_proper_labellings(cube)[0]
    doubled = (lab[0] + (6,), lab[1], lab[2])  # edge 6 is also in lab[2]
    assert 6 in lab[2] and not validate_labelling(cube, doubled)
    with pytest.raises(InconsistentLabelling, match="partition"):
        face_colouring_from_labelling(cube, doubled)


def test_a_class_that_repeats_an_edge_is_not_a_partition():
    # the union is every edge, but the sizes add up to 7, not E = 6
    m = tetrahedron_map()
    repeated = ((1, 1, 6), (2, 4), (3, 5))
    assert not validate_labelling(m, repeated)
    with pytest.raises(InconsistentLabelling, match="partition"):
        face_colouring_from_labelling(m, repeated)


def test_classes_may_be_any_iterable():
    m = tetrahedron_map()
    lab = tetrahedron_labelling()
    assert validate_labelling(m, (iter(c) for c in lab))
    assert validate_labelling(m, [set(c) for c in lab])
    fc = face_colouring_from_labelling(m, (iter(c) for c in lab))
    assert fc == face_colouring_from_labelling(m, lab)


@pytest.mark.parametrize("split", ["empty_fourth", "third_split_in_two"])
def test_fourth_class_is_rejected(cube, split):
    a, b, c = all_proper_labellings(cube)[0]
    four = (a, b, c, ()) if split == "empty_fourth" else (a, b, c[:2], c[2:])
    with pytest.raises(InconsistentLabelling, match="partition"):
        face_colouring_from_labelling(cube, four)


def _per_call_colouring(m, lab):
    """The colouring by a fresh breadth-first propagation over the dual,
    built from the face rows on every call."""
    flip_of = {e: _CLASS_FLIPS[i] for i, cls in enumerate(canonical_labelling(lab)) for e in cls}
    dual = {
        e: (faces[0], faces[1] if len(faces) == 2 else OUTER)
        for e, faces in m.edge_internal_faces.items()
    }
    neighbours = {f: [] for f in (OUTER, *m.face_ids)}
    for e, (a, b) in sorted(dual.items()):
        neighbours[a].append((b, flip_of[e]))
        neighbours[b].append((a, flip_of[e]))
    bits = {OUTER: 0}
    queue = deque([OUTER])
    while queue:
        f = queue.popleft()
        for g, flip in neighbours[f]:
            if g not in bits:
                bits[g] = bits[f] ^ flip
                queue.append(g)
    return {f: COLOURS[v] for f, v in bits.items()}


@pytest.mark.parametrize("name", REFERENCE_MAPS)
def test_cached_dual_tree_matches_per_call_propagation(name):
    m = REFERENCE_MAPS[name]
    labellings = all_proper_labellings(m)
    assert labellings
    for lab in labellings:
        fc = face_colouring_from_labelling(m, lab)
        assert list(fc.items()) == list(_per_call_colouring(m, lab).items())
        assert validate_face_colouring(m, fc)
    # with the dual cached, moving one edge to another class still fails
    a, b, c = labellings[0]
    moved = (a[1:], b + a[:1], c)
    assert not validate_labelling(m, moved)
    with pytest.raises(InconsistentLabelling, match="inconsistent"):
        face_colouring_from_labelling(m, moved)


def test_flip_algebra_is_klein_four_group(cube):
    flips = set(_CLASS_FLIPS) | {0}
    assert {a ^ b for a in flips for b in flips} == flips
    # around any vertex the three incident classes flip once each: identity
    for lab in all_proper_labellings(cube):
        flip_of = {}
        for i, cls in enumerate(lab):
            for e in cls:
                flip_of[e] = _CLASS_FLIPS[i]
        for v, edges in cube.vertex_edges.items():
            acc = 0
            for e in edges:
                acc ^= flip_of[e]
            assert acc == 0


@pytest.mark.parametrize("degree", [4, 5])
def test_blow_up_wheel(degree):
    rmap = wheel_rotation(degree)
    cubic, mapping = blow_up(rmap)
    assert validate_map(cubic) == []
    assert euler_check(cubic)
    assert cubic.n_vertices == sum(len(r) for r in rmap.rotations.values())
    assert cubic.n_edges == len(rmap.endpoints) + cubic.n_vertices
    # the hub becomes a face bounded by `degree` ring edges
    hub_face = mapping.vertex_ring_face[degree + 1]
    assert len(cubic.face_edges[hub_face]) == degree
    assert set(mapping.face_to_new) == set(mapping.original_faces)
    assert OUTER in mapping.face_to_new


def test_tetrahedron_rotation_is_the_bundled_tetrahedron():
    # the rotation restates tetrahedron.json as a rotation system: the same
    # edge ends, and the same faces, the outer one being the external edges
    m = tetrahedron_map()
    rmap = tetrahedron_rotation()
    assert rmap.endpoints == m.edge_vertices
    faces = [*m.face_edges.values(), tuple(sorted(m.external_edges))]
    assert sorted(blow_up(rmap)[1].original_faces.values()) == sorted(faces)


def test_blow_up_of_cubic_map_makes_triangles():
    rmap = tetrahedron_rotation()
    cubic, mapping = blow_up(rmap)
    assert cubic.n_vertices == 3 * len(rmap.rotations)
    assert cubic.n_edges == len(rmap.endpoints) + cubic.n_vertices
    assert validate_map(cubic) == []
    for v in rmap.rotations:
        ring = mapping.vertex_ring_face[v]
        assert len(cubic.face_edges[ring]) == 3


@pytest.mark.parametrize("degree", [4, 5])
def test_blow_up_colouring_pipeline(degree):
    cubic, mapping = blow_up(wheel_rotation(degree))
    lab = all_proper_labellings(cubic)[0]
    fc = face_colouring_from_labelling(cubic, lab)
    assert validate_face_colouring(cubic, fc)
    back = pull_back_colouring(fc, mapping)
    assert validate_pulled_back(mapping, back)
    assert set(back) == set(mapping.face_to_new)


def test_pull_back_identity_mapping():
    cubic, mapping = blow_up(wheel_rotation(4))
    fc = face_colouring_from_labelling(cubic, all_proper_labellings(cubic)[0])
    back = pull_back_colouring(fc, mapping)
    identity = BlowUpMapping(
        face_to_new={k: k for k in back},
        vertex_ring_face={},
        original_faces=mapping.original_faces,
        original_edge_faces=mapping.original_edge_faces,
    )
    assert pull_back_colouring(back, identity) == back


def test_corrupted_pull_back_is_detected():
    cubic, mapping = blow_up(wheel_rotation(4))
    fc = face_colouring_from_labelling(cubic, all_proper_labellings(cubic)[0])
    back = pull_back_colouring(fc, mapping)
    edge, (fa, fb) = next(iter(mapping.original_edge_faces.items()))
    back[fa] = back[fb]
    assert not validate_pulled_back(mapping, back)
    # a proper colouring with a face missing, or with a face too many
    proper = pull_back_colouring(fc, mapping)
    for faces in ([f for f in proper if f != OUTER], [*proper, 99]):
        assert not validate_pulled_back(mapping, {f: proper.get(f, COLOURS[0]) for f in faces})


def test_colourings_outside_the_four_colours_are_rejected():
    # each face of the 5-wheel its own colour: every edge separates two
    # colours, but six colours are no four-colouring
    cubic, mapping = blow_up(wheel_rotation(5))
    six = {f: str(i) for i, f in enumerate(mapping.face_to_new)}
    assert len(six) == 6 and not validate_pulled_back(mapping, six)
    own = {f: str(i) for i, f in enumerate((OUTER, *cubic.face_ids))}
    assert not validate_face_colouring(cubic, own)


def test_invalid_rotations_are_rejected():
    with pytest.raises(ValueError):  # a wheel needs a rim of three
        wheel_rotation(2)
    with pytest.raises(InvalidRotation):  # edge 9 listed once
        blow_up(RotationMap({1: (1, 2, 9), 2: (1, 2, 3), 3: (3, 4, 5)}, {}))
    with pytest.raises(InvalidRotation):  # loop
        blow_up(
            RotationMap(
                {1: (1, 1, 2), 2: (2, 3, 3)},
                {1: (1, 1), 2: (1, 2), 3: (2, 2)},
            )
        )
    with pytest.raises(InvalidRotation):  # degree 2
        blow_up(RotationMap({1: (1, 2), 2: (1, 2)}, {1: (1, 2), 2: (1, 2)}))
    with pytest.raises(InvalidRotation):  # two components
        blow_up(
            RotationMap(
                {1: (1, 2, 3), 2: (3, 2, 1), 3: (4, 5, 6), 4: (6, 5, 4)},
                {1: (1, 2), 2: (1, 2), 3: (1, 2), 4: (3, 4), 5: (3, 4), 6: (3, 4)},
            )
        )
    with pytest.raises(InvalidRotation):  # not a sphere embedding
        blow_up(
            RotationMap(
                rotations={1: (1, 3, 4), 2: (2, 1, 5), 3: (3, 2, 6), 4: (4, 5, 6)},
                endpoints={
                    1: (1, 2), 2: (2, 3), 3: (1, 3),
                    4: (1, 4), 5: (2, 4), 6: (3, 4),
                },
            )
        )


def _renamed(rmap, old, new):
    """The rotation map with vertex and edge id ``old`` both written ``new``."""
    name = lambda i: new if i == old else i
    return RotationMap(
        {name(v): tuple(map(name, rot)) for v, rot in rmap.rotations.items()},
        {name(e): tuple(map(name, ends)) for e, ends in rmap.endpoints.items()},
    )


# one row per rejection validate_rotation and blow_up make that
# test_invalid_rotations_are_rejected does not: (rotation map, message)
ROTATION_FAULTS = {
    "negative_id": (_renamed(wheel_rotation(4), 1, -1), "positive integers, not -1"),
    "zero_id": (_renamed(wheel_rotation(4), 1, 0), "positive integers, not 0"),
    "string_id": (_renamed(wheel_rotation(4), 1, "1"), "positive integers, not '1'"),
    "empty": (RotationMap({}, {}), "no vertices"),
    "row_not_a_sequence": (RotationMap({1: 5, 2: (1, 2, 3)}, {}), "sequences, not 5"),
    "endpoint_row_of_three": (
        RotationMap(wheel_rotation(4).rotations, {**wheel_rotation(4).endpoints, 1: (1, 2, 2)}),
        "edge 1 rotations disagree with endpoints",
    ),
    "edge_three_times": (
        RotationMap({1: (1, 2, 3), 2: (1, 2, 3), 3: (1, 4, 5)}, {}),
        "edge 1 appears 3 times",
    ),
    "unknown_endpoint_edge": (
        RotationMap({1: (1, 2, 3), 2: (3, 2, 1)}, {1: (1, 2), 2: (1, 2), 3: (1, 2), 9: (1, 2)}),
        r"unknown edges \[9\]",
    ),
    "bridge": (
        RotationMap(
            {1: (1, 2, 3, 4), 2: (3, 2, 1), 3: (4, 5, 6, 7), 4: (7, 6, 5)},
            {1: (1, 2), 2: (1, 2), 3: (1, 2), 4: (1, 3), 5: (3, 4), 6: (3, 4), 7: (3, 4)},
        ),
        "bridge",
    ),
}


@pytest.mark.parametrize("name", ROTATION_FAULTS)
def test_rotation_faults_are_named(name):
    rmap, message = ROTATION_FAULTS[name]
    with pytest.raises(InvalidRotation, match=message):
        blow_up(rmap)


def test_colour_constants():
    assert COLOURS == ("++", "+-", "-+", "--")
    assert len(set(COLOURS)) == 4


def _bipyramid(n: int, reverse: bool) -> RotationMap:
    """An n-gon rim with one apex on each side: rim edge i joins rim
    vertices i and i+1, spoke n+i joins vertex i to the top apex n+1 and
    spoke 2n+i to the bottom apex n+2.  ``reverse`` mirrors the embedding."""
    top, bottom = n + 1, n + 2
    rotations = {}
    endpoints = {}
    for i in range(1, n + 1):
        rotations[i] = (i, n + i, i - 1 if i > 1 else n, 2 * n + i)
        endpoints[i] = (i, i % n + 1)
        endpoints[n + i] = (i, top)
        endpoints[2 * n + i] = (i, bottom)
    rotations[top] = tuple(range(n + 1, 2 * n + 1))
    rotations[bottom] = tuple(range(3 * n, 2 * n, -1))
    if reverse:
        rotations = {v: rot[::-1] for v, rot in rotations.items()}
    return RotationMap(rotations=rotations, endpoints=endpoints)


def _blow_up_rotations() -> list[RotationMap]:
    rmaps = [tetrahedron_rotation()]
    rmaps += [wheel_rotation(n) for n in range(3, 13)]
    rmaps += [_bipyramid(n, reverse) for n in range(3, 10) for reverse in (False, True)]
    return rmaps


def _keyed(d: dict) -> dict:
    return {str(k): v for k, v in d.items()}


# sha256 of ``blow_up`` on the 25 rotation maps of ``_blow_up_rotations``:
# the cubic map's document and membership plus every mapping field,
# pinned before blow-up read its faces off the original face orbits
BLOW_UP_SHA256 = "6b964dbf6accb8acaa6c73842a615c91de1af82ec08cc824abdb917494be5303"


def test_blow_up_digest():
    h = hashlib.sha256()
    rmaps = _blow_up_rotations()
    assert len(rmaps) == 25
    for rmap in rmaps:
        cubic, mapping = blow_up(rmap)
        record = {
            "map": map_to_document(cubic),
            "vertex_edges": _keyed(cubic.vertex_edges),
            "face_edges": _keyed(cubic.face_edges),
            "face_to_new": _keyed(mapping.face_to_new),
            "vertex_ring_face": _keyed(mapping.vertex_ring_face),
            "original_faces": _keyed(mapping.original_faces),
            "original_edge_faces": _keyed(mapping.original_edge_faces),
        }
        h.update((canonical_json(record) + "\n").encode())
    assert h.hexdigest() == BLOW_UP_SHA256
