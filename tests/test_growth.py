import hashlib
import random

import pytest

import cubicmaps.growth as growth
from cubicmaps import (
    CubicMap,
    EdgeNotOnFace,
    IncompatibleCover,
    MalformedFace,
    choose_insertion,
    compatible_cover,
    cover_closure,
    euler_check,
    grow,
    insert_edge,
    off_edges,
    rewrite_cover,
    validate_map,
)
from cubicmaps.fixtures import cube_map, cube_seed, tetrahedron_map, theta_map, theta_seed
from cubicmaps.oracles import face_pairs
from cubicmaps.serialize import canonical_json, map_to_document, trace_documents

from conftest import random_insertion_walk, reference_maps


def test_choose_insertion_is_deterministic(cube):
    a = choose_insertion(cube, random.Random(99))
    b = choose_insertion(cube, random.Random(99))
    assert a == b
    face, e1, e2 = a
    assert face in cube.face_ids
    assert {e1, e2} <= set(cube.face_edges[face])


def test_choose_insertion_draws_from_chosen_face(theta):
    for seed in range(20):
        face, e1, e2 = choose_insertion(theta, random.Random(seed))
        assert {e1, e2} <= set(theta.face_edges[face])


def test_same_edge_draws_happen(theta):
    draws = [choose_insertion(theta, random.Random(s)) for s in range(60)]
    assert any(e1 == e2 for _, e1, e2 in draws)
    assert any(e1 != e2 for _, e1, e2 in draws)


def test_insert_distinct_targets(cube):
    m2, event = insert_edge(cube, 4, 3, 4)
    assert (m2.n_vertices, m2.n_edges, m2.n_internal_faces) == (10, 15, 6)
    assert validate_map(m2) == []
    assert euler_check(m2)
    assert event.targets == (3, 4)
    assert sorted(event.split_edges) == [3, 4]
    assert all(len(segs) == 2 for segs in event.split_edges.values())


def test_insert_same_edge(theta):
    m2, event = insert_edge(theta, 1, 1, 1)
    assert (m2.n_vertices, m2.n_edges, m2.n_internal_faces) == (4, 6, 3)
    assert validate_map(m2) == []
    assert event.split_edges[1][1] in m2.face_edges[event.new_face]
    assert event.new_edge in m2.face_edges[event.new_face]
    assert len(m2.face_edges[event.new_face]) == 2  # the new bigon


@pytest.mark.parametrize("start, face, e1, e2", [(cube_map, 4, 3, 4), (theta_map, 1, 1, 1)])
def test_insertion_shares_the_rows_it_does_not_touch(start, face, e1, e2):
    m = start()
    vertex_rows, face_rows = dict(m.vertex_edges), dict(m.face_edges)
    m2, _ = insert_edge(m, face, e1, e2)
    # the parent keeps its rows, the very same tuples
    assert m.vertex_edges == vertex_rows and m.face_edges == face_rows
    assert all(m.vertex_edges[v] is row for v, row in vertex_rows.items())
    assert all(m.face_edges[f] is row for f, row in face_rows.items())
    touched_vertices = {v for e in (e1, e2) for v in m.edge_vertices[e]}
    touched_faces = {f for e in (e1, e2) for f in m.edge_internal_faces[e]}
    for v in m.vertex_ids:
        assert (m2.vertex_edges[v] is m.vertex_edges[v]) == (v not in touched_vertices)
    for f in m.face_ids:
        assert (m2.face_edges[f] is m.face_edges[f]) == (f not in touched_faces)
    assert set(m.face_ids) > touched_faces  # some face row is shared


def test_every_insertion_on_every_reference_map_is_sound():
    # insert_edge writes its rows by formula; check them by properties on
    # every (face, a, b) of face_pairs, both orders, on every reference map
    for m in reference_maps().values():
        for face, a, b in face_pairs(m):
            for e1, e2 in ((a, b), (b, a))[: 1 + (a != b)]:
                m2, ev = insert_edge(m, face, e1, e2)
                assert validate_map(m2) == []
                g, (x, y) = ev.new_edge, ev.new_vertices
                s1, s2 = ev.split_edges[e1], ev.split_edges[e2]
                kept, new = set(m2.face_edges[face]), set(m2.face_edges[ev.new_face])
                assert kept & new == {g}
                segments = {s for segs in ev.split_edges.values() for s in segs}
                assert (kept | new) - {g} == set(m.face_edges[face]) - {e1, e2} | segments
                for v, segs in ((x, s1), (y, s2)):
                    row = set(m2.vertex_edges[v])
                    assert g in row and len(row & set(segs)) == 2
                if e1 == e2:
                    assert new == {s1[1], g}


def test_insert_rejects_foreign_edge(cube):
    with pytest.raises(EdgeNotOnFace):
        insert_edge(cube, 4, 3, 9)  # edge 9 lies on faces 2 and 3 only
    with pytest.raises(MalformedFace):
        insert_edge(cube, 42, 3, 4)


def _assert_sorted_registries(m):
    for ids in (m.vertex_ids, m.edge_ids, m.face_ids):
        assert list(ids) == sorted(ids)


def _checked_insertion(m, rng):
    """One random insertion into ``m``, checking that the child's registries
    are sorted and that every id it mints exceeds all of the parent's ids of
    its kind."""
    m2, ev = insert_edge(m, *choose_insertion(m, rng))
    _assert_sorted_registries(m2)
    minted_edges = [ev.new_edge, *(seg for segs in ev.split_edges.values() for seg in segs)]
    assert min(ev.new_vertices) > max(m.vertex_ids)
    assert min(minted_edges) > max(m.edge_ids)
    assert ev.new_face > max(m.face_ids)
    return m2


def test_constructors_keep_id_registries_sorted():
    # insert_edge mints one past the last entry of each registry, so the
    # matrix parse, from_membership and insert_edge must all keep them sorted
    rng = random.Random(31)
    for m in reference_maps().values():
        reversed_rows = (dict(reversed(rows.items())) for rows in (m.vertex_edges, m.face_edges))
        for built in (m, CubicMap(*m.matrix_rows()), CubicMap.from_membership(*reversed_rows)):
            _assert_sorted_registries(built)
        _checked_insertion(m, rng)
    for start in (theta_map(), cube_map()):
        m = start
        for _ in range(15):
            m = _checked_insertion(m, rng)


def test_insertion_deltas_hold_along_random_walks():
    rng = random.Random(2024)
    for start in (theta_map(), cube_map()):
        m = start
        for _ in range(25):
            m2, _ = insert_edge(m, *choose_insertion(m, rng))
            assert m2.n_vertices == m.n_vertices + 2
            assert m2.n_edges == m.n_edges + 3
            assert m2.n_internal_faces == m.n_internal_faces + 1
            assert validate_map(m2) == []
            m = m2


def test_compatible_cover(cube, cube_cover):
    closure = cover_closure(cube, cube_cover)
    # the seed qualifies for (3, 4): both edges sit on its second cycle
    assert any(3 in c and 4 in c for c in cube_cover)
    chosen = compatible_cover(closure, 3, 4)
    assert chosen is not None
    assert any(3 in c and 4 in c for c in chosen)
    # edges 1 and 3 sit on different seed cycles, so another cover is needed
    other = compatible_cover(closure, 1, 3)
    assert other is not None and other != cube_cover
    assert any(1 in c and 3 in c for c in other)
    assert compatible_cover((), 3, 4) is None


def test_compatible_cover_takes_first_in_given_order(cube, cube_cover):
    closure = cover_closure(cube, cube_cover)
    matches = [cov for cov in closure if any(3 in c and 4 in c for c in cov)]
    assert len(matches) > 1
    assert compatible_cover(closure, 3, 4) == matches[0]
    assert compatible_cover(closure[::-1], 3, 4) == matches[-1]


def test_compatible_cover_same_edge(theta, theta_cover):
    closure = cover_closure(theta, theta_cover)
    chosen = compatible_cover(closure, 3, 3)
    assert chosen is not None
    assert any(3 in c for c in chosen)


def test_rewrite_distinct_targets(cube, cube_cover):
    m2, event = insert_edge(cube, 4, 3, 4)
    new_cover = rewrite_cover(cube_cover, event, m2)
    host = [c for c in new_cover if event.split_edges[3][0] in c]
    assert len(host) == 1 and len(host[0]) == 6
    assert (1, 9, 10, 11) in new_cover  # untouched cycle survives
    assert event.new_edge in off_edges(m2, new_cover)
    assert set(event.new_vertices) <= {v for e in host[0] for v in m2.edge_vertices[e]}


def test_rewrite_same_edge(theta, theta_cover):
    m2, event = insert_edge(theta, 1, 1, 1)
    new_cover = rewrite_cover(theta_cover, event, m2)
    assert len(new_cover) == 1 and len(new_cover[0]) == 4
    assert set(event.split_edges[1]) < set(new_cover[0])
    assert event.new_edge in off_edges(m2, new_cover)


def test_rewrite_rejects_partially_touched_cover(cube):
    m2, event = insert_edge(cube, 4, 3, 4)
    # this cover has a cycle through edge 3 but none through edge 4
    with pytest.raises(IncompatibleCover):
        rewrite_cover(((1, 2, 3, 12), (5, 7, 10, 8)), event, m2)


def test_rewrite_rejects_targets_on_two_cycles(cube, cube_cover):
    # edges 4 and 11 share face 5 but sit on different seed cycles
    m2, event = insert_edge(cube, 5, 4, 11)
    with pytest.raises(IncompatibleCover):
        rewrite_cover(cube_cover, event, m2)


def test_grow_zero_iterations(cube):
    steps = grow(cube, cube_seed(), iterations=0, rng_seed=1)
    assert len(steps) == 1
    assert steps[0].event is None
    assert len(steps[0].covers) == 9
    with pytest.raises(ValueError):
        grow(cube, cube_seed(), iterations=-1, rng_seed=1)


def test_grow_redraws_after_a_draw_without_host(cube, monkeypatch):
    draws, calls = [], []
    real_choose, real_compatible = growth.choose_insertion, growth.compatible_cover

    def choose(m, rng):
        draws.append(real_choose(m, rng))
        return draws[-1]

    def none_first(covers, e1, e2):
        calls.append((e1, e2))
        return real_compatible(covers, e1, e2) if len(calls) > 1 else None

    monkeypatch.setattr(growth, "choose_insertion", choose)
    monkeypatch.setattr(growth, "compatible_cover", none_first)
    steps = grow(cube, cube_seed(), iterations=5, rng_seed=42)
    assert len(steps) == 6
    assert len(draws) == len(calls) == 6
    assert [s.event.targets for s in steps[1:]] == [(e1, e2) for _, e1, e2 in draws[1:]]


@pytest.mark.parametrize(
    "start, seed_cover, rng_seed",
    [(cube_map, cube_seed, 42), (cube_map, cube_seed, 13),
     (theta_map, theta_seed, 3), (theta_map, theta_seed, 93)],
)
def test_every_edge_lies_on_a_closure_cycle(start, seed_cover, rng_seed):
    # so a draw of one edge twice always has a host, and growth's redraws end
    for step in grow(start(), seed_cover(), iterations=20, rng_seed=rng_seed):
        on_cycles = {e for cover in step.covers for cycle in cover for e in cycle}
        assert on_cycles == set(step.map.edge_ids)


def test_grow_four_iterations_from_cube(cube):
    steps = grow(cube, cube_seed(), iterations=4, rng_seed=11)
    assert len(steps) == 5
    final = steps[-1].map
    assert (final.n_vertices, final.n_edges) == (16, 24)
    for step in steps:
        assert validate_map(step.map) == []
        assert euler_check(step.map)
        assert step.cover in step.covers


def test_grow_twenty_iterations_from_theta():
    steps = grow(theta_map(), theta_seed(), iterations=20, rng_seed=3)
    final = steps[-1].map
    assert (final.n_vertices, final.n_edges) == (42, 63)


def test_grow_is_deterministic():
    a = grow(theta_map(), theta_seed(), iterations=6, rng_seed=17)
    b = grow(theta_map(), theta_seed(), iterations=6, rng_seed=17)
    assert trace_documents(a) == trace_documents(b)
    c = grow(theta_map(), theta_seed(), iterations=6, rng_seed=18)
    assert trace_documents(a) != trace_documents(c)


# sha256 over ``insert_edge`` on every (face, a, b) of ``face_pairs``, both
# orders when a != b, for the cube, theta, the tetrahedron and one grown map:
# each new map's document and raw id registries plus every event field.
INSERTION_SHA256 = "d1d67feba65d6b99ac31609f08d9ba8e75aceff47e0d617c34aa6943e82be1cd"


def _insertion_sha256(maps) -> str:
    h = hashlib.sha256()
    for m in maps:
        for face, a, b in face_pairs(m):
            for e1, e2 in ((a, b), (b, a))[: 1 + (a != b)]:
                m2, ev = insert_edge(m, face, e1, e2)
                record = {
                    "map": map_to_document(m2),
                    "ids": [m2.vertex_ids, m2.edge_ids, m2.face_ids],
                    "next": [max(ids) + 1 for ids in (m2.vertex_ids, m2.edge_ids, m2.face_ids)],
                    "event": [
                        ev.face,
                        ev.targets,
                        ev.new_vertices,
                        ev.new_edge,
                        sorted(ev.split_edges.items()),
                        ev.new_face,
                    ],
                }
                h.update((canonical_json(record) + "\n").encode())
    return h.hexdigest()


def test_insertion_digest():
    grown, _ = random_insertion_walk(theta_map(), 8, random.Random(7))
    maps = (cube_map(), theta_map(), tetrahedron_map(), grown)
    assert _insertion_sha256(maps) == INSERTION_SHA256
