import importlib
import inspect
import os
import pkgutil
import random
import subprocess
import sys
import textwrap
import typing
from pathlib import Path

import numpy as np
import pytest

import cubicmaps
from cubicmaps import (
    CubicMap,
    InvalidCover,
    MalformedFace,
    NotACycle,
    NotTwoRegular,
    canonical_cycle,
    check_cover,
    decompose_two_factor,
    euler_check,
    face_boundary,
    off_edges,
    order_cycle,
    validate_map,
)
from cubicmaps.fixtures import tetrahedron_map, theta_map
from cubicmaps.incidence import edge_mask, face_boundary_walk, mask_edges, walk_cycles

from conftest import random_insertion_walk


def test_fixture_maps_are_valid(cube, theta):
    assert validate_map(cube) == []
    assert validate_map(theta) == []
    assert validate_map(tetrahedron_map()) == []


def test_single_bit_corruption_is_reported(cube):
    ve = np.array(cube.vertex_edge)
    ve[0, 0] = 0  # vertex 1 loses edge 1
    report = validate_map(CubicMap(ve, cube.face_edge))
    assert any("vertex row 1 has 2 ones" in line for line in report)
    assert any("edge column 1 has 1 ones" in line for line in report)


def test_non_binary_entries_are_reported(theta):
    for entry in (2, 255):
        ve = np.array(theta.vertex_edge)
        ve[0, 0] = entry
        m = CubicMap(ve, theta.face_edge)
        assert validate_map(m) == ["vertex-edge matrix has entries outside {0,1}"]
        assert m.vertex_edges[1] == (1, 1, 2, 3)  # listed twice, whatever the entry


def test_euler_check(cube, theta):
    # theta: 2 - 3 + (2 + 1) = 2; cube: 8 - 12 + (5 + 1) = 2
    assert euler_check(theta)
    assert euler_check(cube)
    dropped = CubicMap(cube.vertex_edge, cube.face_edge[:-1])
    assert not euler_check(dropped)
    assert validate_map(dropped) != []


def test_order_cycle_canonical_form(cube):
    assert order_cycle(cube, {9, 11, 1, 10}) == (1, 9, 10, 11)
    assert order_cycle(cube, {6, 5, 4, 3}) == (3, 4, 5, 6)


def test_order_cycle_parallel_edges(theta):
    assert order_cycle(theta, {1, 2}) == (1, 2)
    assert order_cycle(theta, {3, 1}) == (1, 3)


def test_order_cycle_rejects_open_path(cube):
    with pytest.raises(NotACycle):
        order_cycle(cube, {1, 9, 10})
    with pytest.raises(NotACycle):
        order_cycle(cube, {1, 9, 10, 42})  # closed only through an unknown id
    with pytest.raises(NotACycle):
        order_cycle(cube, {42})


@pytest.mark.parametrize("cycle", [(1.0, 2.0), (True, 2), ("1", 2), (1, 2.0)])
def test_check_cover_rejects_non_integer_ids(theta, cycle):
    # 1.0 and True hash like edge 1, so a lookup alone would accept them
    with pytest.raises(InvalidCover):
        check_cover(theta, [cycle])
    with pytest.raises(NotACycle):
        order_cycle(theta, cycle)
    with pytest.raises(NotTwoRegular):
        decompose_two_factor(theta, cycle)


def test_order_cycle_rejects_disconnected_set(cube):
    with pytest.raises(NotACycle):
        order_cycle(cube, {1, 9, 10, 11, 3, 4, 5, 6})


def test_order_cycle_idempotent_on_canonical(cube):
    for cycle in [(1, 9, 10, 11), (3, 4, 5, 6)]:
        assert order_cycle(cube, frozenset(cycle)) == cycle
        assert canonical_cycle(cycle) == cycle


def test_masks_are_keyed_by_edge_id():
    m, _ = random_insertion_walk(theta_map(), 3, random.Random(5))
    assert max(m.edge_ids) > m.n_edges  # retired ids leave gaps
    cycle = face_boundary(m, m.face_ids[-1])
    mask = edge_mask(cycle)
    assert mask == sum(1 << e for e in cycle)
    assert mask_edges(mask) == tuple(sorted(cycle))
    [walk] = walk_cycles(m, mask)
    assert walk[0] == min(cycle) and canonical_cycle(walk) == cycle


def test_face_boundary_quads(cube):
    assert face_boundary(cube, 2) == (1, 9, 10, 11)
    assert face_boundary(cube, 4) == (3, 4, 5, 6)
    assert face_boundary(cube, 1) == (5, 7, 10, 8)


def test_face_boundary_walk_directions(cube):
    walk = face_boundary_walk(cube, 4)
    assert [e for _, e in walk] == [3, 4, 5, 6]
    # each edge runs from its entry vertex to the next entry vertex
    for i, (v, e) in enumerate(walk):
        w = walk[(i + 1) % len(walk)][0]
        assert set(cube.edge_vertices[e]) == {v, w}


def test_face_boundary_bigon(theta):
    assert face_boundary(theta, 1) == (1, 2)
    assert face_boundary_walk(theta, 1) == [(1, 1), (2, 2)]


def test_face_boundary_stray_one_is_malformed(cube):
    fe = np.array(cube.face_edge)
    fe[0, 0] = 1  # inner square face claims outer edge 1
    broken = CubicMap(cube.vertex_edge, fe)
    with pytest.raises(MalformedFace):
        face_boundary(broken, 1)
    assert any("face 1" in line for line in validate_map(broken))


def test_face_boundary_unknown_face(cube):
    with pytest.raises(MalformedFace):
        face_boundary(cube, 99)


def test_off_edges(cube, theta, cube_cover, theta_cover):
    assert off_edges(cube, cube_cover) == {2, 7, 8, 12}
    assert off_edges(theta, theta_cover) == {3}


def test_off_edges_of_hamiltonian_cover(cube):
    ham = (order_cycle(cube, {1, 2, 6, 7, 10, 8, 4, 12}),)
    assert len(off_edges(cube, ham)) == cube.n_vertices // 2


def test_decompose_two_factor(cube):
    two_quads = decompose_two_factor(cube, {1, 9, 10, 11, 3, 4, 5, 6})
    assert two_quads == ((1, 9, 10, 11), (3, 4, 5, 6))
    ham = decompose_two_factor(cube, {1, 2, 6, 7, 10, 8, 4, 12})
    assert ham == ((1, 2, 6, 7, 10, 8, 4, 12),)


def test_decompose_rejects_non_two_regular(cube):
    with pytest.raises(NotTwoRegular):
        decompose_two_factor(cube, {1, 2, 3, 4, 5, 6, 7})
    with pytest.raises(NotTwoRegular):
        decompose_two_factor(cube, set(cube.edge_ids))
    with pytest.raises(NotTwoRegular):
        decompose_two_factor(cube, {1, 9, 10, 11, 3, 4, 5, 42})
    with pytest.raises(NotTwoRegular):
        decompose_two_factor(cube, {1, 9, 10, 11, 3, 4, 5, 6, 42})


def test_matrix_shape_properties_on_grown_maps():
    rng = random.Random(101)
    for start in (theta_map(), ):
        m, _ = random_insertion_walk(start, 12, rng)
        assert validate_map(m) == []
        assert m.vertex_edge.sum(axis=1).tolist() == [3] * m.n_vertices
        assert m.vertex_edge.sum(axis=0).tolist() == [2] * m.n_edges


def test_decompose_partition_property():
    rng = random.Random(33)
    m, _ = random_insertion_walk(theta_map(), 8, rng)
    # take any perfect-matching complement as a 2-factor
    from cubicmaps import all_perfect_matchings

    for matching in all_perfect_matchings(m)[:5]:
        on = m.all_edges - matching
        cover = decompose_two_factor(m, on)
        seen_edges = [e for cycle in cover for e in cycle]
        assert len(seen_edges) == len(set(seen_edges))
        assert set(seen_edges) == on
        seen_vertices = [v for cycle in cover for e in cycle for v in m.edge_vertices[e]]
        assert set(seen_vertices) == set(m.vertex_ids)
        assert off_edges(m, cover) | on == m.all_edges
        assert off_edges(m, cover) & on == set()


def test_loops_cannot_be_expressed():
    # a loop would need a column summing to 2 in one row; with 0/1 entries
    # the closest encodings are caught by validation
    ve = np.array([[1, 1, 1], [1, 1, 1]], dtype=np.uint8)
    ve[0, 0] = 1
    ve[1, 0] = 0  # edge 1 now has a single endpoint
    assert any("edge column 1" in line for line in validate_map(CubicMap(ve, [[1, 1, 0], [0, 1, 1]])))


def test_core_runs_without_numpy(tmp_path):
    """Import, growth, validation, serialisation, blow-up and the CLI leave
    numpy unimported; the matrix views import it on first read."""
    script = textwrap.dedent(
        f"""
        import json, sys
        import cubicmaps
        from cubicmaps import cli, fixtures, growth
        from cubicmaps.fourcolour import blow_up
        from cubicmaps.serialize import map_fingerprint, map_to_document, write_trace

        steps = growth.grow(fixtures.cube_map(), fixtures.cube_seed(), 3, 7)
        m = steps[-1].map
        assert cubicmaps.validate_map(m) == []
        map_fingerprint(m)
        write_trace(steps, {str(tmp_path / "trace.jsonl")!r})
        blow_up(fixtures.wheel_rotation(5))
        path = {str(tmp_path / "m.json")!r}
        with open(path, "w") as fh:
            json.dump(map_to_document(m), fh)
        assert cli.main(["validate", "--input", path]) == 0
        assert "numpy" not in sys.modules, "numpy imported"

        import numpy as np
        doc = map_to_document(m)
        for view, rows in ((m.vertex_edge, doc["vertex_edge"]), (m.face_edge, doc["face_edge"])):
            assert isinstance(view, np.ndarray) and view.dtype == np.uint8
            assert not view.flags.writeable
            assert view.tolist() == rows
        """
    )
    src = str(Path(cubicmaps.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr


def _defined_callables(module):
    """Every function and class defined in ``module``, and the functions,
    properties and cached properties in those classes' bodies."""
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield obj
        elif inspect.isclass(obj):
            yield obj
            for member in vars(obj).values():
                for attr in ("fget", "func", "__func__"):
                    member = getattr(member, attr, member)
                if inspect.isfunction(member):
                    yield member


@pytest.mark.parametrize("name", [info.name for info in pkgutil.iter_modules(cubicmaps.__path__)])
def test_annotations_resolve(name):
    module = importlib.import_module(f"cubicmaps.{name}")
    for obj in _defined_callables(module):
        typing.get_type_hints(obj)
