import ast
import importlib
import inspect
import pkgutil
import random
import sys
import typing
from collections import Counter
from pathlib import Path

import pytest

import cubicmaps
from cubicmaps import (
    CubicMap,
    InvalidCover,
    MalformedFace,
    NotACycle,
    NotTwoRegular,
    all_even_cycle_covers,
    all_perfect_matchings,
    canonical_cover,
    canonical_cycle,
    check_cover,
    cover_closure,
    decompose_two_factor,
    euler_check,
    face_boundary,
    grow,
    incidence,
    off_edges,
    order_cycle,
    validate_map,
)
from cubicmaps.fixtures import cube_map, cube_seed, tetrahedron_map, theta_map, theta_seed
from cubicmaps.incidence import (
    edge_mask,
    face_boundary_walk,
    mask_edges,
    walk_cycles,
)

from conftest import _time_limit, random_insertion_walk, reference_maps

REFERENCE_MAPS = reference_maps()


def test_fixture_maps_are_valid(cube, theta):
    assert validate_map(cube) == []
    assert validate_map(theta) == []
    assert validate_map(tetrahedron_map()) == []


def test_single_bit_corruption_is_reported(cube):
    ve, fe = cube.matrix_rows()
    ve[0][0] = 0  # vertex 1 loses edge 1
    report = validate_map(CubicMap(ve, fe))
    assert any("vertex row 1 has 2 ones" in line for line in report)
    assert any("edge column 1 has 1 ones" in line for line in report)


def test_non_binary_entries_are_reported(theta):
    for entry in (2, 255, 256, 300, 10**30):
        ve, fe = theta.matrix_rows()
        ve[0][0] = entry
        m = CubicMap(ve, fe)
        assert validate_map(m) == ["vertex-edge matrix has entries outside {0,1}"]
        assert m.vertex_edges[1] == (1, 1, 2, 3)  # listed twice, whatever the entry


def test_edge_listed_twice_is_reported_by_both_constructors():
    # the membership form keeps a duplicate just as a matrix entry of 2 does
    members = CubicMap.from_membership({1: (1, 1, 2), 2: (1, 2, 2)}, {1: (1, 2)})
    matrix = CubicMap([[2, 1], [1, 2]], [[1, 1]])
    assert members.vertex_edges == matrix.vertex_edges == {1: (1, 1, 2), 2: (1, 2, 2)}
    for m in (members, matrix):
        assert validate_map(m) == ["vertex-edge matrix has entries outside {0,1}"]


def test_euler_check(cube, theta):
    # theta: 2 - 3 + (2 + 1) = 2; cube: 8 - 12 + (5 + 1) = 2
    assert euler_check(theta)
    assert euler_check(cube)
    ve, fe = cube.matrix_rows()
    dropped = CubicMap(ve, fe[:-1])
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
    with pytest.raises(NotACycle, match="empty edge set"):
        order_cycle(cube, [])


@pytest.mark.parametrize("cycle", [(1.0, 2.0), (True, 2), ("1", 2), (1, 2.0), ([1], 2)])
def test_check_cover_rejects_non_integer_ids(theta, cycle):
    # 1.0 and True hash like edge 1, so a lookup alone would accept them;
    # an unhashable id must raise the typed error, not a TypeError
    with pytest.raises(InvalidCover):
        check_cover(theta, [cycle])
    with pytest.raises(NotACycle):
        order_cycle(theta, cycle)
    with pytest.raises(NotTwoRegular):
        decompose_two_factor(theta, cycle)


def test_edge_listed_twice_is_rejected(theta):
    # both ends of edge 1 meet it twice, which a degree count alone accepts
    with pytest.raises(NotACycle):
        order_cycle(theta, [1, 1])
    with pytest.raises(NotTwoRegular):
        decompose_two_factor(theta, [1, 1])


def test_order_cycle_rejects_disconnected_set(cube):
    with pytest.raises(NotACycle):
        order_cycle(cube, {1, 9, 10, 11, 3, 4, 5, 6})


def test_order_cycle_idempotent_on_canonical(cube):
    for cycle in [(1, 9, 10, 11), (3, 4, 5, 6)]:
        assert order_cycle(cube, frozenset(cycle)) == cycle
        assert canonical_cycle(cycle) == cycle


def _cycle_by_degree_count(m, edges):
    """The walk of ``edges`` if they form one cycle, else None, by a check
    independent of ``order_cycle``: count each vertex's edges in the set,
    and only if every count is two, walk the mask and ask for one cycle."""
    degree: dict[int, int] = {}
    for e in edges:
        for v in m.edge_vertices[e]:
            degree[v] = degree.get(v, 0) + 1
    if set(degree.values()) != {2}:
        return None
    walks = walk_cycles(m, edge_mask(edges))
    return walks[0] if len(walks) == 1 else None


def _edge_sets_to_order(m, rng):
    """Random edge sets, each face row alone, with one edge removed, with
    one edge added, and joined with each face row it shares no edge with,
    and each cycle of the closure of the map's first oracle cover."""
    rows = [set(row) for row in m.face_edges.values()]
    sets = [set(rng.sample(m.edge_ids, rng.randrange(1, m.n_edges + 1))) for _ in range(200)]
    for row in rows:
        sets.append(row)
        sets += [row - {e} for e in row]
        sets += [row | {e} for e in m.edge_ids if e not in row]
        sets += [row | other for other in rows if row.isdisjoint(other)]
    closure = cover_closure(m, all_even_cycle_covers(m)[0])
    sets += [set(cycle) for cover in closure for cycle in cover]
    return sets


@pytest.mark.parametrize("name", REFERENCE_MAPS)
def test_order_cycle_agrees_with_the_degree_count(name):
    """``order_cycle`` rejects exactly the edge sets that are not one cycle
    by the degree count and the walk, and orders the others as the walk
    does, whatever order the edges come in."""
    m = REFERENCE_MAPS[name]
    rng = random.Random(29)
    kept = dropped = 0
    with _time_limit(10):
        for edges in _edge_sets_to_order(m, rng):
            given = rng.sample(sorted(edges), len(edges))
            expected = _cycle_by_degree_count(m, edges)
            if expected is None:
                with pytest.raises(NotACycle):
                    order_cycle(m, given)
                dropped += 1
            else:
                assert order_cycle(m, given) == canonical_cycle(expected)
                kept += 1
    assert kept >= m.n_internal_faces and dropped > m.n_edges


def test_masks_are_keyed_by_edge_id():
    m, _ = random_insertion_walk(theta_map(), 3, random.Random(5))
    assert max(m.edge_ids) > m.n_edges  # retired ids leave gaps
    cycle = face_boundary(m, m.face_ids[-1])
    mask = edge_mask(cycle)
    assert mask == sum(1 << e for e in cycle)
    assert mask_edges(mask) == tuple(sorted(cycle))
    [walk] = walk_cycles(m, mask)
    assert walk[0] == min(cycle) and canonical_cycle(walk) == cycle


@pytest.mark.parametrize("seed", range(5))
def test_mask_edges_round_trips(seed):
    rng = random.Random(seed)
    sets = [set(), {0}, {600}]
    sets += [set(rng.sample(range(601), rng.randrange(0, 120))) for _ in range(200)]
    for edges in sets:
        mask = edge_mask(edges)
        assert mask_edges(mask) == tuple(sorted(edges))
        assert edge_mask(mask_edges(mask)) == mask
    for mask in (0, 1, 2**600, 2**601 - 1, rng.getrandbits(600)):
        assert edge_mask(mask_edges(mask)) == mask


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
    ve, fe = cube.matrix_rows()
    fe[0][0] = 1  # inner square face claims outer edge 1
    broken = CubicMap(ve, fe)
    with pytest.raises(MalformedFace):
        face_boundary(broken, 1)
    assert any("face 1" in line for line in validate_map(broken))


def test_face_boundary_unknown_face(cube):
    with pytest.raises(MalformedFace):
        face_boundary(cube, 99)


def test_face_row_naming_an_edge_no_vertex_lists_is_reported():
    # edge 99 is registered by its face row, and reported by its missing ends
    m = CubicMap.from_membership({1: (1, 2, 3), 2: (1, 2, 3)}, {1: (1, 2), 2: (2, 99)})
    assert m.edge_ids == (1, 2, 3, 99)
    assert validate_map(m) == [
        "edge column 99 has 0 ones in vertex-edge (expected 2)",
        "edge column 3 has 0 ones in face-edge (expected 1 or 2)",
        "Euler check failed: V=2 - E=4 + F=2+1 != 2",
    ]


@pytest.mark.parametrize("bad", [-1, 1.5, True, 1.0, "1", "v1", "outer"])
def test_edge_ids_that_cannot_index_a_mask_are_rejected(bad, theta):
    # edge masks shift by edge id, so the membership constructor refuses such
    # an id in a vertex row, and in a face row alone, before any walk; it
    # refuses such a vertex or face key too, before any sort, since insertion
    # mints one past the last key and the outer face's key is OUTER
    message = "vertex, edge and face ids must be non-negative integers"
    with pytest.raises(ValueError, match=message):
        CubicMap.from_membership({1: (bad, 2, 3), 2: (bad, 2, 3)}, {1: (bad, 2), 2: (2, 3)})
    with pytest.raises(ValueError, match=message):
        CubicMap.from_membership(theta.vertex_edges, {1: (bad, 2), 2: (2, 3)})
    with pytest.raises(ValueError, match=message):
        CubicMap.from_membership({bad: (1, 2, 3), 2: (1, 2, 3)}, theta.face_edges)
    with pytest.raises(ValueError, match=message):
        CubicMap.from_membership(theta.vertex_edges, {bad: (1, 2), 2: (2, 3)})
    # every function that turns given edges into a mask raises its own error
    # on such an id, never a bare ValueError from a negative shift
    with pytest.raises(InvalidCover, match="unknown edge id"):
        check_cover(theta, [(bad, 2)])
    with pytest.raises(InvalidCover, match="unknown edge id"):
        cover_closure(theta, [(bad, 2)])
    with pytest.raises(NotACycle, match="unknown edge id"):
        order_cycle(theta, (bad, 2))
    with pytest.raises(NotTwoRegular, match="unknown edge id"):
        decompose_two_factor(theta, (bad, 2))


def _one_edge_corruptions(m):
    """``m`` with one face row gaining an external edge or losing an
    internal one, in every way: each edge stays on one or two internal
    faces, so ``validate_map`` passes its column checks and reaches the
    face check."""
    for f, row in m.face_edges.items():
        for e in m.edge_ids:
            if e in row and e not in m.external_edges:
                changed = tuple(x for x in row if x != e)
            elif e not in row and e in m.external_edges:
                changed = tuple(sorted((*row, e)))
            else:
                continue
            yield CubicMap.from_membership(m.vertex_edges, {**m.face_edges, f: changed})


def _face_row_edits(m, rng, tries):
    """Copies of ``m`` with 1-3 seeded face-row edits each, every edit
    dropping an edge from a row, adding one to a row, or moving one between
    rows.  Only copies in which each edge stays on one or two rows and no
    row is empty are kept, so ``validate_map`` reaches the face check."""
    for _ in range(tries):
        rows = {f: set(row) for f, row in m.face_edges.items()}
        for _ in range(rng.randint(1, 3)):
            edit, e = rng.choice(("drop", "add", "move")), rng.choice(m.edge_ids)
            if edit != "add":
                rows[rng.choice(m.edge_internal_faces[e])].discard(e)
            if edit != "drop":
                rows[rng.choice(m.face_ids)].add(e)
        counts = Counter(e for row in rows.values() for e in row)
        if all(rows.values()) and all(counts[e] in (1, 2) for e in m.edge_ids):
            yield CubicMap.from_membership(m.vertex_edges, rows)


def _malformed_faces(m):
    """The faces on which the public ``face_boundary`` raises MalformedFace."""
    out = []
    for f in m.face_ids:
        try:
            face_boundary(m, f)
        except MalformedFace:
            out.append(f)
    return out


def test_face_of_two_cycles_reaches_the_walk(cube):
    # the inner quad's row plus the outer quad's edges: every vertex meets
    # two of its edges, and only the walk tells the row is two cycles
    inner = next(f for f, row in cube.face_edges.items() if cube.external_edges.isdisjoint(row))
    row = tuple(sorted((*cube.face_edges[inner], *cube.external_edges)))
    m = CubicMap.from_membership(cube.vertex_edges, {**cube.face_edges, inner: row})
    assert len(walk_cycles(m, edge_mask(row))) == 2
    assert validate_map(m) == [f"face {inner} edges do not form one closed boundary"]
    with pytest.raises(MalformedFace, match="do not form one cycle"):
        face_boundary(m, inner)


def _face_lines_by_degree_count(m):
    """The face lines of ``validate_map`` by the check its face walk
    replaced, ``_cycle_by_degree_count`` of each row."""
    return [
        f"face {f} edges do not form one closed boundary"
        for f, edges in m.face_edges.items()
        if _cycle_by_degree_count(m, edges) is None
    ]


def _cube_with_face_row(row):
    cube = cube_map()
    return CubicMap.from_membership(cube.vertex_edges, {**cube.face_edges, 2: row})


def test_face_walk_ends_and_agrees_with_the_degree_count():
    """Every broken face row ends the face walk within its bound, and the
    walk flags exactly the rows that the degree count and ``face_boundary``
    flag, at least one on every one-edge corruption.  Beyond those: cube
    face 2, (1, 9, 10, 11), plus edge 12, so vertex 1 meets three of its
    edges (and the walk starts there), and minus edge 9, a path; and 1-3
    seeded face-row edits of every reference map.  Wherever a vertex meets
    1 or 3 external edges, a face line is reported, which is why
    ``validate_map`` does not count a vertex's external edges."""
    grown, _ = random_insertion_walk(theta_map(), 8, random.Random(7))
    extra = [_cube_with_face_row(row) for row in ((1, 9, 10, 11, 12), (1, 10, 11))]
    suffix = " edges do not form one closed boundary"
    rng = random.Random(35)
    tried = odd = 0
    with _time_limit(10):
        cases = [
            (broken, True)
            for m in (cube_map(), theta_map(), tetrahedron_map(), grown)
            for broken in (*_one_edge_corruptions(m), *extra)
        ]
        cases += [(b, False) for m in REFERENCE_MAPS.values() for b in _face_row_edits(m, rng, 100)]
        for broken, one_edge in cases:
            report = validate_map(broken)
            external = broken.external_edges
            if any(len(external.intersection(es)) in (1, 3) for es in broken.vertex_edges.values()):
                assert any(line.endswith(suffix) for line in report)
                odd += 1
            assert report == _face_lines_by_degree_count(broken)
            faces = [int(line.removeprefix("face ").removesuffix(suffix)) for line in report]
            assert faces == _malformed_faces(broken)
            assert faces or not one_edge
            tried += 1
    assert tried > 500 and odd > 100
    assert validate_map(extra[0]) == ["face 2" + suffix]
    assert validate_map(extra[1]) == ["face 2" + suffix]


def test_valid_maps_are_checked_without_face_boundary(monkeypatch):
    # built before the count starts, since inserting calls face_boundary
    grown, _ = random_insertion_walk(theta_map(), 8, random.Random(7))
    calls = []
    real = incidence.face_boundary
    monkeypatch.setattr(incidence, "face_boundary", lambda m, f: calls.append(f) or real(m, f))
    for m in (cube_map(), theta_map(), tetrahedron_map(), grown):
        assert validate_map(m) == []
    assert calls == []


def _walk_masks(m):
    """Edge masks to walk on ``m``: each face row, and the 2-factor left by
    each perfect matching, odd cycles included."""
    masks = [edge_mask(row) for row in m.face_edges.values()]
    masks += [m._all_mask ^ edge_mask(matching) for matching in all_perfect_matchings(m)]
    return masks


def _cube_cover_masks():
    cube = cube_map()
    closure = cover_closure(cube, check_cover(cube, cube_seed()))
    covers = (*closure, *all_even_cycle_covers(cube))
    return [edge_mask(e for cycle in cover for e in cycle) for cover in covers]


@pytest.mark.parametrize("name", [*REFERENCE_MAPS, "cube_closure_and_oracle"])
def test_walks_come_out_canonical(name):
    """The reference maps include theta, whose faces are bigons, and maps
    with parallel edges; the walker's own output is already canonical.  The
    masks are built here, under the time limit, since building them walks
    too."""
    with _time_limit(10):
        if name in REFERENCE_MAPS:
            m = REFERENCE_MAPS[name]
            masks = _walk_masks(m)
        else:
            m, masks = cube_map(), _cube_cover_masks()
        assert masks
        for mask in masks:
            walks = walk_cycles(m, mask)
            assert walks == canonical_cover(walks)
            assert edge_mask(e for w in walks for e in w) == mask


@pytest.mark.parametrize("grown", [False, True], ids=["cube", "corpus_map"])
def test_walks_on_sparse_ids(grown):
    """The walker reads one byte per edge id up to the mask's top bit.
    Renaming edge e to 1000*e + 7 puts the top id on walked cycles and
    leaves long runs of ids that are not edges; every oracle cover still
    walks to its renamed canonical cover, and every face row, whose mask
    mostly ends far below the top id, to its renamed boundary."""
    m = grow(theta_map(), theta_seed(), iterations=14, rng_seed=11)[-1].map if grown else cube_map()
    rename = {e: 1000 * e + 7 for e in m.edge_ids}
    sparse = CubicMap.from_membership(
        *({k: [rename[e] for e in es] for k, es in rows.items()}
          for rows in (m.vertex_edges, m.face_edges))
    )
    assert validate_map(sparse) == []
    top = max(sparse.edge_ids)
    covers = all_even_cycle_covers(m)
    assert covers
    renamed = [canonical_cover([rename[e] for e in cycle] for cycle in cover) for cover in covers]
    assert any(top in cycle for cover in renamed for cycle in cover)
    for cover in renamed:
        assert walk_cycles(sparse, edge_mask(e for cycle in cover for e in cycle)) == cover
    for f, row in sparse.face_edges.items():
        boundary = canonical_cycle([rename[e] for e in face_boundary(m, f)])
        assert walk_cycles(sparse, edge_mask(row)) == (boundary,)
        assert face_boundary(sparse, f) == boundary


@pytest.mark.parametrize("name", REFERENCE_MAPS)
def test_turn_table_names_the_exits_of_each_dart(name):
    """Dart 2e + k points to ``edge_vertices[e][k]``; its entry names the
    other two edges there, lower first, each with a dart that leaves that
    vertex.  The walker reads only the lower exit's byte, which is in range
    because y < z."""
    m = REFERENCE_MAPS[name]
    turns = m._turns
    assert sorted(turns) == [2 * e + k for e in m.edge_ids for k in (0, 1)]
    for d, (y, dy, z, dz) in turns.items():
        assert y < z
        e, k = divmod(d, 2)
        v = m.edge_vertices[e][k]
        assert sorted((e, y, z)) == sorted(m.vertex_edges[v])
        for x, dx in ((y, dy), (z, dz)):
            assert dx // 2 == x and m.edge_vertices[x][1 - dx % 2] == v


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
        ve, _ = m.matrix_rows()
        assert [sum(row) for row in ve] == [3] * m.n_vertices
        assert [sum(col) for col in zip(*ve)] == [2] * m.n_edges


def test_decompose_partition_property():
    rng = random.Random(33)
    m, _ = random_insertion_walk(theta_map(), 8, rng)
    # take any perfect-matching complement as a 2-factor
    from cubicmaps import all_perfect_matchings

    for matching in all_perfect_matchings(m)[:5]:
        on = frozenset(m.edge_ids) - matching
        cover = decompose_two_factor(m, on)
        seen_edges = [e for cycle in cover for e in cycle]
        assert len(seen_edges) == len(set(seen_edges))
        assert set(seen_edges) == on
        seen_vertices = [v for cycle in cover for e in cycle for v in m.edge_vertices[e]]
        assert set(seen_vertices) == set(m.vertex_ids)
        assert off_edges(m, cover) | on == frozenset(m.edge_ids)
        assert off_edges(m, cover) & on == set()


def test_loops_cannot_be_expressed():
    # a loop would need a column summing to 2 in one row; with 0/1 entries
    # the closest encodings are caught by validation
    ve = [[1, 1, 1], [0, 1, 1]]  # edge 1 now has a single endpoint
    assert any("edge column 1" in line for line in validate_map(CubicMap(ve, [[1, 1, 0], [0, 1, 1]])))


def test_package_imports_only_the_standard_library():
    """Every absolute import in the package, at module level or inside a
    function, names a standard-library module."""
    package = Path(cubicmaps.__file__).parent
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                assert top in sys.stdlib_module_names, f"{path.relative_to(package)} imports {top}"


def test_oracles_import_no_search_or_pick_logic():
    """The oracles check the fast path, so they share none of its search or
    pick logic: from ``closure`` they import only the entry point they
    check, from ``labelling`` only the labelling type and its one mask
    conversion, nothing from ``growth``, and they never name the closure's
    step ``_reselect``."""
    source = (Path(cubicmaps.__file__).parent / "oracles.py").read_text(encoding="utf-8")
    imported: dict[str, set[str]] = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                # ``from . import growth`` imports the module itself
                imported.setdefault(node.module or alias.name, set()).add(alias.name)
    assert imported["closure"] == {"cover_closure"}
    assert imported["labelling"] == {"Labelling", "_to_labellings"}
    assert "growth" not in imported
    assert "_reselect" not in source


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
