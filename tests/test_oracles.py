import itertools
import random

import pytest

from cubicmaps import (
    CapExceeded,
    NoHamiltonian,
    NotTwoRegular,
    all_even_cycle_covers,
    all_perfect_matchings,
    all_proper_labellings,
    check_closure_completeness,
    check_cover,
    CubicMap,
    check_shared_cycle,
    compare_cover_sets,
    compatible_cover,
    cover_closure,
    decompose_two_factor,
    hamiltonian_covers,
    order_cycle,
    validate_map,
)
from cubicmaps.fixtures import (
    cube_map,
    fixture_path,
    tetrahedron_map,
    tetrahedron_seed,
    theta_map,
)
from cubicmaps.growth import growth_step
from cubicmaps.labelling import canonical_labelling
from cubicmaps.oracles import _search_order, face_pairs
from cubicmaps.serialize import load_map

from conftest import _time_limit, prism, random_insertion_walk, reference_maps

REFERENCE_MAPS = reference_maps()


def test_theta_matchings(theta):
    assert all_perfect_matchings(theta) == (
        frozenset({1}),
        frozenset({2}),
        frozenset({3}),
    )


def test_cube_matchings(cube):
    matchings = all_perfect_matchings(cube)
    assert len(matchings) == 9
    for matching in matchings:
        covered = [v for e in matching for v in cube.edge_vertices[e]]
        assert sorted(covered) == list(cube.vertex_ids)


def _two_thetas() -> CubicMap:
    """Two disjoint thetas: a map whose edges form two components."""
    return CubicMap.from_membership(
        vertex_edges={1: (1, 2, 3), 2: (1, 2, 3), 3: (4, 5, 6), 4: (4, 5, 6)},
        face_edges={1: (1, 2), 2: (2, 3), 3: (4, 5), 4: (5, 6)},
    )


NON_CUBIC_MAPS = {
    # vertex 1 lists edge 1 twice and vertex 2 lists edge 3 twice, so the
    # "matching" {1, 3} of two loops leaves edge 2 alone as its complement
    "entry_two": lambda: CubicMap([[2, 1, 0], [0, 1, 2]], [[1, 1, 1]]),
    "four_cycle": lambda: CubicMap.from_membership(
        {1: (1, 4), 2: (1, 2), 3: (2, 3), 4: (3, 4)}, {1: (1, 2, 3, 4)}
    ),
    # vertex 1 lists edge 1 twice, so edge 1 has three ends
    "three_ends": lambda: CubicMap([[2, 1, 0], [1, 1, 1]], [[1, 1, 0], [0, 1, 1]]),
}


@pytest.mark.parametrize("name", NON_CUBIC_MAPS)
def test_even_covers_check_the_map_is_cubic(name):
    """On a non-cubic map the complement of a matching need not be
    2-regular, and an unchecked walk of it may never end; the oracle
    must raise the typed error at once."""
    m = NON_CUBIC_MAPS[name]()
    with _time_limit(2), pytest.raises(NotTwoRegular):
        all_even_cycle_covers(m)


def test_even_covers_check_the_two_factor():
    """Four parallel edges: the matchings exist, but every complement
    leaves both vertices with three edges."""
    quadruple = CubicMap.from_membership({1: (1, 2, 3, 4), 2: (1, 2, 3, 4)}, {})
    assert len(all_perfect_matchings(quadruple)) == 4
    with _time_limit(2), pytest.raises(NotTwoRegular):
        all_even_cycle_covers(quadruple)


@pytest.mark.parametrize(
    "m, edges",
    [
        (NON_CUBIC_MAPS["four_cycle"](), (1, 2, 3, 4)),
        (CubicMap.from_membership({1: (1, 2, 3, 4), 2: (1, 2, 3, 4)}, {}), (1, 2)),
    ],
    ids=["four_cycle", "quadruple_edge"],
)
def test_walks_need_three_distinct_edges_at_every_vertex(m, edges):
    """The edges pass every degree-two check, but the map is not cubic, so
    it has no turn table to walk them on: each checked walk raises the
    typed error and names vertex 1, the first that is not cubic."""
    match = "vertex 1 lists edges"
    with _time_limit(2):
        with pytest.raises(NotTwoRegular, match=match):
            check_cover(m, [edges])
        with pytest.raises(NotTwoRegular, match=match):
            decompose_two_factor(m, edges)
        with pytest.raises(NotTwoRegular, match=match):
            order_cycle(m, edges)


@pytest.mark.parametrize("name", NON_CUBIC_MAPS)
def test_labellings_check_the_map_is_cubic(name):
    """The labelling oracle checks the degrees like the cover oracle, so a
    vertex with two edges yields no labelling with an empty class."""
    with _time_limit(2), pytest.raises(NotTwoRegular):
        all_proper_labellings(NON_CUBIC_MAPS[name]())


@pytest.mark.parametrize("name", ["entry_two", "three_ends"])
def test_matchings_check_the_edge_ends(name):
    """Every edge needs two distinct ends: a loop is no matching edge, and
    an edge with three ends is a typed error, not a raw ValueError."""
    with pytest.raises(NotTwoRegular):
        all_perfect_matchings(NON_CUBIC_MAPS[name]())


def _reference_even_covers(m):
    """The checked path: decompose each matching's complement with the
    degree check of ``decompose_two_factor``, keep the all-even ones."""
    covers = []
    for matching in all_perfect_matchings(m):
        cover = decompose_two_factor(m, frozenset(m.edge_ids) - matching)
        if all(len(c) % 2 == 0 for c in cover):
            covers.append(cover)
    return tuple(sorted(covers))


@pytest.mark.parametrize("name", REFERENCE_MAPS)
def test_even_covers_match_checked_decomposition(name):
    m = REFERENCE_MAPS[name]
    assert all_even_cycle_covers(m) == _reference_even_covers(m)


def _brute_force_matchings(m):
    """Every combination of V/2 edges whose endpoints are all distinct."""
    found = [
        frozenset(edges)
        for edges in itertools.combinations(m.edge_ids, m.n_vertices // 2)
        if len({v for e in edges for v in m.edge_vertices[e]}) == m.n_vertices
    ]
    return tuple(sorted(found, key=sorted))


def _brute_force_labellings(m):
    """Every class assignment with the first edge in class 0 that puts the
    three edges at each vertex in three classes, canonicalised."""
    first, *rest = m.edge_ids
    found = set()
    for classes in itertools.product(range(3), repeat=len(rest)):
        class_of = {first: 0, **dict(zip(rest, classes))}
        if all(len({class_of[e] for e in es}) == 3 for es in m.vertex_edges.values()):
            by_class = ([e for e in m.edge_ids if class_of[e] == c] for c in range(3))
            found.add(canonical_labelling(by_class))
    return tuple(sorted(found))


BRUTE_FORCE_MAPS = {
    "theta": theta_map,
    "tetrahedron": tetrahedron_map,
    "cube": cube_map,
    "two_thetas": _two_thetas,
}


@pytest.mark.parametrize("name", BRUTE_FORCE_MAPS)
def test_matchings_match_brute_force(name):
    m = BRUTE_FORCE_MAPS[name]()
    assert all_perfect_matchings(m) == _brute_force_matchings(m)


@pytest.mark.parametrize("name", BRUTE_FORCE_MAPS)
def test_labellings_match_brute_force(name):
    m = BRUTE_FORCE_MAPS[name]()
    expected = _brute_force_labellings(m)
    assert expected  # every map here is 3-edge-colourable
    assert all_proper_labellings(m) == expected


def test_cap_exceeded(cube):
    with pytest.raises(CapExceeded):
        all_perfect_matchings(cube, cap=5)
    with pytest.raises(CapExceeded):
        all_even_cycle_covers(cube, cap=11)
    with pytest.raises(CapExceeded):
        all_proper_labellings(cube, cap=11)


@pytest.mark.parametrize(
    "enumerator",
    [all_perfect_matchings, all_even_cycle_covers, all_proper_labellings],
    ids=["matchings", "even_covers", "labellings"],
)
def test_a_map_too_deep_for_the_search_exceeds_the_cap(enumerator):
    """Under a cap the map passes, a search deeper than the recursion
    limit raises CapExceeded, not RecursionError.  All three enumerators
    run the matching search, one frame per matched pair: 1,100 here."""
    m = prism(1100)
    assert validate_map(m) == []
    with _time_limit(5), pytest.raises(CapExceeded, match="too deep for the"):
        enumerator(m, cap=m.n_edges)


@pytest.mark.parametrize("name", REFERENCE_MAPS)
def test_search_order_follows_the_map(name):
    """The matching search's vertex order is a depth-first order: it lists
    every vertex once, starts at the lowest id, and each later vertex of a
    component meets an earlier one."""
    m = REFERENCE_MAPS[name]
    order = _search_order(m)
    assert sorted(order) == list(m.vertex_ids) and order[:1] == list(m.vertex_ids[:1])
    neighbours = {v: {m.other_endpoint(e, v) for e in es} for v, es in m.vertex_edges.items()}
    for i, v in enumerate(order[1:], start=1):
        assert neighbours[v] & set(order[:i]), (v, i)


def test_search_order_restarts_on_each_component():
    assert _search_order(_two_thetas()) == [1, 2, 3, 4]


def test_matchings_past_the_cap_within_seconds():
    """Cube + 30 random insertions, 102 edges: the search follows the map,
    so it needs a fraction of a second where matching the lowest vertex id
    took about 30 s."""
    m, _ = random_insertion_walk(cube_map(), 30, random.Random(42))
    assert m.n_edges == 102
    with _time_limit(5):
        assert len(all_perfect_matchings(m, cap=10**9)) == 34_883


def test_labellings_past_the_cap_within_seconds():
    """Cube + 30 random insertions, 102 edges: one matching search and one
    complement walk per matching that holds the first edge, where joining
    pairs of matchings took about 45 s."""
    m, _ = random_insertion_walk(cube_map(), 30, random.Random(13))
    assert m.n_edges == 102
    with _time_limit(10):
        assert len(all_proper_labellings(m, cap=10**9)) == 4_480
    # the split identity, against the cover oracle
    covers = all_even_cycle_covers(m, cap=10**9)
    assert len(covers) == 2_096
    assert sum(2 ** (len(c) - 1) for c in covers) == 13_440 == 3 * 4_480


def test_matchings_without_an_even_complement():
    """Two thetas, one edge subdivided, joined by the bridge 9: every
    perfect matching holds the bridge, and its complement is two
    triangles, so there is no even cycle cover and no labelling."""
    m = CubicMap.from_membership(
        {1: (1, 2, 3), 2: (1, 2, 4), 3: (3, 4, 9), 4: (5, 6, 7), 5: (5, 6, 8), 6: (7, 8, 9)}, {}
    )
    assert all_perfect_matchings(m) == tuple(
        map(frozenset, [(1, 5, 9), (1, 6, 9), (2, 5, 9), (2, 6, 9)])
    )
    assert all_even_cycle_covers(m) == ()
    assert all_proper_labellings(m) == ()


def test_even_cycle_covers(cube, theta):
    covers = all_even_cycle_covers(cube)
    assert len(covers) == 9
    assert sum(1 for c in covers if len(c) == 1) == 6
    assert all_even_cycle_covers(theta) == (((1, 2),), ((1, 3),), ((2, 3),))


def test_bipartite_map_has_no_odd_two_factor(cube):
    # the cube graph is bipartite: every 2-factor is even
    assert len(all_even_cycle_covers(cube)) == len(all_perfect_matchings(cube))


def test_proper_labellings(cube, theta):
    assert all_proper_labellings(theta) == (((1,), (2,), (3,)),)
    assert len(all_proper_labellings(cube)) == 4
    assert len(all_proper_labellings(tetrahedron_map())) == 1
    assert all_proper_labellings(CubicMap.from_membership({}, {})) == (((), (), ()),)


def test_split_identity_relates_covers_and_labellings():
    # each cover with k cycles carries 2**(k-1) splits; summed over covers
    # this counts every labelling exactly three times (its three pairings)
    for name, m in REFERENCE_MAPS.items():
        covers = all_even_cycle_covers(m)
        labellings = all_proper_labellings(m)
        assert sum(2 ** (len(c) - 1) for c in covers) == 3 * len(labellings), name


def test_incidence_between_covers_and_labellings(cube, theta):
    for m in (cube, theta, tetrahedron_map()):
        covers = set(all_even_cycle_covers(m))
        cover_by_edges = {frozenset(e for c in cov for e in c): cov for cov in covers}
        seen_covers = set()
        for lab in all_proper_labellings(m):
            a, b, c = (frozenset(x) for x in lab)
            pairings = {a | b, a | c, b | c}
            assert len(pairings) == 3
            for pairing in pairings:
                assert pairing in cover_by_edges
                seen_covers.add(cover_by_edges[pairing])
        assert seen_covers == covers  # every cover arises from some labelling


def test_conjecture_one_holds_on_fixtures(cube, theta, cube_cover, theta_cover):
    assert check_closure_completeness(cube, cube_cover).holds
    assert check_closure_completeness(theta, theta_cover).holds
    k4 = tetrahedron_map()
    assert check_closure_completeness(k4, check_cover(k4, tetrahedron_seed())).holds


def test_conjecture_one_verdict_is_seed_independent(cube):
    verdicts = {
        check_closure_completeness(cube, seed).verdict
        for seed in all_even_cycle_covers(cube)
    }
    assert verdicts == {"holds"}


def test_planted_gap_is_detected(cube, cube_cover):
    closure = cover_closure(cube, cube_cover)
    truncated = closure[:-1]
    report = compare_cover_sets(cube, truncated, all_even_cycle_covers(cube))
    assert report.verdict == "refuted"
    assert report.witness and report.witness["missing_from_closure"]
    doc = report.to_document()
    assert doc["verdict"] == "refuted" and "witness" in doc
    # and the other way round: a cover the oracle lacks is named
    report = compare_cover_sets(cube, closure, closure[1:])
    assert report.verdict == "refuted"
    assert report.witness == {"not_in_oracle": [[list(c) for c in closure[0]]]}


def test_conjecture_one_refuted_on_bundled_counterexample():
    # 12 vertices, 18 edges, simple and 3-connected: its eight even covers
    # fall into two reselection classes (5 + 3), so no single seed reaches
    # them all
    m, cycles = load_map(fixture_path("two_kempe_classes.json"))
    seed = check_cover(m, cycles)
    report = check_closure_completeness(m, seed)
    assert report.verdict == "refuted"
    missing = report.witness["missing_from_closure"]
    assert len(missing) == 3
    closure = cover_closure(m, seed)
    assert len(closure) == 5
    assert len(all_even_cycle_covers(m)) == 8
    # the missing covers form the other class: closed under reselection
    other = cover_closure(m, check_cover(m, missing[0]))
    assert len(other) == 3
    assert set(other) & set(closure) == set()


def test_non_hamiltonian_map_is_pinned():
    # 16 vertices, 24 edges, 2-connected, grown from theta: every one of
    # its twelve even covers has at least two cycles, so there is no
    # Hamiltonian cycle at all (the closure is nevertheless complete)
    m, cycles = load_map(fixture_path("non_hamiltonian_16.json"))
    assert validate_map(m) == []
    seed = check_cover(m, cycles)
    covers = all_even_cycle_covers(m)
    assert len(covers) == 12
    assert all(len(c) >= 2 for c in covers)
    assert check_closure_completeness(m, seed).holds
    with pytest.raises(NoHamiltonian):
        hamiltonian_covers(m, covers)


def test_conjecture_two_holds_on_fixtures(cube, theta):
    counterexample, _ = load_map(fixture_path("two_kempe_classes.json"))
    for m in (cube, theta, tetrahedron_map(), counterexample):
        assert check_shared_cycle(m, all_even_cycle_covers(m)).holds


def test_conjecture_two_planted_gap(theta):
    # drop the only cover containing edges 1 and 2 together
    report = check_shared_cycle(theta, covers=(((1, 3),), ((2, 3),)))
    assert report.verdict == "refuted"
    assert report.witness == {"face": 1, "edges": [1, 2]}


def test_conjecture_two_on_random_grown_maps():
    rng = random.Random(404)
    m, _ = random_insertion_walk(theta_map(), 7, rng)
    assert check_shared_cycle(m, all_even_cycle_covers(m)).holds


def test_matching_complementation_bound():
    rng = random.Random(505)
    m, _ = random_insertion_walk(theta_map(), 6, rng)
    assert len(all_even_cycle_covers(m)) <= len(all_perfect_matchings(m))


def _reference_shared_cycle_witness(m, covers):
    """The first face pair in ``face_pairs`` order with no compatible cover."""
    for face, a, b in face_pairs(m):
        if compatible_cover(covers, a, b) is None:
            return {"face": face, "edges": [a, b]}
    return None


@pytest.mark.parametrize("name", REFERENCE_MAPS)
def test_shared_cycle_witness_matches_compatible_cover(name):
    # drop the covers one at a time from either end, so witnesses fall on
    # many different pairs
    m = REFERENCE_MAPS[name]
    covers = all_even_cycle_covers(m)
    truncated = [covers[:k] for k in range(len(covers) + 1)]
    truncated += [covers[k:] for k in range(1, len(covers))]
    for subset in truncated:
        report = check_shared_cycle(m, covers=subset)
        expected = _reference_shared_cycle_witness(m, subset)
        assert report.witness == expected
        assert report.holds == (expected is None)


def _renamed(m, rng):
    """``m`` with its vertex, edge and face ids drawn without replacement
    from ``range(5000)``, so their order is not kept, and the edge renaming."""
    v, e, f = (
        dict(zip(ids, rng.sample(range(5000), len(ids))))
        for ids in (m.vertex_ids, m.edge_ids, m.face_ids)
    )
    renamed = CubicMap.from_membership(
        {v[k]: [e[x] for x in es] for k, es in m.vertex_edges.items()},
        {f[k]: [e[x] for x in es] for k, es in m.face_edges.items()},
    )
    return renamed, e


def _as_sets(results, ids):
    """Covers or labellings as a set of frozensets of edge-id frozensets,
    each edge id mapped through ``ids``."""
    return {frozenset(frozenset(map(ids.__getitem__, part)) for part in r) for r in results}


@pytest.mark.parametrize("name", REFERENCE_MAPS)
def test_renaming_ids_renames_every_result(name):
    """Metamorphic relation: renaming every id of a map renames its closure,
    labellings, Hamiltonian subset and both oracles' results, and nothing
    else, though the new ids sort in another order."""
    m = REFERENCE_MAPS[name]
    covers, labellings = all_even_cycle_covers(m), all_proper_labellings(m)
    step = growth_step(m, covers[0])
    same = {x: x for x in m.edge_ids}
    rng = random.Random(37)
    for _ in range(3):
        renamed, e = _renamed(m, rng)
        back = {new: old for old, new in e.items()}
        assert validate_map(m) == validate_map(renamed) == []
        renamed_step = growth_step(renamed, [[e[x] for x in c] for c in covers[0]])
        for got, want in [
            (renamed_step.covers, step.covers),
            (renamed_step.labellings, step.labellings),
            (renamed_step.hamiltonian, step.hamiltonian),
            (all_even_cycle_covers(renamed), covers),
            (all_proper_labellings(renamed), labellings),
        ]:
            assert _as_sets(got, back) == _as_sets(want, same)
