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
    cover_closure,
    hamiltonian_covers,
    validate_map,
)
from cubicmaps.fixtures import (
    cube_map,
    fixture_path,
    tetrahedron_map,
    tetrahedron_seed,
    theta_map,
)
from cubicmaps.labelling import canonical_labelling
from cubicmaps.serialize import load_map

from conftest import random_insertion_walk


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


def test_even_covers_check_the_two_factor():
    """On a non-cubic map the complement of a matching is not 2-regular,
    and an unchecked walk of it never ends; the oracle must raise."""
    quadruple = CubicMap.from_membership({1: (1, 2, 3, 4), 2: (1, 2, 3, 4)}, {})
    assert len(all_perfect_matchings(quadruple)) == 4
    with pytest.raises(NotTwoRegular):
        all_even_cycle_covers(quadruple)


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


def test_split_identity_relates_covers_and_labellings(cube):
    # each cover with k cycles carries 2**(k-1) splits; summed over covers
    # this counts every labelling exactly three times (its three pairings)
    covers = all_even_cycle_covers(cube)
    labellings = all_proper_labellings(cube)
    assert sum(2 ** (len(c) - 1) for c in covers) == 3 * len(labellings)


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
    assert check_shared_cycle(cube).holds
    assert check_shared_cycle(theta).holds
    assert check_shared_cycle(tetrahedron_map()).holds
    counterexample, _ = load_map(fixture_path("two_kempe_classes.json"))
    assert check_shared_cycle(counterexample).holds


def test_conjecture_two_planted_gap(theta):
    # drop the only cover containing edges 1 and 2 together
    report = check_shared_cycle(theta, covers=(((1, 3),), ((2, 3),)))
    assert report.verdict == "refuted"
    assert report.witness == {"face": 1, "edges": [1, 2]}


def test_conjecture_two_on_random_grown_maps():
    rng = random.Random(404)
    m, _ = random_insertion_walk(theta_map(), 7, rng)
    assert check_shared_cycle(m).holds


def test_matching_complementation_bound():
    rng = random.Random(505)
    m, _ = random_insertion_walk(theta_map(), 6, rng)
    assert len(all_even_cycle_covers(m)) <= len(all_perfect_matchings(m))
