import pytest

from cubicmaps import (
    CubicMap,
    NoHamiltonian,
    all_proper_labellings,
    alternating_halves,
    cover_closure,
    dedup_labellings,
    hamiltonian_covers,
    labelling_from_cover,
    labellings_from_cover,
    off_edges,
    validate_labelling,
)
from cubicmaps.fixtures import cube_map, cube_seed
from cubicmaps.labelling import canonical_labelling, closure_labellings

from conftest import grown_cube


def test_theta_labelling(theta, theta_cover):
    assert labelling_from_cover(theta, theta_cover) == ((1,), (2,), (3,))


def test_cube_seed_labelling_off_class(cube, cube_cover):
    lab = labelling_from_cover(cube, cube_cover)
    assert (2, 7, 8, 12) in lab  # the off-cover edges form one class


def test_hamiltonian_cover_class_sizes(cube):
    closure = cover_closure(cube, ((1, 9, 10, 11), (3, 4, 5, 6)))
    for cover in closure:
        if len(cover) == 1:
            lab = labelling_from_cover(cube, cover)
            assert sorted(len(c) for c in lab) == [4, 4, 4]


def test_labelling_from_cover_is_proper(cube, theta, cube_cover, theta_cover):
    for m, cover in [(cube, cube_cover), (theta, theta_cover)]:
        for c in cover_closure(m, cover):
            assert validate_labelling(m, labelling_from_cover(m, c))


def test_labelling_from_cover_is_the_a_half_split():
    # reference: the union of every cycle's a-half, of every b-half, and the
    # off edges, on every cover of a grown map (up to six cycles)
    m, seed = grown_cube()
    for cover in cover_closure(m, seed):
        halves = [alternating_halves(cycle) for cycle in cover]
        want = canonical_labelling([
            frozenset().union(*(a for a, _ in halves)),
            frozenset().union(*(b for _, b in halves)),
            off_edges(m, cover),
        ])
        assert labelling_from_cover(m, cover) == want
        assert want in labellings_from_cover(m, cover)


def test_validate_labelling_rejects_bad_classes(theta, cube):
    assert not validate_labelling(theta, ((1, 2), (3,), ()))  # parallel pair shares a class
    assert not validate_labelling(theta, ((1, 2, 3), (), ()))
    assert not validate_labelling(theta, ((1,), (2,), (3,), ()))  # a fourth class
    assert not validate_labelling(theta, ((1,), (1,), (2,)))  # sizes add up, edge 3 missing
    assert not validate_labelling(theta, ((1,), (2,), (4,)))  # an id the map lacks
    assert not validate_labelling(cube, ((1, 2), (3,), (4,)))  # not a partition
    four_cycle = CubicMap.from_membership(
        {1: (1, 4), 2: (1, 2), 3: (2, 3), 4: (3, 4)}, {1: (1, 2, 3, 4)}
    )
    assert not validate_labelling(four_cycle, ((1, 3), (2, 4), ()))  # two classes per vertex
    quadruple = CubicMap.from_membership({1: (1, 2, 3, 4), 2: (1, 2, 3, 4)}, {})
    assert not validate_labelling(quadruple, ((1,), (2,), (3, 4)))  # four edges, three classes


def test_dedup_labellings_quotients_roles():
    a = ((1,), (2,), (3,))
    permuted = ((2,), (3,), (1,))
    assert dedup_labellings([a, permuted]) == (a,)
    assert dedup_labellings([a]) == dedup_labellings([a, a, permuted])


def test_dedup_is_order_independent(cube, cube_cover):
    labs = list(closure_labellings(cube, cover_closure(cube, cube_cover)))
    assert dedup_labellings(labs) == dedup_labellings(reversed(labs))


def test_hamiltonian_covers_cube(cube, cube_cover):
    closure = cover_closure(cube, cube_cover)
    hams = hamiltonian_covers(cube, closure)
    assert len(hams) == 6
    assert all(len(c) == 1 and len(c[0]) == 8 for c in hams)


def test_hamiltonian_covers_theta(theta, theta_cover):
    closure = cover_closure(theta, theta_cover)
    assert len(hamiltonian_covers(theta, closure)) == 3


def test_hamiltonian_covers_raises_on_empty(cube):
    with pytest.raises(NoHamiltonian):
        hamiltonian_covers(cube, ())
    with pytest.raises(NoHamiltonian):
        hamiltonian_covers(cube, [((1, 2, 3, 12), (5, 7, 10, 8))])


def test_labellings_from_cover_counts(cube, cube_cover):
    # two cycles -> two distinct splits after the role quotient
    assert len(labellings_from_cover(cube, cube_cover)) == 2
    ham = (((1, 2, 6, 7, 10, 8, 4, 12)),)
    assert len(labellings_from_cover(cube, (ham[0],))) == 1


def test_closure_labellings_match_oracle_on_cube(cube, cube_cover):
    got = closure_labellings(cube, cover_closure(cube, cube_cover))
    assert got == all_proper_labellings(cube)
    assert len(got) == 4


def test_closure_labellings_rejects_anything_but_its_closure(cube, theta, cube_cover, theta_cover):
    closure = cover_closure(cube, cube_cover)
    with pytest.raises(TypeError):
        closure_labellings(cube, tuple(closure))
    with pytest.raises(TypeError):
        closure_labellings(cube, cover_closure(theta, theta_cover))
    with pytest.raises(TypeError):
        closure_labellings(cube_map(), closure)  # an equal map, but not the same one


@pytest.mark.parametrize(
    "source", [lambda: (cube_map(), cube_seed()), grown_cube], ids=["cube", "grown_cube"]
)
def test_closure_labellings_are_the_union_over_covers(source):
    m, seed = source()
    closure = cover_closure(m, seed)
    union = set().union(*(labellings_from_cover(m, c) for c in closure))
    assert closure_labellings(m, closure) == tuple(sorted(union))
