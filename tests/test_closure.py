import functools
import random

import pytest

from cubicmaps import (
    InvalidCover,
    IterationLimit,
    alternating_halves,
    blow_up,
    canonical_cover,
    check_cover,
    cover_closure,
    decompose_two_factor,
    half_choices,
    off_edges,
    successor_covers,
)
from cubicmaps import all_even_cycle_covers, closure, grow
from cubicmaps.fixtures import cube_map, cube_seed, theta_map, wheel_rotation
from cubicmaps.incidence import edge_mask

from conftest import grown_cube, random_insertion_walk, reference_maps


def test_alternating_halves(cube_cover):
    assert alternating_halves((1, 9, 10, 11)) == ({1, 10}, {9, 11})
    assert alternating_halves((1, 2)) == ({1}, {2})


def test_alternating_halves_partition():
    cycle = (1, 2, 6, 7, 10, 8, 4, 12)
    a, b = alternating_halves(cycle)
    assert a | b == set(cycle)
    assert a & b == set()
    assert len(a) == len(b) == 4


def test_alternating_halves_rejects_odd():
    with pytest.raises(ValueError):
        alternating_halves((1, 2, 3))


def test_half_choices():
    assert half_choices(1) == [("a",), ("b",)]
    assert half_choices(2) == [("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")]
    vectors = half_choices(3)
    assert len(vectors) == 8
    assert len(set(vectors)) == 8
    assert vectors == sorted(vectors)
    with pytest.raises(ValueError):
        half_choices(0)


def test_theta_successors(theta, theta_cover):
    assert successor_covers(theta, theta_cover) == {((1, 3),), ((2, 3),)}


def test_successors_follow_the_public_rule():
    # reference: every half_choices selection of alternating_halves, plus
    # the off edges, through decompose_two_factor; on the five covers with
    # the most cycles (six, six, five, five, five) of a grown map
    m, seed = grown_cube()
    for cover in sorted(cover_closure(m, seed), key=lambda c: (-len(c), c))[:5]:
        halves, off = [alternating_halves(cycle) for cycle in cover], off_edges(m, cover)
        want = {
            decompose_two_factor(m, off.union(*(h["ab".index(x)] for h, x in zip(halves, choice))))
            for choice in half_choices(len(cover))
        }
        assert successor_covers(m, cover) == want


def test_cube_closure_counts(cube, cube_cover):
    closure = cover_closure(cube, cube_cover)
    assert len(closure) == 9
    assert sum(1 for c in closure if len(c) == 1) == 6


def test_theta_closure(theta, theta_cover):
    assert cover_closure(theta, theta_cover) == (((1, 2),), ((1, 3),), ((2, 3),))


def test_closure_contains_seed_and_is_closed(cube, cube_cover):
    closure = cover_closure(cube, cube_cover)
    assert cube_cover in closure
    members = set(closure)
    for cover in closure:
        assert successor_covers(cube, cover) <= members


def test_closure_elements_are_valid_covers(cube, cube_cover):
    for cover in cover_closure(cube, cube_cover):
        assert check_cover(cube, cover) == cover
        assert all(len(c) % 2 == 0 for c in cover)
    # the given cycles are compared as edge sets, so the order in which each
    # lists its edges is not checked; the walked cycles come back canonical
    assert cube_cover == ((1, 9, 10, 11), (3, 4, 5, 6))
    assert check_cover(cube, ((1, 10, 9, 11), (3, 5, 4, 6))) == cube_cover


def test_closure_seed_independent_within_component(cube, cube_cover):
    closure = cover_closure(cube, cube_cover)
    for seed in closure:
        assert cover_closure(cube, seed) == closure


def test_closure_on_grown_map_is_schedule_free():
    rng = random.Random(5)
    m, _ = random_insertion_walk(theta_map(), 6, rng)
    covers = all_even_cycle_covers(m)
    # closures from any two seeds of one closure agree exactly
    first = cover_closure(m, covers[0])
    for seed in first:
        assert cover_closure(m, seed) == first


@functools.cache
def _recorded_closures():
    """Name -> closure: of the first oracle cover of every reference map,
    and of every step of cube growth seeds 42, 13 and 16 x 20."""
    closures = {}
    for name, m in reference_maps().items():
        closures[name] = cover_closure(m, all_even_cycle_covers(m)[0])
    for seed in (42, 13, 16):
        for i, step in enumerate(grow(cube_map(), cube_seed(), 20, seed)):
            closures[f"cube_seed{seed}_step{i}"] = step.covers
    return closures


def test_closure_records_each_labelling_once():
    for name, found in _recorded_closures().items():
        triples = found.label_masks
        # the top edge lies in one class of each labelling, so only one of
        # its three covers records it
        assert len({frozenset(t) for t in triples}) == len(triples), name
        # each cover of c cycles has 2**(c-1) picks, and every labelling is
        # a pick of three covers of the closure
        assert sum(2 ** (len(c) - 1) for c in found) == 3 * len(triples), name


def _selections(cover):
    """The mask of every selection of one alternating half per cycle, from
    ``half_choices`` and ``alternating_halves`` alone."""
    halves = [tuple(map(edge_mask, alternating_halves(cycle))) for cycle in cover]
    return [
        sum(h["ab".index(x)] for h, x in zip(halves, choice))
        for choice in half_choices(len(cover))
    ]


def test_reselect_lists_each_pick_once_from_any_pick():
    # from the a-pick, the b-pick and a pick with every other cycle (the
    # last among them) toggled, the step lists each of the 2**(c-1)
    # unordered {pick, complement} pairs exactly once
    for name, found in _recorded_closures().items():
        for cover in found:
            on = edge_mask(e for cycle in cover for e in cycle)
            a = edge_mask(e for cycle in cover for e in cycle[0::2])
            mixed = a ^ edge_mask(e for cycle in cover[::-2] for e in cycle)
            want = {frozenset((h, on ^ h)) for h in _selections(cover)}
            assert len(want) == 2 ** (len(cover) - 1), name
            for pick in (a, on ^ a, mixed):
                picks = closure._reselect(cover, pick)
                assert len(picks) == len(want), name
                assert {frozenset((p, on ^ p)) for p in picks} == want, name


def test_closure_is_closed_under_complements():
    # the successor of every selection h is its complement every ^ h, and
    # each recorded triple (p, q, off) has p | off == every ^ q
    for name, found in _recorded_closures().items():
        every = found.map._all_mask
        members = {edge_mask(e for cycle in cover for e in cycle) for cover in found}
        for cover in found:
            for h in _selections(cover):
                assert every ^ h in members, name
        for p, q, off in found.label_masks:
            assert p | q | off == every and p | off == every ^ q, name


def test_iteration_limit(cube, cube_cover, monkeypatch):
    monkeypatch.setattr(closure, "DEFAULT_CLOSURE_LIMIT", 2)
    with pytest.raises(IterationLimit, match="exceeded 2 covers"):
        cover_closure(cube, cube_cover)


def test_canonical_cover_is_order_insensitive():
    a = canonical_cover([(11, 10, 9, 1), (6, 5, 4, 3)])
    b = canonical_cover([(3, 4, 5, 6), (1, 9, 10, 11)])
    assert a == b == ((1, 9, 10, 11), (3, 4, 5, 6))


# one row per rejection check_cover makes: (map, cover)
INVALID_COVERS = {
    "empty_cover": ("cube", ()),
    "repeated_edge": ("cube", ((1, 9, 10, 11, 9), (3, 4, 5, 6))),
    "unknown_edge_id": ("cube", ((1, 9, 10, 11), (3, 4, 5, 42))),
    "open_path": ("cube", ((1, 9, 10), (3, 4, 5, 6))),
    "disconnected_cycle": ("cube", ((1, 9, 10, 11, 3, 4, 5, 6),)),
    "cycles_share_an_edge": ("cube", ((1, 2, 3, 12), (5, 7, 10, 8), (1, 9, 10, 11))),
    "cycles_share_an_edge_and_both_vertices": ("theta", ((1, 2), (2, 3))),
    "same_cycle_twice": ("cube", ((1, 9, 10, 11), (1, 9, 10, 11), (3, 4, 5, 6))),
    "one_edge_twice": ("theta", ((1, 1),)),
    "one_edge_in_two_cycles": ("theta", ((1,), (1,))),
    "vertex_on_no_cycle": ("cube", ((1, 9, 10, 11),)),
    # the four ring triangles: they span the map and are the cycles of
    # their union, so only their length is wrong
    "spanning_odd_cycles": (
        "wheel3_blow_up", ((7, 8, 9), (10, 11, 12), (13, 14, 15), (16, 17, 18))
    ),
}
MAPS = {
    "cube": cube_map,
    "theta": theta_map,
    "wheel3_blow_up": lambda: blow_up(wheel_rotation(3))[0],
}


@pytest.mark.parametrize("name", INVALID_COVERS)
def test_invalid_seed_is_rejected(name):
    map_name, cover = INVALID_COVERS[name]
    m = MAPS[map_name]()
    with pytest.raises(InvalidCover):
        check_cover(m, cover)
    with pytest.raises(InvalidCover):
        cover_closure(m, cover)
