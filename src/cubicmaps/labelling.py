"""Proper 3-edge-labellings derived from even cycle covers.

A labelling is stored as three unordered edge classes: around every
vertex the three incident edges must fall in three different classes.
Role names carry no meaning, so two labellings are equal exactly when
their class sets coincide; the canonical form sorts the three classes.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .closure import _half_split, _selections
from .errors import NoHamiltonian
from .incidence import Cover, CubicMap, check_cover, mask_edges

Labelling = tuple[tuple[int, ...], ...]


def canonical_labelling(classes: Iterable[Iterable[int]]) -> Labelling:
    """Quotient by role permutation: the three classes sorted."""
    return tuple(sorted(tuple(sorted(c)) for c in classes))


def _label_masks(m: CubicMap, cover: Cover) -> set[tuple[int, int, int]]:
    """Every labelling a canonical cover induces, as a sorted triple of
    class masks.  A selection and its complement give the same labelling,
    so the first cycle keeps its a-half."""
    pairs, off = _half_split(m, cover)
    on = ((1 << m.n_edges) - 1) ^ off
    return {
        tuple(sorted((picked, on ^ picked, off)))
        for picked in _selections(pairs[1:], pairs[0][0])
    }


def _to_labellings(m: CubicMap, masks: Iterable[tuple[int, int, int]]) -> list[Labelling]:
    return [canonical_labelling(mask_edges(m, c) for c in classes) for classes in masks]


def labelling_from_cover(m: CubicMap, cover: Cover) -> Labelling:
    """The labelling induced by a cover with its canonical half split.

    One class per alternating half (unioned across cycles), the third
    class being the off-cover edges.  Proper by construction: every
    vertex meets one edge of each half of its cycle plus its off edge.
    """
    pairs, off = _half_split(m, check_cover(m, cover))
    a = b = 0
    for ha, hb in pairs:
        a |= ha
        b |= hb
    return canonical_labelling(mask_edges(m, c) for c in (a, b, off))


def labellings_from_cover(m: CubicMap, cover: Cover) -> set[Labelling]:
    """Every distinct labelling a cover induces.

    Each cycle's halves may be assigned to the two cycle classes
    independently, so a cover with n cycles yields up to 2**(n-1)
    distinct labellings after the role quotient.
    """
    return set(_to_labellings(m, _label_masks(m, check_cover(m, cover))))


def closure_labellings(m: CubicMap, covers: Iterable[Cover]) -> tuple[Labelling, ...]:
    """All distinct labellings induced by a set of covers, sorted."""
    masks: set[tuple[int, int, int]] = set()
    for cover in covers:
        masks |= _label_masks(m, check_cover(m, cover))
    return tuple(sorted(_to_labellings(m, masks)))


def validate_labelling(m: CubicMap, lab: Sequence[Iterable[int]]) -> bool:
    """True iff the classes partition the edges and every vertex sees
    three distinct classes."""
    classes = [frozenset(c) for c in lab]
    if len(classes) != 3:
        return False
    if sum(len(c) for c in classes) != m.n_edges:
        return False
    union = classes[0] | classes[1] | classes[2]
    if union != m.all_edges:
        return False
    class_of = {}
    for i, c in enumerate(classes):
        for e in c:
            class_of[e] = i
    for v, edges in m.vertex_edges.items():
        if len({class_of[e] for e in edges}) != len(edges):
            return False
    return True


def dedup_labellings(labs: Iterable[Sequence[Iterable[int]]]) -> tuple[Labelling, ...]:
    """Distinct labellings up to role permutation, canonically sorted.

    Idempotent and order-independent.
    """
    return tuple(sorted({canonical_labelling(lab) for lab in labs}))


def hamiltonian_covers(m: CubicMap, covers: Iterable[Cover]) -> tuple[Cover, ...]:
    """Covers consisting of a single cycle through every vertex.

    Raises NoHamiltonian when none is found; callers that only report
    should catch it, and growth runs record an empty subset and continue.
    """
    hams = tuple(
        sorted(c for c in covers if len(c) == 1 and len(c[0]) == m.n_vertices)
    )
    if not hams:
        raise NoHamiltonian("no Hamiltonian cycle among the given covers")
    return hams
