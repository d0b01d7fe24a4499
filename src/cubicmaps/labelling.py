"""Proper 3-edge-labellings derived from even cycle covers.

A labelling is stored as three unordered edge classes: around every
vertex the three incident edges must fall in three different classes.
Role names carry no meaning, so two labellings are equal exactly when
their class sets coincide; the canonical form sorts the three classes.

Each half pick of a cover is one labelling (picked halves, other halves,
off edges).  ``closure_labellings`` reads the ones ``cover_closure``
recorded; the single-cover functions split the cover they are given.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .closure import Closure, _half_split, _picks
from .errors import NoHamiltonian
from .incidence import Cover, CubicMap, check_cover, mask_edges

Labelling = tuple[tuple[int, ...], ...]


def canonical_labelling(classes: Iterable[Iterable[int]]) -> Labelling:
    """Quotient by role permutation: the three classes sorted."""
    return tuple(sorted(tuple(sorted(c)) for c in classes))


def _to_labellings(masks: set[tuple[int, int, int]]) -> list[Labelling]:
    """Convert class-mask triples, each distinct class mask once: labellings
    of one cover share its off mask, and closures reuse their halves."""
    edges = {c: mask_edges(c) for c in set().union(*masks)}
    return [canonical_labelling(edges[c] for c in classes) for classes in masks]


def labelling_from_cover(m: CubicMap, cover: Cover) -> Labelling:
    """The labelling induced by a cover with its canonical half split.

    One class per alternating half (unioned across cycles), the third
    class being the off-cover edges.  Proper by construction: every
    vertex meets one edge of each half of its cycle plus its off edge.
    """
    pairs, on, off = _half_split(m, check_cover(m, cover))
    a = sum(ha for ha, _ in pairs)  # the a-halves are disjoint
    return canonical_labelling(mask_edges(c) for c in (a, on ^ a, off))


def labellings_from_cover(m: CubicMap, cover: Cover) -> set[Labelling]:
    """Every distinct labelling a cover induces.

    Each cycle's halves may be assigned to the two cycle classes
    independently, so a cover with n cycles yields up to 2**(n-1)
    distinct labellings after the role quotient.
    """
    pairs, on, off = _half_split(m, check_cover(m, cover))
    masks = {tuple(sorted((p, on ^ p, off))) for p in _picks(pairs)}
    return set(_to_labellings(masks))


def closure_labellings(m: CubicMap, closure: Closure) -> tuple[Labelling, ...]:
    """All distinct labellings induced by the covers of a closure, sorted.

    ``closure`` must be what :func:`cover_closure` returned for ``m``; its
    recorded labellings are read, and its covers are not checked or split
    again.  Raises TypeError for a plain tuple or another map's closure.
    """
    if not isinstance(closure, Closure) or closure.map is not m:
        raise TypeError("closure_labellings needs the result of cover_closure on this map")
    return tuple(sorted(_to_labellings(closure.label_masks)))


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
