"""Proper 3-edge-labellings derived from even cycle covers.

A labelling is stored as three unordered edge classes: around every
vertex the three incident edges must fall in three different classes.
Role names carry no meaning, so two labellings are equal exactly when
their class sets coincide; the canonical form sorts the three classes.

Each half pick of a cover is one labelling (picked halves, other halves,
off edges).  ``closure_labellings`` reads the ones ``cover_closure``
recorded; the single-cover functions take the closure's reselection step
on the cover they are given, from its a-pick.
"""

from __future__ import annotations

from typing import Collection, Iterable, Sequence

from .closure import Closure, _cover_masks, _reselect
from .errors import NoHamiltonian
from .incidence import Cover, CubicMap, check_cover, mask_edges

Labelling = tuple[tuple[int, ...], ...]


def canonical_labelling(classes: Iterable[Iterable[int]]) -> Labelling:
    """Quotient by role permutation: the three classes sorted."""
    return tuple(sorted(tuple(sorted(c)) for c in classes))


def _to_labellings(masks: Collection[tuple[int, int, int]]) -> tuple[Labelling, ...]:
    """The sorted labellings of class-mask triples, each the sorted triple of
    shared ``mask_edges`` tuples: each distinct class mask is converted once,
    as one cover's labellings share its off mask and closures reuse halves."""
    edges = {c: mask_edges(c) for c in set().union(*masks)}
    return tuple(sorted(tuple(sorted(map(edges.__getitem__, classes))) for classes in masks))


def labelling_from_cover(m: CubicMap, cover: Cover) -> Labelling:
    """The cover's canonical-split labelling, the triple of its a-pick: every
    a-half, every b-half and the off edges.  Proper, as each vertex meets both
    halves of its cycle and an off edge."""
    on, a = _cover_masks(check_cover(m, cover))
    return _to_labellings([(a, on ^ a, m._all_mask ^ on)])[0]


def labellings_from_cover(m: CubicMap, cover: Cover) -> set[Labelling]:
    """Every distinct labelling a cover induces.

    Each cycle's halves may be assigned to the two cycle classes
    independently, so a cover with n cycles yields up to 2**(n-1)
    distinct labellings after the role quotient.
    """
    cover = check_cover(m, cover)
    on, a = _cover_masks(cover)
    off = m._all_mask ^ on
    return set(_to_labellings([(p, on ^ p, off) for p in _reselect(cover, a)]))


def closure_labellings(m: CubicMap, closure: Closure) -> tuple[Labelling, ...]:
    """All distinct labellings induced by the covers of a closure, sorted.

    ``closure`` must be what :func:`cover_closure` returned for ``m``; its
    recorded labellings are read, and its covers are not checked or split
    again.  Each distinct class is one sorted edge tuple, shared by every
    labelling that has it.  Raises TypeError for a plain tuple or another
    map's closure.
    """
    if not isinstance(closure, Closure) or closure.map is not m:
        raise TypeError("closure_labellings needs the result of cover_closure on this map")
    return _to_labellings(closure.label_masks)


def _class_positions(m: CubicMap, lab: Iterable[Iterable[int]]) -> dict[int, int] | None:
    """Each edge's class position when ``lab`` has three classes whose
    lengths sum to E and which hold every edge exactly once; else None.
    Each class is read once, so a class may be any iterable."""
    classes = [tuple(c) for c in lab]
    position = {e: i for i, c in enumerate(classes) for e in c}
    edges = m._edge_ends.keys()
    if len(classes) != 3 or sum(map(len, classes)) != m.n_edges or position.keys() != edges:
        return None
    return position


def validate_labelling(m: CubicMap, lab: Iterable[Iterable[int]]) -> bool:
    """True iff the classes partition the edges and every vertex meets
    three edges of three distinct classes."""
    position = _class_positions(m, lab)
    return position is not None and all(
        len({position[e] for e in es}) == len(es) == 3 for es in m.vertex_edges.values()
    )


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
