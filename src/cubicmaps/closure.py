"""Even-cycle-cover closure: from one seed cover, find all covers reachable
by the alternate-halves reselection step, and the labellings they induce.

One step on a cover with ``n`` cycles: split every cycle into its two
alternating halves, pick one half per cycle (``2**n`` selections), keep the
chosen halves plus every off-cover edge, and read the resulting 2-regular
edge set off as a new cover.  A selection and its complement form one
labelling, so the step ``_reselect`` lists ``2**(n-1)`` picks (the first
cycle on its a-half), each one labelling with its two successor pairings.
Iterating to a fixed point gives the seed's Kempe class: the connected
component that holds the seed in the graph joining each cover to the
labellings it induces (each labelling to the three covers its class pairs
form).  Some maps have more than one class, so the closure need not hold
every even cycle cover; the bundled ``two_kempe_classes.json`` map is one,
and 80 of the 1500 acceptance-corpus maps are others.

Covers and labellings are computed on integer edge masks (bit e stands for
edge id e, so a mask means the same edges on every map that has them): a
half pick is one mask, and a cover is fully determined by its on-edge mask.
"""

from __future__ import annotations

from collections import deque
from itertools import product

from .errors import IterationLimit
from .incidence import (
    Cover,
    Cycle,
    CubicMap,
    check_cover,
    edge_mask,
    mask_cover,
)

DEFAULT_CLOSURE_LIMIT = 10**6  # most covers a closure may hold


def alternating_halves(cycle: Cycle) -> tuple[frozenset[int], frozenset[int]]:
    """Split a canonical even cycle into its two alternating edge halves.

    The a-half holds the edges at even positions of the canonical
    sequence, the b-half those at odd positions.  Which half is called
    "a" is an arbitrary anchor; the selection enumeration makes it
    irrelevant to the closure.
    """
    if len(cycle) % 2 != 0:
        raise ValueError(f"cycle {cycle} has odd length")
    return frozenset(cycle[0::2]), frozenset(cycle[1::2])


def half_choices(n: int) -> list[tuple[str, ...]]:
    """All 2**n ways of picking one half per cycle, lexicographic, a < b."""
    if n < 1:
        raise ValueError("need at least one cycle")
    return list(product("ab", repeat=n))


def _reselect(m: CubicMap, cover: Cover) -> list[tuple[int, int, int]]:
    """The class-mask triple ``(pick, on ^ pick, off)`` of each half pick of a
    canonical cover (a half is a cycle's even or odd positions), in
    :func:`half_choices` order with the first cycle on its a-half.  Each of
    the first two classes joined with ``off`` is a successor cover."""
    first, *rest = cover
    picks, on = [edge_mask(first[0::2])], edge_mask(first)
    for cycle in rest:
        a, b = edge_mask(cycle[0::2]), edge_mask(cycle[1::2])
        picks = [p | h for p in picks for h in (a, b)]
        on |= a | b
    off = m._all_mask ^ on
    return [(p, on ^ p, off) for p in picks]


def successor_covers(m: CubicMap, cover: Cover) -> set[Cover]:
    """All covers produced by one reselection step, deduplicated."""
    triples = _reselect(m, check_cover(m, cover))
    return {mask_cover(m, s | off) for p, q, off in triples for s in (p, q)}


class Closure(tuple):
    """The sorted covers of a closure, carrying the ``map`` it was built on
    and its covers' labellings as class-mask triples (``label_masks``): one
    ``_reselect`` triple per labelling, in worklist order."""


def cover_closure(m: CubicMap, seed: Cover) -> Closure:
    """Closure of the seed cover under the reselection step.

    Worklist iteration keyed by each cover's on-edge mask: the two
    successor masks of each pick are decomposed into cycles only when new.
    A cover's picks are recorded as labellings only when its off class
    holds the map's top edge: a labelling is a pick of exactly its three
    covers (one per class left off), and the top edge lies in one of its
    classes, so each labelling is recorded exactly once.  Stops when no new
    cover appears.  The result contains the seed and is sorted canonically,
    so it is independent of traversal schedule.  Raises IterationLimit if
    the closure exceeds ``DEFAULT_CLOSURE_LIMIT`` covers, read at call time
    (pathological input, far beyond anything a desk-scale map produces).
    """
    seed = check_cover(m, seed)
    seen = {edge_mask(e for cycle in seed for e in cycle): seed}
    top = 1 << (m._all_mask.bit_length() - 1)
    labels = []
    queue = deque([seed])
    while queue:
        triples = _reselect(m, queue.popleft())
        if triples[0][2] & top:
            labels += triples
        for p, q, off in triples:
            for s in (p | off, q | off):
                if s not in seen:
                    seen[s] = new = mask_cover(m, s)
                    queue.append(new)
                    if len(seen) > DEFAULT_CLOSURE_LIMIT:
                        raise IterationLimit(f"closure exceeded {DEFAULT_CLOSURE_LIMIT} covers")
    closure = Closure(sorted(seen.values()))
    closure.map, closure.label_masks = m, labels
    return closure

