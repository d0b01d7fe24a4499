"""Even-cycle-cover closure: from one seed cover, find all covers reachable
by the alternate-halves reselection step, and the labellings they induce.

One step on a cover with ``n`` cycles: split every cycle into its two
alternating halves, pick one half per cycle (``2**n`` selections), keep the
chosen halves plus every off-cover edge, and read the resulting 2-regular
edge set off as a new cover.  A selection and its complement form one
labelling, so the worklist tries ``2**(n-1)`` picks (the first cycle on its
a-half) with both pairings each, and records each pick as a labelling.
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

DEFAULT_CLOSURE_LIMIT = 10**6


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


def _half_split(m: CubicMap, cover: Cover) -> tuple[list[tuple[int, int]], int, int]:
    """Per-cycle (a-half, b-half) edge masks of a canonical cover, and the
    masks of its on-cover and off-cover edges."""
    pairs = []
    on = 0
    for cycle in cover:
        a, b = (edge_mask(half) for half in alternating_halves(cycle))
        pairs.append((a, b))
        on |= a | b
    return pairs, on, m._all_mask ^ on


def _picks(pairs: list[tuple[int, int]]) -> list[int]:
    """The ``2**(n-1)`` half picks in which the first cycle keeps its a-half,
    in :func:`half_choices` order; a pick and ``on ^ pick`` are one labelling."""
    picks = [pairs[0][0]]
    for a, b in pairs[1:]:
        picks = [p | h for p in picks for h in (a, b)]
    return picks


def successor_covers(m: CubicMap, cover: Cover) -> set[Cover]:
    """All covers produced by one reselection step, deduplicated."""
    pairs, on, off = _half_split(m, check_cover(m, cover))
    return {mask_cover(m, s | off) for p in _picks(pairs) for s in (p, on ^ p)}


class Closure(tuple):
    """The sorted covers of a closure, carrying the ``map`` it was built on
    and its covers' labellings as sorted class-mask triples (``label_masks``)."""


def cover_closure(
    m: CubicMap, seed: Cover, limit: int = DEFAULT_CLOSURE_LIMIT
) -> Closure:
    """Closure of the seed cover under the reselection step.

    Worklist iteration keyed by each cover's on-edge mask: each pick of a
    cover is recorded as a labelling, and its two successor masks are
    decomposed into cycles only when new.  Stops when no new cover
    appears.  The result contains the seed and is sorted canonically, so
    it is independent of traversal schedule.  Raises IterationLimit if the
    closure exceeds ``limit`` covers (pathological input, far beyond
    anything a desk-scale map produces).
    """
    seed = check_cover(m, seed)
    seen = {edge_mask(e for cycle in seed for e in cycle): seed}
    labels = set()
    queue = deque([seed])
    while queue:
        pairs, on, off = _half_split(m, queue.popleft())
        for p in _picks(pairs):
            labels.add(tuple(sorted((p, on ^ p, off))))
            for s in (p | off, (on ^ p) | off):
                if s not in seen:
                    seen[s] = new = mask_cover(m, s)
                    queue.append(new)
                    if len(seen) > limit:
                        raise IterationLimit(f"closure exceeded {limit} covers")
    closure = Closure(sorted(seen.values()))
    closure.map, closure.label_masks = m, labels
    return closure


__all__ = [
    "DEFAULT_CLOSURE_LIMIT",
    "Closure",
    "alternating_halves",
    "cover_closure",
    "half_choices",
    "successor_covers",
]
