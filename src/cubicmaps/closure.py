"""Even-cycle-cover closure: from one seed cover, find all covers reachable
by the alternate-halves reselection step, and the labellings they induce.

One step on a cover with ``n`` cycles: split every cycle into its two
alternating halves, pick one half per cycle (``2**n`` selections), keep the
chosen halves plus every off-cover edge, and read the resulting 2-regular
edge set off as a new cover.  A selection and its complement form one
labelling, so the step ``_reselect`` lists ``2**(n-1)`` picks, each one
labelling with its two successor pairings.  It starts from one given pick:
toggling a cycle swaps its two halves, so the other picks are that pick with
any subset of its cycles toggled, except the last (a longest), which is
never toggled.
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
    walk_cycles,
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


def _cover_masks(cover: Cover) -> tuple[int, int]:
    """The on-edge mask of a canonical cover and its a-pick (every cycle's
    even positions), the pick that the seed of a closure and the
    single-cover functions start from."""
    return (
        edge_mask(e for cycle in cover for e in cycle),
        edge_mask(e for cycle in cover for e in cycle[0::2]),
    )


def _reselect(cover: Cover, pick: int) -> list[int]:
    """The ``2**(n-1)`` half picks of a canonical cover of ``n`` cycles, from
    one given pick (one alternating half of every cycle).  Toggling a cycle
    (xor with its mask) swaps its halves, so the picks are ``pick`` with
    every subset of the cycles but the last toggled; the last (a longest)
    keeps its half, as a pick and its complement ``on ^ pick`` are one
    labelling.  Only the toggled cycles are turned into masks.  Pick p is
    the class-mask triple ``(p, on ^ p, off)``, and each of its first two
    classes joined with ``off`` is a successor cover."""
    picks = [pick]
    for cycle in cover[:-1]:
        toggle = edge_mask(cycle)
        picks += [p ^ toggle for p in picks]
    return picks


def successor_covers(m: CubicMap, cover: Cover) -> set[Cover]:
    """All covers produced by one reselection step, deduplicated: the
    complement ``every ^ h`` of each of the ``2**n`` selections h."""
    cover = check_cover(m, cover)
    on, a = _cover_masks(cover)
    every = m._all_mask
    return {walk_cycles(m, every ^ h) for p in _reselect(cover, a) for h in (p, on ^ p)}


class Closure(tuple):
    """The sorted covers of a closure, carrying the ``map`` it was built on
    and its covers' labellings as class-mask triples ``(p, on ^ p, off)``
    (``label_masks``): one per labelling, in worklist order, from the picks
    of ``_reselect``."""


def cover_closure(m: CubicMap, seed: Cover) -> Closure:
    """Closure of the seed cover under the reselection step.

    Worklist iteration keyed by each cover's on-edge mask.  The successor
    of a selection h is its complement ``every ^ h``, since
    ``p | off == every ^ (on ^ p)``, and is decomposed into cycles only
    when new.  Each queued cover carries its on-edge mask and one known
    pick, the off class of the cover that found it (the new cover's cycles
    alternate between that class and the selection it keeps), so the step
    starts from it and no half mask is rebuilt; the seed starts from its
    a-pick.
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
    every = m._all_mask
    top = 1 << (every.bit_length() - 1)
    on, a = _cover_masks(seed)
    seen = {on: seed}
    labels = []
    queue = deque([(seed, on, a)])
    while queue:
        cover, on, pick = queue.popleft()
        picks = _reselect(cover, pick)
        off = every ^ on
        if off & top:
            labels += [(p, on ^ p, off) for p in picks]
        for p in picks:
            # the complements of the selections p and on ^ p
            for s in (every ^ p, off ^ p):
                if s not in seen:
                    seen[s] = new = walk_cycles(m, s)
                    queue.append((new, s, off))
                    if len(seen) > DEFAULT_CLOSURE_LIMIT:
                        raise IterationLimit(f"closure exceeded {DEFAULT_CLOSURE_LIMIT} covers")
    closure = Closure(sorted(seen.values()))
    closure.map, closure.label_masks = m, labels
    return closure

