"""Even-cycle-cover closure: from one seed cover, find all covers reachable
by the alternate-halves reselection step.

One step on a cover with ``n`` cycles: split every cycle into its two
alternating halves, pick one half per cycle (``2**n`` selections), keep the
chosen halves plus every off-cover edge, and read the resulting 2-regular
edge set off as a new cover.  Iterating to a fixed point gives the seed's
Kempe class: the connected component that holds the seed in the graph
joining each cover to the labellings it induces (each labelling to the
three covers its class pairs form).  Some maps have more than one class,
so the closure need not hold every even cycle cover; the bundled
``two_kempe_classes.json`` map is one, and 80 of the 1500 acceptance-corpus
maps are others.

Covers and labellings are computed on integer edge masks (bit i stands for
``m.edge_ids[i]``): a half selection is one mask, and a cover is fully
determined by its on-edge mask.
"""

from __future__ import annotations

from collections import deque
from itertools import product

from .errors import IterationLimit
from .incidence import (
    Cover,
    Cycle,
    CubicMap,
    canonical_cover,
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


def _half_split(m: CubicMap, cover: Cover) -> tuple[list[tuple[int, int]], int]:
    """Per-cycle (a-half, b-half) edge masks of a canonical cover, and the
    mask of its off-cover edges."""
    pairs = []
    on = 0
    for cycle in cover:
        a, b = (edge_mask(m, half) for half in alternating_halves(cycle))
        pairs.append((a, b))
        on |= a | b
    return pairs, ((1 << m.n_edges) - 1) ^ on


def _selections(pairs: list[tuple[int, int]], base: int = 0) -> list[int]:
    """``base`` plus one half of every pair, for all ``2**len(pairs)``
    picks in :func:`half_choices` order."""
    out = [base]
    for a, b in pairs:
        out = [s | h for s in out for h in (a, b)]
    return out


def successor_covers(m: CubicMap, cover: Cover) -> set[Cover]:
    """All covers produced by one reselection step, deduplicated."""
    pairs, off = _half_split(m, check_cover(m, cover))
    return {mask_cover(m, on) for on in _selections(pairs, off)}


def cover_closure(
    m: CubicMap, seed: Cover, limit: int = DEFAULT_CLOSURE_LIMIT
) -> tuple[Cover, ...]:
    """Closure of the seed cover under the reselection step.

    Worklist iteration keyed by each cover's on-edge mask: a selection is
    decomposed into cycles only when its mask is new.  Stops when no new
    cover appears.  The result contains the seed and is sorted
    canonically, so it is independent of traversal schedule.  Raises
    IterationLimit if the closure exceeds ``limit`` covers (pathological
    input, far beyond anything a desk-scale map produces).
    """
    seed = check_cover(m, seed)
    seen = {edge_mask(m, (e for cycle in seed for e in cycle)): seed}
    queue = deque([seed])
    while queue:
        pairs, off = _half_split(m, queue.popleft())
        for on in _selections(pairs, off):
            if on not in seen:
                seen[on] = new = mask_cover(m, on)
                queue.append(new)
                if len(seen) > limit:
                    raise IterationLimit(f"closure exceeded {limit} covers")
    return tuple(sorted(seen.values()))


__all__ = [
    "DEFAULT_CLOSURE_LIMIT",
    "alternating_halves",
    "canonical_cover",
    "cover_closure",
    "half_choices",
    "successor_covers",
]
