import json
import random
import signal
from contextlib import contextmanager

import pytest

from cubicmaps import (
    CubicMap,
    RotationMap,
    blow_up,
    check_cover,
    choose_insertion,
    grow,
    insert_edge,
)
from cubicmaps.fixtures import (
    cube_map,
    cube_seed,
    fixture_path,
    theta_map,
    theta_seed,
    wheel_rotation,
)
from cubicmaps.serialize import map_from_document, rotation_from_document


@pytest.fixture
def cube():
    return cube_map()


@pytest.fixture
def theta():
    return theta_map()


@pytest.fixture
def cube_cover(cube):
    return check_cover(cube, cube_seed())


@pytest.fixture
def theta_cover(theta):
    return check_cover(theta, theta_seed())


def random_insertion_walk(m, steps, rng: random.Random):
    """Apply ``steps`` random insertions without any cover bookkeeping.

    Cheap way to produce arbitrary grown maps for structural property
    tests (validity does not depend on covers).
    """
    events = []
    for _ in range(steps):
        m, event = insert_edge(m, *choose_insertion(m, rng))
        events.append(event)
    return m, events


def prism(n: int) -> CubicMap:
    """The prism over an n-gon: outer rim edges 1..n (edge i joins vertices
    i and i+1), inner rim edges n+1..2n, spoke 2n+i joining i to n+i."""
    vertex_edges = {}
    for i in range(1, n + 1):
        before = i - 1 if i > 1 else n
        vertex_edges[i] = (i, before, 2 * n + i)
        vertex_edges[n + i] = (n + i, n + before, 2 * n + i)
    face_edges = {i: (i, n + i, 2 * n + i, 2 * n + i % n + 1) for i in range(1, n + 1)}
    face_edges[n + 1] = tuple(range(n + 1, 2 * n + 1))
    return CubicMap.from_membership(vertex_edges, face_edges)


def grown_cube():
    """Map and cover of the final step of cube growth seed 13 x 20: 48
    vertices, 72 edges (above the 45-edge oracle cap), and covers of up to
    six cycles in its closure."""
    step = grow(cube_map(), cube_seed(), 20, 13)[-1]
    return step.map, step.cover


def reference_maps() -> dict:
    """Name -> map for checking the oracles' fast paths against reference
    implementations: every bundled map document, the blow-up of every
    bundled rotation document (the wheels 4 and 5) and of the wheel 6, and
    the twelve maps of cube growth seed 1 (12 to 45 edges, the oracle
    cap).  Theta, ``non_hamiltonian_16`` and the grown maps after an
    equal-target insertion have parallel edges."""
    maps = {}
    for path in sorted(fixture_path("cube.json").parent.glob("*.json")):
        doc = json.loads(path.read_text())
        if isinstance(doc, dict) and "rotations" in doc:
            maps[path.stem] = blow_up(RotationMap(*rotation_from_document(doc)))[0]
        elif isinstance(doc, dict):
            maps[path.stem] = map_from_document(doc)[0]
    maps["wheel6_blow_up"] = blow_up(wheel_rotation(6))[0]
    for i, step in enumerate(grow(cube_map(), cube_seed(), 11, 1)):
        maps[f"cube_seed1_step{i}"] = step.map
    return maps


class _Overrun(Exception):
    """Raised in the block by ``_time_limit``'s alarm."""


@contextmanager
def _time_limit(seconds: float):
    """Fail the test once ``seconds`` of wall time pass in the block.

    The alarm may fire deep in a recursive search, so the overrun is
    caught here and reported as a one-line failure with no traceback.
    """
    def expire(signum, frame):
        raise _Overrun

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    overran = False
    try:
        yield
    except _Overrun:
        overran = True
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    if overran:
        # from None: the alarm's exception is still being handled here
        raise pytest.fail.Exception(f"still running after {seconds} s", pytrace=False) from None
