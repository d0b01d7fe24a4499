"""Built-in maps used throughout the tests, demos and CLI examples."""

from __future__ import annotations

from functools import cache
from importlib import resources

from .fourcolour import RotationMap
from .incidence import Cover, CubicMap, Members
from .serialize import load_map


def fixture_path(name: str):
    """Path to a bundled JSON fixture, e.g. ``fixture_path("cube.json")``."""
    return resources.files("cubicmaps").joinpath("data", name)


@cache
def _bundled(name: str) -> tuple[Members, Members, Cover]:
    """Membership and seed cycles of a bundled map document, parsed once;
    each ``_bundled_map`` call builds a fresh map from them."""
    m, cycles = load_map(fixture_path(name))
    return m.vertex_edges, m.face_edges, cycles


def _bundled_map(name: str) -> CubicMap:
    vertex_edges, face_edges, _ = _bundled(name)
    return CubicMap.from_membership(vertex_edges, face_edges)


def theta_map() -> CubicMap:
    """Two vertices joined by three parallel edges: the smallest cubic
    planar map, and the canonical growth seed (``theta.json``)."""
    return _bundled_map("theta.json")


def theta_seed() -> Cover:
    """The cycle of ``theta.json``: edges 1 and 2."""
    return _bundled("theta.json")[2]


def cube_map() -> CubicMap:
    """The cube drawn as an outer square (edges 1,2,3,12), an inner square
    (5,7,8,10) and four connecting edges; 5 internal quad faces (``cube.json``)."""
    return _bundled_map("cube.json")


def cube_seed() -> Cover:
    """Two opposite quad faces covering all eight vertices (``cube.json``)."""
    return _bundled("cube.json")[2]


def tetrahedron_map() -> CubicMap:
    """K4 drawn with an outer triangle (edges 1,2,3) around a hub (``tetrahedron.json``)."""
    return _bundled_map("tetrahedron.json")


def tetrahedron_seed() -> Cover:
    """The Hamiltonian cycle of ``tetrahedron.json``: edges 2, 3, 4, 5."""
    return _bundled("tetrahedron.json")[2]


def tetrahedron_labelling():
    """The unique proper labelling of K4: opposite edge pairs."""
    return ((1, 6), (2, 4), (3, 5))


def tetrahedron_rotation() -> RotationMap:
    """K4 as a rotation system (already cubic), matching tetrahedron_map."""
    return RotationMap(
        rotations={1: (1, 4, 3), 2: (2, 5, 1), 3: (3, 6, 2), 4: (6, 4, 5)},
        endpoints={1: (1, 2), 2: (2, 3), 3: (1, 3), 4: (1, 4), 5: (2, 4), 6: (3, 4)},
    )


def wheel_rotation(n: int) -> RotationMap:
    """Wheel map: an n-cycle rim around one degree-n hub.

    Rim edges are 1..n (edge i joins rim vertices i and i+1), spokes are
    n+1..2n (edge n+i joins rim vertex i to the hub n+1).  The hub gives
    blow-up its higher-order vertex.
    """
    if n < 3:
        raise ValueError("wheel needs n >= 3")
    hub = n + 1
    rotations = {}
    endpoints = {}
    for i in range(1, n + 1):
        nxt = i % n + 1
        prev_edge = i - 1 if i > 1 else n
        rotations[i] = (i, n + i, prev_edge)
        endpoints[i] = (i, nxt)
        endpoints[n + i] = (i, hub)
    rotations[hub] = tuple(n + i for i in range(1, n + 1))
    return RotationMap(rotations=rotations, endpoints=endpoints)
