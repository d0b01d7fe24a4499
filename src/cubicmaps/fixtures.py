"""Built-in maps used throughout the tests, demos and CLI examples."""

from __future__ import annotations

from importlib import resources

from .fourcolour import RotationMap
from .incidence import Cover, CubicMap


def fixture_path(name: str):
    """Path to a bundled JSON fixture, e.g. ``fixture_path("cube.json")``."""
    return resources.files("cubicmaps").joinpath("data", name)


def theta_map() -> CubicMap:
    """Two vertices joined by three parallel edges: the smallest cubic
    planar map, and the canonical growth seed."""
    return CubicMap.from_membership(
        vertex_edges={1: (1, 2, 3), 2: (1, 2, 3)},
        face_edges={1: (1, 2), 2: (2, 3)},
    )


def theta_seed() -> Cover:
    return ((1, 2),)


def cube_map() -> CubicMap:
    """The cube drawn as an outer square (edges 1,2,3,12), an inner square
    (5,7,8,10) and four connecting edges; 5 internal quad faces."""
    return CubicMap.from_membership(
        vertex_edges={
            1: (1, 11, 12),
            2: (1, 2, 9),
            3: (2, 3, 6),
            4: (3, 4, 12),
            5: (8, 10, 11),
            6: (7, 9, 10),
            7: (5, 6, 7),
            8: (4, 5, 8),
        },
        face_edges={
            1: (5, 7, 8, 10),
            2: (1, 9, 10, 11),
            3: (2, 6, 7, 9),
            4: (3, 4, 5, 6),
            5: (4, 8, 11, 12),
        },
    )


def cube_seed() -> Cover:
    """Two opposite quad faces covering all eight vertices."""
    return ((1, 9, 10, 11), (3, 4, 5, 6))


def tetrahedron_map() -> CubicMap:
    """K4 drawn with an outer triangle (edges 1,2,3) around a hub."""
    return CubicMap.from_membership(
        vertex_edges={
            1: (1, 3, 4),
            2: (1, 2, 5),
            3: (2, 3, 6),
            4: (4, 5, 6),
        },
        face_edges={
            1: (1, 4, 5),
            2: (2, 5, 6),
            3: (3, 4, 6),
        },
    )


def tetrahedron_seed() -> Cover:
    return ((2, 3, 4, 5),)


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
