"""Exception types shared across the toolkit."""


class MapError(Exception):
    """Base class for all structural errors raised by this package."""


class NotACycle(MapError):
    """An edge set does not form a single closed walk of induced degree 2."""


class MalformedFace(MapError):
    """A face row does not describe one closed boundary walk."""


class NotTwoRegular(MapError):
    """An edge set fails to give every vertex exactly two incident edges."""


class InvalidCover(MapError):
    """A cycle cover violates its invariants for the given map."""


class IterationLimit(MapError):
    """Closure iteration exceeded the configured cap (pathological input)."""


class NoHamiltonian(MapError):
    """No Hamiltonian cycle was found among the given covers.

    Recoverable signal: callers that merely report should catch it.
    Growth runs and the ``enumerate`` command catch it and record an empty
    Hamiltonian subset; this happens on non-Hamiltonian maps and on maps
    whose Hamiltonian cycles lie outside the closure's class.
    """


class EdgeNotOnFace(MapError):
    """An insertion target edge does not lie on the chosen face."""


class IncompatibleCover(MapError):
    """The cover has no single cycle through the insertion targets."""


class CapExceeded(MapError):
    """A brute-force enumerator was asked to run above its edge cap."""


class InconsistentLabelling(MapError):
    """A labelling is not three classes that partition the edges, or colour
    propagation found a dual edge with inconsistent sign flips."""


class InvalidRotation(MapError):
    """A rotation system is not a valid bridgeless loop-free planar map."""
