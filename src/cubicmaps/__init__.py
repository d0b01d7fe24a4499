"""cubicmaps: build cubic planar maps by edge insertion while maintaining
their even cycle covers, proper 3-edge-labellings and Hamiltonian cycles,
machine-check the two underlying conjectures against brute-force oracles,
and derive face four-colourings (including for arbitrary planar maps via
vertex blow-up)."""

from .closure import (
    alternating_halves,
    cover_closure,
    half_choices,
    successor_covers,
)
from .errors import (
    CapExceeded,
    EdgeNotOnFace,
    InconsistentLabelling,
    IncompatibleCover,
    InvalidCover,
    InvalidRotation,
    IterationLimit,
    MalformedFace,
    MapError,
    NoHamiltonian,
    NotACycle,
    NotTwoRegular,
)
from .fourcolour import (
    COLOURS,
    OUTER,
    BlowUpMapping,
    RotationMap,
    blow_up,
    face_colouring_from_labelling,
    pull_back_colouring,
    validate_face_colouring,
    validate_pulled_back,
)
from .growth import (
    GrowthStep,
    InsertionEvent,
    choose_insertion,
    compatible_cover,
    grow,
    insert_edge,
    rewrite_cover,
)
from .incidence import (
    Cover,
    CubicMap,
    Cycle,
    canonical_cover,
    canonical_cycle,
    check_cover,
    decompose_two_factor,
    euler_check,
    face_boundary,
    off_edges,
    order_cycle,
    validate_map,
)
from .labelling import (
    Labelling,
    closure_labellings,
    dedup_labellings,
    hamiltonian_covers,
    labelling_from_cover,
    labellings_from_cover,
    validate_labelling,
)
from .oracles import (
    DEFAULT_ORACLE_CAP,
    ConjectureReport,
    all_even_cycle_covers,
    all_perfect_matchings,
    all_proper_labellings,
    check_closure_completeness,
    check_shared_cycle,
    compare_cover_sets,
)
from .serialize import (
    load_map,
    map_fingerprint,
    map_from_document,
    map_to_document,
    to_dot,
    write_trace,
)

__version__ = "0.1.0"
