"""Toolkit for slim rectangular lattices.

Builds lattices from multifork sequences, computes lamp posets and
congruence lattices, applies congruence-preserving length reductions,
doubles lamp-poset elements, and verifies length/size bounds by
exhaustive enumeration at small length.
"""

from .order import (
    Poset,
    FiniteLattice,
    Congruence,
    CongruenceLattice,
    order_from_covers,
    lattice_from_poset,
    is_semimodular,
    jir,
    mir,
    is_slim,
    is_distributive_ideal_grid,
    principal_congruence,
    congruence_lattice,
    poset_iso,
    poset_double,
    named_posets,
)
from .diagram import (
    Edge,
    FourCell,
    Trajectory,
    PlanarDiagram,
    embed_rectangular,
    is_slim_rectangular,
    mirror,
    canonical_code,
    cell_address,
    resolve_address,
)
from .multifork import (
    ForkStep,
    MultiforkSequence,
    ProvenancedLattice,
    grid,
    multifork_extend,
    build,
    decompose,
    reprovenance,
)
from .dsl import parse_dsl, emit_dsl
from .lamps import (
    Lamp,
    UsageStats,
    lamps,
    circ_r,
    lamp_poset,
    verify_lamp_con_iso,
    is_used,
    usage_stats,
    lamp_report,
)
from .reduce import (
    ReductionStep,
    BoundReport,
    remove_sandwiched,
    remove_neighboring,
    minimize,
    check_bounds,
    length_bound,
)
from .doubling import RetargetRecord, locate_retarget, double
from .explore import (
    EnumerationIndex,
    RealizabilityAnswer,
    enumerate_index,
    realize,
    sweep_bounds,
)
from .render import render, validate_slopes

__all__ = [
    "Poset", "FiniteLattice", "Congruence", "CongruenceLattice",
    "order_from_covers", "lattice_from_poset", "is_semimodular", "jir", "mir",
    "is_slim", "is_distributive_ideal_grid", "principal_congruence",
    "congruence_lattice", "poset_iso", "poset_double", "named_posets",
    "Edge", "FourCell", "Trajectory", "PlanarDiagram", "embed_rectangular",
    "is_slim_rectangular", "mirror", "canonical_code", "cell_address",
    "resolve_address",
    "ForkStep", "MultiforkSequence", "ProvenancedLattice", "grid",
    "multifork_extend", "build", "decompose", "reprovenance",
    "parse_dsl", "emit_dsl",
    "Lamp", "UsageStats", "lamps", "circ_r", "lamp_poset",
    "verify_lamp_con_iso", "is_used", "usage_stats", "lamp_report",
    "ReductionStep", "BoundReport", "remove_sandwiched", "remove_neighboring",
    "minimize", "check_bounds", "length_bound",
    "RetargetRecord", "locate_retarget", "double",
    "EnumerationIndex", "RealizabilityAnswer", "enumerate_index", "realize",
    "sweep_bounds",
    "render", "validate_slopes",
]
