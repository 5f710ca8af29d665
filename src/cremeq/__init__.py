"""Exact intersection-lattice bookkeeping for plane-equivalence questions.

Everything is exact integer arithmetic, with linear systems solved by Bareiss
integer elimination: divisor classes on named lattices, blow-ups as checked
isometries, generic projections to P3 with their double point classes, ray
bookkeeping on the induced threefold, a log-Kodaira degree test, and
replayable infeasibility certificates for the nonnegative restriction system
that obstructs plane equivalence.
"""

from .family_checks import (
    DimensionCount,
    dominance_count,
    grassmannian_dim,
    monoid_ce_predicate,
)
from .feasibility import (
    ChainLine,
    FeasibilityCertificate,
    FeasibilitySystem,
    LinearEquation,
    build_obstruction_system,
    replay_chain,
    solve_nonneg,
)
from .lattice import (
    AdjunctionParityError,
    BasisChange,
    BlowupMap,
    DivisorClass,
    IntersectionLattice,
    LatticeMismatchError,
    blow_up_point,
    change_basis,
    genus,
    pair,
)
from .log_kodaira import NegativityCertificate, negativity_certificate
from .projection import (
    IncidenceContradictionError,
    IncidenceRankError,
    NotPlanarError,
    ProjectionModel,
    double_curve_degree,
    plane_image_incidence,
    project_to_p3,
)
from .scenarios import (
    Scenario,
    ScenarioConfigError,
    ScenarioReport,
    builtin_scenario,
    load_scenario,
    run_scenario,
)
from .surfaces import (
    PolarizedSurface,
    SZModel,
    dp6_line_classes,
    make_blowup_plane,
    make_bordiga,
    make_dp6,
    make_f0_sextic,
    make_sz,
)
from .threefold import (
    BlowupThreefold,
    RayKind,
    RayVerdict,
    classify_second_ray,
    divisor_dot,
    fano_check,
    is_nef_on,
    kt_dot,
    st_dot,
    steepest_ray,
)

__all__ = [
    "AdjunctionParityError",
    "BasisChange",
    "BlowupMap",
    "BlowupThreefold",
    "ChainLine",
    "DimensionCount",
    "DivisorClass",
    "FeasibilityCertificate",
    "FeasibilitySystem",
    "IncidenceContradictionError",
    "IncidenceRankError",
    "IntersectionLattice",
    "LatticeMismatchError",
    "LinearEquation",
    "NegativityCertificate",
    "NotPlanarError",
    "PolarizedSurface",
    "ProjectionModel",
    "RayKind",
    "RayVerdict",
    "SZModel",
    "Scenario",
    "ScenarioConfigError",
    "ScenarioReport",
    "blow_up_point",
    "build_obstruction_system",
    "builtin_scenario",
    "change_basis",
    "classify_second_ray",
    "divisor_dot",
    "dominance_count",
    "double_curve_degree",
    "dp6_line_classes",
    "fano_check",
    "genus",
    "grassmannian_dim",
    "is_nef_on",
    "kt_dot",
    "load_scenario",
    "make_blowup_plane",
    "make_bordiga",
    "make_dp6",
    "make_f0_sextic",
    "make_sz",
    "monoid_ce_predicate",
    "negativity_certificate",
    "pair",
    "plane_image_incidence",
    "project_to_p3",
    "replay_chain",
    "run_scenario",
    "solve_nonneg",
    "st_dot",
    "steepest_ray",
]

__version__ = "0.1.0"
