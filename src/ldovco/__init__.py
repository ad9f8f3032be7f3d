"""Corner-aware, surrogate-assisted sizing of an LDO-regulated LC VCO.

The package bundles a 43-variable mixed-integer sizing problem over 32 PVT
corners, a deterministic behavioral evaluator for the coupled LDO-VCO, a
prescreening neural-surrogate differential-evolution optimizer, and the
sequential-vs-co-design flow comparison.
"""

from .behavior import (
    DEFAULT_TECH,
    EvaluationFailure,
    TechConstants,
    apply_corner,
    combine_pn,
    evaluate,
    evaluate_corners,
    evaluate_detailed,
    map_ldo,
    map_vco,
    supply_pn,
    vco_pn_intrinsic,
)
from .iofmt import load_bundled_constants, load_bundled_point, load_bundled_problem
from .problem import (
    Constraint,
    Corner,
    DEFAULT_CONSTRAINTS,
    NOMINAL_CORNER,
    PerfMetrics,
    SizingProblem,
    compare_designs,
    enumerate_corners,
    fom,
    violation,
    worst_case,
)
from .space import (
    DesignSpace,
    Variable,
    point_as_dict,
    point_from_dict,
    repair,
    sample_initial,
    validate_space,
)

__all__ = [
    "DEFAULT_CONSTRAINTS",
    "DEFAULT_TECH",
    "Constraint",
    "Corner",
    "DesignSpace",
    "EvaluationFailure",
    "NOMINAL_CORNER",
    "PerfMetrics",
    "SizingProblem",
    "TechConstants",
    "Variable",
    "apply_corner",
    "combine_pn",
    "compare_designs",
    "enumerate_corners",
    "evaluate",
    "evaluate_corners",
    "evaluate_detailed",
    "fom",
    "load_bundled_constants",
    "load_bundled_point",
    "load_bundled_problem",
    "map_ldo",
    "map_vco",
    "point_as_dict",
    "point_from_dict",
    "repair",
    "sample_initial",
    "supply_pn",
    "validate_space",
    "vco_pn_intrinsic",
    "violation",
    "worst_case",
]

__version__ = "0.1.0"
