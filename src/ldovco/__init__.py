"""Corner-aware, surrogate-assisted sizing of an LDO-regulated LC VCO.

The package bundles a 43-variable mixed-integer sizing problem over 32 PVT
corners, a deterministic behavioral evaluator for the coupled LDO-VCO, a
prescreening neural-surrogate differential-evolution optimizer, and the
sequential-vs-co-design flow comparison.
"""

from .behavior import (
    EvaluationFailure,
    TechConstants,
    evaluate,
    pn_sweep,
)
from .iofmt import load_bundled_constants, load_bundled_problem
from .problem import (
    Constraint,
    Corner,
    NOMINAL_CORNER,
    PerfMetrics,
    SizingProblem,
    enumerate_corners,
    fom,
    violation,
    worst_case,
)
from .space import (
    DesignSpace,
    Variable,
    point_from_dict,
    repair,
    sample_initial,
    validate_space,
)

__all__ = [
    "Constraint",
    "Corner",
    "DesignSpace",
    "EvaluationFailure",
    "NOMINAL_CORNER",
    "PerfMetrics",
    "SizingProblem",
    "TechConstants",
    "Variable",
    "enumerate_corners",
    "evaluate",
    "fom",
    "load_bundled_constants",
    "load_bundled_problem",
    "pn_sweep",
    "point_from_dict",
    "repair",
    "sample_initial",
    "validate_space",
    "violation",
    "worst_case",
]

__version__ = "0.1.0"
