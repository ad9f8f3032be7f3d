"""Sizing problem definition: PVT corners, performance metrics, the
oscillator figure of merit, constraint aggregation, and design ranking."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields
from typing import Callable, Sequence

import numpy as np

from .space import DesignPoint, DesignSpace

NOMINAL_TEMP_C = 27.0
DEFAULT_VDD_IN = 1.8 * 0.90  # lowest IO supply, 1.62 V

# NMOS/PMOS pair order used when enumerating the corner grid.
MOS_PAIRS = (("fast", "fast"), ("fast", "slow"), ("slow", "slow"), ("slow", "fast"))


@dataclass(frozen=True)
class Corner:
    nmos: str = "nominal"
    pmos: str = "nominal"
    inductor: str = "nominal"
    capacitor: str = "nominal"
    temperature: float = NOMINAL_TEMP_C
    vdd_in: float = DEFAULT_VDD_IN

    def label(self) -> str:
        if self.is_nominal():
            return "nominal"
        t = f"{self.temperature:g}C".replace("-", "m")
        return f"{self.nmos[0]}n{self.pmos[0]}p_{self.inductor}L_{self.capacitor}C_{t}"

    def is_nominal(self) -> bool:
        return (
            self.nmos == "nominal"
            and self.pmos == "nominal"
            and self.inductor == "nominal"
            and self.capacitor == "nominal"
            and self.temperature == NOMINAL_TEMP_C
        )


NOMINAL_CORNER = Corner()


def enumerate_corners(
    mos_pairs: Sequence[tuple[str, str]] = MOS_PAIRS,
    inductor_extremes: Sequence[str] = ("min", "max"),
    capacitor_extremes: Sequence[str] = ("min", "max"),
    temperatures: Sequence[float] = (-55.0, 125.0),
    vdd_in: float = DEFAULT_VDD_IN,
) -> list[Corner]:
    """Full Cartesian corner grid in deterministic lexicographic order
    (MOS pair, then inductor, capacitor, temperature). The nominal corner is
    not part of this grid; use NOMINAL_CORNER separately."""
    for name, seq in (
        ("mos_pairs", mos_pairs),
        ("inductor_extremes", inductor_extremes),
        ("capacitor_extremes", capacitor_extremes),
        ("temperatures", temperatures),
    ):
        if len(seq) == 0:
            raise ValueError(f"{name} must be nonempty")
    return [
        Corner(nmos=n, pmos=p, inductor=l, capacitor=c, temperature=t, vdd_in=vdd_in)
        for (n, p), l, c, t in itertools.product(
            mos_pairs, inductor_extremes, capacitor_extremes, temperatures
        )
    ]


@dataclass(frozen=True)
class PerfMetrics:
    """One evaluation's outputs. fom is stored positive (larger is better);
    reports negate it to follow the usual minimize-FoM table convention."""

    f0: float
    pn100k: float
    pn1m: float
    pn10m: float
    pdyn: float
    psr_max: float
    pm: float
    vdd_max: float
    startup_margin: float
    fom: float

    def to_dict(self) -> dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_row(cls, row: np.ndarray) -> "PerfMetrics":  # METRIC_NAMES order
        return cls(*row.tolist())


METRIC_NAMES = [f.name for f in fields(PerfMetrics)]

# The orientation table: the metrics for which a lower value is worse; for
# the rest a higher value is. The worst case over corners (min or max), each
# constraint's side and the prescreen's quantile side all read it.
LOWER_IS_WORSE = ("f0", "pm", "startup_margin", "fom")
WORST_BY_MIN = np.isin(METRIC_NAMES, LOWER_IS_WORSE)


def fom(f0: float, delta_f: float, pn: float, pdyn: float) -> float:
    """Oscillator figure of merit: -10*log10[(df/f0)^2 * (Pdyn/1mW)] - PN(df).

    Returned positive; the reporting convention negates it.
    """
    if f0 <= 0 or delta_f <= 0 or pdyn <= 0:
        raise ValueError("fom requires positive f0, delta_f and pdyn")
    return -10.0 * math.log10((delta_f / f0) ** 2 * (pdyn / 1e-3)) - pn


LE, GE = "<=", ">="


@dataclass(frozen=True)
class Constraint:
    """A bound on the worse side of a metric: a metric in LOWER_IS_WORSE
    must stay at or above it, any other at or below it."""

    metric: str
    bound: float

    @property
    def direction(self) -> str:
        return GE if self.metric in LOWER_IS_WORSE else LE

    def shortfall(self, value: float | np.ndarray) -> float | np.ndarray:
        """Positive amount by which the constraint is missed (0 if met, inf if
        NaN); elementwise on an array of values."""
        miss = self.bound - value if self.direction == GE else value - self.bound
        if isinstance(value, np.ndarray):
            # the scalar rule below, elementwise: max(0.0, miss) keeps miss
            # only where it exceeds 0.0
            return np.where(np.isnan(value), math.inf, np.where(miss > 0.0, miss, 0.0))
        return math.inf if math.isnan(value) else max(0.0, miss)


ConstraintSet = tuple[Constraint, ...]

DEFAULT_CONSTRAINTS: ConstraintSet = (
    Constraint("f0", 5e9),
    Constraint("pn100k", -94.0),
    Constraint("pn1m", -120.0),
    Constraint("pn10m", -140.0),
    Constraint("pdyn", 7e-3),
    Constraint("psr_max", -30.0),
    Constraint("vdd_max", 1.32),
    Constraint("pm", 50.0),
    Constraint("startup_margin", 2.0),
)


def violation(
    metrics: PerfMetrics | dict[str, float] | np.ndarray, constraints: ConstraintSet
) -> float | np.ndarray:
    """Sum of bound-normalized constraint shortfalls; zero iff all satisfied.

    One design's PerfMetrics or name->value dict gives a float; a (designs,
    metrics) table in METRIC_NAMES column order gives one violation per row,
    summed in the same constraint order."""
    if isinstance(metrics, np.ndarray):
        if metrics.ndim != 2 or metrics.shape[1] != len(METRIC_NAMES):
            raise ValueError(
                f"metrics table has shape {metrics.shape}, expected (n, {len(METRIC_NAMES)})"
            )
        values = dict(zip(METRIC_NAMES, metrics.T))
        total = np.zeros(len(metrics))
    else:
        values = metrics.to_dict() if isinstance(metrics, PerfMetrics) else metrics
        total = 0.0
    for c in constraints:
        if c.metric not in values:
            raise KeyError(f"metrics are missing {c.metric!r}")
        if c.bound == 0:
            raise ValueError(f"constraint on {c.metric} has zero bound; cannot normalize")
        total += c.shortfall(values[c.metric]) / abs(c.bound)
    return total


def rank_key(objective: float, violation: float) -> tuple[int, float]:
    """Feasibility-first sort key (Deb, CMAME 2000): feasible designs by
    objective, highest first, ahead of infeasible ones by violation, lowest
    first. Smaller is better; a stable sort keeps exact ties oldest-first."""
    return (0, -objective) if violation == 0.0 else (1, violation)


def compare_designs(a: tuple[float, float], b: tuple[float, float]) -> int:
    """+1 if (objective, violation) pair a ranks ahead of b, -1 if behind, 0 on a tie."""
    ka, kb = rank_key(*a), rank_key(*b)
    return (ka < kb) - (kb < ka)


def worst_case(per_corner: np.ndarray | Sequence[PerfMetrics]) -> PerfMetrics:
    """Per-metric pessimization across the corners of a corner x metric
    table (or a sequence of PerfMetrics): the minimum where WORST_BY_MIN
    says a lower value is worse, else the maximum. A NaN at any corner makes
    that metric NaN. The worst-case fom is the minimum of the per-corner
    foms, not Eq.-1 arithmetic on the other worst-case fields."""
    if len(per_corner) == 0:
        raise ValueError("worst_case requires a nonempty metrics list")
    if not isinstance(per_corner, np.ndarray):  # the same table, then one reduction
        per_corner = np.array([[getattr(m, n) for n in METRIC_NAMES] for m in per_corner], float)
    lo, hi = per_corner.min(axis=0), per_corner.max(axis=0)
    return PerfMetrics.from_row(np.where(WORST_BY_MIN, lo, hi))


@dataclass(frozen=True)
class SizingProblem:
    """A constrained sizing problem: bounded space, corner list (nominal
    first), constraint set, and a corner-batch evaluator mapping a point and
    a tuple of corners to their corner x metric table. Objective: maximize
    worst-case fom over all corners."""

    space: DesignSpace
    corners: tuple[Corner, ...]
    constraints: ConstraintSet
    evaluate_corners: Callable[[DesignPoint, tuple[Corner, ...]], np.ndarray]

    def __post_init__(self):
        if len(self.corners) == 0:
            raise ValueError("a SizingProblem needs at least one corner")

    def evaluate_all(self, point: DesignPoint) -> np.ndarray:
        return self.evaluate_corners(point, self.corners)

    def evaluator(self, point: DesignPoint, corner: Corner) -> PerfMetrics:
        """The metrics at one corner, as a one-corner batch."""
        return PerfMetrics.from_row(self.evaluate_corners(point, (corner,))[0])

    def objective(self, worst: PerfMetrics) -> float:
        return worst.fom

    def violation(self, metrics: PerfMetrics | np.ndarray) -> float | np.ndarray:
        """A design's violation, or each row's of a (designs, metrics) table."""
        return violation(metrics, self.constraints)
