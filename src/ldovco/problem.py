"""Sizing problem definition: PVT corners, performance metrics, the
oscillator figure of merit, constraint aggregation, and design ranking."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields
from typing import Callable, Sequence

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

    def is_finite(self) -> bool:
        return all(math.isfinite(getattr(self, f.name)) for f in fields(self))


METRIC_NAMES = [f.name for f in fields(PerfMetrics)]

# Smaller-is-worse metrics are pessimized by min; the rest by max.
_WORST_BY_MIN = ("f0", "pm", "startup_margin", "fom")


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
    metric: str
    direction: str  # LE or GE
    bound: float

    def shortfall(self, value: float) -> float:
        """Positive amount by which the constraint is missed (0 if met, inf if NaN)."""
        if math.isnan(value):
            return math.inf
        if self.direction == LE:
            return max(0.0, value - self.bound)
        if self.direction == GE:
            return max(0.0, self.bound - value)
        raise ValueError(f"unknown constraint direction {self.direction!r}")


ConstraintSet = tuple[Constraint, ...]

DEFAULT_CONSTRAINTS: ConstraintSet = (
    Constraint("f0", GE, 5e9),
    Constraint("pn100k", LE, -94.0),
    Constraint("pn1m", LE, -120.0),
    Constraint("pn10m", LE, -140.0),
    Constraint("pdyn", LE, 7e-3),
    Constraint("psr_max", LE, -30.0),
    Constraint("vdd_max", LE, 1.32),
    Constraint("pm", GE, 50.0),
    Constraint("startup_margin", GE, 2.0),
)


def violation(metrics: PerfMetrics | dict[str, float], constraints: ConstraintSet) -> float:
    """Sum of bound-normalized constraint shortfalls; zero iff all satisfied."""
    values = metrics.to_dict() if isinstance(metrics, PerfMetrics) else metrics
    total = 0.0
    for c in constraints:
        if c.metric not in values:
            raise KeyError(f"metrics are missing {c.metric!r}")
        if c.bound == 0:
            raise ValueError(f"constraint on {c.metric} has zero bound; cannot normalize")
        total += c.shortfall(values[c.metric]) / abs(c.bound)
    return total


def compare_designs(a: tuple[float, float], b: tuple[float, float]) -> int:
    """Feasibility-first ordering on (objective, violation) pairs.

    Returns +1 if a wins, -1 if b wins, 0 on an exact tie (callers break ties
    by insertion order: older wins).
    """
    obj_a, vio_a = a
    obj_b, vio_b = b
    feas_a, feas_b = vio_a == 0.0, vio_b == 0.0
    if feas_a != feas_b:
        return 1 if feas_a else -1
    if feas_a:
        if obj_a != obj_b:
            return 1 if obj_a > obj_b else -1
        return 0
    if vio_a != vio_b:
        return 1 if vio_a < vio_b else -1
    return 0


def worst_case(per_corner: Sequence[PerfMetrics]) -> PerfMetrics:
    """Per-metric pessimization across corners; a NaN at any corner makes
    that metric NaN. The worst-case fom is the minimum of the per-corner
    foms, not Eq.-1 arithmetic on the other worst-case fields."""
    if len(per_corner) == 0:
        raise ValueError("worst_case requires a nonempty metrics list")
    out = {}
    for name in METRIC_NAMES:
        vals = [getattr(m, name) for m in per_corner]
        pick = min if name in _WORST_BY_MIN else max
        out[name] = math.nan if any(map(math.isnan, vals)) else pick(vals)
    return PerfMetrics(**out)


@dataclass(frozen=True)
class SizingProblem:
    """A constrained sizing problem: bounded space, corner list (nominal
    first), constraint set, and a corner-batch evaluator mapping a point and
    a tuple of corners to one PerfMetrics per corner. Objective: maximize
    worst-case fom over all corners."""

    space: DesignSpace
    corners: tuple[Corner, ...]
    constraints: ConstraintSet
    evaluate_corners: Callable[[DesignPoint, tuple[Corner, ...]], list[PerfMetrics]]

    def __post_init__(self):
        if len(self.corners) == 0:
            raise ValueError("a SizingProblem needs at least one corner")

    def evaluate_all(self, point: DesignPoint) -> list[PerfMetrics]:
        return self.evaluate_corners(point, self.corners)

    def evaluator(self, point: DesignPoint, corner: Corner) -> PerfMetrics:
        """The metrics at one corner, as a one-corner batch."""
        return self.evaluate_corners(point, (corner,))[0]

    def objective(self, worst: PerfMetrics) -> float:
        return worst.fom

    def violation(self, worst: PerfMetrics) -> float:
        return violation(worst, self.constraints)
