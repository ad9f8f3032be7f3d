"""Sizing problem definition: PVT corners, performance metrics, the
oscillator figure of merit, constraint aggregation, and design ranking."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .space import DesignPoint, DesignSpace

NOMINAL_TEMP_C = 27.0

# NMOS/PMOS pair order used when enumerating the corner grid.
MOS_PAIRS = (("fast", "fast"), ("fast", "slow"), ("slow", "slow"), ("slow", "fast"))


@dataclass(frozen=True)
class Corner:
    nmos: str = "nominal"
    pmos: str = "nominal"
    inductor: str = "nominal"
    capacitor: str = "nominal"
    temperature: float = NOMINAL_TEMP_C

    def label(self) -> str:
        if self.is_nominal():
            return "nominal"
        t = f"{self.temperature:g}C".replace("-", "m")
        return f"{self.nmos[0]}n{self.pmos[0]}p_{self.inductor}L_{self.capacitor}C_{t}"

    def is_nominal(self) -> bool:
        return self == Corner()


NOMINAL_CORNER = Corner()


class EvaluationFailure(RuntimeError):
    """An evaluation could not produce metrics; names the failing quantity
    and, when known, the label of the corner it failed at."""

    def __init__(self, quantity: str, detail: str = "", corner: str | None = None):
        self.quantity, self.detail, self.corner = quantity, detail, corner
        super().__init__(f"evaluation failed at {quantity}" + (f": {detail}" if detail else ""))

    def __reduce__(self):  # rebuilt from its fields when it crosses a process pool
        return type(self), (self.quantity, self.detail, self.corner)


def enumerate_corners() -> list[Corner]:
    """The 32-corner grid, in lexicographic order: MOS pair (MOS_PAIRS
    order), then inductor, capacitor (min, max each) and temperature (-55,
    125 C). The nominal corner is not part of this grid; use NOMINAL_CORNER
    separately."""
    return [
        Corner(nmos=n, pmos=p, inductor=l, capacitor=c, temperature=t)
        for (n, p), l, c, t in itertools.product(
            MOS_PAIRS, ("min", "max"), ("min", "max"), (-55.0, 125.0)
        )
    ]


class PerfMetrics(NamedTuple):
    """One evaluation's outputs, as one row of a corner x metric table in
    METRIC_NAMES order: `tuple(m)` is that row, `PerfMetrics(*row.tolist())`
    reads one back. fom is stored positive (larger is better); reports
    negate it to follow the usual minimize-FoM table convention."""

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


METRIC_NAMES = list(PerfMetrics._fields)

# The orientation table: the metrics for which a lower value is worse; for
# the rest a higher value is. The worst case over corners (min or max), each
# constraint's side and the prescreen's quantile side all read it.
LOWER_IS_WORSE = ("f0", "pm", "startup_margin", "fom")
WORST_BY_MIN = np.isin(METRIC_NAMES, LOWER_IS_WORSE)


def fom(f0, delta_f, pn, pdyn):
    """Oscillator figure of merit: -10*log10[(df/f0)^2 * (Pdyn/1mW)] - PN(df),
    element by element over arrays; a float for float inputs. A ratio that
    underflows to 0 or overflows gives +inf or -inf, without a warning, for
    the finite-metric check to name.

    Returned positive; the reporting convention negates it.
    """
    if any(np.any(np.asarray(x) <= 0) for x in (f0, delta_f, pdyn)):
        raise ValueError("fom requires positive f0, delta_f and pdyn")
    ratio = np.divide(delta_f, f0)
    with np.errstate(divide="ignore", over="ignore"):
        value = -10.0 * np.log10(ratio * ratio * (pdyn / 1e-3)) - pn
    return value if np.ndim(value) else float(value)


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

    def shortfall(self, value: float | np.ndarray) -> np.ndarray:
        """Positive amount by which the constraint is missed (0 if met, inf if
        NaN), elementwise."""
        miss = self.bound - value if self.direction == GE else value - self.bound
        return np.where(np.isnan(value), math.inf, np.where(miss > 0.0, miss, 0.0))


ConstraintSet = tuple[Constraint, ...]


def violation(metrics: PerfMetrics | np.ndarray, constraints: ConstraintSet) -> float | np.ndarray:
    """Sum of bound-normalized constraint shortfalls; zero iff all satisfied.

    A (designs, metrics) table in METRIC_NAMES column order gives one
    violation per row, summed in constraint order; one row (a PerfMetrics)
    gives a float."""
    table = np.asarray(metrics, dtype=float)
    if table.ndim not in (1, 2) or table.shape[-1] != len(METRIC_NAMES):
        raise ValueError(
            f"metrics table has shape {table.shape}, expected (n, {len(METRIC_NAMES)})"
        )
    values = dict(zip(METRIC_NAMES, table.T))
    total = np.zeros(table.shape[:-1])
    # a hairline bound such as 1e-308 normalizes a shortfall to inf, which
    # ranks after every finite violation
    with np.errstate(over="ignore"):
        for c in constraints:
            if c.metric not in values:
                raise KeyError(f"metrics are missing {c.metric!r}")
            if c.bound == 0:
                raise ValueError(f"constraint on {c.metric} has zero bound; cannot normalize")
            total += c.shortfall(values[c.metric]) / abs(c.bound)
    return total if total.ndim else float(total)


def rank_order(objective: Sequence[float] | np.ndarray,
               violation: Sequence[float] | np.ndarray) -> np.ndarray:
    """The indices of the (objective, violation) pairs in feasibility-first
    order (Deb, CMAME 2000): feasible pairs by objective, highest first,
    ahead of infeasible ones by violation, lowest first. A NaN sorts after
    every number in its group, and exact ties keep their order (lexsort is
    stable)."""
    objective, violation = np.asarray(objective, dtype=float), np.asarray(violation, dtype=float)
    infeasible = violation != 0.0
    return np.lexsort((np.where(infeasible, violation, -objective), infeasible))


def compare_designs(a: tuple[float, float], b: tuple[float, float]) -> int:
    """+1 if (objective, violation) pair a ranks ahead of b, -1 if behind, 0
    on a tie: a is ahead when rank_order puts it first though placed second."""
    a_first = rank_order([b[0], a[0]], [b[1], a[1]])[0] == 1
    b_first = rank_order([a[0], b[0]], [a[1], b[1]])[0] == 1
    return int(a_first) - int(b_first)


def worst_case(per_corner: np.ndarray | Sequence[PerfMetrics]) -> PerfMetrics | np.ndarray:
    """Per-metric pessimization across the corners of a corner x metric
    table (or a sequence of PerfMetrics, the same rows): the minimum where
    WORST_BY_MIN says a lower value is worse, else the maximum. A NaN at
    any corner makes that metric NaN. The worst-case fom is the minimum of
    the per-corner foms, not Eq.-1 arithmetic on the other worst-case
    fields.

    A (designs, corners, metrics) stack gives every design's worst row, as a
    (designs, metrics) array, from one min and one max over the corner axis."""
    table = np.asarray(per_corner, dtype=float)
    if table.ndim not in (2, 3) or table.shape[-1] != len(METRIC_NAMES):
        raise ValueError(
            f"worst_case takes a (corners, {len(METRIC_NAMES)}) table or a (designs, corners,"
            f" {len(METRIC_NAMES)}) stack, got shape {table.shape}"
        )
    if table.shape[-2] == 0:
        raise ValueError("worst_case requires a nonempty metrics list")
    # corners first and contiguous, so that each corner's step of the min and
    # the max is one elementwise pass over every design's row (the corners
    # are still taken in order)
    by_corner = np.ascontiguousarray(np.moveaxis(table, -2, 0))
    worst = np.where(WORST_BY_MIN, by_corner.min(axis=0), by_corner.max(axis=0))
    return worst if table.ndim == 3 else PerfMetrics(*worst.tolist())


@dataclass(frozen=True)
class BatchResult:
    """What a batch evaluator returns: the survivors' (designs, corners,
    metrics) table stack, then one entry per design, in batch order: the
    quantity it failed at (`failure`, None for a survivor), the index into
    `corners` of the corner it failed at (`failure_corner`, -1 for a
    survivor), and the writer of its detail text (`details`, None for a
    survivor): a function and its arguments. A failure's EvaluationFailure,
    detail text and corner label included, is built only when `exception`
    or `table` asks for it."""

    corners: tuple[Corner, ...]
    tables: np.ndarray
    failure: np.ndarray
    failure_corner: np.ndarray
    details: Sequence[tuple | None]

    def __len__(self) -> int:
        return len(self.failure_corner)

    @property
    def survivors(self) -> np.ndarray:
        """The batch indices of the survivors, the designs of `tables`."""
        return np.flatnonzero(self.failure_corner < 0)

    def exception(self, d: int) -> EvaluationFailure:
        """The failure of the design at batch index d, which failed."""
        write, *args = self.details[d]
        corner = self.corners[self.failure_corner[d]].label()
        return EvaluationFailure(self.failure[d], write(*args), corner)

    def table(self, d: int) -> np.ndarray:
        """The corner x metric table of the design at batch index d; raises
        its failure."""
        if self.failure_corner[d] >= 0:
            raise self.exception(d)
        return self.tables[np.count_nonzero(self.failure_corner[:d] < 0)]


@dataclass(frozen=True)
class SizingProblem:
    """A constrained sizing problem: bounded space, corner list (nominal
    first), constraint set, and a batch evaluator mapping a sequence of
    points and a tuple of corners to their BatchResult. Objective: maximize
    worst-case fom over all corners."""

    space: DesignSpace
    corners: tuple[Corner, ...]
    constraints: ConstraintSet
    evaluate_batch: Callable[[Sequence[DesignPoint], tuple[Corner, ...]], BatchResult]

    def __post_init__(self):
        if len(self.corners) == 0:
            raise ValueError("a SizingProblem needs at least one corner")

    def evaluate_all(self, point: DesignPoint) -> np.ndarray:
        """The corner x metric table of one point, as a batch of one."""
        return self.evaluate_batch([point], self.corners).table(0)

    def evaluator(self, point: DesignPoint, corner: Corner) -> PerfMetrics:
        """The metrics at one corner, as a one-corner batch of one."""
        return PerfMetrics(*self.evaluate_batch([point], (corner,)).table(0)[0].tolist())

    def violation(self, metrics: PerfMetrics | np.ndarray) -> float | np.ndarray:
        """A design's violation, or each row's of a (designs, metrics) table."""
        return violation(metrics, self.constraints)
