"""The two sizing methodologies under equal true-evaluation budgets:

- codesign: one optimizer run over all 43 variables against the coupled
  LDO-VCO evaluator.
- sequential: the VCO alone on an ideal supply first (7/18 of the budget),
  then the LDO around the frozen VCO in coupled mode (the remaining 11/18).

Either way the final design is re-scored in coupled mode at the nominal and
worst corners, so the comparison is apples-to-apples."""

from __future__ import annotations

import math
import statistics
from collections import Counter
from contextlib import ExitStack
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .behavior import LDO_VARIABLES, VCO_VARIABLES, EvaluationFailure, TechConstants
# The problem builders reach the behavioral models through this module-level
# name, one call per batch of designs for all their corners; the benchmark's
# `behavior` span wraps it here.
from .behavior import evaluate_batch as evaluate
from .optimizer import OptConfig, RunState, run
from .problem import (
    BatchResult,
    ConstraintSet,
    Corner,
    PerfMetrics,
    SizingProblem,
    compare_designs,
    worst_case,
)
from .space import DesignPoint, DesignSpace, repair

# stage budget split of the sequential flow: VCO sizing : LDO sizing
STAGE_SPLIT = (7, 18)

# constraints that are meaningful for the VCO alone on an ideal supply
VCO_ONLY_METRICS = ("f0", "pn100k", "pn1m", "pn10m", "pdyn", "startup_margin")


def coupled_problem(
    space: DesignSpace, corners: tuple[Corner, ...], constraints: ConstraintSet,
    tc: TechConstants,
) -> SizingProblem:
    def ev(points: Sequence[DesignPoint], batch: tuple[Corner, ...]) -> BatchResult:
        return evaluate(space, points, batch, "coupled", tc)

    return SizingProblem(space, corners, constraints, ev)


def _mid_box(space: DesignSpace) -> DesignPoint:
    return repair(space, 0.5 * (space.lowers() + space.uppers()))


def _stage_problem(
    space: DesignSpace, corners: tuple[Corner, ...], constraints: ConstraintSet,
    tc: TechConstants, names: list[str], base: DesignPoint, mode: str,
) -> tuple[SizingProblem, Callable[[DesignPoint], DesignPoint]]:
    """A sequential stage: the named variables sized in `mode` with every
    other variable held at `base`. Returns the problem and its map from a
    stage point, or an (n, k) batch of them, to the full designs. On an
    ideal supply only the VCO-meaningful constraints apply."""
    indices = [space.index_of(n) for n in names]
    if mode == "ideal_supply":
        constraints = tuple(c for c in constraints if c.metric in VCO_ONLY_METRICS)

    def full(sub_points) -> np.ndarray:
        sub_points = np.asarray(sub_points, dtype=float)
        points = np.tile(np.asarray(base, dtype=float), sub_points.shape[:-1] + (1,))
        points[..., indices] = sub_points
        return points

    def ev(sub_points: Sequence[DesignPoint], batch: tuple[Corner, ...]) -> BatchResult:
        return evaluate(space, full(sub_points), batch, mode, tc)

    return SizingProblem(space.subspace(names), corners, constraints, ev), full


def vco_stage_problem(
    space: DesignSpace, corners: tuple[Corner, ...], constraints: ConstraintSet,
    tc: TechConstants,
) -> SizingProblem:
    """Stage-1 problem: the 17 VCO variables against the ideal-supply
    evaluator, the LDO held at mid-box, with the VCO-meaningful constraint
    subset."""
    return _stage_problem(
        space, corners, constraints, tc, VCO_VARIABLES, _mid_box(space), "ideal_supply"
    )[0]


@dataclass(frozen=True)
class FlowResult:
    flow: str  # "codesign" or "sequential"
    seed: int
    final_point: DesignPoint
    coupled_nominal: PerfMetrics | None  # None when the re-score failed
    coupled_worst: PerfMetrics | None
    violation: float
    evals_used: int
    log_rows: list[dict]
    failure: EvaluationFailure | None = None  # why the re-score failed
    stop_reasons: tuple[str, ...] = ()  # why each optimizer run stopped, stage by stage
    # the failed true evaluations per (quantity, corner label)
    eval_failures: dict[tuple[str, str], int] = field(default_factory=dict)

    @property
    def feasible(self) -> bool:
        return self.violation == 0.0


def _require_nominal_first(corners: tuple[Corner, ...]) -> None:
    """Raises unless the first corner is nominal: _rescore reports table
    row 0 as the nominal metrics."""
    if not corners or not corners[0].is_nominal():
        got = corners[0].label() if corners else "no corners"
        raise ValueError(f"the first corner must be nominal, got {got}")


def _rescore(
    problem: SizingProblem, point: DesignPoint
) -> tuple[PerfMetrics, PerfMetrics, float]:
    table = problem.evaluate_all(point)
    worst = worst_case(table)
    return PerfMetrics(*table[0].tolist()), worst, problem.violation(worst)


def _flow_result(
    flow: str, seed: int, coupled: SizingProblem, point: DesignPoint, log_rows: list[dict],
    runs: list[RunState],
) -> FlowResult:
    """The final design re-scored in coupled mode, with the optimizer runs'
    evaluation count, stop reasons and failures; a failed re-score is
    carried, not raised, so that the run log survives it."""
    about = dict(
        evals_used=sum(r.evals_used for r in runs),
        log_rows=log_rows,
        stop_reasons=tuple(r.stop_reason for r in runs),
        eval_failures=dict(sum((r.failure_counts() for r in runs), Counter())),
    )
    try:
        nominal, worst, violation = _rescore(coupled, point)
    except EvaluationFailure as exc:
        return FlowResult(flow, seed, point, None, None, math.inf, failure=exc, **about)
    return FlowResult(flow, seed, point, nominal, worst, violation, **about)


def run_codesign(
    space: DesignSpace, corners: tuple[Corner, ...], constraints: ConstraintSet,
    tc: TechConstants, cfg: OptConfig, seed: int,
) -> FlowResult:
    _require_nominal_first(corners)
    problem = coupled_problem(space, corners, constraints, tc)
    result = run(problem, replace(cfg, seed=seed))
    return _flow_result("codesign", seed, problem, result.incumbent.point, result.log_rows,
                        [result])


def _stage_config(cfg: OptConfig, stage: int, budget: int, seed: int, dim: int) -> OptConfig:
    """A sequential stage's settings; a share of the budget too small to run is named."""
    stage_cfg = replace(cfg, eval_budget=budget, seed=seed, init_samples=None)
    try:
        stage_cfg.resolve_init_samples(dim)
    except ValueError:
        raise ValueError(f"sequential stage {stage} gets {budget} of budget {cfg.eval_budget},"
                         " too few evaluations for its initial sample") from None
    return stage_cfg


def run_sequential(
    space: DesignSpace, corners: tuple[Corner, ...], constraints: ConstraintSet,
    tc: TechConstants, cfg: OptConfig, seed: int,
) -> FlowResult:
    """Each stage sizes its initial sample by the auto rule on its own
    budget; a set `cfg.init_samples` applies to co-design only."""
    _require_nominal_first(corners)
    budget1 = round(cfg.eval_budget * STAGE_SPLIT[0] / STAGE_SPLIT[1])
    cfg1 = _stage_config(cfg, 1, budget1, seed, len(VCO_VARIABLES))
    cfg2 = _stage_config(cfg, 2, cfg.eval_budget - budget1, seed + 1, len(LDO_VARIABLES))

    stage1, vco_full = _stage_problem(
        space, corners, constraints, tc, VCO_VARIABLES, _mid_box(space), "ideal_supply"
    )
    res1 = run(stage1, cfg1)

    stage2, ldo_full = _stage_problem(
        space, corners, constraints, tc, LDO_VARIABLES, vco_full(res1.incumbent.point), "coupled"
    )
    res2 = run(stage2, cfg2)

    log_rows = [dict(r, stage=1) for r in res1.log_rows] + [
        dict(r, stage=2) for r in res2.log_rows
    ]
    return _flow_result(
        "sequential", seed, coupled_problem(space, corners, constraints, tc),
        ldo_full(res2.incumbent.point), log_rows, [res1, res2],
    )


@dataclass(frozen=True)
class ComparisonReport:
    rows: list[dict]
    win_rate: float  # co-design wins by coupled worst-case FoM, ties 0.5
    median_fom_delta: float  # co-design minus sequential, dB
    median_pdyn_delta_pct: float  # nominal power saved by co-design, percent


def _pair_row(seed: int, co: FlowResult, seq: FlowResult) -> dict:
    fom_delta = co.coupled_worst.fom - seq.coupled_worst.fom
    pdyn_delta_pct = (
        (seq.coupled_nominal.pdyn - co.coupled_nominal.pdyn)
        / seq.coupled_nominal.pdyn * 100.0
    )
    # wins use the same feasibility-first order that ranks designs everywhere
    # else; a constraint-violating design does not outrank a compliant one on
    # raw FoM alone. Ties split 0.5/0.5.
    win = (compare_designs((co.coupled_worst.fom, co.violation),
                           (seq.coupled_worst.fom, seq.violation)) + 1) / 2
    return {
        "seed": seed,
        "codesign_fom": co.coupled_worst.fom,
        "codesign_violation": co.violation,
        "codesign_pdyn_nominal": co.coupled_nominal.pdyn,
        "codesign_evals": co.evals_used,
        "sequential_fom": seq.coupled_worst.fom,
        "sequential_violation": seq.violation,
        "sequential_pdyn_nominal": seq.coupled_nominal.pdyn,
        "sequential_evals": seq.evals_used,
        "fom_delta": fom_delta,
        "pdyn_delta_pct": pdyn_delta_pct,
        "codesign_win": win,
    }


def _compare_task(args) -> tuple[str, int, FlowResult]:
    """One flow run of a comparison; a failed re-score ends the comparison."""
    flow, seed, space, corners, constraints, tc, cfg = args
    runner = run_codesign if flow == "codesign" else run_sequential
    result = runner(space, corners, constraints, tc, cfg, seed)
    if result.failure is not None:
        raise result.failure
    return flow, seed, result


def compare(
    space: DesignSpace, corners: tuple[Corner, ...], constraints: ConstraintSet,
    tc: TechConstants, cfg: OptConfig, seeds: list[int], workers: int = 1,
) -> tuple[ComparisonReport, dict[tuple[str, int], FlowResult]]:
    """Paired sequential/co-design runs for every seed, aggregated into the
    comparison report. Stagnation stops are disabled so that both flows of a
    pair spend exactly the same number of true evaluations; seeds may fan out
    over worker processes without affecting the results."""
    if len(seeds) < 2:
        raise ValueError("compare needs at least two seeds")
    repeated = sorted({s for s in seeds if seeds.count(s) > 1})
    if repeated:
        raise ValueError(f"compare seeds must be distinct; repeated: {repeated}")
    if workers < 1:
        raise ValueError(f"compare needs at least one worker, got {workers}")
    cfg = replace(cfg, no_improve_limit=max(cfg.no_improve_limit, cfg.eval_budget))
    tasks = [  # each config carries its seed, so OptConfig rejects a bad one before any run
        (flow, seed, space, corners, constraints, tc, replace(cfg, seed=seed))
        for seed in seeds
        for flow in ("codesign", "sequential")
    ]
    with ExitStack() as stack:
        run_all = map
        if workers > 1:
            # imported here: the process pool's import costs every process
            # start about 20 ms, and a serial compare never uses it
            from concurrent.futures import ProcessPoolExecutor

            # the pool starts all its workers at once: no more than there are tasks
            pool = ProcessPoolExecutor(max_workers=min(workers, len(tasks)))
            run_all = stack.enter_context(pool).map
        results = {(flow, seed): res for flow, seed, res in run_all(_compare_task, tasks)}

    rows = [
        _pair_row(seed, results[("codesign", seed)], results[("sequential", seed)])
        for seed in seeds
    ]
    return (
        ComparisonReport(
            rows=rows,
            win_rate=sum(r["codesign_win"] for r in rows) / len(rows),
            median_fom_delta=statistics.median(r["fom_delta"] for r in rows),
            median_pdyn_delta_pct=statistics.median(r["pdyn_delta_pct"] for r in rows),
        ),
        results,
    )
