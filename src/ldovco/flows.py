"""The two sizing methodologies under equal true-evaluation budgets:

- codesign: one optimizer run over all 43 variables against the coupled
  LDO-VCO evaluator.
- sequential: the VCO alone on an ideal supply first (7/18 of the budget),
  then the LDO around the frozen VCO in coupled mode (the remaining 11/18).

Either way the final design is re-scored in coupled mode at the nominal and
worst corners, so the comparison is apples-to-apples."""

from __future__ import annotations

import statistics
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .behavior import TechConstants
# The problem builders reach the behavioral models through this module-level
# name, one call per design for all its corners; the benchmark's `behavior`
# span wraps it here.
from .behavior import evaluate_corners as evaluate
from .optimizer import OptConfig, run
from .problem import (
    ConstraintSet,
    Corner,
    PerfMetrics,
    SizingProblem,
    compare_designs,
    worst_case,
)
from .space import DesignPoint, DesignSpace, repair

VCO_VARIABLES = [
    "M2", "L_34", "W_34", "F_34", "M_34", "L_56", "W_56", "F_56", "M_56",
    "N_H", "N_V", "M_bot", "W_ind", "R_ind", "NT_ind", "S_ind", "GR_ind",
]
LDO_VARIABLES = [
    "L_nLoad", "W_nLoad", "F_nLoad", "M_nLoad",
    "L_pIn", "W_pIn", "F_pIn", "M_pIn",
    "L_bias", "W_bias", "F_bias", "M_bias", "M_biasIn", "M_biasOut",
    "L_nOut", "W_nOut", "F_nOut", "M_nOut",
    "C_C", "R_C", "C_F", "R_F",
    "L_pass", "W_pass", "F_pass", "M_pass",
]

# stage budget split of the sequential flow: VCO sizing : LDO sizing
STAGE_SPLIT = (7, 18)

# constraints that are meaningful for the VCO alone on an ideal supply
VCO_ONLY_METRICS = ("f0", "pn100k", "pn1m", "pn10m", "pdyn", "startup_margin")


def stage_init_samples(dim: int, budget: int) -> int:
    """Initial LHS size for a stage: the usual 4x-dimension rule, but never
    more than half the stage budget."""
    return max(2, min(max(80, 4 * dim), budget // 2))


def coupled_problem(
    space: DesignSpace, corners: tuple[Corner, ...], constraints: ConstraintSet,
    tc: TechConstants,
) -> SizingProblem:
    def ev(point: DesignPoint, batch: tuple[Corner, ...]) -> list[PerfMetrics]:
        return evaluate(space, point, batch, "coupled", tc)

    return SizingProblem(space, corners, constraints, ev)


def _embed(space: DesignSpace, base: DesignPoint, names: list[str], sub: DesignPoint) -> DesignPoint:
    point = np.array(base, dtype=float)
    for name, value in zip(names, sub):
        point[space.index_of(name)] = value
    return point


def vco_stage_problem(
    space: DesignSpace, corners: tuple[Corner, ...], constraints: ConstraintSet,
    tc: TechConstants,
) -> SizingProblem:
    """Stage-1 problem: the 17 VCO variables against the ideal-supply
    evaluator, with the VCO-meaningful constraint subset."""
    sub_space = space.subspace(VCO_VARIABLES)
    mid = repair(space, 0.5 * (space.lowers() + space.uppers()))
    vco_constraints = tuple(c for c in constraints if c.metric in VCO_ONLY_METRICS)

    def ev(sub_point: DesignPoint, batch: tuple[Corner, ...]) -> list[PerfMetrics]:
        full = _embed(space, mid, VCO_VARIABLES, sub_point)
        return evaluate(space, full, batch, "ideal_supply", tc)

    return SizingProblem(sub_space, corners, vco_constraints, ev)


def ldo_stage_problem(
    space: DesignSpace, corners: tuple[Corner, ...], constraints: ConstraintSet,
    tc: TechConstants, frozen: DesignPoint,
) -> SizingProblem:
    """Stage-2 problem: the 26 LDO variables in coupled mode around the
    frozen stage-1 VCO, judged against the full constraint set."""
    sub_space = space.subspace(LDO_VARIABLES)

    def ev(sub_point: DesignPoint, batch: tuple[Corner, ...]) -> list[PerfMetrics]:
        full = _embed(space, frozen, LDO_VARIABLES, sub_point)
        return evaluate(space, full, batch, "coupled", tc)

    return SizingProblem(sub_space, corners, constraints, ev)


@dataclass(frozen=True)
class FlowResult:
    flow: str  # "codesign" or "sequential"
    seed: int
    final_point: DesignPoint
    coupled_nominal: PerfMetrics
    coupled_worst: PerfMetrics
    violation: float
    evals_used: int
    log_rows: list[dict]
    vco_point: DesignPoint | None = None  # sequential only: frozen stage-1 winner

    @property
    def feasible(self) -> bool:
        return self.violation == 0.0


def _rescore(
    space: DesignSpace, corners: tuple[Corner, ...], constraints: ConstraintSet,
    tc: TechConstants, point: DesignPoint,
) -> tuple[PerfMetrics, PerfMetrics, float]:
    problem = coupled_problem(space, corners, constraints, tc)
    per_corner = problem.evaluate_all(point)
    worst = worst_case(per_corner)
    return per_corner[0], worst, problem.violation(worst)


def run_codesign(
    space: DesignSpace, corners: tuple[Corner, ...], constraints: ConstraintSet,
    tc: TechConstants, cfg: OptConfig, seed: int,
) -> FlowResult:
    problem = coupled_problem(space, corners, constraints, tc)
    result = run(problem, replace(cfg, seed=seed))
    point = result.incumbent.point
    nominal, worst, violation = _rescore(space, corners, constraints, tc, point)
    return FlowResult(
        flow="codesign", seed=seed, final_point=point,
        coupled_nominal=nominal, coupled_worst=worst, violation=violation,
        evals_used=result.evals_used, log_rows=result.log_rows,
    )


def run_sequential(
    space: DesignSpace, corners: tuple[Corner, ...], constraints: ConstraintSet,
    tc: TechConstants, cfg: OptConfig, seed: int,
) -> FlowResult:
    budget1 = round(cfg.eval_budget * STAGE_SPLIT[0] / STAGE_SPLIT[1])
    budget2 = cfg.eval_budget - budget1

    stage1 = vco_stage_problem(space, corners, constraints, tc)
    cfg1 = replace(
        cfg, eval_budget=budget1, seed=seed,
        init_samples=stage_init_samples(stage1.space.dim, budget1),
    )
    res1 = run(stage1, cfg1)
    vco_point = res1.incumbent.point

    mid = repair(space, 0.5 * (space.lowers() + space.uppers()))
    frozen = _embed(space, mid, VCO_VARIABLES, vco_point)

    stage2 = ldo_stage_problem(space, corners, constraints, tc, frozen)
    cfg2 = replace(
        cfg, eval_budget=budget2, seed=seed + 1,
        init_samples=stage_init_samples(stage2.space.dim, budget2),
    )
    res2 = run(stage2, cfg2)
    final = _embed(space, frozen, LDO_VARIABLES, res2.incumbent.point)

    nominal, worst, violation = _rescore(space, corners, constraints, tc, final)
    log_rows = [dict(r, stage=1) for r in res1.log_rows] + [
        dict(r, stage=2) for r in res2.log_rows
    ]
    return FlowResult(
        flow="sequential", seed=seed, final_point=final,
        coupled_nominal=nominal, coupled_worst=worst, violation=violation,
        evals_used=res1.evals_used + res2.evals_used, log_rows=log_rows,
        vco_point=vco_point,
    )


@dataclass(frozen=True)
class ComparisonReport:
    rows: list[dict]
    win_rate: float  # co-design wins by coupled worst-case FoM, ties 0.5
    median_fom_delta: float  # co-design minus sequential, dB
    median_pdyn_delta_pct: float  # nominal power saved by co-design, percent

    @property
    def n_seeds(self) -> int:
        return len(self.rows)


def _pair_row(seed: int, co: FlowResult, seq: FlowResult) -> dict:
    fom_delta = co.coupled_worst.fom - seq.coupled_worst.fom
    pdyn_delta_pct = (
        (seq.coupled_nominal.pdyn - co.coupled_nominal.pdyn)
        / seq.coupled_nominal.pdyn * 100.0
    )
    # wins use the same feasibility-first order that ranks designs everywhere
    # else; a constraint-violating design does not outrank a compliant one on
    # raw FoM alone. Ties split 0.5/0.5.
    outcome = compare_designs(
        (co.coupled_worst.fom, co.violation), (seq.coupled_worst.fom, seq.violation)
    )
    win = 0.5 if outcome == 0 else (1.0 if outcome > 0 else 0.0)
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
    flow, seed, space, corners, constraints, tc, cfg = args
    runner = run_codesign if flow == "codesign" else run_sequential
    return flow, seed, runner(space, corners, constraints, tc, cfg, seed)


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
    cfg = replace(cfg, no_improve_limit=max(cfg.no_improve_limit, cfg.eval_budget))
    tasks = [
        (flow, seed, space, corners, constraints, tc, cfg)
        for seed in seeds
        for flow in ("codesign", "sequential")
    ]
    results: dict[tuple[str, int], FlowResult] = {}
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for flow, seed, res in pool.map(_compare_task, tasks):
                results[(flow, seed)] = res
    else:
        for task in tasks:
            flow, seed, res = _compare_task(task)
            results[(flow, seed)] = res

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
