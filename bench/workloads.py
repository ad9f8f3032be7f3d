"""The benchmark's workloads, built from the bench seed, and the checks on
their outputs.

Each workload is a list of operations: calls of the package's public entry
points, made one at a time from this process. An operation returns an
Outcome; the checks run after the timed call and after any spans are
removed, so they neither create spans nor count towards run time.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

from spans import clock

WORKLOADS = ("codesign", "sequential", "screen")


@dataclass(frozen=True)
class Sizes:
    # True (all-corner) evaluations per flow run; stagnation stops are off,
    # so every flow run spends exactly this many (co-design: 100 LHS
    # designs, then 100 optimizer steps).
    flow_budget: int = 200
    # Flow runs per bench seed. Two runs make a pass of about 8 s on the
    # 2-core x86_64 VM the benchmark was tuned on, so a 30 s run holds three
    # passes and each step latency is a median of three.
    panel: int = 2
    # LHS designs on the 43-variable coupled problem (about 60% fail headroom
    # at the first corner) and on the 17-variable ideal-supply problem, in
    # init_db batches of screen_batch designs, each batch on its own LHS
    # seed. With these sizes the median design latency falls inside the
    # ideal-supply cluster and the 95th percentile inside the successful
    # coupled cluster, away from the gaps between them; one pass takes a few
    # seconds, so a run holds enough passes for medians.
    screen_coupled: int = 800
    screen_vco: int = 600
    screen_batch: int = 200
    screen_checked: int = 4  # records per batch recomputed corner by corner


def program_seeds(seed: int, panel: int) -> list[int]:
    """Optimizer seeds of one bench seed; distinct bench seeds never share one."""
    return [seed * panel + i for i in range(panel)]


@dataclass
class Outcome:
    label: str
    run_s: float
    kind: str  # "flow" or "screen"
    result: object  # FlowResult, or (problem, Database) for a screen batch
    budget: int


@dataclass
class Checked:
    """What the checks and the determinism digest read from one outcome."""

    records: int
    eval_failures: int
    objective: float  # coupled worst-case FoM of the final / best design
    violation: float
    steps: int
    improved_steps: int
    nonfinite_feasible: int
    digest: str
    errors: list[str] = field(default_factory=list)


def flow_ops(setup, flow: str, seed: int, sizes: Sizes):
    from ldovco import flows
    from ldovco.optimizer import OptConfig

    def op(s: int):
        cfg = OptConfig(eval_budget=sizes.flow_budget, seed=s, no_improve_limit=sizes.flow_budget)
        # looked up at call time, so the traced run sees its wrapper
        runner = getattr(flows, f"run_{flow}")
        t0 = clock()
        result = runner(setup.space, setup.corners, setup.constraints, setup.tc, cfg, s)
        return Outcome(f"{flow}_seed{s}", clock() - t0, "flow", result, sizes.flow_budget)

    return [lambda s=s: op(s) for s in program_seeds(seed, sizes.panel)]


def batches(sizes: Sizes) -> list[tuple[str, int]]:
    """(problem, designs) of each screen batch: coupled ones, then ideal-supply."""
    out = []
    for label, n in (("coupled", sizes.screen_coupled), ("vco", sizes.screen_vco)):
        out += [(label, min(sizes.screen_batch, n - k)) for k in range(0, n, sizes.screen_batch)]
    return out


def lhs_seeds(seed: int, sizes: Sizes) -> list[int]:
    """LHS seed of each screen batch; distinct bench seeds never share one."""
    return program_seeds(seed, len(batches(sizes)))


def screen_ops(setup, seed: int, sizes: Sizes):
    from ldovco import flows, optimizer
    from ldovco.optimizer import OptConfig

    problems = {
        "coupled": setup.coupled,
        "vco": flows.vco_stage_problem(setup.space, setup.corners, setup.constraints, setup.tc),
    }

    def op(label: str, n: int, s: int):
        cfg = OptConfig(eval_budget=n + 1, seed=s, init_samples=n)
        problem = problems[label]
        t0 = clock()
        db = optimizer.init_db(problem, cfg)
        return Outcome(f"screen_{label}_seed{s}", clock() - t0, "screen", (problem, db), n)

    return [
        lambda label=label, n=n, s=s: op(label, n, s)
        for (label, n), s in zip(batches(sizes), lhs_seeds(seed, sizes))
    ]


def make_ops(workload: str, setup, seed: int, sizes: Sizes):
    if workload == "screen":
        return screen_ops(setup, seed, sizes)
    return flow_ops(setup, workload, seed, sizes)


def _fmt_csv(header: list[str], rows: list[dict]) -> str:
    """Rows as the package writes run_log.csv."""
    from ldovco import cli

    csv = getattr(cli, "_csv", None)
    if csv is not None:
        return csv(header, rows)
    lines = [",".join(header)] + [",".join(repr(r.get(h, "")) for h in header) for r in rows]
    return "\n".join(lines) + "\n"


def _digest(header: list[str], rows: list[dict]) -> str:
    return hashlib.sha256(_fmt_csv(header, rows).encode()).hexdigest()


def _nonfinite_feasible(rows: list[dict], metric_names, label: str, errors: list[str]) -> int:
    """Rows ranked feasible although a worst-case metric is NaN or inf; each
    one is reported, and the operation counts as failed."""
    count = sum(
        1 for r in rows
        if r["violation"] == 0.0 and not all(math.isfinite(r[f"worst_{m}"]) for m in metric_names)
    )
    if count:
        errors.append(f"{label}: {count} records rank feasible with a non-finite metric")
    return count


def check_flow(setup, out: Outcome) -> Checked:
    from ldovco.behavior import evaluate
    from ldovco.optimizer import RUN_LOG_HEADER
    from ldovco.problem import METRIC_NAMES, violation, worst_case

    res, errors = out.result, []
    rows = res.log_rows
    # independent re-evaluation of the final design on every corner
    per_corner = [evaluate(setup.space, res.final_point, c, "coupled", setup.tc) for c in setup.corners]
    worst = worst_case(per_corner)
    if worst != res.coupled_worst:
        errors.append(f"{out.label}: coupled worst case differs on re-evaluation")
    if per_corner[0] != res.coupled_nominal:
        errors.append(f"{out.label}: nominal metrics differ on re-evaluation")
    if violation(worst, setup.constraints) != res.violation:
        errors.append(f"{out.label}: violation differs on re-evaluation")
    if not res.evals_used == out.budget == len(rows):
        errors.append(
            f"{out.label}: evals_used {res.evals_used}, budget {out.budget}, log rows {len(rows)}"
        )

    steps = improved = 0
    for prev, row in zip(rows, rows[1:]):
        if row["origin"] == "de":
            steps += 1
            improved += (row["incumbent_objective"], row["incumbent_violation"]) != (
                prev["incumbent_objective"], prev["incumbent_violation"]
            )
    header = list(RUN_LOG_HEADER) + (["stage"] if res.flow == "sequential" else [])
    return Checked(
        records=len(rows),
        eval_failures=sum(1 for r in rows if math.isnan(r["worst_fom"])),
        objective=res.coupled_worst.fom,
        violation=res.violation,
        steps=steps,
        improved_steps=improved,
        nonfinite_feasible=_nonfinite_feasible(rows, METRIC_NAMES, out.label, errors),
        digest=_digest(header, rows),
        errors=errors,
    )


def check_screen(sizes: Sizes, out: Outcome) -> Checked:
    from ldovco.behavior import EvaluationFailure
    from ldovco.problem import METRIC_NAMES, compare_designs

    problem, db = out.result
    recs, errors = db.records, []
    if len(recs) != out.budget:
        errors.append(f"{out.label}: {len(recs)} records for {out.budget} designs")
    stride = max(1, len(recs) // sizes.screen_checked)
    for rec in recs[::stride][: sizes.screen_checked]:
        try:
            again = tuple(problem.evaluator(rec.point, c) for c in problem.corners)
            failure = None
        except EvaluationFailure as exc:
            again, failure = (), exc.quantity
        if failure != rec.failure or again != rec.per_corner:
            errors.append(f"{out.label}: record {rec.eval_index} differs when recomputed per corner")

    rows = [
        {
            "eval_index": r.eval_index, "origin": r.origin, "failure": r.failure or "",
            "objective": r.objective, "violation": r.violation,
            **{f"worst_{m}": getattr(r.worst, m) if r.worst else math.nan for m in METRIC_NAMES},
        }
        for r in recs
    ]
    header = ["eval_index", "origin", "failure", "objective", "violation"] + [
        f"worst_{m}" for m in METRIC_NAMES
    ]
    best = recs[0]
    for r in recs[1:]:
        if compare_designs((r.objective, r.violation), (best.objective, best.violation)) > 0:
            best = r
    return Checked(
        records=len(recs),
        eval_failures=sum(1 for r in recs if r.failure is not None),
        objective=best.objective,
        violation=best.violation,
        steps=0,
        improved_steps=0,
        nonfinite_feasible=_nonfinite_feasible(rows, METRIC_NAMES, out.label, errors),
        digest=_digest(header, rows),
        errors=errors,
    )


def check(setup, sizes: Sizes, out: Outcome) -> Checked:
    return check_flow(setup, out) if out.kind == "flow" else check_screen(sizes, out)
