"""Surrogate-assisted constrained optimization loop: LHS-initialized
database, feasibility-first parent ranking, differential-evolution child
generation, conservative surrogate prescreening, and exactly one true
(all-corners) evaluation per iteration."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .behavior import EvaluationFailure
from .problem import METRIC_NAMES, WORST_BY_MIN, PerfMetrics, SizingProblem, rank_key, worst_case
from .space import DesignPoint, repair, sample_initial
from .surrogate import EnsembleModel, MlpConfig, fit, predict_conservative, update

RUN_LOG_HEADER = [
    "eval_index",
    "origin",
    "objective",
    "violation",
    "incumbent_objective",
    "incumbent_violation",
] + [f"worst_{name}" for name in METRIC_NAMES]


@dataclass(frozen=True)
class OptConfig:
    eval_budget: int
    seed: int
    lambda_parents: int = 20
    children_per_iter: int = 50
    de_f: float = 0.8
    de_cr: float = 0.8
    init_samples: int | None = None  # None -> max(80, 4 * dim), at most half the budget
    no_improve_limit: int = 100
    beta: float = 0.7
    refit_epochs: int = 60  # warm-start training budget per iteration

    def __post_init__(self):
        if self.lambda_parents < 4:
            raise ValueError("differential evolution needs at least 4 parents")
        if self.children_per_iter < 1:
            raise ValueError("children_per_iter must be positive")

    def resolve_init_samples(self, dim: int) -> int:
        if self.init_samples is None:
            # 4x-dimension rule, floored at 80, but leave at least half the
            # budget for the optimization loop
            n = min(max(80, 4 * dim), max(2, self.eval_budget // 2))
        else:
            n = self.init_samples
        if self.eval_budget <= n:
            raise ValueError(
                f"eval_budget {self.eval_budget} must exceed init_samples {n}"
            )
        return n

    def resolve_surrogate(self, dim: int) -> MlpConfig:
        # per-iteration refits warm-start from the previous model, so the
        # full-length training defaults are only paid once
        return MlpConfig(
            hidden_width=min(max(10, 2 * dim), 32), epochs=300, patience=50
        )


@dataclass(frozen=True)
class TrialRecord:
    point: DesignPoint
    table: np.ndarray | None  # corner x metric table; None on failure
    worst: PerfMetrics | None
    violation: float
    objective: float
    eval_index: int
    origin: str  # "initial" or "de"
    failure: str | None = None

    @property
    def per_corner(self) -> tuple[PerfMetrics, ...]:
        """The table's rows as PerfMetrics, built on access."""
        return () if self.table is None else tuple(map(PerfMetrics.from_row, self.table))


_FOM = METRIC_NAMES.index("fom")

# The prescreen's quantile side per metric: the lower quantile where a lower
# value is worse (the objective included), the upper one elsewhere.
PRESCREEN_SENSES = np.where(WORST_BY_MIN, -1.0, 1.0)


def _rank(rec: TrialRecord) -> tuple[int, float]:
    return rank_key(rec.objective, rec.violation)


@dataclass
class Database:
    records: list[TrialRecord] = field(default_factory=list)
    incumbent_index: int = 0

    @property
    def incumbent(self) -> TrialRecord:
        return self.records[self.incumbent_index]

    def insert(self, rec: TrialRecord) -> bool:
        """Append and update the incumbent; returns True if it changed."""
        self.records.append(rec)
        if len(self.records) == 1 or _rank(rec) < _rank(self.incumbent):
            self.incumbent_index = len(self.records) - 1
            return True
        return False

    def top_distinct_points(self, count: int) -> list[DesignPoint]:
        """Best `count` distinct designs (re-evaluations of one point count
        once, ties go oldest-first); DE parent diversity depends on
        distinctness."""
        out: list[DesignPoint] = []
        taken: set[bytes] = set()
        for rec in sorted(self.records, key=_rank):
            key = np.asarray(rec.point).tobytes()
            if key in taken:
                continue
            taken.add(key)
            out.append(rec.point)
            if len(out) == count:
                break
        return out


def evaluate_record(
    problem: SizingProblem, point: DesignPoint, eval_index: int, origin: str
) -> TrialRecord:
    """One true evaluation over all corners; evaluator failures yield an
    infeasible record with maximal violation instead of aborting the run."""
    try:
        table = problem.evaluate_all(point)
        worst = worst_case(table)
        return TrialRecord(
            point=point, table=table, worst=worst,
            violation=problem.violation(worst), objective=problem.objective(worst),
            eval_index=eval_index, origin=origin,
        )
    except EvaluationFailure as exc:
        return TrialRecord(
            point=point, table=None, worst=None,
            violation=math.inf, objective=-math.inf,
            eval_index=eval_index, origin=origin, failure=exc.quantity,
        )


def init_db(problem: SizingProblem, cfg: OptConfig) -> Database:
    """Evaluate an LHS sample of the space and seed the database in sample
    order."""
    n = cfg.resolve_init_samples(problem.space.dim)
    db = Database()
    for i, point in enumerate(sample_initial(problem.space, n, cfg.seed)):
        db.insert(evaluate_record(problem, point, i, "initial"))
    return db


def de_generate(
    parents: list[DesignPoint], best: DesignPoint, cfg: OptConfig, rng: np.random.Generator
) -> np.ndarray:
    """current-to-best/1 mutation with binomial crossover; returns the raw
    (children_per_iter, dim) batch of children (pass it through repair
    before evaluating). Each child draws its parents, crossover mask and
    guaranteed gene in turn, so the random stream is the same as breeding
    them one at a time."""
    if len(parents) < 4:
        raise ValueError("need at least 4 distinct parents")
    pool = np.asarray(parents, dtype=float)
    n, d = cfg.children_per_iter, pool.shape[1]
    picks = np.empty((n, 3), dtype=np.intp)
    u = np.empty((n, d))
    gene = np.empty(n, dtype=np.intp)
    for j in range(n):
        picks[j] = rng.choice(len(parents), size=3, replace=False)
        u[j] = rng.uniform(size=d)
        gene[j] = rng.integers(d)
    x_i, x_r1, x_r2 = pool[picks[:, 0]], pool[picks[:, 1]], pool[picks[:, 2]]
    mutant = x_i + cfg.de_f * (best - x_i) + cfg.de_f * (x_r1 - x_r2)
    cross = u < cfg.de_cr
    cross[np.arange(n), gene] = True  # at least one mutant gene
    return np.where(cross, mutant, x_i)


def training_row(rec: TrialRecord) -> np.ndarray | None:
    """Surrogate target vector for a record; None for failed evaluations."""
    return None if rec.worst is None else np.array([getattr(rec.worst, n) for n in METRIC_NAMES])


def fit_surrogate(
    x_rows: list[np.ndarray], y_rows: list[np.ndarray], cfg: OptConfig, dim: int,
    seed: int, prev: EnsembleModel | None = None,
) -> EnsembleModel | None:
    """Refit on every successfully evaluated record in the database: a full
    training run the first time, warm-started continuation afterwards. None
    while there are not yet enough records to train on."""
    if len(x_rows) < 10:
        return None
    x = np.array(x_rows)
    y = np.array(y_rows)
    if prev is None:
        return fit(x, y, cfg.resolve_surrogate(dim), seed)
    return update(prev, x, y, cfg.refit_epochs, seed)


def select_candidate(
    children: np.ndarray,
    model: EnsembleModel | None,
    problem: SizingProblem,
    cfg: OptConfig,
    seen: set[bytes] | None = None,
) -> DesignPoint:
    """Score the (n, dim) batch of children with the conservative surrogate
    and return a copy of the one the feasibility-first ranking likes best
    (ties to the lowest index). With no model yet, the first child stands in.

    Children identical to an already-evaluated point carry no information, so
    the best not-yet-seen child wins when there is one (`seen` holds the raw
    bytes of evaluated points)."""
    children = np.asarray(children, dtype=float)
    if len(children) == 0:
        raise ValueError("select_candidate needs at least one child")
    if model is None:
        return children[0].copy()
    preds = predict_conservative(model, children, cfg.beta, senses=PRESCREEN_SENSES)
    keys = list(map(rank_key, preds[:, _FOM].tolist(), problem.violation(preds).tolist()))
    order = sorted(range(len(children)), key=keys.__getitem__)
    if seen:
        for idx in order:
            if children[idx].tobytes() not in seen:
                return children[idx].copy()
    return children[order[0]].copy()


@dataclass
class RunState:
    problem: SizingProblem
    cfg: OptConfig
    db: Database
    rng: np.random.Generator
    model: EnsembleModel | None = None
    stagnant_steps: int = 0
    stop_reason: str | None = None
    train_x: list[np.ndarray] = field(default_factory=list)
    train_y: list[np.ndarray] = field(default_factory=list)
    seen: set[bytes] = field(default_factory=set)

    @property
    def evals_used(self) -> int:
        return len(self.db.records)

    def absorb(self, rec: TrialRecord) -> None:
        self.seen.add(np.asarray(rec.point, dtype=float).tobytes())
        row = training_row(rec)
        if row is not None:
            self.train_x.append(np.asarray(rec.point, dtype=float))
            self.train_y.append(row)


def start(problem: SizingProblem, cfg: OptConfig) -> RunState:
    db = init_db(problem, cfg)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 1]))
    state = RunState(problem=problem, cfg=cfg, db=db, rng=rng)
    for rec in db.records:
        state.absorb(rec)
    return state


def check_stop(state: RunState) -> bool:
    if state.evals_used >= state.cfg.eval_budget:
        state.stop_reason = "budget"
        return True
    if state.stagnant_steps >= state.cfg.no_improve_limit:
        state.stop_reason = "stagnation"
        return True
    return False


def step(state: RunState) -> bool:
    """One loop iteration: rank parents, breed children, prescreen, perform
    exactly one true evaluation, update the database. Returns the stop flag."""
    cfg, db, problem = state.cfg, state.db, state.problem
    parents = db.top_distinct_points(cfg.lambda_parents)
    best = db.incumbent.point
    while len(parents) < 4:  # tiny databases: pad with the incumbent
        parents.append(best)

    children = repair(problem.space, de_generate(parents, best, cfg, state.rng))
    fit_seed = int(np.random.SeedSequence([cfg.seed, 2, state.evals_used]).generate_state(1)[0])
    state.model = fit_surrogate(
        state.train_x, state.train_y, cfg, problem.space.dim, fit_seed, prev=state.model
    )
    chosen = select_candidate(children, state.model, problem, cfg, seen=state.seen)

    before = db.incumbent
    rec = evaluate_record(problem, chosen, state.evals_used, "de")
    db.insert(rec)
    state.absorb(rec)
    after = db.incumbent
    improved = (after.objective > before.objective + 1e-6) or (
        after.violation < before.violation
    )
    state.stagnant_steps = 0 if improved else state.stagnant_steps + 1
    return check_stop(state)


@dataclass
class RunResult:
    db: Database
    log_rows: list[dict]
    stop_reason: str
    evals_used: int

    @property
    def incumbent(self) -> TrialRecord:
        return self.db.incumbent


def _log_rows(records: list[TrialRecord]) -> list[dict]:
    """One row per record, with the incumbent as it stood when the record
    landed (the order `Database.insert` keeps)."""
    rows = []
    best = records[0]
    for rec in records:
        if _rank(rec) < _rank(best):
            best = rec
        row = {
            "eval_index": rec.eval_index,
            "origin": rec.origin,
            "objective": rec.objective,
            "violation": rec.violation,
            "incumbent_objective": best.objective,
            "incumbent_violation": best.violation,
        }
        for name in METRIC_NAMES:
            row[f"worst_{name}"] = getattr(rec.worst, name) if rec.worst else math.nan
        rows.append(row)
    return rows


def run(problem: SizingProblem, cfg: OptConfig) -> RunResult:
    """Full optimization run; deterministic for a given (problem, cfg)."""
    state = start(problem, cfg)
    while not check_stop(state):
        step(state)
    return RunResult(state.db, _log_rows(state.db.records), state.stop_reason, state.evals_used)
