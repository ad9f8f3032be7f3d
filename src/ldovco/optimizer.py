"""Surrogate-assisted constrained optimization loop: LHS-initialized
database, feasibility-first parent ranking, differential-evolution child
generation, conservative surrogate prescreening, and exactly one true
(all-corners) evaluation per iteration."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .problem import (
    METRIC_NAMES, WORST_BY_MIN, EvaluationFailure, Outcome, PerfMetrics, SizingProblem,
    rank_key, worst_case,
)
from .space import DesignPoint, repair, sample_initial
from .surrogate import MIN_TRAIN_ROWS, EnsembleModel, MlpConfig, fit, predict_conservative, update

_WORST_COLUMNS = [f"worst_{name}" for name in METRIC_NAMES]
RUN_LOG_HEADER = [
    "eval_index",
    "origin",
    "objective",
    "violation",
    "incumbent_objective",
    "incumbent_violation",
] + _WORST_COLUMNS


@dataclass(frozen=True)
class OptConfig:
    eval_budget: int
    seed: int
    init_samples: int | None = None  # None -> max(80, 4 * dim), at most half the budget
    no_improve_limit: int = 100

    def __post_init__(self):
        if self.seed < 0:  # SeedSequence takes non-negative entropy only
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.init_samples is not None and self.init_samples < 2:  # LHS needs two rows
            raise ValueError(f"init_samples must be at least 2, got {self.init_samples}")
        if self.no_improve_limit < 1:
            # the stop check runs before the first step, so such a run never steps
            raise ValueError(f"no_improve_limit must be positive, got {self.no_improve_limit}")

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


# The surrogate's two training budgets: the cold fit's full run, paid once,
# and the epochs of each per-iteration refit, which warm-starts from the
# previous model.
COLD_FIT = MlpConfig(epochs=300, patience=50)
REFIT_EPOCHS = 60

# Each step's differential evolution, current-to-best/1 with binomial
# crossover (Storn & Price 1997), and the prescreen's β-quantile.
PARENTS = 20
CHILDREN = 50
DE_F = 0.8
DE_CR = 0.8
BETA = 0.7


@dataclass(frozen=True)
class TrialRecord:
    point: DesignPoint
    table: np.ndarray | None  # corner x metric table; None on failure
    worst: PerfMetrics | None
    violation: float
    eval_index: int
    origin: str  # "initial" or "de"
    failure: str | None = None

    @property
    def objective(self) -> float:
        """The worst case's fom; -inf for a failed evaluation."""
        return -math.inf if self.worst is None else self.worst.fom

    @property
    def per_corner(self) -> tuple[PerfMetrics, ...]:
        """The table's rows as PerfMetrics, built on access."""
        return () if self.table is None else tuple(map(PerfMetrics._make, self.table.tolist()))


_FOM = METRIC_NAMES.index("fom")
_NO_METRICS = (math.nan,) * len(METRIC_NAMES)  # a failed record's worst_* log columns

# The prescreen's quantile side per metric: the lower quantile where a lower
# value is worse (the objective included), the upper one elsewhere.
PRESCREEN_SENSES = np.where(WORST_BY_MIN, -1.0, 1.0)


def _rank(rec: TrialRecord) -> tuple[int, float]:
    return rank_key(rec.objective, rec.violation)


@dataclass
class Database:
    """A run's true evaluations in order, the incumbent index after each, the
    raw bytes of every evaluated point and the surrogate training rows of the
    successful ones; `insert` is their only writer."""

    records: list[TrialRecord] = field(default_factory=list)
    incumbents: list[int] = field(default_factory=list)
    seen: set[bytes] = field(default_factory=set)
    train_x: list[np.ndarray] = field(default_factory=list)
    train_y: list[np.ndarray] = field(default_factory=list)

    @property
    def incumbent_index(self) -> int:
        return self.incumbents[-1]

    @property
    def incumbent(self) -> TrialRecord:
        return self.records[self.incumbent_index]

    def insert(self, rec: TrialRecord) -> None:
        """Record one evaluation."""
        changed = not self.records or _rank(rec) < _rank(self.incumbent)
        self.records.append(rec)
        self.incumbents.append(len(self.records) - 1 if changed else self.incumbent_index)
        point = np.asarray(rec.point, dtype=float)
        self.seen.add(point.tobytes())
        if rec.worst is not None:  # a failed evaluation trains nothing
            self.train_x.append(point)
            self.train_y.append(np.array(rec.worst))

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
    point: DesignPoint, outcome: Outcome, worst: PerfMetrics | None, violation: float,
    eval_index: int, origin: str,
) -> TrialRecord:
    """The record of one true evaluation over all corners: its outcome, its
    worst case and that row's violation. A failure (no worst case, infinite
    violation) yields an infeasible record instead of aborting the run."""
    failed = isinstance(outcome, EvaluationFailure)
    return TrialRecord(
        point=point, table=None if failed else outcome, worst=worst, violation=violation,
        eval_index=eval_index, origin=origin, failure=outcome.quantity if failed else None,
    )


def _evaluate_into(
    db: Database, problem: SizingProblem, points: np.ndarray, origin: str
) -> Database:
    """Evaluate an (n, dim) batch of points over all corners and record each
    in batch order: one evaluator call, one worst case per table and one
    violation call on the stacked worst rows. Returns the database."""
    outcomes = problem.evaluate_batch(points, problem.corners)
    worst = [worst_case(o) for o in outcomes if not isinstance(o, EvaluationFailure)]
    violations = problem.violation(np.reshape(worst, (len(worst), len(METRIC_NAMES))))
    scores = iter(zip(worst, violations.tolist()))
    for point, outcome in zip(points, outcomes):
        row, vio = (None, math.inf) if isinstance(outcome, EvaluationFailure) else next(scores)
        db.insert(evaluate_record(point, outcome, row, vio, len(db.records), origin))
    return db


def init_db(problem: SizingProblem, cfg: OptConfig) -> Database:
    """Evaluate an LHS sample of the space in one batch and seed the
    database in sample order."""
    n = cfg.resolve_init_samples(problem.space.dim)
    points = sample_initial(problem.space, n, cfg.seed)
    return _evaluate_into(Database(), problem, points, "initial")


def de_generate(
    parents: list[DesignPoint], best: DesignPoint, rng: np.random.Generator
) -> np.ndarray:
    """current-to-best/1 mutation with scale factor DE_F and binomial
    crossover at rate DE_CR; returns the raw (CHILDREN, dim) batch of
    children (pass it through repair before evaluating). Each child draws
    its parents, crossover mask and guaranteed gene in turn, so the random
    stream is the same as breeding them one at a time."""
    if len(parents) < 4:
        raise ValueError("need at least 4 distinct parents")
    pool = np.asarray(parents, dtype=float)
    n, d = CHILDREN, pool.shape[1]
    picks = np.empty((n, 3), dtype=np.intp)
    u = np.empty((n, d))
    gene = np.empty(n, dtype=np.intp)
    for j in range(n):
        picks[j] = rng.choice(len(parents), size=3, replace=False)
        u[j] = rng.uniform(size=d)
        gene[j] = rng.integers(d)
    x_i, x_r1, x_r2 = pool[picks[:, 0]], pool[picks[:, 1]], pool[picks[:, 2]]
    mutant = x_i + DE_F * (best - x_i) + DE_F * (x_r1 - x_r2)
    cross = u < DE_CR
    cross[np.arange(n), gene] = True  # at least one mutant gene
    return np.where(cross, mutant, x_i)


def fit_surrogate(
    x_rows: list[np.ndarray], y_rows: list[np.ndarray], seed: int,
    prev: EnsembleModel | None = None,
) -> EnsembleModel | None:
    """Refit on every successfully evaluated record in the database: the
    COLD_FIT run the first time, REFIT_EPOCHS of warm-started continuation
    afterwards. None while there are not yet enough records to train on."""
    if len(x_rows) < MIN_TRAIN_ROWS:
        return None
    x = np.array(x_rows)
    y = np.array(y_rows)
    if prev is None:
        return fit(x, y, COLD_FIT, seed)
    return update(prev, x, y, REFIT_EPOCHS, seed)


def select_candidate(
    children: np.ndarray, model: EnsembleModel | None, problem: SizingProblem, seen: set[bytes],
) -> DesignPoint:
    """Score the (n, dim) batch of children with the surrogate ensemble's
    BETA quantile on each metric's worse side and return a copy of the one
    the feasibility-first ranking likes best (ties to the lowest index).
    With no model yet, the first child stands in.

    Children identical to an already-evaluated point carry no information, so
    the best not-yet-seen child wins when there is one (`seen` holds the raw
    bytes of evaluated points)."""
    children = np.asarray(children, dtype=float)
    if len(children) == 0:
        raise ValueError("select_candidate needs at least one child")
    if model is None:
        return children[0].copy()
    preds = predict_conservative(model, children, BETA, senses=PRESCREEN_SENSES)
    keys = list(map(rank_key, preds[:, _FOM].tolist(), problem.violation(preds).tolist()))
    order = sorted(range(len(children)), key=keys.__getitem__)
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

    @property
    def evals_used(self) -> int:
        return len(self.db.records)

    @property
    def incumbent(self) -> TrialRecord:
        return self.db.incumbent

    @property
    def log_rows(self) -> list[dict]:
        """One row per record, with the incumbent as it stood when the
        record landed."""
        db = self.db
        return [
            {
                "eval_index": rec.eval_index,
                "origin": rec.origin,
                "objective": rec.objective,
                "violation": rec.violation,
                "incumbent_objective": db.records[best].objective,
                "incumbent_violation": db.records[best].violation,
                **dict(zip(_WORST_COLUMNS, rec.worst or _NO_METRICS)),
            }
            for rec, best in zip(db.records, db.incumbents)
        ]


def start(problem: SizingProblem, cfg: OptConfig) -> RunState:
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 1]))
    return RunState(problem=problem, cfg=cfg, db=init_db(problem, cfg), rng=rng)


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
    parents = db.top_distinct_points(PARENTS)
    best = db.incumbent.point
    while len(parents) < 4:  # tiny databases: pad with the incumbent
        parents.append(best)

    children = repair(problem.space, de_generate(parents, best, state.rng))
    fit_seed = int(np.random.SeedSequence([cfg.seed, 2, state.evals_used]).generate_state(1)[0])
    state.model = fit_surrogate(db.train_x, db.train_y, fit_seed, prev=state.model)
    chosen = select_candidate(children, state.model, problem, seen=db.seen)

    before = db.incumbent
    _evaluate_into(db, problem, chosen[None], "de")  # a batch of one
    after = db.incumbent
    improved = (after.objective > before.objective + 1e-6) or (
        after.violation < before.violation
    )
    state.stagnant_steps = 0 if improved else state.stagnant_steps + 1
    return check_stop(state)


def run(problem: SizingProblem, cfg: OptConfig) -> RunState:
    """Full optimization run; deterministic for a given (problem, cfg)."""
    state = start(problem, cfg)
    stopped = check_stop(state)
    while not stopped:
        stopped = step(state)
    return state
