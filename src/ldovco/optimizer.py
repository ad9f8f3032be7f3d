"""Surrogate-assisted constrained optimization loop: LHS-initialized
database, feasibility-first parent ranking, differential-evolution child
generation, conservative surrogate prescreening, and exactly one true
(all-corners) evaluation per iteration."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .problem import (
    METRIC_NAMES, WORST_BY_MIN, BatchResult, PerfMetrics, SizingProblem, rank_order, worst_case,
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


def _field(name: str, convert=lambda value: value, doc: str | None = None) -> property:
    return property(lambda rec: convert(rec._columns[name][rec.eval_index]), doc=doc)


class TrialRecord:
    """One true evaluation: a view of its row of a database's columns and
    table stacks (which hold no reference back to it, so a run's database
    is freed as soon as it is dropped)."""

    __slots__ = ("_columns", "_stacks", "eval_index")

    def __init__(self, columns: dict[str, np.ndarray], stacks: list[np.ndarray], eval_index: int):
        self._columns, self._stacks, self.eval_index = columns, stacks, eval_index

    point = _field("points")
    violation = _field("violation", float)
    objective = _field("objective", float, "The worst case's fom; -inf for a failed evaluation.")
    origin = _field("origin", doc='"initial" or "de"')
    failure = _field("failure", doc="The quantity the evaluation failed at; None on success.")

    @property
    def table(self) -> np.ndarray | None:
        """The corner x metric table; None on failure."""
        row = self._columns["stack_row"][self.eval_index]
        return None if row < 0 else self._stacks[self._columns["stack"][self.eval_index]][row]

    @property
    def worst(self) -> PerfMetrics | None:
        """The worst case over the corners; None on failure."""
        if self.failure is not None:
            return None
        return PerfMetrics._make(self._columns["worst"][self.eval_index].tolist())

    @property
    def per_corner(self) -> tuple[PerfMetrics, ...]:
        """The table's rows as PerfMetrics, built on access."""
        table = self.table
        return () if table is None else tuple(map(PerfMetrics._make, table.tolist()))


_FOM = METRIC_NAMES.index("fom")

# The prescreen's quantile side per metric: the lower quantile where a lower
# value is worse (the objective included), the upper one elsewhere.
PRESCREEN_SENSES = np.where(WORST_BY_MIN, -1.0, 1.0)


def _row_bytes(points: np.ndarray) -> np.ndarray:
    """Each row of an (n, dim) array as one raw-bytes scalar, so that
    equality is byte equality, as with tobytes()."""
    rows = np.ascontiguousarray(points)
    return rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1])))[:, 0]


def _column(name: str, doc: str) -> property:
    return property(lambda db: db._columns[name], doc=doc)


class Database:
    """A run's true evaluations as columns in evaluation order, filled one
    evaluated batch at a time by `add`. `records` holds a TrialRecord view
    of each row, `seen` the raw bytes of every evaluated point, and the
    training rows are the successful rows' points and worst cases."""

    points = _column("points", "(rows, dim) evaluated points")
    worst = _column("worst", "(rows, metrics) worst cases; NaN rows for failures")
    violation = _column("violation", "violation per row; inf for a failure")
    objective = _column("objective", "worst-case fom per row; -inf for a failure")
    origin = _column("origin", '"initial" or "de" per row')
    failure = _column("failure", "the failing quantity per row; None on success")
    failure_corner = _column("failure_corner", "index of the failing corner; -1 on success")
    incumbents = _column("incumbents", "the incumbent's row after each row")

    def __init__(self) -> None:
        self.records: list[TrialRecord] = []
        self._seen: set[bytes] = set()
        self._seen_rows = 0  # the rows that _seen holds
        self._columns: dict[str, np.ndarray] = {}
        self._stacks: list[np.ndarray] = []  # each batch's survivor table stack

    def __len__(self) -> int:
        return len(self._columns.get("points", ()))

    @property
    def incumbent_index(self) -> int:
        return int(self.incumbents[-1])

    @property
    def incumbent(self) -> TrialRecord:
        return self.records[self.incumbent_index]

    @property
    def seen(self) -> set[bytes]:
        """The raw bytes of every evaluated point, brought up to date with
        the rows added since the last read."""
        if self._seen_rows < len(self):
            self._seen.update(_row_bytes(self.points[self._seen_rows:]).tolist())
            self._seen_rows = len(self)
        return self._seen

    @property
    def _succeeded(self) -> np.ndarray:
        return self.failure_corner < 0

    @property
    def train_x(self) -> np.ndarray:
        """The points of the successful evaluations."""
        return self.points[self._succeeded]

    @property
    def train_y(self) -> np.ndarray:
        """The worst cases of the successful evaluations."""
        return self.worst[self._succeeded]

    def add(self, points: np.ndarray, batch: BatchResult, worst: np.ndarray,
            violation: np.ndarray, origin: str) -> range:
        """Record an evaluated (n, dim) batch of points, one concatenation
        per column: its survivors' worst rows and violations, its failure
        columns, and the incumbent after each row, from one scan. Returns
        the rows added."""
        n, survivors = len(points), batch.failure_corner < 0
        new = {
            "points": points,
            "worst": np.full((n, len(METRIC_NAMES)), math.nan),
            "violation": np.full(n, math.inf),
            "objective": np.full(n, -math.inf),
            "origin": np.full(n, origin, dtype=object),
            "failure": batch.failure,
            "failure_corner": batch.failure_corner,
            "stack": np.full(n, len(self._stacks), dtype=np.intp),
            "stack_row": np.full(n, -1, dtype=np.intp),
        }
        new["worst"][survivors] = worst
        new["violation"][survivors] = violation
        new["objective"][survivors] = worst[:, _FOM]
        new["stack_row"][survivors] = np.arange(len(worst))
        new["incumbents"] = self._incumbents_after(new["objective"], new["violation"])
        start = len(self)
        for name, values in new.items():
            self._columns[name] = np.concatenate((self._columns.get(name, values[:0]), values))
        self._stacks.append(batch.tables)
        return range(start, len(self))

    def _incumbents_after(self, objective: np.ndarray, violation: np.ndarray) -> np.ndarray:
        """The incumbent after each of the new rows: the best row so far by
        rank_order, the oldest of exact ties. The current incumbent competes
        as the oldest row, so a tie with it keeps it."""
        rows = np.arange(len(self), len(self) + len(objective))
        if len(self):
            held = self.incumbent_index
            rows = np.concatenate(([held], rows))
            objective = np.concatenate((self.objective[held:held + 1], objective))
            violation = np.concatenate((self.violation[held:held + 1], violation))
        order = rank_order(objective, violation)
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        best = rows[order[np.minimum.accumulate(rank)]]
        return best[1:] if len(self) else best

    def top_distinct_points(self, count: int) -> list[DesignPoint]:
        """Best `count` distinct designs (re-evaluations of one point count
        once, ties go oldest-first); DE parent diversity depends on
        distinctness."""
        ranked = self.points[rank_order(self.objective, self.violation)]
        _, first = np.unique(_row_bytes(ranked), return_index=True)
        return list(ranked[np.sort(first)[:count]])


def evaluate_record(db: Database, index: int) -> TrialRecord:
    """The record of one true evaluation over all corners, row `index` of
    the database, which its batch has filled. A failure (no worst case,
    infinite violation) is an infeasible record instead of an aborted run."""
    return TrialRecord(db._columns, db._stacks, index)


def _evaluate_into(
    db: Database, problem: SizingProblem, points: np.ndarray, origin: str
) -> Database:
    """Evaluate an (n, dim) batch of points over all corners and record it:
    one evaluator call, one worst case over the survivors' table stack, one
    violation call on the worst rows, the database grown by one batch, then
    a record per row in batch order. Returns the database."""
    points = np.asarray(points, dtype=float).reshape(len(points), problem.space.dim)
    batch = problem.evaluate_batch(points, problem.corners)
    worst = worst_case(batch.tables)
    rows = db.add(points, batch, worst, problem.violation(worst), origin)
    db.records.extend(map(evaluate_record, repeat(db, len(rows)), rows))
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
    x: np.ndarray, y: np.ndarray, seed: int, prev: EnsembleModel | None = None,
) -> EnsembleModel | None:
    """Refit on every successfully evaluated record in the database (the
    (rows, dim) points and (rows, metrics) worst cases): the COLD_FIT run
    the first time, REFIT_EPOCHS of warm-started continuation afterwards.
    None while there are not yet enough records to train on."""
    if len(x) < MIN_TRAIN_ROWS:
        return None
    if prev is None:
        return fit(x, y, COLD_FIT, seed)
    return update(prev, x, y, REFIT_EPOCHS, seed)


def select_candidate(
    children: np.ndarray, model: EnsembleModel | None, problem: SizingProblem, seen: set[bytes],
) -> DesignPoint:
    """Score the (n, dim) batch of children with the surrogate ensemble's
    BETA quantile on each metric's worse side and return a copy of the one
    rank_order puts first (ties to the lowest index).
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
    order = rank_order(preds[:, _FOM], problem.violation(preds)).tolist()
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
        return len(self.db)

    @property
    def incumbent(self) -> TrialRecord:
        return self.db.incumbent

    @property
    def log_rows(self) -> list[dict]:
        """One row per record, with the incumbent as it stood when the
        record landed."""
        db = self.db
        best = db.incumbents
        columns = zip(db.origin.tolist(), db.objective.tolist(), db.violation.tolist(),
                      db.objective[best].tolist(), db.violation[best].tolist(), db.worst.tolist())
        return [
            {
                "eval_index": i,
                "origin": origin,
                "objective": objective,
                "violation": violation,
                "incumbent_objective": best_objective,
                "incumbent_violation": best_violation,
                **dict(zip(_WORST_COLUMNS, worst)),
            }
            for i, (origin, objective, violation, best_objective, best_violation, worst)
            in enumerate(columns)
        ]

    def failure_counts(self) -> Counter:
        """The failed evaluations per (quantity, corner label)."""
        db, labels = self.db, [c.label() for c in self.problem.corners]
        failed = db.failure_corner >= 0
        return Counter(zip(db.failure[failed].tolist(),
                           [labels[i] for i in db.failure_corner[failed].tolist()]))


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
