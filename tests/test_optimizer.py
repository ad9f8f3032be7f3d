import math
from dataclasses import replace
from functools import cmp_to_key

import numpy as np
import pytest

from conftest import batch_of, pairwise_reference, tables_result

from ldovco import optimizer
from ldovco.optimizer import (
    COLD_FIT,
    Database,
    OptConfig,
    RUN_LOG_HEADER,
    check_stop,
    de_generate,
    fit_surrogate,
    init_db,
    run,
    select_candidate,
    start,
    step,
)
from ldovco.flows import coupled_problem
from ldovco.problem import METRIC_NAMES, NOMINAL_CORNER, PerfMetrics, compare_designs
from ldovco.space import repair, sample_initial


def cfg_for(problem, budget=60, seed=1, **kw):
    kw.setdefault("init_samples", 20)
    return OptConfig(eval_budget=budget, seed=seed, **kw)


class FakeRng:
    """Scripted stand-in for a Generator: fixed parent indices, no crossover
    randomness, fixed guaranteed-gene position."""

    def __init__(self, indices, gene=0):
        self.indices = np.array(indices)
        self.gene = gene

    def choice(self, n, size, replace):
        return self.indices[:size]

    def uniform(self, size):
        return np.zeros(size)  # always below CR: full mutant

    def integers(self, n):
        return self.gene


def set_de(monkeypatch, children, de_f, de_cr):
    """Breed with these settings in place of the module's constants."""
    monkeypatch.setattr(optimizer, "CHILDREN", children)
    monkeypatch.setattr(optimizer, "DE_F", de_f)
    monkeypatch.setattr(optimizer, "DE_CR", de_cr)


class TestDeGenerate:
    def test_direct_arithmetic_example(self, monkeypatch):
        # x_i=2, best=6, x_r1=3, x_r2=1, F=0.5 -> 2 + 0.5*4 + 0.5*2 = 5
        parents = [np.array([2.0]), np.array([3.0]), np.array([1.0]), np.array([9.0])]
        set_de(monkeypatch, 1, 0.5, 1.0)
        child = de_generate(parents, np.array([6.0]), FakeRng([0, 1, 2]))[0]
        assert child[0] == pytest.approx(5.0)

    def test_zero_f_full_crossover_returns_parent(self, monkeypatch):
        rng = np.random.default_rng(3)
        parents = [rng.uniform(size=4) for _ in range(6)]
        set_de(monkeypatch, 1, 0.0, 1.0)
        for _ in range(10):
            child = de_generate(parents, rng.uniform(size=4), rng)[0]
            assert any(np.allclose(child, p) for p in parents)

    def test_identical_parents_reproduce_themselves(self, monkeypatch):
        p = np.array([1.0, 2.0, 3.0])
        parents = [p.copy() for _ in range(5)]
        rng = np.random.default_rng(0)
        monkeypatch.setattr(optimizer, "CHILDREN", 1)
        child = de_generate(parents, p.copy(), rng)[0]
        assert np.allclose(child, p)

    def test_needs_four_parents(self):
        with pytest.raises(ValueError):
            de_generate([np.zeros(2)] * 3, np.zeros(2), np.random.default_rng(0))

    def test_at_least_one_mutant_gene(self, monkeypatch):
        # CR = 0 would otherwise clone the parent entirely
        parents = [np.array([0.0, 0.0]), np.array([1.0, 1.0]),
                   np.array([2.0, 2.0]), np.array([3.0, 3.0])]
        set_de(monkeypatch, 1, 0.8, 0.0)
        rng = np.random.default_rng(1)
        diffs = 0
        for _ in range(20):
            child = de_generate(parents, np.array([5.0, 5.0]), rng)[0]
            diffs += int(not any(np.allclose(child, p) for p in parents))
        assert diffs > 0


def reference_child(parents, best, de_f, de_cr, rng):
    """One child of current-to-best/1 with binomial crossover, bred on its own."""
    i, r1, r2 = rng.choice(len(parents), size=3, replace=False)
    x_i, x_r1, x_r2 = parents[i], parents[r1], parents[r2]
    mutant = x_i + de_f * (best - x_i) + de_f * (x_r1 - x_r2)
    cross = rng.uniform(size=len(x_i)) < de_cr
    cross[rng.integers(len(x_i))] = True
    return np.where(cross, mutant, x_i)


@pytest.mark.parametrize("seed,de_f,de_cr", [(0, 0.8, 0.8), (1, 0.5, 0.0), (2, 1.2, 1.0)])
def test_batch_breeding_equals_per_child_breeding(space, monkeypatch, seed, de_f, de_cr):
    # the bundled space mixes integer and continuous variables, and DE with
    # F > 1 leaves the box, so repair has work to do
    parents = sample_initial(space, 20, seed)
    best = parents[3]
    monkeypatch.setattr(optimizer, "DE_F", de_f)
    monkeypatch.setattr(optimizer, "DE_CR", de_cr)
    rng_batch = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    rng_ref = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    for _ in range(3):  # successive steps draw on from where the last left off
        batch = repair(space, de_generate(parents, best, rng_batch))
        ref = np.array([
            repair(space, reference_child(parents, best, de_f, de_cr, rng_ref))
            for _ in range(optimizer.CHILDREN)
        ])
        assert batch.shape == (optimizer.CHILDREN, space.dim)
        assert np.array_equal(batch, ref)
    assert rng_batch.uniform() == rng_ref.uniform()


class TestInitDb:
    def test_size_and_indices(self, toy_problem):
        db = init_db(toy_problem, cfg_for(toy_problem))
        assert len(db.records) == 20
        assert [r.eval_index for r in db.records] == list(range(20))
        assert all(r.origin == "initial" for r in db.records)

    def test_deterministic(self, toy_problem):
        a = init_db(toy_problem, cfg_for(toy_problem))
        b = init_db(toy_problem, cfg_for(toy_problem))
        assert all(np.array_equal(x.point, y.point) for x, y in zip(a.records, b.records))
        assert [r.objective for r in a.records] == [r.objective for r in b.records]

    def test_incumbent_matches_brute_force(self, toy_problem):
        db = init_db(toy_problem, cfg_for(toy_problem, seed=5))
        best = 0
        for i, rec in enumerate(db.records):
            if compare_designs(
                (rec.objective, rec.violation),
                (db.records[best].objective, db.records[best].violation),
            ) > 0:
                best = i
        assert db.incumbent_index == best

    def test_evaluator_failure_becomes_max_violation(self, toy_problem):
        def exploding(points, corners):
            return batch_of(corners, ["q_tank"] * len(points))

        broken = type(toy_problem)(
            toy_problem.space, toy_problem.corners, toy_problem.constraints, exploding
        )
        db = init_db(broken, cfg_for(broken))
        assert len(db.records) == 20
        assert all(r.violation == math.inf for r in db.records)
        assert all(r.failure == "q_tank" for r in db.records)
        assert db.train_x.shape == (0, 2) and db.train_y.shape == (0, len(METRIC_NAMES))

    def test_failure_columns_are_the_batch_columns(self, space, constraints, tc, all_corners):
        # a coupled LHS sample in which some designs fail: the database
        # takes the batch's per-design failure columns as they come
        problem = coupled_problem(space, all_corners, constraints, tc)
        batches = []

        def recorded(points, corners):
            batches.append(problem.evaluate_batch(points, corners))
            return batches[-1]

        db = init_db(replace(problem, evaluate_batch=recorded), cfg_for(problem, budget=100))
        [batch] = batches
        assert 0 < np.count_nonzero(batch.failure_corner >= 0) < len(batch) == len(db)
        assert db.failure.tolist() == batch.failure.tolist()
        assert db.failure_corner.tolist() == batch.failure_corner.tolist()
        assert [r.failure for r in db.records] == batch.failure.tolist()


def add_scored(db, points, scores):
    """Add one batch to db whose rows score (objective, violation) each; an
    objective of -inf is a failed evaluation."""
    points = np.asarray(points, dtype=float).reshape(len(scores), -1)
    objective, violation = (np.array(column, dtype=float) for column in zip(*scores))
    ok = objective != -math.inf
    worst = np.zeros((ok.sum(), len(METRIC_NAMES)))
    worst[:, METRIC_NAMES.index("fom")] = objective[ok]
    rows = iter(worst)
    batch = batch_of((NOMINAL_CORNER,), [[next(rows)] if good else "q_tank" for good in ok])
    return db.add(points, batch, worst, violation[ok], "initial")


def reference_ranking(points, scores, count):
    """The per-record rule: the incumbent after each record replaced only by
    one that pairwise_reference puts strictly ahead, and the first `count`
    distinct points (by tobytes) of the records sorted by pairwise_reference
    (a stable sort, so ties go oldest-first)."""
    incumbents, best = [], None
    for i, score in enumerate(scores):
        if best is None or pairwise_reference(score, scores[best]) > 0:
            best = i
        incumbents.append(best)
    top, taken = [], set()
    ahead = cmp_to_key(lambda i, j: pairwise_reference(scores[j], scores[i]))
    for i in sorted(range(len(scores)), key=ahead):
        if points[i].tobytes() not in taken:
            taken.add(points[i].tobytes())
            top.append(points[i].tobytes())
    return incumbents, top[:count]


class TestDatabase:
    SCORES = [(-math.inf, math.inf), (190.0, 0.0), (185.0, 0.2), (190.0, 0.0),
              (185.0, 0.2), (192.0, 0.0), (-math.inf, math.inf), (0.0, 0.1)]

    def test_ties_rank_oldest_first(self):
        for batches in ([8], [1] * 8, [3, 5]):  # one batch, one row at a time, a split
            db, start = Database(), 0
            for size in batches:
                add_scored(db, np.arange(start, start + size), self.SCORES[start:start + size])
                start += size
            assert db.incumbent_index == 5
            order = [int(p[0]) for p in db.top_distinct_points(len(self.SCORES))]
            assert order == [5, 1, 3, 7, 2, 4, 0, 6]
            assert order[:3] == [int(p[0]) for p in db.top_distinct_points(3)]

    def test_first_of_tied_records_stays_incumbent(self):
        db = Database()
        add_scored(db, [0.0, 1.0], [(190.0, 0.0)] * 2)
        add_scored(db, [2.0], [(190.0, 0.0)])
        assert db.incumbents.tolist() == [0, 0, 0]

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_the_per_record_rule(self, seed):
        # exact ties, repeated points (0.0 and -0.0 are distinct bytes),
        # infeasible and failed rows, in random batches
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 80))
        pool = np.array([[0.0, 1.0], [-0.0, 1.0], [2.5, 3.0], [1.0, 1.0], [4.0, 0.5]])
        points = pool[rng.integers(0, len(pool), size=n)] if seed % 2 else rng.uniform(size=(n, 2))
        choices = [(190.0, 0.0), (185.0, 0.0), (192.5, 0.0), (-3.0, 0.0), (190.0, 0.2),
                   (195.0, 0.1), (0.0, 0.2), (-math.inf, math.inf)]
        scores = [choices[k] for k in rng.integers(0, len(choices), size=n)]
        db, start = Database(), 0
        while start < n:
            size = int(rng.integers(1, n - start + 1))
            rows = add_scored(db, points[start:start + size], scores[start:start + size])
            assert rows == range(start, start + size)
            start += size
        incumbents, top = reference_ranking(points, scores, n)
        assert db.incumbents.tolist() == incumbents
        for count in sorted({1, 3, 20, n}):
            assert [p.tobytes() for p in db.top_distinct_points(count)] == top[:count]
        assert db.seen == {p.tobytes() for p in points}


class TestSelectCandidate:
    def test_singleton(self, toy_problem):
        only = [np.array([1.0, 1.0])]
        assert select_candidate(only, None, toy_problem, set())[0] == 1.0

    @staticmethod
    def _linear_problem():
        # metrics linear in x: the surrogate learns them essentially exactly
        from ldovco.problem import Constraint, NOMINAL_CORNER, SizingProblem
        from ldovco.space import DesignSpace, Variable

        space = DesignSpace((
            Variable("x", "continuous", 0.0, 5.0),
            Variable("y", "continuous", 0.0, 5.0),
        ))

        def table(point, corners):
            x, y = point
            return [tuple(PerfMetrics(
                f0=1.0, pn100k=-200.0, pn1m=-200.0, pn10m=-200.0, pdyn=x + y,
                psr_max=-100.0, pm=90.0, vdd_max=1.0, startup_margin=10.0,
                fom=2.0 * x + y,
            ))] * len(corners)

        def ev(points, corners):  # the batch contract: every design survives
            return tables_result(points, corners, table)

        return SizingProblem(space, (NOMINAL_CORNER,), (Constraint("pdyn", 4.0),), ev)

    def _exact_model(self, problem):
        state = start(problem, OptConfig(eval_budget=300, seed=2, init_samples=250))
        return fit_surrogate(state.db.train_x, state.db.train_y, seed=9)

    def test_matches_true_best_on_linear_metrics(self):
        # children sit clear of the constraint boundary, so the conservative
        # screen cannot flip their feasibility; with near-exact linear fits
        # the selection must reproduce the true ranking
        problem = self._linear_problem()
        model = self._exact_model(problem)
        children = [
            np.array([x, y])
            for x in (0.5, 1.25, 2.0, 2.75)
            for y in (0.25, 0.75)
        ] + [np.array([4.5, 4.0]), np.array([3.5, 3.0])]  # clearly infeasible

        def key(p):
            worst = PerfMetrics(*problem.evaluate_all(p)[0].tolist())
            vio = problem.violation(worst)
            return (vio > 0, vio, -worst.fom)

        true_best = min(children, key=key)
        chosen = select_candidate(children, model, problem, set())
        assert np.array_equal(chosen, true_best)

    def test_feasibility_first(self):
        problem = self._linear_problem()
        model = self._exact_model(problem)
        # deep-infeasible child with great objective vs feasible mediocre one
        children = [np.array([4.5, 4.5]), np.array([1.0, 1.0])]
        chosen = select_candidate(children, model, problem, set())
        assert np.array_equal(chosen, children[1])

    def test_nan_prediction_ranks_last(self, monkeypatch, space, constraints, tc):
        # three children predicted to meet every bundled constraint; the one
        # with a NaN FoM must not be taken ahead of two finite ones
        problem = coupled_problem(space, (NOMINAL_CORNER,), constraints, tc)
        feasible = PerfMetrics(
            f0=5.6e9, pn100k=-96.0, pn1m=-124.0, pn10m=-144.0, pdyn=4.5e-3,
            psr_max=-33.0, pm=70.0, vdd_max=1.23, startup_margin=3.0, fom=0.0,
        )
        preds = np.array([feasible._replace(fom=f) for f in (math.nan, 190.0, 195.0)])
        assert problem.violation(preds).tolist() == [0.0, 0.0, 0.0]
        monkeypatch.setattr(optimizer, "predict_conservative", lambda *args, **kw: preds)
        children = np.arange(3.0)[:, np.newaxis] + np.zeros((3, space.dim))
        chosen = select_candidate(children, object(), problem, set())
        assert np.array_equal(chosen, children[2])


class TestStepAndRun:
    def test_each_step_is_one_evaluation(self, toy_problem):
        state = start(toy_problem, cfg_for(toy_problem, budget=40))
        n0 = state.evals_used
        step(state)
        assert state.evals_used == n0 + 1
        step(state)
        assert state.evals_used == n0 + 2

    def test_budget_exactness(self, toy_problem):
        res = run(toy_problem, cfg_for(toy_problem, budget=45, no_improve_limit=1000))
        assert res.evals_used == 45
        assert res.stop_reason == "budget"
        assert len(res.log_rows) == 45

    def test_stagnation_stop(self, toy_problem):
        res = run(toy_problem, cfg_for(toy_problem, budget=500, no_improve_limit=8))
        assert res.stop_reason in ("stagnation", "budget")
        if res.stop_reason == "stagnation":
            assert res.evals_used < 500

    def test_incumbent_sequence_never_worsens(self, toy_problem):
        res = run(toy_problem, cfg_for(toy_problem, budget=80))
        prev = None
        for row in res.log_rows:
            cur = (row["incumbent_objective"], row["incumbent_violation"])
            if prev is not None:
                assert compare_designs(cur, prev) >= 0
            prev = cur

    def test_children_always_legal(self, toy_problem):
        res = run(toy_problem, cfg_for(toy_problem, budget=60))
        lo = toy_problem.space.lowers()
        hi = toy_problem.space.uppers()
        for rec in res.db.records:
            assert (rec.point >= lo).all() and (rec.point <= hi).all()

    def test_run_fully_deterministic(self, toy_problem):
        a = run(toy_problem, cfg_for(toy_problem, budget=55, seed=9))
        b = run(toy_problem, cfg_for(toy_problem, budget=55, seed=9))
        assert a.log_rows == b.log_rows
        assert np.array_equal(a.incumbent.point, b.incumbent.point)

    def test_log_header_covers_rows(self, toy_problem):
        res = run(toy_problem, cfg_for(toy_problem, budget=40))
        for row in res.log_rows:
            assert set(row) == set(RUN_LOG_HEADER)

    def test_record_violation_is_a_float(self, toy_problem):
        # run_log.csv writes it through repr
        res = run(toy_problem, cfg_for(toy_problem, budget=40))
        assert {r.origin for r in res.db.records} == {"initial", "de"}
        assert all(type(r.violation) is float for r in res.db.records)
        assert all(type(row["violation"]) is float for row in res.log_rows)


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_cold_fit_stops_early_on_the_bundled_problem(bundled, tc, all_corners, seed):
    # the first step's fit is the cold one; on the coupled problem's own
    # training rows its patience freezes every member before the budget
    from ldovco.flows import coupled_problem

    space, constraints = bundled
    state = start(coupled_problem(space, all_corners, constraints, tc),
                  OptConfig(eval_budget=200, seed=seed))
    step(state)
    assert 0 < state.model.train_log["epochs_run"] < COLD_FIT.epochs


class TestCheckStop:
    def test_budget_edge(self, toy_problem):
        state = start(toy_problem, cfg_for(toy_problem, budget=21))
        assert not check_stop(state)  # one evaluation left
        stop = step(state)
        assert stop and state.stop_reason == "budget"
        assert state.evals_used == 21

    def test_fresh_improvement_resets(self, toy_problem):
        state = start(toy_problem, cfg_for(toy_problem, budget=100))
        state.stagnant_steps = 0
        assert not check_stop(state)

    def test_stagnation_edge(self, toy_problem):
        state = start(toy_problem, cfg_for(toy_problem, budget=100, no_improve_limit=10))
        state.stagnant_steps = 10
        assert check_stop(state)
        assert state.stop_reason == "stagnation"


class TestConfig:
    def test_default_init_scales_with_dim(self):
        cfg = OptConfig(eval_budget=500, seed=0)
        assert cfg.resolve_init_samples(43) == 172
        assert cfg.resolve_init_samples(2) == 80

    def test_default_init_capped_by_budget(self):
        cfg = OptConfig(eval_budget=100, seed=0)
        assert cfg.resolve_init_samples(43) == 50

    def test_explicit_init_must_fit_budget(self):
        cfg = OptConfig(eval_budget=100, seed=0, init_samples=100)
        with pytest.raises(ValueError):
            cfg.resolve_init_samples(5)
