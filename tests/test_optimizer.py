import math
from dataclasses import astuple

import numpy as np
import pytest

from ldovco.optimizer import (
    Database,
    OptConfig,
    TrialRecord,
    RUN_LOG_HEADER,
    check_stop,
    de_generate,
    fit_surrogate,
    init_db,
    run,
    select_candidate,
    start,
    step,
    training_row,
)
from ldovco.problem import PerfMetrics, compare_designs
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


class TestDeGenerate:
    def test_direct_arithmetic_example(self):
        # x_i=2, best=6, x_r1=3, x_r2=1, F=0.5 -> 2 + 0.5*4 + 0.5*2 = 5
        parents = [np.array([2.0]), np.array([3.0]), np.array([1.0]), np.array([9.0])]
        cfg = OptConfig(eval_budget=10, seed=0, init_samples=2, children_per_iter=1, de_f=0.5, de_cr=1.0)
        child = de_generate(parents, np.array([6.0]), cfg, FakeRng([0, 1, 2]))[0]
        assert child[0] == pytest.approx(5.0)

    def test_zero_f_full_crossover_returns_parent(self):
        rng = np.random.default_rng(3)
        parents = [rng.uniform(size=4) for _ in range(6)]
        cfg = OptConfig(eval_budget=10, seed=0, init_samples=2, children_per_iter=1, de_f=0.0, de_cr=1.0)
        for _ in range(10):
            child = de_generate(parents, rng.uniform(size=4), cfg, rng)[0]
            assert any(np.allclose(child, p) for p in parents)

    def test_identical_parents_reproduce_themselves(self):
        p = np.array([1.0, 2.0, 3.0])
        parents = [p.copy() for _ in range(5)]
        rng = np.random.default_rng(0)
        cfg = OptConfig(eval_budget=10, seed=0, init_samples=2, children_per_iter=1)
        child = de_generate(parents, p.copy(), cfg, rng)[0]
        assert np.allclose(child, p)

    def test_needs_four_parents(self):
        cfg = OptConfig(eval_budget=10, seed=0, init_samples=2)
        with pytest.raises(ValueError):
            de_generate([np.zeros(2)] * 3, np.zeros(2), cfg, np.random.default_rng(0))

    def test_at_least_one_mutant_gene(self):
        # CR = 0 would otherwise clone the parent entirely
        parents = [np.array([0.0, 0.0]), np.array([1.0, 1.0]),
                   np.array([2.0, 2.0]), np.array([3.0, 3.0])]
        cfg = OptConfig(eval_budget=10, seed=0, init_samples=2, children_per_iter=1, de_f=0.8, de_cr=0.0)
        rng = np.random.default_rng(1)
        diffs = 0
        for _ in range(20):
            child = de_generate(parents, np.array([5.0, 5.0]), cfg, rng)[0]
            diffs += int(not any(np.allclose(child, p) for p in parents))
        assert diffs > 0


def reference_child(parents, best, cfg, rng):
    """One child of current-to-best/1 with binomial crossover, bred on its own."""
    i, r1, r2 = rng.choice(len(parents), size=3, replace=False)
    x_i, x_r1, x_r2 = parents[i], parents[r1], parents[r2]
    mutant = x_i + cfg.de_f * (best - x_i) + cfg.de_f * (x_r1 - x_r2)
    cross = rng.uniform(size=len(x_i)) < cfg.de_cr
    cross[rng.integers(len(x_i))] = True
    return np.where(cross, mutant, x_i)


@pytest.mark.parametrize("seed,de_f,de_cr", [(0, 0.8, 0.8), (1, 0.5, 0.0), (2, 1.2, 1.0)])
def test_batch_breeding_equals_per_child_breeding(space, seed, de_f, de_cr):
    # the bundled space mixes integer and continuous variables, and DE with
    # F > 1 leaves the box, so repair has work to do
    parents = sample_initial(space, 20, seed)
    best = parents[3]
    cfg = OptConfig(eval_budget=10, seed=seed, init_samples=2, de_f=de_f, de_cr=de_cr)
    rng_batch = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    rng_ref = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    for _ in range(3):  # successive steps draw on from where the last left off
        batch = repair(space, de_generate(parents, best, cfg, rng_batch))
        ref = np.array([
            repair(space, reference_child(parents, best, cfg, rng_ref))
            for _ in range(cfg.children_per_iter)
        ])
        assert batch.shape == (cfg.children_per_iter, space.dim)
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
        from ldovco.behavior import EvaluationFailure

        def exploding(point, corners):
            raise EvaluationFailure("q_tank")

        broken = type(toy_problem)(
            toy_problem.space, toy_problem.corners, toy_problem.constraints, exploding
        )
        db = init_db(broken, cfg_for(broken))
        assert len(db.records) == 20
        assert all(r.violation == math.inf for r in db.records)
        assert all(r.failure == "q_tank" for r in db.records)
        assert training_row(db.records[0]) is None


class TestDatabase:
    @staticmethod
    def _record(i, objective, violation):
        return TrialRecord(point=np.array([float(i)]), table=None, worst=None,
                           violation=violation, objective=objective, eval_index=i,
                           origin="initial")

    def test_ties_rank_oldest_first(self):
        scores = [(-math.inf, math.inf), (190.0, 0.0), (185.0, 0.2), (190.0, 0.0),
                  (185.0, 0.2), (192.0, 0.0), (-math.inf, math.inf), (0.0, 0.1)]
        db = Database()
        for i, (objective, vio) in enumerate(scores):
            db.insert(self._record(i, objective, vio))
        assert db.incumbent_index == 5
        order = [int(p[0]) for p in db.top_distinct_points(len(scores))]
        assert order == [5, 1, 3, 7, 2, 4, 0, 6]
        assert order[:3] == [int(p[0]) for p in db.top_distinct_points(3)]

    def test_first_of_tied_records_stays_incumbent(self):
        db = Database()
        for i in range(3):
            assert db.insert(self._record(i, 190.0, 0.0)) == (i == 0)
        assert db.incumbent_index == 0


class TestSelectCandidate:
    def test_singleton(self, toy_problem):
        only = [np.array([1.0, 1.0])]
        assert select_candidate(only, None, toy_problem, cfg_for(toy_problem))[0] == 1.0

    @staticmethod
    def _linear_problem():
        # metrics linear in x: the surrogate learns them essentially exactly
        from ldovco.problem import Constraint, NOMINAL_CORNER, SizingProblem
        from ldovco.space import DesignSpace, Variable

        space = DesignSpace((
            Variable("x", "continuous", 0.0, 5.0),
            Variable("y", "continuous", 0.0, 5.0),
        ))

        def ev(point, corners):
            x, y = point
            return np.array([astuple(PerfMetrics(
                f0=1.0, pn100k=-200.0, pn1m=-200.0, pn10m=-200.0, pdyn=x + y,
                psr_max=-100.0, pm=90.0, vdd_max=1.0, startup_margin=10.0,
                fom=2.0 * x + y,
            ))] * len(corners))

        return SizingProblem(space, (NOMINAL_CORNER,), (Constraint("pdyn", 4.0),), ev)

    def _exact_model(self, problem, cfg):
        state = start(problem, OptConfig(eval_budget=300, seed=2, init_samples=250))
        return fit_surrogate(state.train_x, state.train_y, cfg, 2, seed=9)

    def test_matches_true_best_on_linear_metrics(self):
        # children sit clear of the constraint boundary, so the conservative
        # screen cannot flip their feasibility; with near-exact linear fits
        # the selection must reproduce the true ranking
        problem = self._linear_problem()
        cfg = cfg_for(problem, budget=600, seed=2)
        model = self._exact_model(problem, cfg)
        children = [
            np.array([x, y])
            for x in (0.5, 1.25, 2.0, 2.75)
            for y in (0.25, 0.75)
        ] + [np.array([4.5, 4.0]), np.array([3.5, 3.0])]  # clearly infeasible

        def key(p):
            worst = PerfMetrics.from_row(problem.evaluate_all(p)[0])
            vio = problem.violation(worst)
            return (vio > 0, vio, -worst.fom)

        true_best = min(children, key=key)
        chosen = select_candidate(children, model, problem, cfg)
        assert np.array_equal(chosen, true_best)

    def test_feasibility_first(self):
        problem = self._linear_problem()
        cfg = cfg_for(problem, budget=600, seed=2)
        model = self._exact_model(problem, cfg)
        # deep-infeasible child with great objective vs feasible mediocre one
        children = [np.array([4.5, 4.5]), np.array([1.0, 1.0])]
        chosen = select_candidate(children, model, problem, cfg)
        assert np.array_equal(chosen, children[1])


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
    def test_lambda_floor(self):
        with pytest.raises(ValueError):
            OptConfig(eval_budget=100, seed=0, lambda_parents=3)

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
