import importlib
import math
from dataclasses import replace

import numpy as np
import pytest

from ldovco import flows, optimizer
from ldovco.behavior import evaluate, evaluate_batch
from ldovco.flows import (
    LDO_VARIABLES,
    STAGE_SPLIT,
    VCO_VARIABLES,
    _mid_box,
    _pair_row,
    _stage_problem,
    compare,
    coupled_problem,
    run_codesign,
    run_sequential,
    vco_stage_problem,
)
from ldovco.optimizer import Database, OptConfig, _evaluate_into, init_db, run, start, step
from ldovco.problem import METRIC_NAMES, SizingProblem, violation, worst_case
from ldovco.space import sample_initial

BUDGET = 90  # small smoke budget; the full-scale runs live in the acceptance suite


@pytest.fixture(scope="module")
def small_cfg():
    return OptConfig(eval_budget=BUDGET, seed=0, no_improve_limit=BUDGET)


@pytest.fixture(scope="module")
def flow_pair(bundled, tc, all_corners, small_cfg):
    space, constraints = bundled
    co = run_codesign(space, all_corners, constraints, tc, small_cfg, seed=3)
    seq = run_sequential(space, all_corners, constraints, tc, small_cfg, seed=3)
    return co, seq


def test_flows_evaluate_is_the_corner_batch_evaluator():
    # the benchmark's `behavior` span patches this module-level name
    assert flows.evaluate is evaluate_batch


@pytest.mark.parametrize("build,min_failed", [(coupled_problem, 1), (vco_stage_problem, 0)])
def test_record_per_corner_matches_one_corner_evaluations(
    bundled, tc, all_corners, build, min_failed
):
    # the benchmark's screen check compares each record's per-corner metrics
    # with this corner-by-corner recomputation
    space, constraints = bundled
    problem = build(space, all_corners, constraints, tc)
    db = init_db(problem, OptConfig(eval_budget=13, seed=4, init_samples=12))
    failed = [r for r in db.records if r.failure is not None]
    assert len(failed) >= min_failed and len(failed) < len(db.records)
    for rec in db.records:
        if rec.failure is not None:
            assert rec.per_corner == ()
            continue
        again = tuple(problem.evaluator(rec.point, c) for c in problem.corners)
        assert rec.per_corner == again
        assert all(type(getattr(m, n)) is float for m in rec.per_corner for n in METRIC_NAMES)


def _stage_problems(space, corners, constraints, tc, base):
    """The coupled problem and both sequential stage problems, stage 2
    around `base`."""
    stage1 = _stage_problem(space, corners, constraints, tc, VCO_VARIABLES, _mid_box(space),
                            "ideal_supply")[0]
    stage2 = _stage_problem(space, corners, constraints, tc, LDO_VARIABLES, base, "coupled")[0]
    return {"coupled": coupled_problem(space, corners, constraints, tc),
            "stage1": stage1, "stage2": stage2}


@pytest.mark.parametrize("name", ["coupled", "stage1", "stage2"])
def test_init_db_records_equal_one_at_a_time_records(bundled, tc, all_corners, co_point, name):
    # init_db evaluates its sample as one batch of 37 designs (three
    # chunks); each record equals the record of that design evaluated and
    # scored as a batch of one
    space, constraints = bundled
    problem = _stage_problems(space, all_corners, constraints, tc, co_point)[name]
    cfg = OptConfig(eval_budget=38, seed=6, init_samples=37)
    db = init_db(problem, cfg)
    points = sample_initial(problem.space, 37, cfg.seed)
    train_y = iter(db.train_y)
    failed = 0
    for i, (rec, point) in enumerate(zip(db.records, points, strict=True)):
        alone = Database()
        _evaluate_into(alone, problem, point[None], "initial")
        (one,) = alone.records
        assert rec.point.tobytes() == one.point.tobytes()
        assert (rec.table is None) == (one.table is None)
        if rec.table is not None:
            assert rec.table.tobytes() == one.table.tobytes()
            # the training row is the worst case's own row
            assert np.array(rec.worst).tobytes() == next(train_y).tobytes()
        assert type(rec.violation) is float and type(rec.objective) is float
        assert (rec.worst, rec.violation, rec.objective, rec.failure, rec.origin) == (
            one.worst, one.violation, one.objective, one.failure, one.origin)
        assert (rec.eval_index, one.eval_index) == (i, 0)
        # the batch's one violation call scores each row as a call on that row would
        assert (rec.objective, rec.violation) == (
            (-math.inf, math.inf) if rec.failure else
            (rec.worst.fom, violation(rec.worst, problem.constraints)))
        failed += rec.failure is not None
    assert next(train_y, None) is None
    if name != "stage1":  # the LDO-side problems lose designs to headroom
        assert 0 < failed < len(points)


def test_benchmark_layer_probes_fire(bundled, tc, all_corners, monkeypatch):
    # the benchmark's `behavior`, `optimizer.evaluate_record` and
    # `problem.violation` spans wrap these three names: the evaluator runs
    # and the records are scored once per batch (the initial sample, then
    # each step's design), and records are made once each
    space, constraints = bundled
    calls = {"behavior": [], "record": 0, "violation": []}
    batch_evaluator, make_record = flows.evaluate, optimizer.evaluate_record
    score = SizingProblem.violation

    def counted_evaluate(space, points, *args, **kwargs):
        calls["behavior"].append(len(points))
        return batch_evaluator(space, points, *args, **kwargs)

    def counted_record(*args, **kwargs):
        calls["record"] += 1
        return make_record(*args, **kwargs)

    def counted_violation(self, metrics):
        calls["violation"].append(np.shape(metrics))
        return score(self, metrics)

    monkeypatch.setattr(flows, "evaluate", counted_evaluate)
    monkeypatch.setattr(optimizer, "evaluate_record", counted_record)
    monkeypatch.setattr(SizingProblem, "violation", counted_violation)
    problem = coupled_problem(space, all_corners[:5], constraints, tc)
    state = start(problem, OptConfig(eval_budget=14, seed=2, init_samples=12))
    scored = sum(r.failure is None for r in state.db.records)
    assert (calls["behavior"], calls["record"]) == ([12], 12)
    assert calls["violation"] == [(scored, len(METRIC_NAMES))]
    step(state)
    assert (calls["behavior"], calls["record"]) == ([12, 1], 13)
    # the prescreen scores the children when there is a model to predict them
    prescreen = [(50, len(METRIC_NAMES))] if state.model is not None else []
    scored_step = int(state.db.records[-1].failure is None)
    assert calls["violation"] == [
        (scored, len(METRIC_NAMES)), *prescreen, (scored_step, len(METRIC_NAMES))]
    assert state.evals_used == 13


def test_names_the_benchmark_checks_read(bundled, tc, all_corners):
    # the benchmark ranks by compare_designs on (objective, violation) pairs,
    # and reads a record's per_corner, worst and failure; worst_case takes
    # the per_corner list of PerfMetrics, and violation the worst case
    from ldovco.behavior import EvaluationFailure
    from ldovco.optimizer import TrialRecord
    from ldovco.problem import PerfMetrics, compare_designs, violation

    space, constraints = bundled
    problem = coupled_problem(space, all_corners, constraints, tc)
    db = init_db(problem, OptConfig(eval_budget=13, seed=4, init_samples=12))
    best = db.records[0]
    for rec in db.records[1:]:
        if compare_designs((rec.objective, rec.violation), (best.objective, best.violation)) > 0:
            best = rec
    assert best is db.incumbent and best.failure is None
    for rec in db.records:
        assert isinstance(rec, TrialRecord)
        if rec.failure is None:
            assert all(isinstance(m, PerfMetrics) for m in rec.per_corner)
            assert worst_case(list(rec.per_corner)) == worst_case(rec.table) == rec.worst
            assert violation(rec.worst, constraints) == rec.violation
        else:
            assert (rec.per_corner, rec.worst) == ((), None)
            with pytest.raises(EvaluationFailure) as info:
                problem.evaluate_all(rec.point)
            assert info.value.quantity == rec.failure



def test_cli_csv_the_benchmark_digests_read():
    # bench/workloads.py hashes its row digests over cli._csv, and falls back
    # to another format if the name is gone
    from ldovco import cli

    row = {"i": 3, "s": "co", "f": 1 / 3, "n": float("nan"), "m": float("-inf")}
    assert cli._csv(list(row), [row]) == "i,s,f,n,m\n3,co,0.3333333333,nan,-inf\n"

# (module, attribute) of every function the benchmark's tracer wraps, in the
# namespace its callers look it up from (bench/spans.py, LAYER_TARGETS)
TRACED_NAMES = [
    ("ldovco.flows", "run_codesign"),
    ("ldovco.flows", "run_sequential"),
    ("ldovco.flows", "run"),
    ("ldovco.flows", "_rescore"),
    ("ldovco.flows", "evaluate"),
    ("ldovco.flows", "worst_case"),
    ("ldovco.flows", "repair"),
    ("ldovco.problem", "SizingProblem.evaluate_all"),
    ("ldovco.problem", "SizingProblem.violation"),
    ("ldovco.optimizer", "init_db"),
    ("ldovco.optimizer", "step"),
    ("ldovco.optimizer", "de_generate"),
    ("ldovco.optimizer", "select_candidate"),
    ("ldovco.optimizer", "evaluate_record"),
    ("ldovco.optimizer", "worst_case"),
    ("ldovco.optimizer", "repair"),
    ("ldovco.optimizer", "sample_initial"),
    ("ldovco.optimizer", "fit"),
    ("ldovco.optimizer", "update"),
    ("ldovco.optimizer", "predict_conservative"),
    ("ldovco.space", "repair"),
]


@pytest.mark.parametrize("module,attr", TRACED_NAMES)
def test_names_the_benchmark_tracer_wraps(module, attr):
    # a renamed or moved function would silently drop out of the traced
    # per-layer metrics
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_variable_partition_covers_space(space):
    assert len(VCO_VARIABLES) == 17
    assert len(LDO_VARIABLES) == 26
    assert sorted(VCO_VARIABLES + LDO_VARIABLES) == sorted(space.names)


def test_stage_budget_split():
    b1 = round(500 * STAGE_SPLIT[0] / STAGE_SPLIT[1])
    assert (b1, 500 - b1) == (194, 306)


def test_stage_init_respects_budget():
    # each sequential stage runs with init_samples=None: the auto rule on
    # the stage's own budget
    def auto(dim, budget):
        return OptConfig(eval_budget=budget, seed=0).resolve_init_samples(dim)

    assert auto(17, 194) == 80
    assert auto(26, 306) == 104
    assert auto(26, 40) == 20


def test_stage_one_is_the_vco_stage_problem_run(bundled, tc, all_corners, small_cfg, flow_pair):
    # the benchmark screens vco_stage_problem as the sequential flow's stage 1
    space, constraints = bundled
    _, seq = flow_pair
    b1 = round(BUDGET * STAGE_SPLIT[0] / STAGE_SPLIT[1])
    stage1 = run(
        vco_stage_problem(space, all_corners, constraints, tc),
        replace(small_cfg, eval_budget=b1, seed=3, init_samples=None),
    )
    assert list(map(repr, (dict(r, stage=1) for r in stage1.log_rows))) == list(
        map(repr, seq.log_rows[:b1])
    )
    vco_indices = [space.index_of(n) for n in VCO_VARIABLES]
    assert stage1.incumbent.point.tolist() == seq.final_point[vco_indices].tolist()


def test_set_init_samples_leaves_sequential_unchanged(bundled, tc, all_corners, small_cfg, flow_pair):
    # a set init_samples sizes co-design's sample only
    space, constraints = bundled
    _, seq = flow_pair
    again = run_sequential(
        space, all_corners, constraints, tc, replace(small_cfg, init_samples=12), seed=3
    )
    assert list(map(repr, again.log_rows)) == list(map(repr, seq.log_rows))


@pytest.mark.parametrize("runner", [run_codesign, run_sequential])
@pytest.mark.parametrize("first", [1, None], ids=["grid-first", "no-corners"])
def test_first_corner_must_be_nominal(bundled, tc, all_corners, small_cfg, monkeypatch, runner,
                                      first):
    # the re-score reports row 0 of the table as the nominal metrics
    space, constraints = bundled
    corners = all_corners[first:] if first else ()
    calls = []
    monkeypatch.setattr(flows, "evaluate", lambda *args: calls.append(args))
    got = corners[0].label() if corners else "no corners"
    with pytest.raises(ValueError, match=f"^the first corner must be nominal, got {got}$"):
        runner(space, corners, constraints, tc, small_cfg, seed=3)
    assert calls == []


def test_codesign_budget_and_legality(bundled, tc, all_corners, small_cfg, flow_pair):
    space, _ = bundled
    co, _ = flow_pair
    assert co.evals_used <= BUDGET
    lo, hi = space.lowers(), space.uppers()
    assert (co.final_point >= lo).all() and (co.final_point <= hi).all()


def test_equal_budget_pairing(flow_pair):
    co, seq = flow_pair
    assert co.evals_used == seq.evals_used == BUDGET


def test_sequential_freezes_vco_variables(bundled, tc, all_corners, flow_pair):
    # the final design's VCO variables are stage 1's winner: on stage 1's
    # problem they score as stage 1's last logged incumbent
    space, constraints = bundled
    _, seq = flow_pair
    stage1 = vco_stage_problem(space, all_corners, constraints, tc)
    vco = seq.final_point[[space.index_of(n) for n in VCO_VARIABLES]]
    worst = worst_case(stage1.evaluate_all(vco))
    last = [r for r in seq.log_rows if r["stage"] == 1][-1]
    assert (worst.fom, stage1.violation(worst)) == (
        last["incumbent_objective"], last["incumbent_violation"]
    )


def test_stage_log_labels(flow_pair):
    _, seq = flow_pair
    stages = {row["stage"] for row in seq.log_rows}
    assert stages == {1, 2}
    n1 = sum(1 for r in seq.log_rows if r["stage"] == 1)
    assert n1 == round(BUDGET * STAGE_SPLIT[0] / STAGE_SPLIT[1])


def test_reevaluation_consistency(bundled, tc, all_corners, flow_pair):
    space, constraints = bundled
    for result in flow_pair:
        per = [
            evaluate(space, result.final_point, c, "coupled", tc) for c in all_corners
        ]
        assert worst_case(per) == result.coupled_worst
        assert per[0] == result.coupled_nominal


def test_ideal_pn_never_above_final_coupled(bundled, tc, flow_pair):
    # the ideal-supply view of the final design is an optimistic bound
    space, _ = bundled
    from ldovco.problem import NOMINAL_CORNER

    _, seq = flow_pair
    ideal = evaluate(space, seq.final_point, NOMINAL_CORNER, "ideal_supply", tc)
    assert ideal.pn1m <= seq.coupled_nominal.pn1m + 1e-12


def test_vco_stage_problem_is_vco_only(bundled, tc, all_corners):
    space, constraints = bundled
    problem = vco_stage_problem(space, all_corners, constraints, tc)
    assert problem.space.names == VCO_VARIABLES
    assert {c.metric for c in problem.constraints} <= {
        "f0", "pn100k", "pn1m", "pn10m", "pdyn", "startup_margin"
    }


def test_self_comparison_convention(flow_pair):
    co, _ = flow_pair
    row = _pair_row(7, co, co)
    assert row["codesign_win"] == 0.5
    assert row["fom_delta"] == 0.0
    assert row["pdyn_delta_pct"] == 0.0


def test_pair_row_win_is_feasibility_first(flow_pair):
    co, _ = flow_pair
    worse = co.coupled_worst._replace(fom=co.coupled_worst.fom - 1.0)
    better = co.coupled_worst._replace(fom=co.coupled_worst.fom + 1.0)
    feasible = replace(co, coupled_worst=worse, violation=0.0)
    infeasible = replace(co, coupled_worst=better, violation=0.25)
    assert _pair_row(7, feasible, infeasible)["codesign_win"] == 1.0
    assert _pair_row(7, infeasible, feasible)["codesign_win"] == 0.0
    assert _pair_row(7, feasible, replace(feasible, coupled_worst=better))["codesign_win"] == 0.0


def test_compare_rows_and_determinism(bundled, tc, all_corners):
    space, constraints = bundled
    cfg = OptConfig(eval_budget=70, seed=0)
    report1, results1 = compare(
        space, all_corners, constraints, tc, cfg, seeds=[1, 2], workers=1
    )
    report2, _ = compare(
        space, all_corners, constraints, tc, cfg, seeds=[1, 2], workers=2
    )
    assert len(report1.rows) == 2
    assert report1.rows == report2.rows  # worker fan-out cannot change results
    for seed in (1, 2):
        co = results1[("codesign", seed)]
        seq = results1[("sequential", seed)]
        assert co.evals_used == seq.evals_used == 70
    assert 0.0 <= report1.win_rate <= 1.0


def test_compare_needs_two_seeds(bundled, tc, all_corners):
    space, constraints = bundled
    with pytest.raises(ValueError):
        compare(space, all_corners, constraints, tc,
                OptConfig(eval_budget=70, seed=0), seeds=[1])
