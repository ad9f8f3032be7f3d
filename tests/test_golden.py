"""Golden values of the behavioral evaluator, and of the training and search
path (at the end of this file).

Every metric float (as its repr) and every failure quantity of the two
bundled points and a 64-point LHS set, on all 33 corners in both modes, is
hashed with sha256, one digest per mode. Any change in the last bit of
any value, or in which quantity fails where, changes them; the low bits
follow numpy's SIMD dispatch, so a digest holds on the CPUs it was recorded
on. The explicit values below say where a mismatch starts.

A deliberate re-record prints every digest of the current code:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib

import numpy as np
import pytest

from conftest import outcomes_of

from ldovco.behavior import EvaluationFailure, evaluate, evaluate_batch, pn_sweep
from ldovco.flows import coupled_problem, run_codesign, run_sequential, vco_stage_problem
from ldovco.iofmt import load_bundled_constants, load_bundled_point, load_bundled_problem
from ldovco.optimizer import COLD_FIT, RUN_LOG_HEADER, OptConfig, init_db
from ldovco.problem import METRIC_NAMES, NOMINAL_CORNER, enumerate_corners
from ldovco.space import point_from_dict, sample_initial
from ldovco.surrogate import MlpConfig, fit, update

GOLDEN_DIGESTS = {
    "ideal_supply": "a076d06dbcfe6e05cd27b25255722f2877c5b3fb16202c7f7b0c2b90fb8ec185",
    "coupled": "1e3948d72cb41fd970f534d84181c9205abdd6cba378e9ea9d697ae71741e420",
}


def golden_point_set(space) -> list:
    """The two bundled points and the 64-point LHS set."""
    bundled = [point_from_dict(space, load_bundled_point(name))
               for name in ("codesign", "sedesign")]
    return bundled + sample_initial(space, 64, seed=2024)


@pytest.fixture(scope="module")
def golden_points(space):
    return golden_point_set(space)


def corner_line(space, tc, point, corner, mode) -> str:
    try:
        m = evaluate(space, point, corner, mode, tc)
    except EvaluationFailure as exc:
        return f"fail {exc.quantity}"
    return ",".join(repr(getattr(m, name)) for name in METRIC_NAMES)


def golden_digest(space, tc, corners, points, mode) -> str:
    h = hashlib.sha256()
    for point in points:
        for corner in corners:
            h.update((corner_line(space, tc, point, corner, mode) + "\n").encode())
    return h.hexdigest()


@pytest.mark.parametrize("mode", sorted(GOLDEN_DIGESTS))
def test_golden_digest(space, tc, all_corners, golden_points, mode):
    assert golden_digest(space, tc, all_corners, golden_points, mode) == GOLDEN_DIGESTS[mode]


def test_golden_spot_values(space, tc, all_corners, co_point, golden_points):
    assert corner_line(space, tc, co_point, NOMINAL_CORNER, "coupled") == (
        "5594305216.814264,-93.44647901725281,-123.08105493453829,-145.12799255885957,"
        "0.004938685714285714,-38.34623536420159,155.76991064310454,1.2000005660050002,"
        "15.572933659899626,191.09986418098288"
    )
    assert corner_line(space, tc, co_point, NOMINAL_CORNER, "ideal_supply") == (
        "5594305216.814264,-102.99398985555419,-126.98494626411723,-147.64227514319035,"
        "0.0035999999999999995,-120.0,90.0,1.2,15.572933659899626,196.3768443990572"
    )
    # the first LHS design starves its pass device at the nominal corner; the
    # 23rd has the headroom there and loses it at the slow-slow 125 C corner
    lhs0, lhs22 = golden_points[2], golden_points[24]
    assert corner_line(space, tc, lhs0, NOMINAL_CORNER, "coupled") == "fail pass_headroom"
    assert corner_line(space, tc, lhs22, all_corners[18], "coupled") == "fail pass_headroom"
    assert not corner_line(space, tc, lhs22, NOMINAL_CORNER, "coupled").startswith("fail")


# Golden phase-noise sweeps: every swept value (as its repr) of the two
# bundled points and the 64-point LHS set, at the nominal corner and the
# first five grid corners, on an ideal supply and coupled; a failure is its
# quantity and corner label.
PN_SWEEP_DIGEST = "d0338f55dc6f98d54726e34fd5d6202b616f49a27661582069b3d84bf64cad16"


def pn_sweep_digest(space, tc, corners, points) -> str:
    h = hashlib.sha256()
    for mode in ("ideal_supply", "coupled"):
        for point in points:
            for corner in corners[:6]:
                try:
                    line = repr(pn_sweep(space, point, corner, mode, tc).tolist())
                except EvaluationFailure as exc:
                    line = f"fail {exc.quantity} {exc.corner}"
                h.update((line + "\n").encode())
    return h.hexdigest()


def test_pn_sweep_digest(space, tc, all_corners, golden_points):
    assert pn_sweep_digest(space, tc, all_corners, golden_points) == PN_SWEEP_DIGEST


# Golden batch outcomes: the 66 golden points in one evaluate_batch call per
# mode over all 33 corners, so the batch crosses any chunk boundary the
# evaluator has; a table contributes the repr of each float, a failure its
# quantity and corner label.
BATCH_DIGESTS = {
    "ideal_supply": "2950c3d9af3793984dd49cc5780fc0ac54a5d01e829235ecbd275eabd7fdc242",
    "coupled": "a24c0444193b90e76884e669f2b9d7323ed4b9a9a92333bf9474a044b02ed5f0",
}


def batch_digest(space, tc, corners, points, mode) -> str:
    h = hashlib.sha256()
    for outcome in outcomes_of(evaluate_batch(space, points, corners, mode, tc)):
        if isinstance(outcome, EvaluationFailure):
            line = f"fail {outcome.quantity} {outcome.corner}"
        else:
            line = repr(outcome.tolist())
        h.update((line + "\n").encode())
    return h.hexdigest()


@pytest.mark.parametrize("mode", sorted(BATCH_DIGESTS))
def test_batch_digest(space, tc, all_corners, golden_points, mode):
    assert batch_digest(space, tc, all_corners, golden_points, mode) == BATCH_DIGESTS[mode]


# Golden screens: init_db on a 201-design LHS batch (one design past
# CHUNK_DESIGNS) of the coupled and the ideal-supply stage problem; each
# record contributes its eval_index, failure, objective, violation and worst
# case (the repr of each), and the incumbent indices end the digest.
SCREEN_DIGESTS = {
    "coupled": "9b06d34ddba4ff30f5075d31d081da369756639826e77b2341159bc0ddf1daa8",
    "ideal_supply": "97043796e2d1af1cef4c2898249468ed6a4d91b8dcca574a9d3de2d0cb0c057d",
}
SCREEN_PROBLEMS = {"coupled": coupled_problem, "ideal_supply": vco_stage_problem}


def screen_digest(space, constraints, tc, corners, name) -> str:
    problem = SCREEN_PROBLEMS[name](space, corners, constraints, tc)
    db = init_db(problem, OptConfig(eval_budget=202, seed=7, init_samples=201))
    h = hashlib.sha256()
    for rec in db.records:
        worst = None if rec.worst is None else tuple(rec.worst)
        line = repr((rec.eval_index, rec.failure, rec.objective, rec.violation, worst))
        h.update((line + "\n").encode())
    h.update(repr([int(i) for i in db.incumbents]).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(SCREEN_DIGESTS))
def test_screen_digest(bundled, tc, all_corners, name):
    space, constraints = bundled
    assert screen_digest(space, constraints, tc, all_corners, name) == SCREEN_DIGESTS[name]


# Golden values of the training and search path: the weights and train_log
# of one cold fit followed by a warm update chain, and the run_log rows of
# short co-design and sequential runs, each hashed with sha256 over the
# repr of every value. Any moved bit in a weight, a prediction, an RNG
# draw, a selected child or an evaluated metric changes them.

TRAINING_DIGESTS = {
    "optimizer": "2814420117e2bc357c5be49de57bc688f9b7a623be0ccda2d3d8a3e77c059cf2",
    "early_stop": "c1c62fb6d7e12b454a16fb4e0680bfefee400098778d6ef59f55542876c7bf46",
}

FLOW_DIGESTS = {
    "codesign": "cc2ca4e78f3449a3ed1813051936160d39a3760f361df34940588d85d5bb2ad9",
    "sequential": "a83e03f1c6d7e7cfc2a8d8b7952e751a3b10cab6410fb8f4b76546c65b654022",
}


def _training_data(n: int):
    rng = np.random.default_rng(20240)
    x = rng.uniform(-2.0, 3.0, size=(n, 43)) * rng.uniform(0.1, 10.0, size=43)
    w = rng.normal(size=(43, 10)) / 20.0
    y = np.tanh(x @ w) * rng.uniform(0.5, 50.0, size=10) + rng.normal(size=(n, 10))
    return x, y


def _model_lines(model) -> list[str]:
    return [repr(p.tolist()) for p in (model.w1, model.b1, model.w2, model.b2)] + [
        repr(sorted(model.train_log.items()))
    ]


def training_digest(name) -> str:
    if name == "optimizer":
        cfg = COLD_FIT  # the optimizer's cold fit
    else:  # members freeze at different epochs
        cfg = MlpConfig(hidden_width=12, epochs=400, patience=8, min_delta=1e-3)
    x, y = _training_data(80)
    model = fit(x[:60], y[:60], cfg, seed=11)
    lines = _model_lines(model)
    for rows, epochs, seed in ((67, 60, 12), (67, 0, 13), (80, 60, 14)):
        model = update(model, x[:rows], y[:rows], epochs, seed)
        lines += _model_lines(model)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(TRAINING_DIGESTS))
def test_training_digest(name):
    assert training_digest(name) == TRAINING_DIGESTS[name]


def flow_digest(space, constraints, tc, corners, flow) -> str:
    runner = run_codesign if flow == "codesign" else run_sequential
    cfg = OptConfig(eval_budget=40, seed=0, init_samples=30, no_improve_limit=40)
    res = runner(space, corners, constraints, tc, cfg, seed=5)
    header = list(RUN_LOG_HEADER) + (["stage"] if flow == "sequential" else [])
    lines = [",".join(repr(row[h]) for h in header) for row in res.log_rows]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("flow", sorted(FLOW_DIGESTS))
def test_flow_digest(bundled, tc, all_corners, flow):
    space, constraints = bundled
    assert flow_digest(space, constraints, tc, all_corners, flow) == FLOW_DIGESTS[flow]


if __name__ == "__main__":
    space, constraints = load_bundled_problem()
    tc = load_bundled_constants()
    corners = tuple([NOMINAL_CORNER] + enumerate_corners())
    points = golden_point_set(space)
    for mode in sorted(GOLDEN_DIGESTS):
        print(f"GOLDEN_DIGESTS[{mode!r}] = {golden_digest(space, tc, corners, points, mode)!r}")
    print(f"PN_SWEEP_DIGEST = {pn_sweep_digest(space, tc, corners, points)!r}")
    for mode in sorted(BATCH_DIGESTS):
        print(f"BATCH_DIGESTS[{mode!r}] = {batch_digest(space, tc, corners, points, mode)!r}")
    for name in sorted(SCREEN_DIGESTS):
        digest = screen_digest(space, constraints, tc, corners, name)
        print(f"SCREEN_DIGESTS[{name!r}] = {digest!r}")
    for name in sorted(TRAINING_DIGESTS):
        print(f"TRAINING_DIGESTS[{name!r}] = {training_digest(name)!r}")
    for flow in sorted(FLOW_DIGESTS):
        digest = flow_digest(space, constraints, tc, corners, flow)
        print(f"FLOW_DIGESTS[{flow!r}] = {digest!r}")
