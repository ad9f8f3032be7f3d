from dataclasses import astuple

import numpy as np
import pytest

from ldovco import (
    NOMINAL_CORNER,
    enumerate_corners,
    load_bundled_constants,
    load_bundled_point,
    load_bundled_problem,
)
from ldovco.behavior import _evaluate
from ldovco.problem import Constraint, PerfMetrics, SizingProblem
from ldovco.space import DesignSpace, Variable, point_from_dict


@pytest.fixture(scope="session")
def bundled():
    space, constraints = load_bundled_problem()
    return space, constraints


@pytest.fixture(scope="session")
def space(bundled):
    return bundled[0]


@pytest.fixture(scope="session")
def constraints(bundled):
    return bundled[1]


@pytest.fixture(scope="session")
def tc():
    return load_bundled_constants()


@pytest.fixture(scope="session")
def all_corners():
    return tuple([NOMINAL_CORNER] + enumerate_corners())


@pytest.fixture(scope="session")
def co_point(space):
    return point_from_dict(space, load_bundled_point("codesign"))


@pytest.fixture(scope="session")
def se_point(space):
    return point_from_dict(space, load_bundled_point("sedesign"))


def coupled_parts(space, point, tc):
    """The coupled VCO and LDO model parts of the evaluator's one-corner
    batch at the nominal corner."""
    _, vco, ldo, _ = _evaluate(space, point, (NOMINAL_CORNER,), "coupled", tc, None)
    return vco, ldo


def make_toy_problem():
    """2-variable constrained quadratic: maximize -(x-3)^2-(y-2)^2 subject to
    x + y <= 4 on [0,5]^2.

    Closed-form optimum: the unconstrained peak (3, 2) violates x + y <= 4,
    so the constraint is active; stationarity of the Lagrangian gives
    2(x-3) = 2(y-2) = -mu along x + y = 4, hence x - y = 1 and the optimum
    is (2.5, 1.5) with value -0.5.
    """
    toy_space = DesignSpace((
        Variable("x", "continuous", 0.0, 5.0),
        Variable("y", "continuous", 0.0, 5.0),
    ))

    def ev(point, corners):
        x, y = point
        return np.array([astuple(PerfMetrics(
            f0=1.0, pn100k=-200.0, pn1m=-200.0, pn10m=-200.0, pdyn=x + y,
            psr_max=-100.0, pm=90.0, vdd_max=1.0, startup_margin=10.0,
            fom=-((x - 3.0) ** 2) - (y - 2.0) ** 2,
        ))] * len(corners))

    return SizingProblem(
        toy_space, (NOMINAL_CORNER,), (Constraint("pdyn", 4.0),), ev
    )


@pytest.fixture()
def toy_problem():
    return make_toy_problem()


@pytest.fixture(scope="session")
def hand_feasible_point(space):
    """A design verified feasible across all corners; keeps optimizer tests
    honest about the feasible region existing."""
    values = dict(
        M2=135, L_34=60e-9, W_34=1e-6, F_34=4, M_34=3,
        L_56=240e-9, W_56=6e-6, F_56=25, M_56=1,
        N_H=90, N_V=75, M_bot=1,
        W_ind=30e-6, R_ind=90e-6, NT_ind=1, S_ind=2e-6, GR_ind=40e-6,
        L_nLoad=10e-6, W_nLoad=400e-9, F_nLoad=2, M_nLoad=1,
        L_pIn=10e-6, W_pIn=10e-6, F_pIn=32, M_pIn=10,
        L_bias=5e-6, W_bias=5e-6, F_bias=16, M_bias=1, M_biasIn=2, M_biasOut=10,
        L_nOut=500e-9, W_nOut=10e-6, F_nOut=32, M_nOut=10,
        C_C=100e-12, R_C=500e3, C_F=150e-12, R_F=1.5e6,
        L_pass=2e-6, W_pass=10e-6, F_pass=50, M_pass=15,
    )
    return point_from_dict(space, {k: float(v) for k, v in values.items()})
