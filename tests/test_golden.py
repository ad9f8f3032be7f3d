"""Golden values of the behavioral evaluator.

Every metric float (as its repr) and every failure quantity of the two
bundled points and a 64-point LHS set, on all 33 corners in all three modes,
is hashed with sha256, one digest per mode. The digests were recorded from
the per-corner scalar evaluator; any change in the last bit of any value, or
in which quantity fails where, changes them. The explicit values below say
where a mismatch starts.
"""

import hashlib

import pytest

from ldovco.behavior import EvaluationFailure, evaluate
from ldovco.problem import METRIC_NAMES, NOMINAL_CORNER
from ldovco.space import sample_initial

LDO_ONLY_I_LOAD = 2e-3

GOLDEN_DIGESTS = {
    "ideal_supply": "241a9b9148dd21ea7965f6403ee516d82ac58eba1aa70542deb9811aaaf127af",
    "coupled": "8edf43125a0bcffc6b306f587d74664add80d6266f8519b0e885adc47f25f7ce",
    "ldo_only": "e73295b9908400579bdec6ecbd39918a1278ef9f8d650584e065f2dddcadbf3c",
}


@pytest.fixture(scope="module")
def golden_points(space, co_point, se_point):
    return [co_point, se_point] + sample_initial(space, 64, seed=2024)


def corner_line(space, tc, point, corner, mode) -> str:
    i_load = LDO_ONLY_I_LOAD if mode == "ldo_only" else None
    try:
        m = evaluate(space, point, corner, mode, tc, i_load=i_load)
    except EvaluationFailure as exc:
        return f"fail {exc.quantity}"
    return ",".join(repr(getattr(m, name)) for name in METRIC_NAMES)


@pytest.mark.parametrize("mode", sorted(GOLDEN_DIGESTS))
def test_golden_digest(space, tc, all_corners, golden_points, mode):
    h = hashlib.sha256()
    for point in golden_points:
        for corner in all_corners:
            h.update((corner_line(space, tc, point, corner, mode) + "\n").encode())
    assert h.hexdigest() == GOLDEN_DIGESTS[mode]


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
    assert corner_line(space, tc, co_point, NOMINAL_CORNER, "ldo_only") == (
        "5500000000.0,-200.0,-200.0,-200.0,0.003318685714285715,-37.88650072648265,"
        "155.76991064310454,1.200000562916209,10.0,269.59759253128334"
    )
    # the first LHS design starves its pass device at the nominal corner when
    # it carries the VCO's bias, but not at 2 mA
    lhs0 = golden_points[2]
    assert corner_line(space, tc, lhs0, NOMINAL_CORNER, "coupled") == "fail pass_headroom"
    assert corner_line(space, tc, lhs0, all_corners[2], "ldo_only") == "fail pass_headroom"
    assert not corner_line(space, tc, lhs0, NOMINAL_CORNER, "ldo_only").startswith("fail")
