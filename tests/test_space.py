import numpy as np
import pytest

from ldovco.space import (
    CONTINUOUS,
    INTEGER,
    DesignSpace,
    Variable,
    point_from_dict,
    repair,
    sample_initial,
    validate_space,
)


def two_var_space():
    return DesignSpace((
        Variable("a", CONTINUOUS, 0.0, 1.0),
        Variable("b", CONTINUOUS, -2.0, 2.0),
    ))


def test_bundled_space_is_valid(space):
    assert validate_space(space) == []
    assert space.dim == 43


def test_degenerate_bound_flagged():
    bad = DesignSpace((Variable("w", CONTINUOUS, 1.0, 1.0),))
    problems = validate_space(bad)
    assert len(problems) == 1
    assert "w" in problems[0]


def test_duplicate_name_flagged():
    bad = DesignSpace((
        Variable("W_pass", CONTINUOUS, 0.0, 1.0),
        Variable("W_pass", CONTINUOUS, 0.0, 2.0),
    ))
    assert any("duplicate" in p for p in validate_space(bad))


def test_integer_bounds_must_be_integral():
    bad = DesignSpace((Variable("n", INTEGER, 1.5, 7.0),))
    assert any("non-integral" in p for p in validate_space(bad))


@pytest.mark.parametrize("lower,upper", [(1.0, np.inf), (1.0, np.nan), (-np.inf, 3.0)])
def test_non_finite_integer_bound_flagged_once(lower, upper):
    # the integrality check, round(), cannot take it: it is reported once
    problems = validate_space(DesignSpace((Variable("n", INTEGER, lower, upper),)))
    assert len(problems) == 1 and "n:" in problems[0]


def test_lhs_one_sample_per_stratum():
    pts = np.array(sample_initial(two_var_space(), 4, seed=7))
    for j, var in enumerate(two_var_space().variables):
        bins = np.floor((pts[:, j] - var.lower) / (var.upper - var.lower) * 4)
        assert sorted(bins.tolist()) == [0.0, 1.0, 2.0, 3.0]


@pytest.mark.parametrize("n,seed", [(5, 0), (16, 3), (33, 11)])
def test_lhs_stratification_property(n, seed):
    pts = np.array(sample_initial(two_var_space(), n, seed=seed))
    for j, var in enumerate(two_var_space().variables):
        bins = np.floor((pts[:, j] - var.lower) / (var.upper - var.lower) * n)
        assert len(set(bins.tolist())) == n


def test_lhs_deterministic(space):
    a = sample_initial(space, 17, seed=42)
    b = sample_initial(space, 17, seed=42)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_lhs_rejects_tiny_n():
    with pytest.raises(ValueError):
        sample_initial(two_var_space(), 1, seed=0)


def test_lhs_points_already_repaired(space):
    # all 100 samples pass repair unchanged: in bounds, integers integral
    pts = sample_initial(space, 100, seed=1)
    for p in pts:
        assert np.array_equal(repair(space, p), p)


def test_repair_clamps_integer_example(space):
    # M2 is integer on [1, 1000]
    raw = np.array([v.lower for v in space.variables], dtype=float)
    i = space.index_of("M2")
    raw[i] = 1350.2
    assert repair(space, raw)[i] == 1000.0


def test_repair_identity_inside_bounds():
    sp = two_var_space()
    raw = np.array([0.5, -1.25])
    assert np.array_equal(repair(sp, raw), raw)


def test_repair_rounds_half_away_and_is_idempotent():
    sp = DesignSpace((Variable("n", INTEGER, 1, 16),))
    assert repair(sp, np.array([7.5]))[0] == 8.0
    rng = np.random.default_rng(5)
    wide = DesignSpace((
        Variable("n", INTEGER, -4, 9),
        Variable("x", CONTINUOUS, -1.0, 1.0),
    ))
    for _ in range(200):
        raw = rng.uniform(-20, 20, size=2)
        once = repair(wide, raw)
        assert np.array_equal(repair(wide, once), once)


def test_repair_rejects_wrong_length(space):
    with pytest.raises(ValueError):
        repair(space, np.zeros(7))


def test_repair_batch_is_row_wise(space):
    rng = np.random.default_rng(8)
    lo, hi = space.lowers(), space.uppers()
    # half of the values fall outside the bounds, a quarter on either side
    raw = lo + rng.uniform(-0.5, 1.5, size=(40, space.dim)) * (hi - lo)
    batch = repair(space, raw)
    assert batch.shape == raw.shape
    assert np.array_equal(batch, np.array([repair(space, row) for row in raw]))
    assert np.array_equal(repair(space, batch), batch)


@pytest.mark.parametrize("shape", [(3, 7), (2, 3, 43), ()])
def test_repair_batch_rejects_wrong_shape(space, shape):
    with pytest.raises(ValueError):
        repair(space, np.zeros(shape))


def test_point_dict_round_trip(space, co_point):
    values = dict(zip(space.names, co_point.tolist()))
    assert np.array_equal(point_from_dict(space, values), co_point)


def test_point_from_dict_reports_missing(space):
    with pytest.raises(KeyError, match="M2"):
        point_from_dict(space, {"L_34": 1e-7})


def test_subspace_preserves_bounds(space):
    sub = space.subspace(["M2", "C_C"])
    assert sub.names == ["M2", "C_C"]
    assert sub.variables[0].upper == 1000
    assert sub.fixed == space.fixed


def test_derived_arrays_are_read_only(space):
    # derived once per space and shared by every caller
    assert space.lowers() is space.lowers()
    for array in (space.lowers(), space.uppers(), space.integer_mask()):
        with pytest.raises(ValueError):
            array[0] = 0
    space.names.append("extra")
    assert len(space.names) == space.dim
    assert space.lowers().dtype == space.uppers().dtype == np.float64
    assert space.integer_mask().dtype == bool
