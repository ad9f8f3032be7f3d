import itertools
import math

import numpy as np
import pytest

from ldovco.problem import (
    Constraint,
    DEFAULT_CONSTRAINTS,
    MOS_PAIRS,
    NOMINAL_CORNER,
    PerfMetrics,
    compare_designs,
    enumerate_corners,
    fom,
    violation,
    worst_case,
)


def metrics(**overrides):
    base = dict(
        f0=5.6e9, pn100k=-96.0, pn1m=-124.0, pn10m=-144.0, pdyn=4.5e-3,
        psr_max=-33.0, pm=70.0, vdd_max=1.23, startup_margin=3.0, fom=192.0,
    )
    base.update(overrides)
    return PerfMetrics(**base)


class TestCorners:
    def test_full_grid_is_32(self):
        corners = enumerate_corners()
        assert len(corners) == 32
        assert len(set(corners)) == 32
        assert NOMINAL_CORNER not in corners

    def test_nominal_is_distinct_and_reference(self):
        assert NOMINAL_CORNER.is_nominal()
        assert NOMINAL_CORNER.temperature == 27.0
        assert NOMINAL_CORNER.vdd_in == pytest.approx(1.62)

    def test_singleton_product(self):
        corners = enumerate_corners(
            mos_pairs=[("fast", "fast")], inductor_extremes=["min"],
            capacitor_extremes=["min"], temperatures=[125.0],
        )
        assert len(corners) == 1

    def test_lexicographic_order(self):
        corners = enumerate_corners(
            mos_pairs=[("fast", "fast"), ("slow", "slow")],
            inductor_extremes=["min"], capacitor_extremes=["min"],
            temperatures=[-55.0, 125.0],
        )
        assert len(corners) == 4
        assert [(c.nmos, c.temperature) for c in corners] == [
            ("fast", -55.0), ("fast", 125.0), ("slow", -55.0), ("slow", 125.0),
        ]

    def test_mos_pair_order_is_documented(self):
        assert MOS_PAIRS == (
            ("fast", "fast"), ("fast", "slow"), ("slow", "slow"), ("slow", "fast")
        )

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            enumerate_corners(temperatures=[])

    def test_vdd_in_default(self):
        assert all(c.vdd_in == pytest.approx(1.8 * 0.9) for c in enumerate_corners())


class TestFom:
    # golden cross-checks: (f0, pn1m, pdyn) -> reported |FoM|
    @pytest.mark.parametrize(
        "f0,pn,pdyn_mw,expected",
        [
            (5.69e9, -122.9, 6.40, 190.0),
            (5.60e9, -124.1, 4.56, 192.4),
            (5.27e9, -119.7, 4.33, 187.8),
            (5.51e9, -123.9, 4.67, 192.1),
        ],
    )
    def test_golden_rows(self, f0, pn, pdyn_mw, expected):
        assert fom(f0, 1e6, pn, pdyn_mw * 1e-3) == pytest.approx(expected, abs=0.1)

    def test_unity_case_exact(self):
        assert fom(1e9, 1e6, -100.0, 1e-3) == pytest.approx(160.0, abs=1e-12)

    def test_doubling_power_costs_3dB(self):
        base = fom(5e9, 1e6, -120.0, 2e-3)
        assert base - fom(5e9, 1e6, -120.0, 4e-3) == pytest.approx(
            10 * math.log10(2), abs=1e-12
        )

    def test_offset_slope_identity(self):
        # 10x offset with 20 dB lower PN (the -20 dB/decade case) is FoM-neutral
        a = fom(5e9, 1e6, -120.0, 3e-3)
        b = fom(5e9, 1e7, -140.0, 3e-3)
        assert a == pytest.approx(b, abs=1e-12)

    @pytest.mark.parametrize("bad", [(0.0, 1e6, -120, 1e-3), (5e9, 0.0, -120, 1e-3), (5e9, 1e6, -120, 0.0)])
    def test_nonpositive_inputs_rejected(self, bad):
        with pytest.raises(ValueError):
            fom(*bad)


class TestViolation:
    def test_co_design_nominal_row_feasible(self):
        m = metrics(
            f0=5.60e9, pn100k=-95.6, pn1m=-124.1, pn10m=-144.7, pdyn=4.56e-3,
            psr_max=-31.4, vdd_max=1.23, pm=82.0,
        )
        assert violation(m, DEFAULT_CONSTRAINTS) == 0.0

    def test_single_shortfall_normalized(self):
        m = metrics(pn100k=-93.8)
        assert violation(m, DEFAULT_CONSTRAINTS) == pytest.approx(0.2 / 94.0)

    def test_boundary_counts_as_satisfied(self):
        assert violation(metrics(pm=50.0), DEFAULT_CONSTRAINTS) == 0.0

    @pytest.mark.parametrize("direction", ["<=", ">="])
    def test_nan_is_never_satisfied(self, direction):
        assert Constraint("pm", direction, 50.0).shortfall(math.nan) == math.inf
        assert violation(metrics(pm=math.nan), DEFAULT_CONSTRAINTS) == math.inf

    def test_zero_iff_all_satisfied(self):
        assert violation(metrics(), DEFAULT_CONSTRAINTS) == 0.0
        assert violation(metrics(pdyn=7.1e-3), DEFAULT_CONSTRAINTS) > 0.0

    def test_monotone_in_each_metric(self):
        base = metrics(pdyn=7.5e-3, pm=45.0)
        worse = metrics(pdyn=8.0e-3, pm=40.0)
        assert violation(worse, DEFAULT_CONSTRAINTS) > violation(base, DEFAULT_CONSTRAINTS)

    def test_missing_metric_rejected(self):
        with pytest.raises(KeyError):
            violation({"pdyn": 1e-3}, DEFAULT_CONSTRAINTS)

    def test_zero_bound_rejected(self):
        with pytest.raises(ValueError):
            violation(metrics(), (Constraint("pm", ">=", 0.0),))


class TestCompareDesigns:
    def test_feasible_beats_infeasible(self):
        assert compare_designs((191.0, 0.0), (195.0, 0.3)) == 1

    def test_higher_objective_wins_when_feasible(self):
        assert compare_designs((192.4, 0.0), (190.0, 0.0)) == 1

    def test_lower_violation_wins_when_infeasible(self):
        assert compare_designs((0.0, 0.5), (0.0, 0.2)) == -1

    def test_exact_tie(self):
        assert compare_designs((191.0, 0.0), (191.0, 0.0)) == 0

    def test_antisymmetric_and_transitive_on_random_triples(self):
        rng = np.random.default_rng(0)
        pool = [
            (float(rng.normal(190, 3)), float(rng.choice([0.0, 0.0, 0.1, 0.4])))
            for _ in range(60)
        ]
        for a, b in itertools.combinations(pool[:20], 2):
            assert compare_designs(a, b) == -compare_designs(b, a)
        for a, b, c in itertools.combinations(pool, 3):
            if compare_designs(a, b) >= 0 and compare_designs(b, c) >= 0:
                assert compare_designs(a, c) >= 0


class TestWorstCase:
    def test_singleton_identity(self):
        m = metrics()
        assert worst_case([m]) == m

    def test_fom_is_min_over_corners(self):
        a, b = metrics(fom=192.4), metrics(fom=187.8)
        assert worst_case([a, b]).fom == 187.8

    def test_pn_is_max_over_corners(self):
        a, b = metrics(pn1m=-124.1), metrics(pn1m=-119.7)
        assert worst_case([a, b]).pn1m == -119.7

    def test_direction_per_metric(self):
        a = metrics(f0=5.6e9, pdyn=4.0e-3, pm=80.0, psr_max=-33.0, vdd_max=1.21)
        b = metrics(f0=5.2e9, pdyn=5.0e-3, pm=60.0, psr_max=-31.0, vdd_max=1.24)
        w = worst_case([a, b])
        assert (w.f0, w.pdyn, w.pm, w.psr_max, w.vdd_max) == (
            5.2e9, 5.0e-3, 60.0, -31.0, 1.24
        )

    def test_idempotent_and_permutation_invariant(self):
        ms = [metrics(fom=190 + i, pdyn=(4 + i) * 1e-3, pm=60 + i) for i in range(5)]
        w = worst_case(ms)
        assert worst_case([w]) == w
        assert worst_case(list(reversed(ms))) == w

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            worst_case([])

    @pytest.mark.parametrize("name", ["fom", "pn1m"])
    def test_nan_propagates_in_either_order(self, name):
        nan_row, ok = metrics(**{name: math.nan}), metrics()
        for order in ([nan_row, ok], [ok, nan_row]):
            w = worst_case(order)
            assert math.isnan(getattr(w, name))
            assert w.pdyn == ok.pdyn  # the other columns are untouched
