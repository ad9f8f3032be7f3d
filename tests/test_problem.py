import itertools
import math
from dataclasses import astuple, replace

import numpy as np
import pytest

from ldovco.optimizer import PRESCREEN_SENSES
from ldovco.problem import (
    GE,
    LE,
    Constraint,
    DEFAULT_CONSTRAINTS,
    METRIC_NAMES,
    MOS_PAIRS,
    NOMINAL_CORNER,
    PerfMetrics,
    compare_designs,
    enumerate_corners,
    rank_key,
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

    # one upper-bounded and one lower-bounded metric
    @pytest.mark.parametrize("metric", ["pdyn", "pm"], ids=["<=", ">="])
    def test_nan_is_never_satisfied(self, metric):
        assert Constraint(metric, 50.0).shortfall(math.nan) == math.inf
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
            violation(metrics(), (Constraint("pm", 0.0),))


class TestViolationTable:
    """A (designs, metrics) table follows the scalar rule row by row."""

    @staticmethod
    def _table():
        rng = np.random.default_rng(17)
        base = np.array(astuple(metrics()))
        # around the default bounds: some rows feasible, some not
        table = base * rng.uniform(0.9, 1.1, size=(60, len(METRIC_NAMES)))
        table[:10] = base  # feasible
        table[10, 4] = math.nan
        table[11, 0] = math.nan
        table[12, 1] = math.inf  # pn100k, upper-bounded
        table[13, 1] = -math.inf
        table[14, 7] = math.inf  # vdd_max, upper-bounded
        table[15, 6] = -math.inf  # pm, lower-bounded
        table[16, 6] = math.inf
        table[17] = math.nan
        return table

    def test_rows_match_the_scalar_rule(self):
        table = self._table()
        vio = violation(table, DEFAULT_CONSTRAINTS)
        assert vio.shape == (len(table),)
        expected = [violation(PerfMetrics.from_row(row), DEFAULT_CONSTRAINTS) for row in table]
        assert vio.tolist() == expected  # bit for bit; inf compares equal
        assert [repr(v) for v in vio.tolist()] == [repr(v) for v in expected]
        # the table holds feasible, finitely infeasible and infinite rows
        assert 0.0 in expected and math.inf in expected
        assert any(0.0 < v < math.inf for v in expected)

    def test_shortfall_matches_elementwise(self):
        values = np.array([-math.inf, -1.0, 0.0, 49.0, 50.0, 51.0, math.inf, math.nan])
        for metric in ("pdyn", "pm"):  # <= and >=
            c = Constraint(metric, 50.0)
            assert c.shortfall(values).tolist() == [c.shortfall(v) for v in values.tolist()]

    def test_missing_metric_rejected(self):
        with pytest.raises(KeyError):
            violation(self._table(), (Constraint("gain", 1.0),))

    def test_zero_bound_rejected(self):
        with pytest.raises(ValueError):
            violation(self._table(), (Constraint("pm", 0.0),))

    def test_wrong_width_rejected(self):
        with pytest.raises(ValueError):
            violation(self._table()[:, :-1], DEFAULT_CONSTRAINTS)

    def test_scalar_result_is_a_float(self):
        assert type(violation(metrics(), DEFAULT_CONSTRAINTS)) is float
        assert type(violation(metrics(pdyn=8e-3), DEFAULT_CONSTRAINTS)) is float


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


def pairwise_reference(a, b):
    """Feasibility-first comparison written out pairwise: +1 if a wins."""
    (obj_a, vio_a), (obj_b, vio_b) = a, b
    if (vio_a == 0.0) != (vio_b == 0.0):
        return 1 if vio_a == 0.0 else -1
    if vio_a == 0.0:
        return (obj_a > obj_b) - (obj_a < obj_b)
    return (vio_a < vio_b) - (vio_a > vio_b)


class TestRankKey:
    def test_orders_as_compare_designs(self):
        # feasible, infeasible and failed (-inf, inf) records, with exact ties
        rng = np.random.default_rng(11)
        pool = [(float(rng.normal(190, 3)), 0.0) for _ in range(15)]
        pool += [(float(rng.normal(190, 3)), float(rng.choice([0.1, 0.4, rng.exponential()])))
                 for _ in range(15)]
        pool += [(-math.inf, math.inf)] * 3 + [pool[0], pool[20], (pool[1][0], 0.5)]
        for a, b in itertools.product(pool, repeat=2):
            assert (compare_designs(a, b) > 0) == (rank_key(*a) < rank_key(*b))
            assert (compare_designs(a, b) == 0) == (rank_key(*a) == rank_key(*b))
            assert compare_designs(a, b) == pairwise_reference(a, b)

    def test_key_shape(self):
        assert rank_key(191.0, 0.0) == (0, -191.0)
        assert rank_key(195.0, 0.3) == (1, 0.3)
        assert rank_key(-math.inf, math.inf) == (1, math.inf)


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

    # fom is pessimized by min, pn1m by max
    @pytest.mark.parametrize("name", ["fom", "pn1m"])
    @pytest.mark.parametrize("nan_at", [None, 0, -1])
    def test_table_and_sequence_agree(self, name, nan_at):
        # every column varies over the corners, so a reduction over the
        # wrong axis or in the wrong direction changes the result
        rows = [
            metrics(**{n: v * (1.0 + 0.01 * (k * 7 % 5)) for n, v in metrics().to_dict().items()})
            for k in range(5)
        ]
        expected = {
            n: (min if n in ("f0", "pm", "startup_margin", "fom") else max)(
                getattr(m, n) for m in rows
            )
            for n in METRIC_NAMES
        }
        if nan_at is not None:
            rows[nan_at] = replace(rows[nan_at], **{name: math.nan})
            expected[name] = math.nan
        table = np.array([astuple(m) for m in rows])
        assert repr(worst_case(table).to_dict()) == repr(expected)
        assert repr(worst_case(rows).to_dict()) == repr(expected)

    @pytest.mark.parametrize("name", ["fom", "pn1m"])
    def test_nan_propagates_in_either_order(self, name):
        nan_row, ok = metrics(**{name: math.nan}), metrics()
        for order in ([nan_row, ok], [ok, nan_row]):
            w = worst_case(order)
            assert math.isnan(getattr(w, name))
            assert w.pdyn == ok.pdyn  # the other columns are untouched


class TestWorseSide:
    """The worst case, a constraint and the prescreen judge each metric on
    the same side."""

    def test_lower_is_worse_for_exactly_these(self):
        assert {n for n in METRIC_NAMES if Constraint(n, 1.0).direction == GE} == {
            "f0", "pm", "startup_margin", "fom"
        }

    @pytest.mark.parametrize("name", METRIC_NAMES)
    def test_three_sides_agree(self, name):
        k = METRIC_NAMES.index(name)
        worst = getattr(worst_case(np.array([[1.0] * len(METRIC_NAMES),
                                             [2.0] * len(METRIC_NAMES)])), name)
        lower_is_worse = worst == 1.0
        c = Constraint(name, 1.5)
        assert c.direction == (GE if lower_is_worse else LE)
        # the worst-case value misses the bound, the other one meets it
        assert c.shortfall(worst) == 0.5 and c.shortfall(3.0 - worst) == 0.0
        assert PRESCREEN_SENSES[k] == (-1.0 if lower_is_worse else 1.0)
