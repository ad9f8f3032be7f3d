import itertools
import math
import re
from functools import cmp_to_key

import numpy as np
import pytest

from conftest import pairwise_reference

from ldovco import behavior
from ldovco.optimizer import PRESCREEN_SENSES
from ldovco.problem import (
    GE,
    LE,
    Constraint,
    Corner,
    METRIC_NAMES,
    MOS_PAIRS,
    NOMINAL_CORNER,
    PerfMetrics,
    compare_designs,
    enumerate_corners,
    rank_order,
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

    def test_lexicographic_order(self):
        # MOS pair, then inductor, capacitor and temperature: the pair moves
        # every 8 corners, the temperature every corner
        labels = [c.label() for c in enumerate_corners()]
        assert (labels[0], labels[8], labels[-1]) == (
            "fnfp_minL_minC_m55C", "fnsp_minL_minC_m55C", "snfp_maxL_maxC_125C"
        )

    def test_mos_pair_order_is_documented(self):
        assert MOS_PAIRS == (
            ("fast", "fast"), ("fast", "slow"), ("slow", "slow"), ("slow", "fast")
        )

    def test_vdd_in_default(self):
        # the LDO's input is one constant, not a corner field
        assert behavior.VDD_IN == 1.8 * 0.90

    def test_no_input_supply_field(self):
        with pytest.raises(TypeError):
            Corner(vdd_in=1.1)

    def test_bundled_grid_labels_are_distinct(self, all_corners):
        assert len({c.label() for c in all_corners}) == len(all_corners) == 33
        assert [c.is_nominal() for c in all_corners] == [True] + [False] * 32

    def test_labels_are_distinct_over_every_field(self):
        skews, extremes = ("nominal", "fast", "slow"), ("nominal", "min", "max")
        corners = [Corner(*fields) for fields in itertools.product(
            skews, skews, extremes, extremes, (27.0, -55.0, 0.0, 125.0))]
        assert len({c.label() for c in corners}) == len(corners) == 324
        assert [c for c in corners if c.is_nominal()] == [NOMINAL_CORNER]


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

    def test_array_form_equals_scalar_form(self):
        rng = np.random.default_rng(19)
        f0 = rng.uniform(1e9, 1e10, size=(40, 33))
        pn = rng.uniform(-160.0, -80.0, size=(40, 33))
        pdyn = rng.uniform(1e-4, 1e-1, size=(40, 1))
        table = fom(f0, 1e6, pn, pdyn)
        assert table.shape == (40, 33)
        columns = (f0.ravel().tolist(), pn.ravel().tolist(),
                   np.broadcast_to(pdyn, f0.shape).ravel().tolist())
        scalar = [fom(f, 1e6, n, p) for f, n, p in zip(*columns)]
        assert all(type(value) is float for value in scalar)
        assert table.ravel().tolist() == scalar
        # Eq. 1 in plain floats (libm log10 and pow) agrees with numpy's
        # ufuncs within one ulp: the largest difference measured here is
        # 2.8e-14 dB, on 7 of the 1320 elements
        expected = [-10.0 * math.log10((1e6 / f) ** 2 * (p / 1e-3)) - n
                    for f, n, p in zip(*columns)]
        assert scalar == pytest.approx(expected, rel=0.0, abs=1e-12)

    @pytest.mark.parametrize("f0,delta_f,expected", [
        (1e-200, 1e6, -math.inf),  # (df/f0)^2 overflows
        (1e300, 1e-10, math.inf),  # (df/f0)^2 underflows to 0
    ])
    def test_out_of_range_ratio_is_inf_without_a_warning(self, f0, delta_f, expected):
        # an inf FoM is what the finite-metric check names
        assert fom(f0, delta_f, -120.0, 1e-3) == expected

    def test_any_nonpositive_element_rejected(self):
        with pytest.raises(ValueError):
            fom(np.array([5e9, 0.0]), 1e6, -120.0, 1e-3)


class TestViolation:
    def test_co_design_nominal_row_feasible(self, constraints):
        m = metrics(
            f0=5.60e9, pn100k=-95.6, pn1m=-124.1, pn10m=-144.7, pdyn=4.56e-3,
            psr_max=-31.4, vdd_max=1.23, pm=82.0,
        )
        assert violation(m, constraints) == 0.0

    def test_single_shortfall_normalized(self, constraints):
        m = metrics(pn100k=-93.8)
        assert violation(m, constraints) == pytest.approx(0.2 / 94.0)

    def test_boundary_counts_as_satisfied(self, constraints):
        assert violation(metrics(pm=50.0), constraints) == 0.0

    # one upper-bounded and one lower-bounded metric
    @pytest.mark.parametrize("metric", ["pdyn", "pm"], ids=["<=", ">="])
    def test_nan_is_never_satisfied(self, metric, constraints):
        assert Constraint(metric, 50.0).shortfall(math.nan) == math.inf
        assert violation(metrics(pm=math.nan), constraints) == math.inf

    def test_hairline_bound_gives_inf_without_a_warning(self):
        # 50 / 1e-308 overflows; the suite turns a RuntimeWarning into an error
        assert violation(metrics(pm=49.5), (Constraint("pm", 1e-308),)) == 0.0
        assert violation(metrics(pm=-50.0), (Constraint("pm", 1e-308),)) == math.inf

    def test_zero_iff_all_satisfied(self, constraints):
        assert violation(metrics(), constraints) == 0.0
        assert violation(metrics(pdyn=7.1e-3), constraints) > 0.0

    def test_monotone_in_each_metric(self, constraints):
        base = metrics(pdyn=7.5e-3, pm=45.0)
        worse = metrics(pdyn=8.0e-3, pm=40.0)
        assert violation(worse, constraints) > violation(base, constraints)

    def test_zero_bound_rejected(self):
        with pytest.raises(ValueError):
            violation(metrics(), (Constraint("pm", 0.0),))


def plain_shortfall(c: Constraint, value: float) -> float:
    """The shortfall rule in plain floats: the miss on the worse side when
    positive, else 0.0, and inf for NaN."""
    miss = c.bound - value if c.direction == GE else value - c.bound
    return math.inf if math.isnan(value) else max(0.0, miss)


def plain_violation(row: PerfMetrics, constraints) -> float:
    """The violation rule in plain floats, summed in constraint order."""
    total = 0.0
    for c in constraints:
        total += plain_shortfall(c, getattr(row, c.metric)) / abs(c.bound)
    return total


class TestViolationTable:
    """A (designs, metrics) table follows the plain-float rule row by row."""

    @staticmethod
    def _table():
        rng = np.random.default_rng(17)
        base = np.array(tuple(metrics()))
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

    def test_rows_match_the_scalar_rule(self, constraints):
        table = self._table()
        vio = violation(table, constraints)
        assert vio.shape == (len(table),)
        expected = [plain_violation(PerfMetrics(*row.tolist()), constraints)
                    for row in table]
        assert vio.tolist() == expected  # bit for bit; inf compares equal
        assert [repr(v) for v in vio.tolist()] == [repr(v) for v in expected]
        # one row gives the same float as its row of the table
        for row, value in zip(table, expected):
            assert repr(violation(PerfMetrics(*row.tolist()), constraints)) == repr(value)
        # a row and its named metrics round-trip bit for bit, NaN and inf included
        for row in table:
            assert np.array(PerfMetrics(*row.tolist())).tobytes() == row.tobytes()
        # the table holds feasible, finitely infeasible and infinite rows
        assert 0.0 in expected and math.inf in expected
        assert any(0.0 < v < math.inf for v in expected)

    def test_shortfall_matches_elementwise(self):
        values = np.array([-math.inf, -1.0, 0.0, 49.0, 50.0, 51.0, math.inf, math.nan])
        for metric in ("pdyn", "pm"):  # <= and >=
            c = Constraint(metric, 50.0)
            expected = [plain_shortfall(c, v) for v in values.tolist()]
            assert c.shortfall(values).tolist() == expected
            assert [float(c.shortfall(v)) for v in values.tolist()] == expected

    def test_missing_metric_rejected(self):
        with pytest.raises(KeyError):
            violation(self._table(), (Constraint("gain", 1.0),))

    def test_zero_bound_rejected(self):
        with pytest.raises(ValueError):
            violation(self._table(), (Constraint("pm", 0.0),))

    def test_wrong_width_rejected(self, constraints):
        with pytest.raises(ValueError):
            violation(self._table()[:, :-1], constraints)

    def test_scalar_result_is_a_float(self, constraints):
        assert type(violation(metrics(), constraints)) is float
        assert type(violation(metrics(pdyn=8e-3), constraints)) is float


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

    def test_nan_objective_ranks_behind_every_feasible_number(self):
        rng = np.random.default_rng(5)
        finite = [(float(rng.normal(190, 3)), 0.0) for _ in range(10)]
        finite += [(-math.inf, 0.0), (math.inf, 0.0)]
        for nan_pair in [(math.nan, 0.0), (-math.nan, 0.0)]:
            assert compare_designs(nan_pair, (math.nan, 0.0)) == 0
            for a in finite:
                assert compare_designs(nan_pair, a) == -1
                assert compare_designs(a, nan_pair) == 1
            # it stays feasible: ahead of every infeasible pair
            assert compare_designs(nan_pair, (195.0, 0.3)) == 1
            assert compare_designs((195.0, 0.3), nan_pair) == -1


def score_pool():
    """Feasible, infeasible and failed (-inf, inf) pairs, NaN objectives in
    both groups, a NaN violation, and exact ties."""
    rng = np.random.default_rng(11)
    pool = [(float(rng.normal(190, 3)), 0.0) for _ in range(15)]
    pool += [(float(rng.normal(190, 3)), float(rng.choice([0.1, 0.4, rng.exponential()])))
             for _ in range(15)]
    pool += [(-math.inf, math.inf)] * 3 + [pool[0], pool[20], (pool[1][0], 0.5)]
    return pool + [(math.nan, 0.0), (math.nan, 0.2), (190.0, math.nan), (math.nan, 0.0)]


class TestRankOrder:
    def test_orders_as_compare_designs(self):
        pool = score_pool()
        for a, b in itertools.product(pool, repeat=2):
            assert compare_designs(a, b) == pairwise_reference(a, b)

    def test_is_the_stable_sort_by_the_pairwise_rule(self):
        pool = score_pool()
        rng = np.random.default_rng(3)
        for pairs in [pool] + [[pool[i] for i in rng.permutation(len(pool))] for _ in range(5)]:
            ahead = cmp_to_key(lambda i, j, pairs=pairs: pairwise_reference(pairs[j], pairs[i]))
            assert rank_order(*zip(*pairs)).tolist() == sorted(range(len(pairs)), key=ahead)


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
            metrics(**{n: v * (1.0 + 0.01 * (k * 7 % 5)) for n, v in metrics()._asdict().items()})
            for k in range(5)
        ]
        expected = {
            n: (min if n in ("f0", "pm", "startup_margin", "fom") else max)(
                getattr(m, n) for m in rows
            )
            for n in METRIC_NAMES
        }
        if nan_at is not None:
            rows[nan_at] = rows[nan_at]._replace(**{name: math.nan})
            expected[name] = math.nan
        # a PerfMetrics is its row in METRIC_NAMES order
        assert list(PerfMetrics._fields) == METRIC_NAMES
        assert all(tuple(m) == tuple(getattr(m, n) for n in METRIC_NAMES) for m in rows)
        table = np.array([tuple(m) for m in rows])
        assert repr(worst_case(table)._asdict()) == repr(expected)
        assert repr(worst_case(rows)._asdict()) == repr(expected)

    @pytest.mark.parametrize("name", ["fom", "pn1m"])
    def test_nan_propagates_in_either_order(self, name):
        nan_row, ok = metrics(**{name: math.nan}), metrics()
        for order in ([nan_row, ok], [ok, nan_row]):
            w = worst_case(order)
            assert math.isnan(getattr(w, name))
            assert w.pdyn == ok.pdyn  # the other columns are untouched


class TestStackedWorstCase:
    """A (designs, corners, metrics) stack gives, row for row, the bits of
    worst_case on each design's table."""

    @staticmethod
    def assert_rows_match(stack):
        rows = worst_case(stack)
        assert rows.shape == (len(stack), len(METRIC_NAMES))
        for row, table in zip(rows, stack, strict=True):
            assert row.tobytes() == np.array(worst_case(table)).tobytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_special_values(self, seed):
        rng = np.random.default_rng(seed)
        stack = rng.normal(size=(9, 33, len(METRIC_NAMES))) * 1e3
        specials = np.array([math.nan, math.inf, -math.inf, 0.0, -0.0])
        cells = rng.random(stack.shape) < 0.1
        stack[cells] = rng.choice(specials, size=cells.sum())
        stack[0] = math.nan  # a design with no finite cell
        stack[1, :, 3] = -0.0  # a column of -0.0 and one of mixed signed zeros
        stack[2, :, 4] = np.where(np.arange(33) % 2, 0.0, -0.0)
        self.assert_rows_match(stack)

    def test_crosses_a_chunk_boundary(self, space, tc, all_corners):
        from ldovco.behavior import CHUNK_DESIGNS, evaluate_batch
        from ldovco.space import sample_initial

        points = sample_initial(space, CHUNK_DESIGNS + 1, seed=11)
        batch = evaluate_batch(space, points, all_corners, "ideal_supply", tc)
        assert batch.survivors[-1] == CHUNK_DESIGNS  # the design past the boundary
        self.assert_rows_match(batch.tables)

    def test_empty_stack(self):
        assert worst_case(np.empty((0, 33, len(METRIC_NAMES)))).shape == (0, len(METRIC_NAMES))

    @pytest.mark.parametrize("shape", [(len(METRIC_NAMES),), (2, 3, 4, len(METRIC_NAMES)),
                                       (3, 4), (2, 3, 4)])
    def test_wrong_shape_is_named(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
            worst_case(np.zeros(shape))


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
