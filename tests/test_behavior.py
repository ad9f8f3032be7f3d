import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from conftest import coupled_parts

from ldovco.behavior import (
    C_OX,
    DEFAULT_TECH,
    EvaluationFailure,
    FIXED_ELEMENTS,
    FREQ_GRID,
    F_CORNER_SCALE,
    GR_LOSS_REF,
    LDO_VARIABLES,
    MODES,
    SWEEP_OFFSETS,
    TechConstants,
    VCO_VARIABLES,
    VcoDerived,
    WHEELER_K1,
    WHEELER_K2,
    CORNER_FIELDS,
    _design_values,
    _Failures,
    apply_corners,
    combine_pn,
    coupled_swing_limit,
    evaluate,
    evaluate_corners,
    map_ldo,
    map_vco,
    phase_margin,
    pn_sweep,
    resonant_frequency,
    supply_pn,
    vco_pn_intrinsic,
)
from ldovco.problem import (
    METRIC_NAMES, Corner, NOMINAL_CORNER, PerfMetrics, enumerate_corners, fom,
)
from ldovco.space import point_as_dict, sample_initial

IDEAL_AMP_LIMIT = 0.9 * 1.2


def fold_one(tc, corner):
    """The constants of a one-corner apply_corners fold, as scalars."""
    tcc, _ = apply_corners(tc, (corner,))
    return replace(tcc, **{name: getattr(tcc, name)[0].item() for name in CORNER_FIELDS})


def vco_model(space, point, tc, amp_limit):
    """map_vco over a one-corner fold at the nominal corner with its own
    collector, which raises the first failure."""
    corners = (NOMINAL_CORNER,)
    tcc, _ = apply_corners(tc, corners)
    failures = _Failures(corners)
    d = map_vco(_design_values(space, point), tcc, amp_limit, failures)
    failures.raise_first()
    return d


def ldo_model(space, point, tc, i_load, c_load, corners=(NOMINAL_CORNER,)):
    """map_ldo over a fold of `corners` (nominal: a 1.62 V input) with its
    own collector."""
    tcc, vdd_in = apply_corners(tc, tuple(corners))
    return map_ldo(_design_values(space, point), tcc, i_load, vdd_in, c_load, _Failures(corners))


class TestApplyCorner:
    def test_nominal_is_identity(self, tc):
        assert fold_one(tc, NOMINAL_CORNER) == tc

    def test_slow_hot_max_directions(self, tc):
        corner = Corner(nmos="slow", pmos="slow", inductor="max",
                        capacitor="max", temperature=125.0)
        out = fold_one(tc, corner)
        hot = (125 + 273) / 300
        assert out.kp_n == pytest.approx(tc.kp_n * 0.9 * hot**-1.5)
        assert out.kp_p == pytest.approx(tc.kp_p * 0.9 * hot**-1.5)
        assert out.ind_scale == pytest.approx(tc.ind_scale * 1.1)
        assert out.c_unit_mom == pytest.approx(tc.c_unit_mom * 1.15)
        assert out.kT == pytest.approx(tc.kT * hot)

    def test_fast_cold_min_directions(self, tc):
        corner = Corner(nmos="fast", pmos="fast", inductor="min",
                        capacitor="min", temperature=-55.0)
        out = fold_one(tc, corner)
        assert out.kp_n > tc.kp_n
        assert out.ind_scale == pytest.approx(tc.ind_scale * 0.9)
        assert out.c_unit_mom == pytest.approx(tc.c_unit_mom * 0.85)
        assert out.kT < tc.kT

    def test_worst_corner_reaches_min_f0(self, space, tc, co_point):
        # exhaustive oracle: f0 across all 32 corners; the slow/slow,
        # max-L, max-C, 125 C corner must sit at the minimum
        corners = enumerate_corners()
        f0s = [evaluate(space, co_point, c, "coupled", tc).f0 for c in corners]
        target = Corner(nmos="slow", pmos="slow", inductor="max",
                        capacitor="max", temperature=125.0)
        f0_target = evaluate(space, co_point, target, "coupled", tc).f0
        assert f0_target == pytest.approx(min(f0s), rel=1e-12)


class TestMapVco:
    def test_resonance_formula(self):
        assert resonant_frequency(1e-9, 1e-12) == pytest.approx(5.0329e9, rel=1e-4)

    def test_f0_consistent_with_tank(self, space, tc, co_point):
        d = vco_model(space, co_point, tc, IDEAL_AMP_LIMIT)
        assert d.f0 == pytest.approx(resonant_frequency(d.l_tank, d.c_tank), rel=1e-12)

    def test_doubling_m2_doubles_bias(self, space, tc, co_point):
        d1 = vco_model(space, co_point, tc, IDEAL_AMP_LIMIT)
        doubled = np.array(co_point)
        doubled[space.index_of("M2")] *= 2
        d2 = vco_model(space, doubled, tc, IDEAL_AMP_LIMIT)
        assert d2.i_bias == pytest.approx(2 * d1.i_bias, rel=1e-12)

    def test_bundled_point_lands_in_band(self, space, tc, co_point):
        d = vco_model(space, co_point, tc, IDEAL_AMP_LIMIT)
        assert 4e9 <= d.f0 <= 8e9

    def test_bundled_point_against_independent_arithmetic(self, space, tc, co_point):
        # independent route: same documented closed forms, recomputed from
        # the raw table values without going through map_vco
        v = point_as_dict(space, co_point)
        d_in = 2 * v["R_ind"]
        d_out = d_in + 2 * (v["NT_ind"] * v["W_ind"] + (v["NT_ind"] - 1) * v["S_ind"])
        d_avg = (d_in + d_out) / 2
        rho = (d_out - d_in) / (d_out + d_in)
        l_expect = WHEELER_K1 * 4e-7 * math.pi * v["NT_ind"] ** 2 * d_avg / (1 + WHEELER_K2 * rho)
        c_mom = tc.c_unit_mom * v["N_H"] * v["N_V"] * (4 - v["M_bot"])
        widths = v["W_34"] * v["F_34"] * v["M_34"] + v["W_56"] * v["F_56"] * v["M_56"]
        c_expect = c_mom + 120e-15 + tc.c_par_unit * widths
        r_s = tc.sheet_r * (4 * v["NT_ind"] * d_avg / v["W_ind"]) * (1 + GR_LOSS_REF / v["GR_ind"])

        d = vco_model(space, co_point, tc, IDEAL_AMP_LIMIT)
        assert d.l_tank == pytest.approx(l_expect, rel=1e-12)
        assert d.c_tank == pytest.approx(c_expect, rel=1e-12)
        assert d.f0 == pytest.approx(1 / (2 * math.pi * math.sqrt(l_expect * c_expect)), rel=1e-12)
        assert d.q_tank == pytest.approx(2 * math.pi * d.f0 * l_expect / r_s, rel=1e-12)
        assert d.i_bias == pytest.approx(tc.i_unit * v["M2"], rel=1e-12)
        assert d.k_push == pytest.approx(tc.kappa_push * d.f0 * d.c_par / d.c_tank, rel=1e-12)
        assert d.f_corner_1f == pytest.approx(
            tc.kf / (v["W_56"] * v["F_56"] * v["M_56"] * v["L_56"] * C_OX) * F_CORNER_SCALE,
            rel=1e-12,
        )

    def test_amplitude_clipping(self, space, tc, co_point):
        unclipped = vco_model(space, co_point, tc, math.inf)
        clipped = vco_model(space, co_point, tc, 0.81)
        assert clipped.amplitude == 0.81 < unclipped.amplitude
        assert clipped.p_sig < unclipped.p_sig


def make_vco(f0=5.6e9, q=10.0, p_sig=1e-3, f_corner=2e5):
    r_p = 500.0
    return VcoDerived(
        l_tank=1e-9, q_tank=q, c_tank=1e-12, c_par=1e-13, i_bias=2e-3,
        gm_sw=1e-2, r_p=r_p, amplitude=1.0, amp_unclipped=1.2,
        p_sig=p_sig, f0=f0, f_corner_1f=f_corner, k_push=5e7,
    )


class TestIntrinsicPn:
    def test_far_offset_floor(self):
        # F_noise -> 1, kT at 290 K, 1 mW carrier: the thermal-floor identity
        tc290 = replace(DEFAULT_TECH, gamma_excess=1e-15, kT=1.380649e-23 * 290)
        d = make_vco(q=1e9, f_corner=1e-6)
        pn = vco_pn_intrinsic(d, 1e6, tc290)
        assert pn == pytest.approx(-170.97, abs=0.01)

    def test_leeson_slope_in_f2_region(self, tc):
        d = make_vco(q=10.0, f_corner=1e3)
        delta = vco_pn_intrinsic(d, 1e6, tc) - vco_pn_intrinsic(d, 1e5, tc)
        assert delta == pytest.approx(-20.0, abs=0.5)

    def test_formula_against_independent_evaluation(self, tc):
        d = make_vco(f0=5.6e9, q=10.0, p_sig=1e-3, f_corner=2e5)
        expected = 10 * math.log10(
            (2 * (1 + tc.gamma_excess) * tc.kT / 1e-3)
            * (1 + (5.6e9 / (2 * 10.0 * 1e6)) ** 2)
            * (1 + 2e5 / 1e6)
        )
        assert vco_pn_intrinsic(d, 1e6, tc) == pytest.approx(expected, abs=1e-9)

    def test_rejects_nonpositive_offset(self, tc):
        with pytest.raises(ValueError):
            vco_pn_intrinsic(make_vco(), 0.0, tc)


class TestLdoModel:
    def test_single_pole_limit(self):
        assert phase_margin(1e5, 1e12) == pytest.approx(90.0, abs=1e-4)

    def test_gbw_equals_p2_gives_45(self):
        assert phase_margin(1e6, 1e6) == pytest.approx(45.0, abs=1e-12)

    def test_lhp_zero_adds_phase_rhp_removes(self):
        base = phase_margin(1e6, 1e7)
        assert phase_margin(1e6, 1e7, f_z=-1e6) == pytest.approx(base + 45.0)
        assert phase_margin(1e6, 1e7, f_z=+1e6) == pytest.approx(base - 45.0)

    def test_map_ldo_quantities(self, space, tc, co_point):
        d = ldo_model(space, co_point, tc, 3e-3, 1e-12)
        v = point_as_dict(space, co_point)
        assert d.v_drop == pytest.approx(0.42)
        assert d.gbw == pytest.approx(d.gm1 / (2 * math.pi * v["C_C"]), rel=1e-12)
        assert d.a_dc > 0
        assert d.i_q > 0
        assert 1.2 <= d.vdd_max <= 1.62
        assert d.psr_curve.shape == d.vn_at(FREQ_GRID).shape == (1, 241)

    def test_gm1_improves_dc_psr(self, space, tc, co_point):
        d1 = ldo_model(space, co_point, tc, 3e-3, 1e-12)
        bigger = np.array(co_point)
        bigger[space.index_of("W_pIn")] *= 2
        d2 = ldo_model(space, bigger, tc, 3e-3, 1e-12)
        assert d2.gm1 > d1.gm1
        assert d2.psr_curve[0, 0] < d1.psr_curve[0, 0]

    def test_cc_lowers_gbw(self, space, tc, co_point):
        d1 = ldo_model(space, co_point, tc, 3e-3, 1e-12)
        bigger = np.array(co_point)
        bigger[space.index_of("C_C")] *= 1.3
        d2 = ldo_model(space, bigger, tc, 3e-3, 1e-12)
        assert d2.gbw < d1.gbw

    def test_undersized_pass_fails_headroom(self, space, tc, co_point):
        starved = np.array(co_point)
        starved[space.index_of("W_pass")] = 500e-9
        starved[space.index_of("F_pass")] = 2
        starved[space.index_of("M_pass")] = 1
        starved[space.index_of("L_pass")] = 10e-6
        with pytest.raises(EvaluationFailure) as info:
            ldo_model(space, starved, tc, 5e-3, 1e-12)
        assert info.value.quantity == "pass_headroom"

    def test_low_input_cannot_regulate(self, space, tc, co_point):
        with pytest.raises(EvaluationFailure) as info:
            ldo_model(space, co_point, tc, 1e-3, 1e-12, [Corner(vdd_in=1.1)])
        assert info.value.quantity == "v_drop"


class TestSupplyPn:
    def test_zero_noise_is_minus_inf(self):
        assert supply_pn(5e7, 0.0, 1e6) == -math.inf

    def test_zero_coupling_is_minus_inf(self):
        assert supply_pn(0.0, 1e-8, 1e6) == -math.inf

    def test_doubling_kpush_adds_6db(self):
        a = supply_pn(1e7, 1e-8, 1e6)
        b = supply_pn(2e7, 1e-8, 1e6)
        assert b - a == pytest.approx(20 * math.log10(2), abs=1e-12)

    def test_reference_value(self):
        # k_push 10 MHz/V, 100 nV/rtHz at 1 MHz offset
        expected = 20 * math.log10(1e7 * 1e-7 / (math.sqrt(2) * 1e6))
        got = supply_pn(1e7, 1e-7, 1e6)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(-123.01, abs=0.01)


class TestCombinePn:
    def test_minus_inf_is_identity(self):
        assert combine_pn([-120.0, -math.inf]) == pytest.approx(-120.0)

    def test_equal_power_sum(self):
        assert combine_pn([-120.0, -120.0]) == pytest.approx(-116.99, abs=0.01)

    def test_permutation_invariant_and_associative(self):
        parts = [-120.0, -116.5, -130.2]
        assert combine_pn(parts) == pytest.approx(combine_pn(parts[::-1]), abs=1e-12)
        ab_c = combine_pn([combine_pn(parts[:2]), parts[2]])
        a_bc = combine_pn([parts[0], combine_pn(parts[1:])])
        assert ab_c == pytest.approx(a_bc, abs=1e-9)

    def test_all_minus_inf(self):
        assert combine_pn([-math.inf, -math.inf]) == -math.inf

    def test_supply_dominance_crossover_for_bundled_points(self, space, tc, co_point, se_point):
        # sweep oracle: the supply part overtakes the intrinsic part at
        # 100 kHz but has fallen back below it by 10 MHz, for both points
        for point in (co_point, se_point):
            vco, ldo = coupled_parts(space, point, tc)
            intr_100k = vco_pn_intrinsic(vco, 1e5, tc)
            sup_100k = supply_pn(vco.k_push, ldo.vn_at(1e5), 1e5)
            intr_10m = vco_pn_intrinsic(vco, 1e7, tc)
            sup_10m = supply_pn(vco.k_push, ldo.vn_at(1e7), 1e7)
            assert sup_100k > intr_100k
            assert sup_10m < intr_10m


class TestEvaluate:
    def test_deterministic_bit_identical(self, space, tc, co_point, all_corners):
        for corner in all_corners[:3]:
            a = evaluate(space, co_point, corner, "coupled", tc)
            b = evaluate(space, co_point, corner, "coupled", tc)
            assert a == b

    def test_fom_consistent_with_eq1(self, space, tc, co_point, all_corners):
        for mode in ("ideal_supply", "coupled"):
            for corner in all_corners[:5]:
                m = evaluate(space, co_point, corner, mode, tc)
                assert m.fom == fom(m.f0, 1e6, m.pn1m, m.pdyn)

    def test_worst_corner_fom_below_nominal(self, space, tc, co_point, se_point, all_corners):
        for point in (co_point, se_point):
            per = [evaluate(space, point, c, "coupled", tc) for c in all_corners]
            assert min(m.fom for m in per) <= per[0].fom

    def test_coupled_pn_never_below_ideal(self, space, tc, co_point, se_point):
        for point in (co_point, se_point):
            ideal = pn_sweep(space, point, NOMINAL_CORNER, "ideal_supply", tc)
            coupled = pn_sweep(space, point, NOMINAL_CORNER, "coupled", tc)
            assert np.all(coupled >= ideal - 1e-12)

    def test_bypass_capacitor_trap(self, space, tc, co_point):
        # increasing the fixed bypass capacitance must strictly improve
        # psr_max and strictly reduce the voltage-limited signal power
        from ldovco.space import DesignSpace

        values = [10e-12, 20e-12, 40e-12, 80e-12]
        psr, p_sig = [], []
        for c_byp in values:
            fixed = dict(space.fixed, c_byp=c_byp)
            sp = DesignSpace(space.variables, fixed)
            psr.append(evaluate(sp, co_point, NOMINAL_CORNER, "coupled", tc).psr_max)
            p_sig.append(coupled_parts(sp, co_point, tc)[0].p_sig)
        assert all(b < a for a, b in zip(psr, psr[1:]))
        assert all(b < a for a, b in zip(p_sig, p_sig[1:]))

    def test_swing_limit_monotone_in_bypass(self):
        assert coupled_swing_limit(10e-12) > coupled_swing_limit(40e-12)

    def test_ideal_mode_uses_core_power_only(self, space, tc, co_point):
        m = evaluate(space, co_point, NOMINAL_CORNER, "ideal_supply", tc)
        d = vco_model(space, co_point, tc, IDEAL_AMP_LIMIT)
        assert m.pdyn == pytest.approx(1.2 * d.i_bias, rel=1e-12)

    def test_coupled_power_includes_ldo(self, space, tc, co_point):
        m = evaluate(space, co_point, NOMINAL_CORNER, "coupled", tc)
        vco, ldo = coupled_parts(space, co_point, tc)
        assert m.pdyn == pytest.approx(1.62 * (vco.i_bias + ldo.i_q), rel=1e-12)

    def test_ldo_only_requires_i_load(self, space, tc, co_point):
        with pytest.raises(ValueError):
            evaluate(space, co_point, NOMINAL_CORNER, "ldo_only", tc)
        m = evaluate(space, co_point, NOMINAL_CORNER, "ldo_only", tc, i_load=2e-3)
        assert np.isfinite(list(m.to_dict().values())).all()

    def test_unknown_mode_rejected(self, space, tc, co_point):
        with pytest.raises(ValueError):
            evaluate(space, co_point, NOMINAL_CORNER, "spice", tc)

    def test_monotonicity_bias_power(self, space, tc, co_point):
        # rising bias current raises signal power until the swing clips
        base = np.array(co_point)
        base[space.index_of("M2")] = 30
        p_prev = 0.0
        clipped_seen = False
        for m2 in (30, 60, 120, 240, 480, 960):
            pt = np.array(base)
            pt[space.index_of("M2")] = m2
            vco, _ = coupled_parts(space, pt, tc)
            if vco.amp_unclipped < vco.amplitude + 1e-15:
                assert vco.p_sig > p_prev
            else:
                clipped_seen = True
            p_prev = vco.p_sig
        assert clipped_seen

    def test_monotonicity_q_improves_pn(self, tc):
        lo = make_vco(q=8.0)
        hi = replace(make_vco(q=8.0), q_tank=16.0)
        assert vco_pn_intrinsic(hi, 1e6, tc) < vco_pn_intrinsic(lo, 1e6, tc)

    def test_sweep_grid_span(self):
        assert SWEEP_OFFSETS[0] == pytest.approx(1e4)
        assert SWEEP_OFFSETS[-1] == pytest.approx(1e8)
        assert len(SWEEP_OFFSETS) == 81  # 20 points per decade over 4 decades


def per_corner_run(space, tc, point, corners, mode, i_load):
    """evaluate at each corner in turn: the metrics, and the (quantity,
    corner) of the first failing corner, or None."""
    out = []
    for corner in corners:
        try:
            out.append(evaluate(space, point, corner, mode, tc, i_load=i_load))
        except EvaluationFailure as exc:
            return out, (exc.quantity, exc.corner, str(exc))
    return out, None


class TestEvaluateCorners:
    @pytest.mark.parametrize("mode,n_failing", [
        ("ideal_supply", 0), ("coupled", 44), ("ldo_only", 30),
    ])
    def test_matches_single_corner_evaluations(self, space, tc, co_point, se_point,
                                               all_corners, mode, n_failing):
        # the golden-value designs: the batch path against the one-corner
        # path corner by corner; 14 of the coupled and 7 of the ldo_only
        # failures pass the nominal corner and fail at a later one
        i_load = 2e-3 if mode == "ldo_only" else None
        failures = 0
        for point in [co_point, se_point] + sample_initial(space, 64, seed=2024):
            expected, failure = per_corner_run(space, tc, point, all_corners, mode, i_load)
            try:
                batch = evaluate_corners(space, point, all_corners, mode, tc, i_load=i_load)
            except EvaluationFailure as exc:
                assert (exc.quantity, exc.corner, str(exc)) == failure
                failures += 1
                continue
            assert failure is None
            assert batch.dtype == np.float64
            assert batch.shape == (len(all_corners), len(METRIC_NAMES))
            assert [PerfMetrics.from_row(row) for row in batch] == expected
        assert failures == n_failing

    def test_apply_corners_stacks_apply_corner(self, tc, all_corners):
        stacked, vdd_in = apply_corners(tc, all_corners)
        for k, corner in enumerate(all_corners):
            one = fold_one(tc, corner)
            assert all(getattr(stacked, f)[k] == getattr(one, f) for f in CORNER_FIELDS)
            assert vdd_in[k] == corner.vdd_in
        assert stacked.kf == tc.kf

    def test_failure_names_lowest_failing_corner(self, space, tc, all_corners):
        # passes the nominal corner and corners 1-17; at corner 18 (slow-slow,
        # 125 C) the pass device runs out of gate drive
        point = sample_initial(space, 64, seed=2024)[22]
        with pytest.raises(EvaluationFailure) as info:
            evaluate_corners(space, point, all_corners, "coupled", tc)
        assert info.value.quantity == "pass_headroom"
        assert info.value.corner == all_corners[18].label() == "snsp_minL_minC_125C"
        assert np.isfinite(evaluate_corners(space, point, all_corners[:18], "coupled", tc)).all()
        with pytest.raises(EvaluationFailure) as single:
            evaluate(space, point, all_corners[18], "coupled", tc)
        assert single.value.corner == "snsp_minL_minC_125C"
        assert str(single.value) == str(info.value)

    def test_lowest_corner_first_then_model_order(self, space, tc, all_corners):
        # a negative unit MOM capacitance sized so that the tank capacitance
        # is positive up to the nominal value but negative on the max-C
        # corners, the first of which is corner 3
        lhs = sample_initial(space, 64, seed=2024)

        def failure(point):
            v = point_as_dict(space, point)
            fingers = v["N_H"] * v["N_V"] * (4.0 - v["M_bot"])
            width_sw = v["W_34"] * v["F_34"] * v["M_34"] + v["W_56"] * v["F_56"] * v["M_56"]
            c_rest = space.fixed["c_var"] + tc.c_par_unit * width_sw
            shrunk = replace(tc, c_unit_mom=-c_rest / (1.07 * fingers))
            with pytest.raises(EvaluationFailure) as info:
                evaluate_corners(space, point, all_corners, "coupled", shrunk)
            return info.value.quantity, info.value.corner

        # c_tank at corner 3 comes before the headroom failure at corner 18
        assert failure(lhs[22]) == ("c_tank", all_corners[3].label())
        # design 5 runs out of headroom at corner 2, before corner 3
        assert failure(lhs[5]) == ("pass_headroom", all_corners[2].label())
        # at the nominal corner design 0 fails headroom, and l_tank is tested first
        negative_l = replace(tc, ind_scale=-1.0)
        with pytest.raises(EvaluationFailure) as info:
            evaluate_corners(space, lhs[0], all_corners, "coupled", negative_l)
        assert (info.value.quantity, info.value.corner) == ("l_tank", "nominal")


# The quantities the models test before any metric is formed.
MODEL_QUANTITIES = ("l_tank", "c_tank", "q_tank", "p_sig", "v_drop", "pass_headroom")


class TestFiniteMetrics:
    """Metrics leave the evaluator finite, or the evaluation fails."""

    @pytest.mark.parametrize("vdd_in", [math.nan, math.inf])
    def test_non_finite_supply_fails_at_its_corner(self, space, tc, co_point, vdd_in):
        # the model checks pass, but pdyn = vdd_in * current is not finite
        hot = Corner(temperature=125.0, vdd_in=vdd_in)
        with pytest.raises(EvaluationFailure) as batch:
            evaluate_corners(space, co_point, (NOMINAL_CORNER, hot), "coupled", tc)
        assert (batch.value.quantity, batch.value.corner) == ("pdyn", hot.label())
        with pytest.raises(EvaluationFailure) as single:
            evaluate(space, co_point, hot, "coupled", tc)
        assert (single.value.quantity, single.value.corner) == ("pdyn", hot.label())
        assert str(single.value) == str(batch.value)

    def test_design_box_property(self, space, tc, all_corners):
        # LHS designs and box vertices: each evaluation gives a finite
        # (33, 10) table or fails with a named quantity at one of the corners
        rng = np.random.default_rng(7)
        vertices = np.where(rng.integers(0, 2, size=(100, space.dim)) == 1,
                            space.uppers(), space.lowers())
        points = sample_initial(space, 100, seed=7) + list(vertices)
        labels = {c.label() for c in all_corners}
        counts = Counter()
        for mode in MODES:
            i_load = 2e-3 if mode == "ldo_only" else None
            for point in points:
                try:
                    table = evaluate_corners(space, point, all_corners, mode, tc, i_load=i_load)
                except EvaluationFailure as exc:
                    assert exc.quantity in MODEL_QUANTITIES + tuple(METRIC_NAMES)
                    assert exc.corner in labels
                    counts[mode, "failed"] += 1
                    continue
                assert table.shape == (33, len(METRIC_NAMES))
                assert np.isfinite(table).all()
                counts[mode, "ok"] += 1
        # every mode gives metrics for some designs; coupled mode also rejects some
        assert all(counts[mode, "ok"] for mode in MODES)
        assert counts["coupled", "failed"]

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("names", [(n,) for n in VCO_VARIABLES + LDO_VARIABLES]
                             + [("M_34", "M_56")], ids="+".join)
    def test_zero_valued_variables(self, space, tc, co_point, all_corners, names, mode):
        # a problem file may set a lower bound of 0: the bundled co-design
        # point with the named variables at 0 gives finite metrics or fails
        # by name, never with a ZeroDivisionError or a math domain error
        point = np.array(co_point)
        point[[space.index_of(n) for n in names]] = 0.0
        i_load = 2e-3 if mode == "ldo_only" else None
        try:
            table = evaluate_corners(space, point, all_corners, mode, tc, i_load=i_load)
        except EvaluationFailure as exc:
            assert exc.quantity in MODEL_QUANTITIES + tuple(METRIC_NAMES)
            assert exc.corner in {c.label() for c in all_corners}
            return
        assert np.isfinite(table).all()

    @pytest.mark.parametrize("names,quantity", [(("M2",), "p_sig"), (("M_34", "M_56"), "pn100k")])
    def test_zero_valued_coupled_failures(self, space, tc, co_point, all_corners, names, quantity):
        # no bias current, so no swing; no switching devices, so no supply
        # coupling (its phase-noise part is -inf) and an unbounded flicker corner
        point = np.array(co_point)
        point[[space.index_of(n) for n in names]] = 0.0
        with pytest.raises(EvaluationFailure) as info:
            evaluate_corners(space, point, all_corners, "coupled", tc)
        assert (info.value.quantity, info.value.corner) == (quantity, "nominal")


class _ReadNames(dict):
    """A design-value dict that records every name read from it."""

    def __init__(self, values):
        super().__init__(values)
        self.read = set()

    def __getitem__(self, name):
        self.read.add(name)
        return super().__getitem__(name)


def test_models_read_the_named_variables_and_fixed_elements(space, tc, co_point):
    corners = (NOMINAL_CORNER,)
    tcc, vdd_in = apply_corners(tc, corners)
    vco_values = _ReadNames(_design_values(space, co_point))
    ldo_values = _ReadNames(_design_values(space, co_point))
    map_vco(vco_values, tcc, IDEAL_AMP_LIMIT, _Failures(corners))
    map_ldo(ldo_values, tcc, 2e-3, vdd_in, 1e-12, _Failures(corners))
    assert vco_values.read - set(FIXED_ELEMENTS) == set(VCO_VARIABLES)
    assert ldo_values.read - set(FIXED_ELEMENTS) == set(LDO_VARIABLES)
    assert vco_values.read | ldo_values.read >= set(FIXED_ELEMENTS)


def check_psr_rows(space, tc, point, corners) -> list[tuple]:
    """The batch PSR curve of a corner list equals, row for row, the curve
    of each corner on its own; returns the batch's PSR curves, one tuple
    per corner."""
    batch = ldo_model(space, point, tc, 2e-3, 1e-12, corners)
    assert batch.psr_curve.shape == (len(corners), FREQ_GRID.size)
    for row, corner in zip(batch.psr_curve, corners):
        one = ldo_model(space, point, tc, 2e-3, 1e-12, [corner])
        assert np.array_equal(row, one.psr_curve[0])
    return list(map(tuple, batch.psr_curve.tolist()))


class TestPsrDistinctRows:
    """The PSR curve is computed once per distinct row of its per-corner
    inputs and gathered back onto the corner axis."""

    def test_all_corners_match_one_corner_curves(self, space, tc, co_point, se_point,
                                                 all_corners):
        checked = 0
        for point in [co_point, se_point] + sample_initial(space, 64, seed=2024):
            try:
                rows = check_psr_rows(space, tc, point, all_corners)
            except EvaluationFailure as exc:
                assert exc.quantity == "pass_headroom"
                continue
            # the LDO sees the MOS skew and the temperature, not L or C
            assert len(set(rows)) == 9
            checked += 1
        assert checked == 36

    @pytest.mark.parametrize("picks,n_distinct", [
        ((0, 1, 10), 3),  # nominal, fast-fast at -55 C, fast-slow at 125 C
        ((1, 0, 1), 2),  # one corner twice
        ((18,), 1),
    ])
    def test_corner_lists(self, space, tc, co_point, all_corners, picks, n_distinct):
        rows = check_psr_rows(space, tc, co_point, [all_corners[i] for i in picks])
        assert len(set(rows)) == n_distinct


class TestConstantsFile:
    def test_code_defaults_match_bundled_file(self, tc):
        assert TechConstants() == tc

    def test_validation_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            replace(DEFAULT_TECH, kp_n=-1.0).validate()
