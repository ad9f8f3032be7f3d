import math
import pickle
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from conftest import batch_of, coupled_parts, outcomes_of

from ldovco import behavior
from ldovco.behavior import (
    CHUNK_DESIGNS,
    C_OX,
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
    evaluate_batch,
    ldo_headroom,
    map_ldo,
    map_vco,
    phase_margin,
    pn_sweep,
    psr_curve,
    resonant_frequency,
    supply_pn,
    vco_pn_intrinsic,
)
from ldovco.problem import (
    METRIC_NAMES, Corner, NOMINAL_CORNER, PerfMetrics, enumerate_corners, fom,
)
from ldovco.space import repair, sample_initial

IDEAL_AMP_LIMIT = 0.9 * 1.2


def fold_one(tc, corner):
    """The constants of a one-corner apply_corners fold, as scalars."""
    tcc = apply_corners(tc, (corner,))
    return replace(tcc, **{name: getattr(tcc, name)[0].item() for name in CORNER_FIELDS})


def settle_one(failures, corners):
    """Raise the failure of a batch of one at `corners`, if it has one."""
    if not failures.settle()[0]:
        failed = (failures.failure[0], failures.failure_corner[0], failures.details[0])
        raise batch_of(corners, [failed]).exception(0)


def vco_model(space, point, tc, amp_limit):
    """map_vco on a batch of one over a one-corner fold at the nominal
    corner with its own collector, which raises the first failure."""
    corners = (NOMINAL_CORNER,)
    tcc = apply_corners(tc, corners)
    failures = _Failures(corners, 1)
    d = map_vco(_design_values(space, np.array([point])), tcc, amp_limit, failures)
    settle_one(failures, corners)
    return d


def ldo_model(space, point, tc, i_load, c_load, corners=(NOMINAL_CORNER,)):
    """ldo_headroom, then map_ldo, on a batch of one over a fold of
    `corners`; raises the first failure."""
    tcc = apply_corners(tc, tuple(corners))
    v = _design_values(space, np.array([point]))
    failures = _Failures(corners, 1)
    ldo_headroom(v, tcc, i_load, failures)
    settle_one(failures, corners)
    return map_ldo(v, tcc, i_load, c_load)


def psr_curves(monkeypatch, *model_args):
    """ldo_model(*model_args), and every curve psr_curve computed for its
    PSR peak, in call order."""
    curves = []

    def recorded(*inputs):
        curves.append(psr_curve(*inputs))
        return curves[-1]

    with monkeypatch.context() as patch:
        patch.setattr(behavior, "psr_curve", recorded)
        d = ldo_model(*model_args)
    return d, curves


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

    @pytest.mark.parametrize("temperature", [-273.0, -300.0, -math.inf])
    def test_at_or_below_absolute_zero_rejected(self, space, tc, co_point, temperature):
        # the model's zero is (T + 273) / 300: a setup error that names the
        # corner, not a ZeroDivisionError or a complex mobility
        cold = Corner(temperature=temperature)
        with pytest.raises(ValueError) as info:
            evaluate_batch(space, [co_point], (NOMINAL_CORNER, cold), "coupled", tc)
        assert f"corner {cold.label()} is at {temperature} C" in str(info.value)

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
        v = dict(zip(space.names, co_point.tolist()))
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
    def test_far_offset_floor(self, tc):
        # F_noise -> 1, kT at 290 K, 1 mW carrier: the thermal-floor identity
        tc290 = replace(tc, gamma_excess=1e-15, kT=1.380649e-23 * 290)
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

    def test_map_ldo_quantities(self, monkeypatch, space, tc, co_point):
        d, [curve] = psr_curves(monkeypatch, space, co_point, tc, 3e-3, 1e-12)
        v = dict(zip(space.names, co_point.tolist()))
        assert d.gbw == pytest.approx(d.gm1 / (2 * math.pi * v["C_C"]), rel=1e-12)
        assert d.a_dc > 0
        assert d.i_q > 0
        assert 1.2 <= d.vdd_max <= 1.62
        assert curve.shape == d.vn_at(FREQ_GRID).shape == (1, 1, 241)
        assert np.array_equal(d.psr_max, curve.max(axis=-1))

    def test_gm1_improves_dc_psr(self, monkeypatch, space, tc, co_point):
        d1, [curve1] = psr_curves(monkeypatch, space, co_point, tc, 3e-3, 1e-12)
        bigger = np.array(co_point)
        bigger[space.index_of("W_pIn")] *= 2
        d2, [curve2] = psr_curves(monkeypatch, space, bigger, tc, 3e-3, 1e-12)
        assert d2.gm1 > d1.gm1
        assert curve2[0, 0, 0] < curve1[0, 0, 0]

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

    def test_unknown_mode_rejected(self, space, tc, co_point):
        with pytest.raises(ValueError, match=r"'ideal_supply', 'coupled'\)$"):
            evaluate(space, co_point, NOMINAL_CORNER, "spice", tc)

    def test_ldo_only_mode_rejected(self, space, tc, co_point):
        # ldo_only, the LDO alone on a fixed load current, is no longer a mode
        with pytest.raises(ValueError, match=r"'ideal_supply', 'coupled'\)$"):
            evaluate(space, co_point, NOMINAL_CORNER, "ldo_only", tc)

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


def per_corner_run(space, tc, point, corners, mode):
    """evaluate at each corner in turn: the metrics, and the (quantity,
    corner) of the first failing corner, or None."""
    out = []
    for corner in corners:
        try:
            out.append(evaluate(space, point, corner, mode, tc))
        except EvaluationFailure as exc:
            return out, (exc.quantity, exc.corner, str(exc))
    return out, None


class TestEvaluateCorners:
    @pytest.mark.parametrize("mode,n_failing", [("ideal_supply", 0), ("coupled", 44)])
    def test_matches_single_corner_evaluations(self, space, tc, co_point, se_point,
                                               all_corners, mode, n_failing):
        # the golden-value designs: the batch path against the one-corner
        # path corner by corner; 14 of the coupled failures pass the nominal
        # corner and fail at a later one
        failures = 0
        for point in [co_point, se_point] + sample_initial(space, 64, seed=2024):
            expected, failure = per_corner_run(space, tc, point, all_corners, mode)
            try:
                batch = evaluate_batch(space, [point], all_corners, mode, tc).table(0)
            except EvaluationFailure as exc:
                assert (exc.quantity, exc.corner, str(exc)) == failure
                failures += 1
                continue
            assert failure is None
            assert batch.dtype == np.float64
            assert batch.shape == (len(all_corners), len(METRIC_NAMES))
            assert [PerfMetrics(*row.tolist()) for row in batch] == expected
        assert failures == n_failing

    def test_apply_corners_stacks_apply_corner(self, tc, all_corners):
        stacked = apply_corners(tc, all_corners)
        for k, corner in enumerate(all_corners):
            one = fold_one(tc, corner)
            assert all(getattr(stacked, f)[k] == getattr(one, f) for f in CORNER_FIELDS)
        assert stacked.kf == tc.kf

    def test_failure_names_lowest_failing_corner(self, space, tc, all_corners):
        # passes the nominal corner and corners 1-17; at corner 18 (slow-slow,
        # 125 C) the pass device runs out of gate drive
        point = sample_initial(space, 64, seed=2024)[22]
        with pytest.raises(EvaluationFailure) as info:
            evaluate_batch(space, [point], all_corners, "coupled", tc).table(0)
        assert info.value.quantity == "pass_headroom"
        assert info.value.corner == all_corners[18].label() == "snsp_minL_minC_125C"
        assert np.isfinite(
            evaluate_batch(space, [point], all_corners[:18], "coupled", tc).table(0)).all()
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
            v = dict(zip(space.names, point.tolist()))
            fingers = v["N_H"] * v["N_V"] * (4.0 - v["M_bot"])
            width_sw = v["W_34"] * v["F_34"] * v["M_34"] + v["W_56"] * v["F_56"] * v["M_56"]
            c_rest = space.fixed["c_var"] + tc.c_par_unit * width_sw
            shrunk = replace(tc, c_unit_mom=-c_rest / (1.07 * fingers))
            with pytest.raises(EvaluationFailure) as info:
                evaluate_batch(space, [point], all_corners, "coupled", shrunk).table(0)
            return info.value.quantity, info.value.corner

        # c_tank at corner 3 comes before the headroom failure at corner 18
        assert failure(lhs[22]) == ("c_tank", all_corners[3].label())
        # design 5 runs out of headroom at corner 2, before corner 3
        assert failure(lhs[5]) == ("pass_headroom", all_corners[2].label())
        # at the nominal corner design 0 fails headroom, and l_tank is tested first
        negative_l = replace(tc, ind_scale=-1.0)
        with pytest.raises(EvaluationFailure) as info:
            evaluate_batch(space, [lhs[0]], all_corners, "coupled", negative_l).table(0)
        assert (info.value.quantity, info.value.corner) == ("l_tank", "nominal")


def assert_one_design_outcome(space, tc, point, corners, mode, outcome):
    """outcome is the point's one-design outcome: its table equals the
    stacked one-corner rows bit for bit, and its failure names the quantity,
    corner and detail of the per-corner and the one-design evaluations."""
    expected, failure = per_corner_run(space, tc, point, corners, mode)
    if failure is None:
        assert isinstance(outcome, np.ndarray)
        stacked = np.array(expected)
        assert outcome.shape == stacked.shape and outcome.tobytes() == stacked.tobytes()
        return True
    assert isinstance(outcome, EvaluationFailure)
    assert (outcome.quantity, outcome.corner, str(outcome)) == failure
    with pytest.raises(EvaluationFailure) as one:
        evaluate_batch(space, [point], corners, mode, tc).table(0)
    assert (one.value.quantity, one.value.corner, one.value.detail) == (
        outcome.quantity, outcome.corner, outcome.detail)
    return False


# A chunk size the batch tests patch in, so that they cross several chunk
# boundaries with few designs; CHUNK_DESIGNS itself is far larger.
SMALL_CHUNK = 16


@pytest.fixture
def small_chunk(monkeypatch):
    monkeypatch.setattr(behavior, "CHUNK_DESIGNS", SMALL_CHUNK)


def check_batch(space, tc, all_corners, mode, size):
    """evaluate_batch on `size` LHS designs gives each its one-design
    outcome."""
    points = sample_initial(space, max(size, 2), seed=100 + size)[:size]
    outcomes = outcomes_of(evaluate_batch(space, points, all_corners, mode, tc))
    assert len(outcomes) == size
    passed = [assert_one_design_outcome(space, tc, point, all_corners, mode, outcome)
              for point, outcome in zip(points, outcomes)]
    if size > 1 and mode == "coupled":  # about half the LDO designs lack headroom
        assert any(passed) and not all(passed)


class TestEvaluateBatch:
    """A batch gives each design its one-design outcome, whatever the batch
    size and wherever the chunk boundaries fall."""

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("size", [1, SMALL_CHUNK - 1, SMALL_CHUNK, SMALL_CHUNK + 1,
                                      2 * SMALL_CHUNK + 3])
    def test_matches_per_corner_reference(self, small_chunk, space, tc, all_corners, mode,
                                          size):
        check_batch(space, tc, all_corners, mode, size)

    def test_crosses_the_chunk_boundary(self, space, tc, all_corners):
        check_batch(space, tc, all_corners, "coupled", CHUNK_DESIGNS + 1)

    @pytest.mark.parametrize("mode", ["coupled"])
    def test_batch_where_no_design_survives(self, small_chunk, space, tc, all_corners, mode):
        # more than a chunk of designs that all fail, so that every chunk
        # ends at its raise point with no design left
        failing = []
        for point in sample_initial(space, 96, seed=5):
            try:
                evaluate_batch(space, [point], all_corners, mode, tc).table(0)
            except EvaluationFailure:
                failing.append(point)
        assert len(failing) > SMALL_CHUNK
        batch = evaluate_batch(space, failing, all_corners, mode, tc)
        assert batch.tables.shape == (0, len(all_corners), len(METRIC_NAMES))
        for point, outcome in zip(failing, outcomes_of(batch), strict=True):
            assert not assert_one_design_outcome(space, tc, point, all_corners, mode, outcome)

    def test_empty_batch(self, space, tc, all_corners):
        batch = evaluate_batch(space, [], all_corners, "coupled", tc)
        assert len(batch) == 0
        assert batch.tables.shape == (0, len(all_corners), len(METRIC_NAMES))


def test_lazy_failure_equals_the_eager_one(monkeypatch, space, tc, co_point, all_corners):
    # model-test failures (headroom at the nominal corner) and non-finite
    # ones (pn100k at a NaN temperature) in one batch: each failure built on
    # request equals the one built by the settle that recorded it, and
    # survives pickling as a process pool would send it
    hot = Corner(temperature=math.nan)
    corners = (NOMINAL_CORNER, hot) + all_corners[1:3]
    eager, settles = {}, Counter()
    settle = _Failures.settle

    def settle_eagerly(self):
        passed = settle(self)
        settles[self] += 1
        for d in np.flatnonzero(self.failure_corner >= 0).tolist():
            if d not in eager:
                write, *args = self.details[d]
                corner = corners[self.failure_corner[d]].label()
                eager[d] = settles[self], EvaluationFailure(self.failure[d], write(*args), corner)
        return passed

    monkeypatch.setattr(_Failures, "settle", settle_eagerly)
    points = [co_point] + sample_initial(space, 30, seed=3)
    batch = evaluate_batch(space, points, corners, "coupled", tc)
    assert len(batch.survivors) == 0 and sorted(eager) == list(range(len(points)))
    assert eager[0][0] == 2  # co_point passes the model tests
    kinds = Counter()
    for d, (settled, expected) in eager.items():
        if settled == 2:  # the NaN corner's phase noise
            assert (expected.quantity, expected.detail, expected.corner) == (
                "pn100k", "non-finite value nan", hot.label())
        lazy = batch.exception(d)
        kinds[settled] += 1
        for failure in (lazy, pickle.loads(pickle.dumps(lazy))):
            assert type(failure) is EvaluationFailure
            assert (str(failure), failure.quantity, failure.detail, failure.corner) == (
                str(expected), expected.quantity, expected.detail, expected.corner)
    assert kinds[1] and kinds[2]


# The quantities the models test before any metric is formed.
MODEL_QUANTITIES = ("l_tank", "c_tank", "q_tank", "p_sig", "pass_headroom")


class TestFiniteMetrics:
    """Metrics leave the evaluator finite, or the evaluation fails."""

    @pytest.mark.parametrize("temperature,quantity", [(math.nan, "pn100k"),
                                                      (math.inf, "pass_headroom")],
                             ids=["nan", "inf"])
    def test_non_finite_temperature_fails_at_its_corner(self, space, tc, co_point, temperature,
                                                        quantity):
        # a NaN passes the model tests and leaves the phase noise NaN; an inf
        # zeroes the mobility, so the pass device runs out of gate drive
        hot = Corner(temperature=temperature)
        with pytest.raises(EvaluationFailure) as batch:
            evaluate_batch(space, [co_point], (NOMINAL_CORNER, hot), "coupled", tc).table(0)
        assert (batch.value.quantity, batch.value.corner) == (quantity, hot.label())
        with pytest.raises(EvaluationFailure) as single:
            evaluate(space, co_point, hot, "coupled", tc)
        assert (single.value.quantity, single.value.corner) == (quantity, hot.label())
        assert str(single.value) == str(batch.value)

    def test_model_failure_at_a_later_corner_precedes_a_non_finite_metric(self, space, tc,
                                                                         co_point):
        # the NaN corner leaves pn100k NaN, a failure of the second settle;
        # the inf corner after it fails the first settle's headroom test
        corners = (Corner(temperature=math.nan), Corner(temperature=math.inf))
        with pytest.raises(EvaluationFailure) as info:
            evaluate_batch(space, [co_point], corners, "coupled", tc).table(0)
        assert (info.value.quantity, info.value.corner) == ("pass_headroom", corners[1].label())

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
            for point in points:
                try:
                    table = evaluate_batch(space, [point], all_corners, mode, tc).table(0)
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
        try:
            table = evaluate_batch(space, [point], all_corners, mode, tc).table(0)
        except EvaluationFailure as exc:
            assert exc.quantity in MODEL_QUANTITIES + tuple(METRIC_NAMES)
            assert exc.corner in {c.label() for c in all_corners}
            return
        assert np.isfinite(table).all()

    @pytest.mark.parametrize("names,quantity", [(("M2",), "p_sig"), (("M_34", "M_56"), "pn100k"),
                                                (("W_ind",), "q_tank")])
    def test_zero_valued_coupled_failures(self, space, tc, co_point, all_corners, names, quantity):
        # no bias current, so no swing; no switching devices, so no supply
        # coupling (its phase-noise part is -inf) and an unbounded flicker
        # corner; no inductor width, so an infinite series resistance
        point = np.array(co_point)
        point[[space.index_of(n) for n in names]] = 0.0
        with pytest.raises(EvaluationFailure) as info:
            evaluate_batch(space, [point], all_corners, "coupled", tc).table(0)
        assert (info.value.quantity, info.value.corner) == (quantity, "nominal")


@pytest.mark.parametrize("shape", [(), (3, 1), (4,), (3, 4), (1, 4), (1, 1)])
def test_failure_detail_value_at_grid_cell(all_corners, shape):
    failures = _Failures(all_corners[:4], 3)
    values = np.array([1.5, -0.0, math.nan, math.inf, 5e-324, -2.0e300] * 2)
    for x in [values[:math.prod(shape)].reshape(shape), float(values[1]), values[2]]:
        for d in range(3):
            for i in range(4):
                expected = np.broadcast_to(x, (3, 4))[d, i].item()
                got = failures.at(x, d, i)
                assert type(got) is type(expected) and repr(got) == repr(expected)


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
    tcc = apply_corners(tc, corners)
    vco_values = _ReadNames(_design_values(space, np.array([co_point])))
    ldo_values = _ReadNames(_design_values(space, np.array([co_point])))
    map_vco(vco_values, tcc, IDEAL_AMP_LIMIT, _Failures(corners, 1))
    ldo_headroom(ldo_values, tcc, 2e-3, _Failures(corners, 1))
    map_ldo(ldo_values, tcc, 2e-3, 1e-12)
    assert vco_values.read - set(FIXED_ELEMENTS) == set(VCO_VARIABLES)
    assert ldo_values.read - set(FIXED_ELEMENTS) == set(LDO_VARIABLES)
    assert vco_values.read | ldo_values.read >= set(FIXED_ELEMENTS)


def check_psr_rows(monkeypatch, space, tc, point, corners) -> list[float]:
    """The batch PSR peak of a corner list equals, corner for corner, the
    peak of each corner on its own, bit for bit, and the batch computes one
    curve per distinct peak; returns the batch's peaks."""
    batch, curves = psr_curves(monkeypatch, space, point, tc, 2e-3, 1e-12, corners)
    assert batch.psr_max.shape == (1, len(corners))
    for peak, corner in zip(batch.psr_max[0], corners):
        one = ldo_model(space, point, tc, 2e-3, 1e-12, [corner])
        assert peak.tobytes() == one.psr_max[0, 0].tobytes()
    peaks = batch.psr_max[0].tolist()
    assert len(curves) == len(set(peaks))
    return peaks


class TestPsrDistinctRows:
    """The PSR curve is computed once per distinct row of its per-corner
    inputs, one corner at a time, and its peak gathered back onto the
    corner axis."""

    def test_all_corners_match_one_corner_curves(self, monkeypatch, space, tc, co_point,
                                                 se_point, all_corners):
        checked = 0
        for point in [co_point, se_point] + sample_initial(space, 64, seed=2024):
            try:
                rows = check_psr_rows(monkeypatch, space, tc, point, all_corners)
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
    def test_corner_lists(self, monkeypatch, space, tc, co_point, all_corners, picks,
                          n_distinct):
        rows = check_psr_rows(monkeypatch, space, tc, co_point, [all_corners[i] for i in picks])
        assert len(set(rows)) == n_distinct

    def test_design_batch_matches_one_design_peaks(self, space, tc, co_point, se_point,
                                                   all_corners):
        # the designs with headroom at every corner at 2 mA, as one batch
        passing = []
        for point in [co_point, se_point] + sample_initial(space, 64, seed=2024):
            try:
                passing.append((point, ldo_model(space, point, tc, 2e-3, 1e-12, all_corners)))
            except EvaluationFailure:
                continue
        tcc = apply_corners(tc, all_corners)
        v = _design_values(space, np.array([point for point, _ in passing]))
        batch = map_ldo(v, tcc, 2e-3, 1e-12)
        assert batch.psr_max.shape == (36, len(all_corners))
        for peaks, (_, one) in zip(batch.psr_max, passing):
            assert peaks.tobytes() == one.psr_max.tobytes()

    def test_curves_share_the_batch_buffers(self, monkeypatch, space, tc, co_point,
                                            all_corners):
        _, curves = psr_curves(monkeypatch, space, co_point, tc, 2e-3, 1e-12, all_corners)
        assert len(curves) == 9
        assert all(np.shares_memory(a, b) for a, b in zip(curves, curves[1:]))


def plain_psr_curve(gds_pass, c_ds_pass, c_out, gm_pass, a_dc, gbw, p2, f_z):
    """The PSR curve's real closed form as one expression over the whole
    grid, with fresh temporaries: the squared magnitude of the pass-device
    leakage over the output admittance, times |D|^2 / |N|^2 for
    1 + loop = N / D."""
    f = FREQ_GRID
    w = 2.0 * math.pi * f
    gds_pass, c_ds_pass, c_out, gm_pass, a_dc, gbw, p2, f_z = (
        np.asarray(x)[..., np.newaxis] for x in (gds_pass, c_ds_pass, c_out, gm_pass,
                                                 a_dc, gbw, p2, f_z))
    y1, y2 = f * (a_dc / gbw), f * (1.0 / p2)
    d_re, d_im = 1.0 - y1 * y2, y1 + y2
    n_re, n_im = d_re + a_dc, d_im - f * (a_dc / f_z)
    g = gm_pass + gds_pass
    leak_sq = gds_pass * gds_pass + (w * c_ds_pass) * (w * c_ds_pass)
    out_sq = g * g + (w * c_out) * (w * c_out)
    return 10.0 * np.log10(leak_sq * (d_re * d_re + d_im * d_im)
                           / (out_sq * (n_re * n_re + n_im * n_im)))


def complex_psr_curve(gds_pass, c_ds_pass, c_out, gm_pass, a_dc, gbw, p2, f_z):
    """The PSR curve's definition in complex arithmetic: the pass-device
    leakage over the output admittance, suppressed by the
    two-pole-plus-zero loop."""
    jw = 2j * math.pi * FREQ_GRID
    jf = 1j * FREQ_GRID
    gds_pass, c_ds_pass, c_out, gm_pass, a_dc, gbw, p2, f_z = (
        np.asarray(x)[..., np.newaxis] for x in (gds_pass, c_ds_pass, c_out, gm_pass,
                                                 a_dc, gbw, p2, f_z))
    h_open = (gds_pass + jw * c_ds_pass) / (gm_pass + gds_pass + jw * c_out)
    p1 = gbw / a_dc
    loop = a_dc * (1.0 - jf / f_z) / ((1.0 + jf / p1) * (1.0 + jf / p2))
    return 20.0 * np.log10(np.abs(h_open) / np.abs(1.0 + loop))


def psr_peak_call(monkeypatch, space, tc, points, corners):
    """The inputs and the peaks of the one _psr_max call of a coupled batch
    of `points`, which has more than 20 survivors."""
    calls, psr_max = [], behavior._psr_max

    def recorded(*inputs):
        calls.append((inputs, psr_max(*inputs)))
        return calls[-1][1]

    monkeypatch.setattr(behavior, "_psr_max", recorded)
    batch = evaluate_batch(space, points, corners, "coupled", tc)
    [(inputs, peaks)] = calls
    assert peaks.shape == (len(peaks), len(corners))
    assert len(peaks) >= len(batch.survivors) > 20
    return inputs, peaks


class TestPsrWork:
    """The batch's PSR peak, computed corner by corner in real work
    buffers, has the bits of its closed form written as one plain
    expression, and the value of the complex definition."""

    @pytest.mark.parametrize("mode", ["coupled"])
    def test_batch_peak_equals_plain_expression(self, monkeypatch, space, tc, all_corners,
                                                mode):
        inputs, peaks = psr_peak_call(monkeypatch, space, tc,
                                      sample_initial(space, 120, seed=7), all_corners)
        with np.errstate(all="ignore"):
            plain = plain_psr_curve(*inputs).max(axis=-1)
        assert peaks.tobytes() == plain.tobytes()

    @pytest.mark.parametrize("points", ["lhs120", "golden"])
    def test_closed_form_matches_complex_definition(self, monkeypatch, space, tc, all_corners,
                                                    co_point, se_point, points):
        if points == "lhs120":
            batch = sample_initial(space, 120, seed=7)
        else:  # the golden point set
            batch = [co_point, se_point] + sample_initial(space, 64, seed=2024)
        inputs, peaks = psr_peak_call(monkeypatch, space, tc, batch, all_corners)
        with np.errstate(all="ignore"):
            reference = complex_psr_curve(*inputs).max(axis=-1)
        assert np.isfinite(reference).all()
        np.testing.assert_allclose(peaks, reference, rtol=0.0, atol=1e-9)

    def test_box_extremes_give_finite_peaks_or_named_failures(self, space, tc, all_corners):
        # the box's lower and upper ends, and the two LDO/VCO mixes of them:
        # a design that passes the headroom test has a finite peak at every
        # corner; the others fail as they did under the complex curve
        lo, hi = space.lowers(), space.uppers()
        ldo = np.isin(space.names, LDO_VARIABLES)
        points = repair(space, np.array([lo, hi, np.where(ldo, lo, hi), np.where(ldo, hi, lo)]))
        batch = evaluate_batch(space, points, all_corners, "coupled", tc)
        assert batch.failure.tolist() == ["pass_headroom", None, "pass_headroom", None]
        assert batch.failure_corner.tolist() == [0, -1, 0, -1]
        assert np.isfinite(batch.tables[..., METRIC_NAMES.index("psr_max")]).all()
        # nor does any squared magnitude overflow for the designs that fail
        # the headroom test: the loop model run on all four, loaded with the
        # VCO's bias current as in the coupled path and a 1 pF load
        v = _design_values(space, points)
        with np.errstate(all="raise"):
            ldo = map_ldo(v, apply_corners(tc, all_corners), tc.i_unit * v["M2"], 1e-12)
        assert ldo.psr_max.shape == (4, len(all_corners))
        assert np.isfinite(ldo.psr_max).all()


class TestConstantsFile:
    def test_code_defaults_match_bundled_file(self, tc):
        assert TechConstants() == tc

    def test_validation_rejects_nonpositive(self, tc):
        with pytest.raises(ValueError):
            replace(tc, kp_n=-1.0).validate()
