"""Analytical behavioral models standing in for a transistor-level testbench.

Maps a design point plus a PVT corner to performance metrics in three modes:
the VCO alone on an ideal 1.2 V supply, the LDO alone driving a fixed load
current, and the fully coupled LDO-VCO. All closed forms are first-order
small-signal / Leeson-style models; the constants are calibrated so the
bundled design points land in physically plausible ranges (GHz oscillation,
mW power), not to reproduce any particular silicon numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .problem import Corner, PerfMetrics, fom
from .space import DesignPoint, DesignSpace, point_as_dict

MU0 = 4e-7 * math.pi
V_OUT = 1.2  # regulated VCO supply

# Square-spiral inductance prefactors (modified Wheeler form), calibrated so
# the bundled geometries land around 1 nH.
WHEELER_K1 = 4.8
WHEELER_K2 = 2.75

C_OX = 0.012  # F/m^2, gate capacitance per area
F_CORNER_SCALE = 3.2e13  # Hz per V^2, flicker-corner normalization
SWING_FRAC = 0.9  # max tank swing as a fraction of the supply
C_SWING_REF = 60e-12  # bypass-flattening reference capacitance
VTH_PASS = 0.18  # low-Vt pass device threshold
GR_LOSS_REF = 5e-6  # guard-ring substrate-loss length scale
C_SUP_FIXED = 0.5e-12  # fixed wiring capacitance at the regulated node
V_REF_NOISE = 1e-7  # reference noise floor, V/sqrt(Hz)
CDS_PER_WIDTH = 5e-11  # pass drain-source coupling, F per meter of width

# Fixed log-frequency grid for the sampled LDO curves: 40 points per decade,
# 1 kHz to 1 GHz.
GRID_POINTS_PER_DECADE = 40
FREQ_GRID = np.logspace(3.0, 9.0, 6 * GRID_POINTS_PER_DECADE + 1)

# Offset grid for phase-noise sweeps: 20 points per decade, 10 kHz - 100 MHz.
SWEEP_OFFSETS = np.logspace(4.0, 8.0, 4 * 20 + 1)

MODES = ("ideal_supply", "ldo_only", "coupled")


class EvaluationFailure(RuntimeError):
    """An evaluation could not produce metrics; names the failing quantity."""

    def __init__(self, quantity: str, detail: str = ""):
        self.quantity = quantity
        super().__init__(f"evaluation failed at {quantity}" + (f": {detail}" if detail else ""))


@dataclass(frozen=True)
class TechConstants:
    """Process/behavioral constants, all strictly positive. kT is at the
    300 K reference; apply_corner folds in temperature and process skew."""

    kT: float = 1.380649e-23 * 300.0
    gamma_excess: float = 0.45
    kp_n: float = 300 * 1e-6  # A/V^2
    kp_p: float = 120 * 1e-6  # A/V^2
    lambda_n: float = 0.10  # 1/V at 1 um channel length, scales as 1/L
    lambda_p: float = 0.12
    kf: float = 2e-21  # V^2*F flicker coefficient
    c_unit_mom: float = 3.0e-17  # F per finger crossing
    sheet_r: float = 30 * 1e-3  # ohm/sq, inductor metal
    i_unit: float = 10 * 1e-6  # A per mirror multiplier (10 uA reference)
    c_par_unit: float = 700 * 1e-12  # F per meter of switching-device width
    kappa_push: float = 0.08  # supply-pushing coefficient, 1/V
    ind_scale: float = 1.0  # inductance corner multiplier

    def validate(self) -> None:
        for name, value in self.__dict__.items():
            if not (value > 0.0 and math.isfinite(value)):
                raise ValueError(f"TechConstants.{name} must be strictly positive, got {value}")


DEFAULT_TECH = TechConstants()


def apply_corner(base: TechConstants, corner: Corner) -> TechConstants:
    """Fold a PVT corner into the constants: +-10% process skew on kp,
    -+10% inductance, -+15% unit MOM capacitance, kT proportional to absolute
    temperature (27 C == 300 K reference), mobility ~ T^-1.5."""
    skew = {"fast": 1.10, "slow": 0.90, "nominal": 1.0}
    ext_l = {"min": 0.90, "max": 1.10, "nominal": 1.0}
    ext_c = {"min": 0.85, "max": 1.15, "nominal": 1.0}
    t_ratio = (corner.temperature + 273.0) / 300.0
    mobility = t_ratio ** -1.5
    return replace(
        base,
        kp_n=base.kp_n * skew[corner.nmos] * mobility,
        kp_p=base.kp_p * skew[corner.pmos] * mobility,
        ind_scale=base.ind_scale * ext_l[corner.inductor],
        c_unit_mom=base.c_unit_mom * ext_c[corner.capacitor],
        kT=base.kT * t_ratio,
    )


@dataclass(frozen=True)
class VcoDerived:
    l_tank: float
    q_tank: float
    c_tank: float
    c_par: float
    i_bias: float
    gm_sw: float
    r_p: float
    amplitude: float
    amp_unclipped: float
    p_sig: float
    f0: float
    f_corner_1f: float
    k_push: float

    @property
    def startup_margin(self) -> float:
        return self.gm_sw * self.r_p


def _require_positive(name: str, value: float) -> float:
    if not (value > 0.0 and math.isfinite(value)):
        raise EvaluationFailure(name, f"nonpositive or non-finite value {value}")
    return value


def resonant_frequency(l_tank: float, c_tank: float) -> float:
    return 1.0 / (2.0 * math.pi * math.sqrt(l_tank * c_tank))


def phase_margin(gbw: float, p2: float, f_z: float = math.inf) -> float:
    """Two-pole-plus-zero phase margin at the gbw crossover, degrees. f_z is
    signed: negative left-half-plane zeros add phase, positive right-half-
    plane ones remove it; +-inf means no zero."""
    pm = 90.0 - math.degrees(math.atan(gbw / p2))
    if math.isfinite(f_z):
        pm += math.degrees(math.atan(gbw / abs(f_z))) * (1.0 if f_z < 0 else -1.0)
    return pm


def map_vco(space: DesignSpace, point: DesignPoint, tc: TechConstants,
            amp_limit: float) -> VcoDerived:
    """Closed-form mapping from geometry to tank and oscillator quantities.

    amp_limit is the swing ceiling of the evaluation mode (ideal supply vs
    bypass-flattened coupled operation).
    """
    v = point_as_dict(space, point)

    nt = v["NT_ind"]
    d_in = 2.0 * v["R_ind"]
    d_out = d_in + 2.0 * (nt * v["W_ind"] + (nt - 1.0) * v["S_ind"])
    d_avg = 0.5 * (d_in + d_out)
    rho = (d_out - d_in) / (d_out + d_in)
    l_tank = _require_positive(
        "l_tank", tc.ind_scale * WHEELER_K1 * MU0 * nt * nt * d_avg / (1.0 + WHEELER_K2 * rho)
    )
    wire_len = 4.0 * nt * d_avg
    r_s = tc.sheet_r * (wire_len / v["W_ind"]) * (1.0 + GR_LOSS_REF / v["GR_ind"])

    c_mom = tc.c_unit_mom * v["N_H"] * v["N_V"] * (4.0 - v["M_bot"])
    width_sw = v["W_34"] * v["F_34"] * v["M_34"] + v["W_56"] * v["F_56"] * v["M_56"]
    c_par = tc.c_par_unit * width_sw
    c_tank = _require_positive("c_tank", c_mom + space.fixed["c_var"] + c_par)

    f0 = resonant_frequency(l_tank, c_tank)
    q_tank = _require_positive("q_tank", 2.0 * math.pi * f0 * l_tank / r_s)
    r_p = q_tank * 2.0 * math.pi * f0 * l_tank

    i_bias = tc.i_unit * v["M2"]
    gm_n = math.sqrt(2.0 * tc.kp_n * (v["W_34"] * v["F_34"] * v["M_34"] / v["L_34"]) * i_bias / 2.0)
    gm_p = math.sqrt(2.0 * tc.kp_p * (v["W_56"] * v["F_56"] * v["M_56"] / v["L_56"]) * i_bias / 2.0)
    gm_sw = 0.5 * (gm_n + gm_p)

    amp_unclipped = (4.0 / math.pi) * (i_bias / 2.0) * r_p
    amplitude = min(amp_unclipped, amp_limit)
    p_sig = _require_positive("p_sig", amplitude * amplitude / (2.0 * r_p))

    area_56 = v["W_56"] * v["F_56"] * v["M_56"] * v["L_56"]
    f_corner_1f = (tc.kf / (area_56 * C_OX)) * F_CORNER_SCALE
    k_push = tc.kappa_push * f0 * c_par / c_tank

    return VcoDerived(
        l_tank=l_tank, q_tank=q_tank, c_tank=c_tank, c_par=c_par, i_bias=i_bias,
        gm_sw=gm_sw, r_p=r_p, amplitude=amplitude, amp_unclipped=amp_unclipped,
        p_sig=p_sig, f0=f0, f_corner_1f=f_corner_1f, k_push=k_push,
    )


def vco_pn_intrinsic(d: VcoDerived, delta_f: float, tc: TechConstants) -> float:
    """Leeson-type single-sideband phase noise in dBc/Hz at offset delta_f."""
    if delta_f <= 0:
        raise ValueError("delta_f must be positive")
    f_noise = 1.0 + tc.gamma_excess
    leeson = 1.0 + (d.f0 / (2.0 * d.q_tank * delta_f)) ** 2
    flicker = 1.0 + d.f_corner_1f / delta_f
    return 10.0 * math.log10((2.0 * f_noise * tc.kT / d.p_sig) * leeson * flicker)


def supply_pn(k_push: float, vn: float, delta_f: float) -> float:
    """Narrowband-FM conversion of supply noise to phase noise, dBc/Hz.
    vn = 0 returns -inf (no contribution)."""
    if delta_f <= 0:
        raise ValueError("delta_f must be positive")
    if vn < 0:
        raise ValueError("vn must be nonnegative")
    if vn == 0.0:
        return -math.inf
    return 20.0 * math.log10(k_push * vn / (math.sqrt(2.0) * delta_f))


def combine_pn(parts: list[float]) -> float:
    """Incoherent power sum of phase-noise contributors (dBc/Hz inputs);
    -inf entries are identity elements."""
    if not parts:
        raise ValueError("combine_pn requires at least one part")
    finite = [p for p in parts if p != -math.inf]
    if not finite:
        return -math.inf
    ref = max(finite)
    total = sum(10.0 ** ((p - ref) / 10.0) for p in finite)
    return ref + 10.0 * math.log10(total)


@dataclass(frozen=True)
class LdoDerived:
    a_dc: float
    gbw: float
    p2: float
    f_z: float  # signed zero frequency (negative = left-half-plane); inf = none
    pm: float
    gm1: float
    gm2: float
    gm_pass: float
    gm_nload: float
    f_filter: float
    i_q: float
    v_drop: float
    vdd_max: float
    psr_curve: np.ndarray  # dB vs FREQ_GRID
    vn_curve: np.ndarray  # V/sqrt(Hz) vs FREQ_GRID
    # noise-model pieces kept for exact point evaluation off the grid
    _s_thermal: float
    _s_flicker_1hz: float
    _s_ref_flicker_1hz: float
    _beta_fb: float

    @property
    def psr_max(self) -> float:
        return float(self.psr_curve.max())

    def vn_at(self, f: float | np.ndarray) -> float | np.ndarray:
        """Output-referred noise density at frequency f (closed form)."""
        f = np.asarray(f, dtype=float)
        s_amp = self._s_thermal + self._s_flicker_1hz / f
        roll = 1.0 + (f / (self._beta_fb * self.gbw)) ** 2
        s_ref = (self._s_ref_flicker_1hz / f + V_REF_NOISE**2) / (1.0 + (f / self.f_filter) ** 2)
        out = np.sqrt((s_amp / roll + s_ref)) / self._beta_fb
        return float(out) if out.ndim == 0 else out

    def loop_gain(self, f: float | np.ndarray) -> np.ndarray:
        """Complex loop gain on the dominant-pole + output-pole + zero model.
        The zero frequency is signed: positive right-half-plane zeros lose
        phase, negative left-half-plane ones add it."""
        jf = 1j * np.asarray(f, dtype=float)
        p1 = self.gbw / self.a_dc
        num = 1.0 - (jf / self.f_z if math.isfinite(self.f_z) else 0.0)
        return self.a_dc * num / ((1.0 + jf / p1) * (1.0 + jf / self.p2))


def _lambda(l_chan: float, lam_per_um: float) -> float:
    return lam_per_um * 1e-6 / l_chan


def map_ldo(space: DesignSpace, point: DesignPoint, tc: TechConstants,
            i_load: float, vdd_in: float, c_load: float) -> LdoDerived:
    """Small-signal model of the two-stage Miller op-amp with NMOS-follower
    pass device: loop gain, poles/zero, phase margin, supply rejection and
    output noise curves."""
    if i_load <= 0:
        raise ValueError("i_load must be positive")
    v = point_as_dict(space, point)
    beta_fb = space.fixed["beta_fb"]
    c_byp = space.fixed["c_byp"]

    v_drop = vdd_in - V_OUT
    if v_drop <= 0:
        raise EvaluationFailure("v_drop", f"input {vdd_in} V cannot regulate {V_OUT} V")

    i_ref = tc.i_unit
    i1 = i_ref * v["M_biasIn"] / v["M_bias"]
    i2 = i_ref * v["M_biasOut"] / v["M_bias"]

    w_pin = v["W_pIn"] * v["F_pIn"] * v["M_pIn"]
    w_nload = v["W_nLoad"] * v["F_nLoad"] * v["M_nLoad"]
    w_nout = v["W_nOut"] * v["F_nOut"] * v["M_nOut"]
    w_pass = v["W_pass"] * v["F_pass"] * v["M_pass"]

    gm1 = math.sqrt(2.0 * tc.kp_p * (w_pin / v["L_pIn"]) * i1 / 2.0)
    gm_nload = math.sqrt(2.0 * tc.kp_n * (w_nload / v["L_nLoad"]) * i1 / 2.0)
    gm2 = math.sqrt(2.0 * tc.kp_n * (w_nout / v["L_nOut"]) * i2)
    gm_pass = math.sqrt(2.0 * tc.kp_n * (w_pass / v["L_pass"]) * i_load)

    # NMOS follower headroom: the pass gate cannot rise above the input rail
    vov_pass = math.sqrt(2.0 * i_load / (tc.kp_n * w_pass / v["L_pass"]))
    if V_OUT + VTH_PASS + vov_pass > vdd_in:
        raise EvaluationFailure(
            "pass_headroom",
            f"needs {V_OUT + VTH_PASS + vov_pass:.3f} V gate drive from {vdd_in} V",
        )

    ro1 = 1.0 / ((_lambda(v["L_pIn"], tc.lambda_p) + _lambda(v["L_nLoad"], tc.lambda_n)) * i1 / 2.0)
    ro2 = 1.0 / ((_lambda(v["L_nOut"], tc.lambda_n) + _lambda(v["L_bias"], tc.lambda_p)) * i2)
    a_dc = gm1 * ro1 * gm2 * ro2 * beta_fb

    gbw = gm1 / (2.0 * math.pi * v["C_C"])
    c_out = c_byp + c_load
    # the follower buffers the output, so the loop's second pole sits at the
    # pass gate; its capacitance grows with the pass device
    c_gate_pass = w_pass * v["L_pass"] * C_OX
    p2 = gm2 / (2.0 * math.pi * c_gate_pass)

    # Miller zero with nulling resistor: LHP once R_C exceeds 1/gm2
    denom = 1.0 / gm2 - v["R_C"]
    f_z = math.inf if denom == 0.0 else 1.0 / (2.0 * math.pi * v["C_C"] * denom)
    pm = phase_margin(gbw, p2, f_z)

    gds_pass = _lambda(v["L_pass"], tc.lambda_n) * i_load
    c_ds_pass = CDS_PER_WIDTH * w_pass

    i_q = i_ref + i1 + i2 + V_OUT / space.fixed["r_div"]
    vdd_max = min(V_OUT * (1.0 + 1.0 / a_dc) + i_load / (gm_pass * (1.0 + a_dc)), vdd_in)

    # noise model: amp thermal + input-pair flicker roll off at the
    # closed-loop bandwidth; reference/bias flicker is low-pass filtered by
    # the (R_F, C_F) block before entering the loop.
    s_thermal = 8.0 * tc.kT * tc.gamma_excess * (1.0 / gm1) * (1.0 + gm_nload / gm1)
    area_pin = w_pin * v["L_pIn"]
    area_bias = v["W_bias"] * v["F_bias"] * v["M_bias"] * v["L_bias"]
    s_flicker_1hz = tc.kf / (area_pin * C_OX)
    s_ref_flicker_1hz = tc.kf / (area_bias * C_OX)
    f_filter = 1.0 / (2.0 * math.pi * v["R_F"] * v["C_F"])

    d = LdoDerived(
        a_dc=a_dc, gbw=gbw, p2=p2, f_z=f_z, pm=pm, gm1=gm1, gm2=gm2,
        gm_pass=gm_pass, gm_nload=gm_nload, f_filter=f_filter, i_q=i_q,
        v_drop=v_drop, vdd_max=vdd_max,
        psr_curve=np.empty(0), vn_curve=np.empty(0),
        _s_thermal=s_thermal, _s_flicker_1hz=s_flicker_1hz,
        _s_ref_flicker_1hz=s_ref_flicker_1hz, _beta_fb=beta_fb,
    )
    # supply path: the (gds + j w c_ds) leakage through the pass device
    # against the output node admittance, suppressed by the loop; the output
    # capacitance (bypass included) strictly attenuates it at every frequency
    jw = 2j * math.pi * FREQ_GRID
    h_open = (gds_pass + jw * c_ds_pass) / (gm_pass + gds_pass + jw * c_out)
    psr_curve = 20.0 * np.log10(np.abs(h_open) / np.abs(1.0 + d.loop_gain(FREQ_GRID)))
    object.__setattr__(d, "psr_curve", psr_curve)
    object.__setattr__(d, "vn_curve", d.vn_at(FREQ_GRID))
    return d


PN_OFFSETS = {"pn100k": 1e5, "pn1m": 1e6, "pn10m": 1e7}

# Placeholder values reported for VCO-side metrics in ldo_only mode and
# LDO-side metrics in ideal_supply mode.
_IDEAL_PSR = -120.0
_IDEAL_PM = 90.0
_LDO_ONLY_F0 = 5.5e9
_LDO_ONLY_PN = -200.0
_LDO_ONLY_STARTUP = 10.0


@dataclass(frozen=True)
class EvalDetail:
    metrics: PerfMetrics
    vco: VcoDerived | None
    ldo: LdoDerived | None


def coupled_swing_limit(c_byp: float) -> float:
    """Bypass capacitance at the supply flattens the achievable tank swing."""
    return SWING_FRAC * V_OUT * C_SWING_REF / (C_SWING_REF + c_byp)


def evaluate_detailed(
    space: DesignSpace,
    point: DesignPoint,
    corner: Corner,
    mode: str,
    tc: TechConstants,
    i_load: float | None = None,
) -> EvalDetail:
    """Evaluate one point at one corner in one mode. Pure and deterministic."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    tcc = apply_corner(tc, corner)

    if mode == "ideal_supply":
        vco = map_vco(space, point, tcc, amp_limit=SWING_FRAC * V_OUT)
        pn = {k: vco_pn_intrinsic(vco, f, tcc) for k, f in PN_OFFSETS.items()}
        pdyn = V_OUT * vco.i_bias
        metrics = PerfMetrics(
            f0=vco.f0, pn100k=pn["pn100k"], pn1m=pn["pn1m"], pn10m=pn["pn10m"],
            pdyn=pdyn, psr_max=_IDEAL_PSR, pm=_IDEAL_PM, vdd_max=V_OUT,
            startup_margin=vco.startup_margin,
            fom=fom(vco.f0, 1e6, pn["pn1m"], pdyn),
        )
        return EvalDetail(metrics, vco, None)

    if mode == "ldo_only":
        if i_load is None or i_load <= 0:
            raise ValueError("ldo_only mode requires a positive i_load")
        ldo = map_ldo(space, point, tcc, i_load=i_load, vdd_in=corner.vdd_in,
                      c_load=C_SUP_FIXED)
        pdyn = corner.vdd_in * (i_load + ldo.i_q)
        metrics = PerfMetrics(
            f0=_LDO_ONLY_F0, pn100k=_LDO_ONLY_PN, pn1m=_LDO_ONLY_PN,
            pn10m=_LDO_ONLY_PN, pdyn=pdyn, psr_max=ldo.psr_max, pm=ldo.pm,
            vdd_max=ldo.vdd_max, startup_margin=_LDO_ONLY_STARTUP,
            fom=fom(_LDO_ONLY_F0, 1e6, _LDO_ONLY_PN, pdyn),
        )
        return EvalDetail(metrics, None, ldo)

    # coupled
    vco = map_vco(space, point, tcc, amp_limit=coupled_swing_limit(space.fixed["c_byp"]))
    ldo = map_ldo(space, point, tcc, i_load=vco.i_bias, vdd_in=corner.vdd_in,
                  c_load=vco.c_par + C_SUP_FIXED)
    pn = {}
    for key, f in PN_OFFSETS.items():
        intrinsic = vco_pn_intrinsic(vco, f, tcc)
        supply = supply_pn(vco.k_push, float(ldo.vn_at(f)), f)
        pn[key] = combine_pn([intrinsic, supply])
    pdyn = corner.vdd_in * (vco.i_bias + ldo.i_q)
    metrics = PerfMetrics(
        f0=vco.f0, pn100k=pn["pn100k"], pn1m=pn["pn1m"], pn10m=pn["pn10m"],
        pdyn=pdyn, psr_max=ldo.psr_max, pm=ldo.pm, vdd_max=ldo.vdd_max,
        startup_margin=vco.startup_margin,
        fom=fom(vco.f0, 1e6, pn["pn1m"], pdyn),
    )
    return EvalDetail(metrics, vco, ldo)


def evaluate(
    space: DesignSpace,
    point: DesignPoint,
    corner: Corner,
    mode: str,
    tc: TechConstants,
    i_load: float | None = None,
) -> PerfMetrics:
    return evaluate_detailed(space, point, corner, mode, tc, i_load=i_load).metrics


def pn_sweep(
    space: DesignSpace,
    point: DesignPoint,
    corner: Corner,
    mode: str,
    tc: TechConstants,
    offsets: np.ndarray = SWEEP_OFFSETS,
) -> np.ndarray:
    """Total phase noise vs offset for export; one dBc/Hz value per offset."""
    detail = evaluate_detailed(space, point, corner, mode, tc)
    tcc = apply_corner(tc, corner)
    out = np.empty(len(offsets))
    for i, f in enumerate(offsets):
        parts = [vco_pn_intrinsic(detail.vco, float(f), tcc)]
        if mode == "coupled":
            parts.append(supply_pn(detail.vco.k_push, float(detail.ldo.vn_at(f)), float(f)))
        out[i] = combine_pn(parts)
    return out
