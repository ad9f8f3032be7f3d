"""Analytical behavioral models standing in for a transistor-level testbench.

Maps a design point plus its PVT corners to performance metrics in three
modes: the VCO alone on an ideal 1.2 V supply, the LDO alone driving a fixed
load current, and the fully coupled LDO-VCO. All closed forms are first-order
small-signal / Leeson-style models; the constants are calibrated so the
bundled design points land in physically plausible ranges (GHz oscillation,
mW power), not to reproduce any particular silicon numbers.

The models run over a leading corner axis: apply_corners stacks the
corner-dependent constants into arrays once, and evaluate_corners computes a
design's metrics at all its corners in one numpy pass. Arithmetic, sqrt and
min are vectorized; log10, atan and the powers go element by element through
Python's math (libm), because numpy's SIMD versions differ from libm in the
last bit on some inputs, and every metric equals its scalar closed form
exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache, partial, reduce
from typing import Callable, Sequence

import numpy as np

from .problem import METRIC_NAMES, Corner, PerfMetrics, fom
from .space import DesignPoint, DesignSpace, frozen_array

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

# The design variables map_vco and map_ldo read, and the fixed elements the
# models read; a problem file must define every one of them.
VCO_VARIABLES = [
    "M2", "L_34", "W_34", "F_34", "M_34", "L_56", "W_56", "F_56", "M_56",
    "N_H", "N_V", "M_bot", "W_ind", "R_ind", "NT_ind", "S_ind", "GR_ind",
]
LDO_VARIABLES = [
    "L_nLoad", "W_nLoad", "F_nLoad", "M_nLoad",
    "L_pIn", "W_pIn", "F_pIn", "M_pIn",
    "L_bias", "W_bias", "F_bias", "M_bias", "M_biasIn", "M_biasOut",
    "L_nOut", "W_nOut", "F_nOut", "M_nOut",
    "C_C", "R_C", "C_F", "R_F",
    "L_pass", "W_pass", "F_pass", "M_pass",
]
FIXED_ELEMENTS = ("c_var", "c_byp", "beta_fb", "r_div")


class EvaluationFailure(RuntimeError):
    """An evaluation could not produce metrics; names the failing quantity
    and, when known, the label of the corner it failed at."""

    def __init__(self, quantity: str, detail: str = "", corner: str | None = None):
        self.quantity, self.detail, self.corner = quantity, detail, corner
        super().__init__(f"evaluation failed at {quantity}" + (f": {detail}" if detail else ""))

    def __reduce__(self):  # rebuilt from its fields when it crosses a process pool
        return type(self), (self.quantity, self.detail, self.corner)


@dataclass(frozen=True)
class TechConstants:
    """Process/behavioral constants, all strictly positive. kT is at the
    300 K reference; apply_corners folds in temperature and process skew,
    returning an instance whose CORNER_FIELDS are arrays over a corner axis,
    which the models broadcast over."""

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

# The constants a corner changes.
CORNER_FIELDS = ("kp_n", "kp_p", "ind_scale", "c_unit_mom", "kT")


# Corner multipliers: process skew on kp, inductance and unit MOM
# capacitance extremes.
_SKEW = {"fast": 1.10, "slow": 0.90, "nominal": 1.0}
_EXT_L = {"min": 0.90, "max": 1.10, "nominal": 1.0}
_EXT_C = {"min": 0.85, "max": 1.15, "nominal": 1.0}


# room for a corner list and each of its 33 corners on its own
@lru_cache(maxsize=64)
def apply_corners(
    base: TechConstants, corners: tuple[Corner, ...]
) -> tuple[TechConstants, np.ndarray]:
    """Fold every corner into the constants once: +-10% process skew on kp,
    -+10% inductance, -+15% unit MOM capacitance, kT proportional to
    absolute temperature (27 C == 300 K reference), mobility ~ T^-1.5. The
    CORNER_FIELDS of the returned constants, and the returned input
    supplies, are read-only arrays over the corners; the other fields stay
    scalar."""
    columns: dict[str, list[float]] = {name: [] for name in CORNER_FIELDS}
    for c in corners:
        t_ratio = (c.temperature + 273.0) / 300.0
        mobility = t_ratio ** -1.5
        columns["kp_n"].append(base.kp_n * _SKEW[c.nmos] * mobility)
        columns["kp_p"].append(base.kp_p * _SKEW[c.pmos] * mobility)
        columns["ind_scale"].append(base.ind_scale * _EXT_L[c.inductor])
        columns["c_unit_mom"].append(base.c_unit_mom * _EXT_C[c.capacitor])
        columns["kT"].append(base.kT * t_ratio)
    stacked = {name: frozen_array(column) for name, column in columns.items()}
    return replace(base, **stacked), frozen_array([c.vdd_in for c in corners])


def _each(fn: Callable[[float], float], x) -> np.ndarray:
    """fn applied to each element of x as a Python float, shape kept (libm
    rather than numpy; see the module docstring)."""
    x = np.asarray(x, dtype=float)
    return np.array(list(map(fn, x.ravel().tolist()))).reshape(x.shape)


def _log10(x) -> np.ndarray:
    return _each(math.log10, x)


def _square(x) -> np.ndarray:
    return _each(partial(pow, exp=2.0), x)


def _exp10(x) -> np.ndarray:
    return _each(partial(pow, 10.0), x)


class _Failures:
    """Failure tests over the corner axis of `corners`, in the order the
    models compute the quantities. raise_first raises for the lowest-index
    failing corner, naming the first quantity that fails there."""

    def __init__(self, corners: Sequence[Corner]):
        self.corners = corners
        self.tests: list[tuple[str, np.ndarray, Callable[[int], str]]] = []

    def add(self, name: str, bad: np.ndarray, detail: Callable[[int], str]) -> None:
        self.tests.append((name, bad, detail))

    def require_positive(self, name: str, value: np.ndarray) -> None:
        bad = ~((value > 0.0) & np.isfinite(value))
        self.add(name, bad, lambda i: f"nonpositive or non-finite value {value[i].item()}")

    def raise_first(self) -> None:
        if not any(bad.any() for _, bad, _ in self.tests):
            return
        bad = np.vstack([b for _, b, _ in self.tests])
        i = int(np.flatnonzero(bad.any(axis=0))[0])
        name, _, detail = self.tests[int(np.flatnonzero(bad[:, i])[0])]
        raise EvaluationFailure(name, detail(i), corner=self.corners[i].label())


def _design_values(space: DesignSpace, point: DesignPoint) -> dict[str, np.float64]:
    """The design's variables and the space's fixed elements, by name, as
    float64 scalars: under _ERRSTATE a zero size then divides to inf or nan,
    which a failure test or the finite-metric check names, rather than
    raising ZeroDivisionError."""
    values = dict(zip(space._names, np.asarray(point, dtype=float)))
    values.update(zip(space.fixed, np.array(tuple(space.fixed.values()))))
    return values


@dataclass(frozen=True)
class VcoDerived:
    """Tank and oscillator quantities over the corner axis; the floats are
    per design, the same at every corner."""

    l_tank: np.ndarray
    q_tank: np.ndarray
    c_tank: np.ndarray
    c_par: float
    i_bias: float
    gm_sw: np.ndarray
    r_p: np.ndarray
    amplitude: np.ndarray
    amp_unclipped: np.ndarray
    p_sig: np.ndarray
    f0: np.ndarray
    f_corner_1f: float
    k_push: np.ndarray

    @property
    def startup_margin(self) -> np.ndarray:
        return self.gm_sw * self.r_p


def resonant_frequency(l_tank: float, c_tank: float) -> float | np.ndarray:
    return 1.0 / (2.0 * math.pi * np.sqrt(l_tank * c_tank))


def phase_margin(gbw: float, p2: float, f_z: float = math.inf) -> float | np.ndarray:
    """Two-pole-plus-zero phase margin at the gbw crossover, degrees. f_z is
    signed: negative left-half-plane zeros add phase, positive right-half-
    plane ones remove it; +-inf means no zero (atan(0) adds exactly 0)."""
    f_z = np.asarray(f_z, dtype=float)
    pm = 90.0 - np.degrees(_each(math.atan, gbw / p2))
    return pm + np.degrees(_each(math.atan, gbw / np.abs(f_z))) * np.where(f_z < 0, 1.0, -1.0)


_ERRSTATE = np.errstate(divide="ignore", invalid="ignore", over="ignore")


def map_vco(v: dict[str, float], tc: TechConstants, amp_limit: float,
            failures: _Failures) -> VcoDerived:
    """Closed-form mapping from geometry to tank and oscillator quantities,
    over the corner axis of the folded constants tc (runs under _evaluate's
    _ERRSTATE). v holds the design values (_design_values). amp_limit is the
    swing ceiling of the evaluation mode (ideal supply vs bypass-flattened
    coupled operation). Failing quantities go to `failures` for the caller
    to raise.
    """

    nt = v["NT_ind"]
    d_in = 2.0 * v["R_ind"]
    d_out = d_in + 2.0 * (nt * v["W_ind"] + (nt - 1.0) * v["S_ind"])
    d_avg = 0.5 * (d_in + d_out)
    rho = (d_out - d_in) / (d_out + d_in)
    l_tank = tc.ind_scale * WHEELER_K1 * MU0 * nt * nt * d_avg / (1.0 + WHEELER_K2 * rho)
    failures.require_positive("l_tank", l_tank)
    wire_len = 4.0 * nt * d_avg
    r_s = tc.sheet_r * (wire_len / v["W_ind"]) * (1.0 + GR_LOSS_REF / v["GR_ind"])

    c_mom = tc.c_unit_mom * v["N_H"] * v["N_V"] * (4.0 - v["M_bot"])
    width_sw = v["W_34"] * v["F_34"] * v["M_34"] + v["W_56"] * v["F_56"] * v["M_56"]
    c_par = tc.c_par_unit * width_sw
    c_tank = c_mom + v["c_var"] + c_par
    failures.require_positive("c_tank", c_tank)

    f0 = resonant_frequency(l_tank, c_tank)
    q_tank = 2.0 * math.pi * f0 * l_tank / r_s
    failures.require_positive("q_tank", q_tank)
    r_p = q_tank * 2.0 * math.pi * f0 * l_tank

    i_bias = tc.i_unit * v["M2"]
    gm_n = np.sqrt(2.0 * tc.kp_n * (v["W_34"] * v["F_34"] * v["M_34"] / v["L_34"]) * i_bias / 2.0)
    gm_p = np.sqrt(2.0 * tc.kp_p * (v["W_56"] * v["F_56"] * v["M_56"] / v["L_56"]) * i_bias / 2.0)
    gm_sw = 0.5 * (gm_n + gm_p)

    amp_unclipped = (4.0 / math.pi) * (i_bias / 2.0) * r_p
    amplitude = np.minimum(amp_unclipped, amp_limit)
    p_sig = amplitude * amplitude / (2.0 * r_p)
    failures.require_positive("p_sig", p_sig)

    area_56 = v["W_56"] * v["F_56"] * v["M_56"] * v["L_56"]
    f_corner_1f = (tc.kf / (area_56 * C_OX)) * F_CORNER_SCALE
    k_push = tc.kappa_push * f0 * c_par / c_tank

    return VcoDerived(
        l_tank=l_tank, q_tank=q_tank, c_tank=c_tank, c_par=c_par, i_bias=i_bias,
        gm_sw=gm_sw, r_p=r_p, amplitude=amplitude, amp_unclipped=amp_unclipped,
        p_sig=p_sig, f0=f0, f_corner_1f=f_corner_1f, k_push=k_push,
    )


def _outer(x, f: np.ndarray) -> np.ndarray:
    """x with one trailing axis per axis of f, to broadcast over frequency."""
    return np.reshape(x, np.shape(x) + (1,) * np.ndim(f))


def vco_pn_intrinsic(d: VcoDerived, delta_f, tc: TechConstants) -> np.ndarray:
    """Leeson-type single-sideband phase noise in dBc/Hz at offset delta_f;
    the axes of delta_f follow the corner axis."""
    delta_f = np.asarray(delta_f, dtype=float)
    if np.any(delta_f <= 0):
        raise ValueError("delta_f must be positive")
    f0, q_tank, f_corner_1f, kT, p_sig = (
        _outer(x, delta_f) for x in (d.f0, d.q_tank, d.f_corner_1f, tc.kT, d.p_sig)
    )
    f_noise = 1.0 + tc.gamma_excess
    leeson = 1.0 + _square(f0 / (2.0 * q_tank * delta_f))
    flicker = 1.0 + f_corner_1f / delta_f
    return 10.0 * _log10((2.0 * f_noise * kT / p_sig) * leeson * flicker)


def supply_pn(k_push, vn, delta_f) -> np.ndarray:
    """Narrowband-FM conversion of supply noise to phase noise, dBc/Hz;
    the axes of delta_f follow the corner axis of k_push. vn = 0 or
    k_push = 0 returns -inf (no contribution)."""
    delta_f = np.asarray(delta_f, dtype=float)
    if np.any(delta_f <= 0):
        raise ValueError("delta_f must be positive")
    vn = np.asarray(vn, dtype=float)
    if np.any(vn < 0):
        raise ValueError("vn must be nonnegative")
    k_push = _outer(k_push, delta_f)
    quiet = (vn == 0.0) | (k_push == 0.0)
    ratio = np.where(quiet, 1.0, k_push * vn / (math.sqrt(2.0) * delta_f))
    return np.where(quiet, -math.inf, 20.0 * _log10(ratio))


@_ERRSTATE
def combine_pn(parts: list[float]) -> float | np.ndarray:
    """Incoherent power sum of phase-noise contributors (dBc/Hz inputs),
    element by element over array parts; -inf entries are identity
    elements."""
    if len(parts) == 0:
        raise ValueError("combine_pn requires at least one part")
    parts = [np.asarray(p, dtype=float) for p in parts]
    ref = reduce(np.maximum, parts)
    # a -inf part adds 10 ** -inf == 0.0 to the total
    total = sum(_exp10((p - ref) / 10.0) for p in parts)
    return np.where(ref == -math.inf, -math.inf, ref + 10.0 * _log10(total))[()]


def _loop_gain(a_dc, gbw, p2, f_z, f) -> np.ndarray:
    """Complex loop gain on the dominant-pole + output-pole + zero model.
    The zero frequency is signed: positive right-half-plane zeros lose
    phase, negative left-half-plane ones add it."""
    jf = 1j * np.asarray(f, dtype=float)
    a_dc, gbw, p2, f_z = (_outer(x, jf) for x in (a_dc, gbw, p2, f_z))
    p1 = gbw / a_dc
    # an infinite f_z (no zero) makes jf / f_z exactly 0
    return a_dc * (1.0 - jf / f_z) / ((1.0 + jf / p1) * (1.0 + jf / p2))


@dataclass(frozen=True)
class LdoDerived:
    """Loop and noise quantities over the corner axis (the sampled curves
    have the corners on their first axis); the floats are per design, the
    same at every corner."""

    a_dc: np.ndarray
    gbw: np.ndarray
    pm: np.ndarray
    gm1: np.ndarray
    f_filter: float
    i_q: float
    v_drop: np.ndarray
    vdd_max: np.ndarray
    psr_curve: np.ndarray  # dB vs FREQ_GRID
    # noise-model pieces kept for exact point evaluation off the grid
    _s_thermal: np.ndarray
    _s_flicker_1hz: float
    _s_ref_flicker_1hz: float
    _beta_fb: float

    @property
    def psr_max(self) -> np.ndarray:
        return self.psr_curve.max(axis=-1)

    def vn_at(self, f) -> np.ndarray:
        """Output-referred noise density at frequency f (closed form); the
        axes of f follow the corner axis."""
        f = np.asarray(f, dtype=float)
        gbw, s_thermal = _outer(self.gbw, f), _outer(self._s_thermal, f)
        s_amp = s_thermal + self._s_flicker_1hz / f
        roll = 1.0 + _square(f / (self._beta_fb * gbw))
        s_ref = (self._s_ref_flicker_1hz / f + V_REF_NOISE**2) / (1.0 + _square(f / self.f_filter))
        return np.sqrt((s_amp / roll + s_ref)) / self._beta_fb


def _lambda(l_chan: float, lam_per_um: float) -> float:
    return lam_per_um * 1e-6 / l_chan


def _psr_curve(gm_pass, gds_pass: float, c_ds_pass: float, c_out: float,
               a_dc, gbw, p2, f_z) -> np.ndarray:
    """Supply rejection in dB vs FREQ_GRID over the corner axis: the
    (gds + j w c_ds) leakage through the pass device against the output node
    admittance, suppressed by the loop; the output capacitance (bypass
    included) strictly attenuates it at every frequency. It is computed once
    per distinct row of the per-corner inputs (the LDO sees only the MOS skew
    and the temperature: 9 rows for 33 corners) and gathered back."""
    slots: dict[tuple, int] = {}
    columns = (gm_pass, a_dc, gbw, p2, f_z)
    gather = [slots.setdefault(row, len(slots)) for row in zip(*(c.tolist() for c in columns))]
    gm_pass, a_dc, gbw, p2, f_z = np.array(list(slots)).T
    jw = 2j * math.pi * FREQ_GRID
    h_open = (gds_pass + jw * c_ds_pass) / (_outer(gm_pass, jw) + gds_pass + jw * c_out)
    loop = _loop_gain(a_dc, gbw, p2, f_z, FREQ_GRID)
    return (20.0 * np.log10(np.abs(h_open) / np.abs(1.0 + loop)))[gather]


def map_ldo(v: dict[str, float], tc: TechConstants, i_load: float, vdd_in: np.ndarray,
            c_load: float, failures: _Failures) -> LdoDerived:
    """Small-signal model of the two-stage Miller op-amp with NMOS-follower
    pass device: loop gain, poles/zero, phase margin, supply rejection and
    output noise curves, over the corner axis of the folded constants tc and
    input supplies vdd_in (runs under _evaluate's _ERRSTATE). v holds the
    design values (_design_values); i_load and c_load are per design. Raises
    the first failure among `failures` and its own supply and headroom tests
    before the loop model."""
    beta_fb = v["beta_fb"]

    v_drop = vdd_in - V_OUT
    failures.add("v_drop", v_drop <= 0,
                 lambda i: f"input {vdd_in[i].item()} V cannot regulate {V_OUT} V")

    i_ref = tc.i_unit
    i1 = i_ref * v["M_biasIn"] / v["M_bias"]
    i2 = i_ref * v["M_biasOut"] / v["M_bias"]

    w_pin = v["W_pIn"] * v["F_pIn"] * v["M_pIn"]
    w_nload = v["W_nLoad"] * v["F_nLoad"] * v["M_nLoad"]
    w_nout = v["W_nOut"] * v["F_nOut"] * v["M_nOut"]
    w_pass = v["W_pass"] * v["F_pass"] * v["M_pass"]

    gm1 = np.sqrt(2.0 * tc.kp_p * (w_pin / v["L_pIn"]) * i1 / 2.0)
    gm_nload = np.sqrt(2.0 * tc.kp_n * (w_nload / v["L_nLoad"]) * i1 / 2.0)
    gm2 = np.sqrt(2.0 * tc.kp_n * (w_nout / v["L_nOut"]) * i2)
    gm_pass = np.sqrt(2.0 * tc.kp_n * (w_pass / v["L_pass"]) * i_load)

    # NMOS follower headroom: the pass gate cannot rise above the input rail
    vov_pass = np.sqrt(2.0 * i_load / (tc.kp_n * w_pass / v["L_pass"]))
    gate = V_OUT + VTH_PASS + vov_pass
    failures.add("pass_headroom", gate > vdd_in,
                 lambda i: f"needs {gate[i].item():.3f} V gate drive from {vdd_in[i].item()} V")
    failures.raise_first()

    ro1 = 1.0 / ((_lambda(v["L_pIn"], tc.lambda_p) + _lambda(v["L_nLoad"], tc.lambda_n)) * i1 / 2.0)
    ro2 = 1.0 / ((_lambda(v["L_nOut"], tc.lambda_n) + _lambda(v["L_bias"], tc.lambda_p)) * i2)
    a_dc = gm1 * ro1 * gm2 * ro2 * beta_fb

    gbw = gm1 / (2.0 * math.pi * v["C_C"])
    c_out = v["c_byp"] + c_load
    # the follower buffers the output, so the loop's second pole sits at the
    # pass gate; its capacitance grows with the pass device
    c_gate_pass = w_pass * v["L_pass"] * C_OX
    p2 = gm2 / (2.0 * math.pi * c_gate_pass)

    # Miller zero with nulling resistor: LHP once R_C exceeds 1/gm2
    denom = 1.0 / gm2 - v["R_C"]
    f_z = np.where(denom == 0.0, math.inf, 1.0 / (2.0 * math.pi * v["C_C"] * denom))
    pm = phase_margin(gbw, p2, f_z)

    gds_pass = _lambda(v["L_pass"], tc.lambda_n) * i_load
    c_ds_pass = CDS_PER_WIDTH * w_pass

    i_q = i_ref + i1 + i2 + V_OUT / v["r_div"]
    vdd_max = np.minimum(V_OUT * (1.0 + 1.0 / a_dc) + i_load / (gm_pass * (1.0 + a_dc)), vdd_in)

    # noise model: amp thermal + input-pair flicker roll off at the
    # closed-loop bandwidth; reference/bias flicker is low-pass filtered by
    # the (R_F, C_F) block before entering the loop.
    s_thermal = 8.0 * tc.kT * tc.gamma_excess * (1.0 / gm1) * (1.0 + gm_nload / gm1)
    area_pin = w_pin * v["L_pIn"]
    area_bias = v["W_bias"] * v["F_bias"] * v["M_bias"] * v["L_bias"]
    s_flicker_1hz = tc.kf / (area_pin * C_OX)
    s_ref_flicker_1hz = tc.kf / (area_bias * C_OX)
    f_filter = 1.0 / (2.0 * math.pi * v["R_F"] * v["C_F"])

    return LdoDerived(
        a_dc=a_dc, gbw=gbw, pm=pm, gm1=gm1,
        f_filter=f_filter, i_q=i_q, v_drop=v_drop, vdd_max=vdd_max,
        psr_curve=_psr_curve(gm_pass, gds_pass, c_ds_pass, c_out, a_dc, gbw, p2, f_z),
        _s_thermal=s_thermal, _s_flicker_1hz=s_flicker_1hz,
        _s_ref_flicker_1hz=s_ref_flicker_1hz, _beta_fb=beta_fb,
    )


# The phase-noise metrics and their offsets.
PN_METRICS = ("pn100k", "pn1m", "pn10m")
PN_OFFSETS = np.array([1e5, 1e6, 1e7])

# Placeholder values reported for VCO-side metrics in ldo_only mode and
# LDO-side metrics in ideal_supply mode.
_IDEAL_PSR = -120.0
_IDEAL_PM = 90.0
_LDO_ONLY_F0 = 5.5e9
_LDO_ONLY_PN = -200.0
_LDO_ONLY_STARTUP = 10.0


def coupled_swing_limit(c_byp: float) -> float:
    """Bypass capacitance at the supply flattens the achievable tank swing."""
    return SWING_FRAC * V_OUT * C_SWING_REF / (C_SWING_REF + c_byp)


def _pn_metrics(pn: np.ndarray) -> dict[str, np.ndarray]:
    """The PN_METRICS columns of a (..., offset) array."""
    return dict(zip(PN_METRICS, np.moveaxis(pn, -1, 0)))


def _fom(f0, pn1m, pdyn) -> np.ndarray:
    """Eq. 1 at 1 MHz (problem.fom) at each corner."""
    columns = (c.tolist() for c in np.broadcast_arrays(f0, pn1m, pdyn))
    return np.array([fom(f, 1e6, pn, p) for f, pn, p in zip(*columns)])


def _phase_noise(vco: VcoDerived, ldo: LdoDerived | None, tcc: TechConstants,
                 offsets: np.ndarray) -> np.ndarray:
    """Phase noise in dBc/Hz over (corners, offsets): the VCO's intrinsic
    part, power-summed with the supply part when an LDO feeds it."""
    intrinsic = vco_pn_intrinsic(vco, offsets, tcc)
    if ldo is None:
        return intrinsic
    return combine_pn([intrinsic, supply_pn(vco.k_push, ldo.vn_at(offsets), offsets)])


@_ERRSTATE
def _evaluate(
    space: DesignSpace,
    point: DesignPoint,
    corners: tuple[Corner, ...],
    mode: str,
    tc: TechConstants,
    i_load: float | None,
) -> tuple[np.ndarray, VcoDerived | None, LdoDerived | None, TechConstants]:
    """The one evaluation path: fold the corners into tc, read the design
    once, run the models of `mode` over the corner axis with one failure
    collector and check the corner x metric table. Returns the table, the
    model parts and the corner-applied constants."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    tcc, vdd_in = apply_corners(tc, corners)
    failures = _Failures(corners)
    v = _design_values(space, point)
    vco = ldo = None

    if mode == "ideal_supply":
        vco = map_vco(v, tcc, SWING_FRAC * V_OUT, failures)
        failures.raise_first()
        pdyn = V_OUT * vco.i_bias
    elif mode == "ldo_only":
        if i_load is None or i_load <= 0:
            raise ValueError("ldo_only mode requires a positive i_load")
        ldo = map_ldo(v, tcc, i_load, vdd_in, C_SUP_FIXED, failures)
        pdyn = vdd_in * (i_load + ldo.i_q)
    else:  # coupled: the LDO carries the VCO's bias and drives its parasitics
        vco = map_vco(v, tcc, coupled_swing_limit(v["c_byp"]), failures)
        ldo = map_ldo(v, tcc, vco.i_bias, vdd_in, vco.c_par + C_SUP_FIXED, failures)
        pdyn = vdd_in * (vco.i_bias + ldo.i_q)

    if vco is None:
        values = dict(f0=_LDO_ONLY_F0, startup_margin=_LDO_ONLY_STARTUP,
                      **dict.fromkeys(PN_METRICS, _LDO_ONLY_PN))
    else:
        values = dict(f0=vco.f0, startup_margin=vco.startup_margin,
                      **_pn_metrics(_phase_noise(vco, ldo, tcc, PN_OFFSETS)))
    if ldo is None:
        values.update(psr_max=_IDEAL_PSR, pm=_IDEAL_PM, vdd_max=V_OUT)
    else:
        values.update(psr_max=ldo.psr_max, pm=ldo.pm, vdd_max=ldo.vdd_max)
    values.update(pdyn=pdyn, fom=_fom(values["f0"], values["pn1m"], pdyn))
    return _metric_table(values, corners), vco, ldo, tcc


def _metric_table(values: dict, corners: Sequence[Corner]) -> np.ndarray:
    """The corner x metric table; a scalar fills a column. Every metric that
    leaves the evaluator is finite: otherwise this fails, naming the
    lowest-index corner with a non-finite metric and the first such metric
    there, in METRIC_NAMES order."""
    table = np.empty((len(corners), len(METRIC_NAMES)))
    for k, name in enumerate(METRIC_NAMES):
        table[:, k] = values[name]
    if not np.isfinite(table).all():
        i, k = np.argwhere(~np.isfinite(table))[0]
        raise EvaluationFailure(METRIC_NAMES[k], f"non-finite value {table[i, k]}",
                                corner=corners[i].label())
    return table


def evaluate_corners(
    space: DesignSpace,
    point: DesignPoint,
    corners: Sequence[Corner],
    mode: str,
    tc: TechConstants,
    i_load: float | None = None,
) -> np.ndarray:
    """Evaluate one point at every corner in one mode, in one numpy pass
    over the corner axis; the corner x metric table. Pure and
    deterministic. A failure names the lowest-index failing corner and the
    first quantity that fails there; a model quantity that fails at any
    corner comes before a non-finite metric (see _metric_table)."""
    return _evaluate(space, point, tuple(corners), mode, tc, i_load)[0]


def evaluate(
    space: DesignSpace,
    point: DesignPoint,
    corner: Corner,
    mode: str,
    tc: TechConstants,
    i_load: float | None = None,
) -> PerfMetrics:
    """The metrics at one corner: row 0 of a one-corner batch."""
    return PerfMetrics.from_row(evaluate_corners(space, point, (corner,), mode, tc, i_load)[0])


def pn_sweep(
    space: DesignSpace,
    point: DesignPoint,
    corner: Corner,
    mode: str,
    tc: TechConstants,
    offsets: np.ndarray = SWEEP_OFFSETS,
) -> np.ndarray:
    """Total phase noise vs offset at one corner, for export; one dBc/Hz
    value per offset. The corner is evaluated as a one-corner batch, so a
    design that fails there raises as evaluate would."""
    _, vco, ldo, tcc = _evaluate(space, point, (corner,), mode, tc, None)
    return _phase_noise(vco, ldo, tcc, np.asarray(offsets, dtype=float))[0]
