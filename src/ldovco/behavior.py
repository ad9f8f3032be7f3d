"""Analytical behavioral models standing in for a transistor-level testbench.

Maps a design point plus its PVT corners to performance metrics in two
modes: the VCO alone on an ideal 1.2 V supply, and the fully coupled LDO-VCO,
in which the LDO carries the VCO's bias current. All closed forms are
first-order small-signal / Leeson-style models; the constants are calibrated
so the bundled design points land in physically plausible ranges (GHz
oscillation, mW power), not to reproduce any particular silicon numbers.

The models run over a (design, corner) grid: apply_corners stacks the
corner-dependent constants into arrays over the corners once, the design
values are (designs, 1) columns against them, and evaluate_batch computes a
chunk of CHUNK_DESIGNS designs at all their corners in one numpy pass. Every
batch has this one shape, a step's batch of one included. A design that
fails a model test leaves the batch there, so the later models run on the
survivors only.
The PSR curve is computed one distinct LDO corner at a time and only its
peak is kept: its two design-only terms are computed once per batch, and
every corner's curve is written into the same four real (designs, 1, 241)
work buffers, which the batch owns.

Every closed form is numpy arithmetic and ufuncs (np.sqrt, np.log10,
np.arctan, np.power, x * x) over the grid, and the PSR curve is real
arithmetic on squared magnitudes into those buffers (ufuncs with out=).
Each design's outcome is the same, bit for bit, whatever else is in its
batch: a ufunc gives an element the same bits in every layout numpy hands
it (whole array, slice, 0-d array or Python float). The low bits follow
numpy's SIMD dispatch, so they can differ between CPUs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache, reduce
from typing import Callable, Sequence

import numpy as np

from .problem import (  # EvaluationFailure is part of this module's interface
    METRIC_NAMES, BatchResult, Corner, EvaluationFailure, PerfMetrics, fom,
)
from .space import DesignPoint, DesignSpace, frozen_array

MU0 = 4e-7 * math.pi
V_OUT = 1.2  # regulated VCO supply
VDD_IN = 1.8 * 0.90  # the LDO's input: the lowest IO supply, 1.62 V

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

MODES = ("ideal_supply", "coupled")

# Designs per numpy pass of evaluate_batch: a screen batch of 200 and the
# default LHS sample (at most 172) are each one pass, which spreads the
# fixed cost of the models' ~150 numpy calls; the memory bound, since the
# PSR curve's six real arrays (four work buffers and two design-only terms)
# hold 241 points per design of the chunk, about 11.6 KB per design in all.
CHUNK_DESIGNS = 200

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


# The constants a corner changes.
CORNER_FIELDS = ("kp_n", "kp_p", "ind_scale", "c_unit_mom", "kT")


# Corner multipliers: process skew on kp, inductance and unit MOM
# capacitance extremes.
_SKEW = {"fast": 1.10, "slow": 0.90, "nominal": 1.0}
_EXT_L = {"min": 0.90, "max": 1.10, "nominal": 1.0}
_EXT_C = {"min": 0.85, "max": 1.15, "nominal": 1.0}


# room for a corner list and each of its 33 corners on its own
@lru_cache(maxsize=64)
def apply_corners(base: TechConstants, corners: tuple[Corner, ...]) -> TechConstants:
    """Fold every corner into the constants once: +-10% process skew on kp,
    -+10% inductance, -+15% unit MOM capacitance, kT proportional to
    absolute temperature (27 C == 300 K reference), mobility ~ T^-1.5. The
    CORNER_FIELDS of the returned constants are read-only arrays over the
    corners; the other fields stay scalar."""
    columns: dict[str, list[float]] = {name: [] for name in CORNER_FIELDS}
    for c in corners:
        if c.temperature <= -273.0:
            raise ValueError(f"corner {c.label()} is at {c.temperature} C, at or below the"
                             " model's absolute zero, -273 C")
        t_ratio = (c.temperature + 273.0) / 300.0
        mobility = t_ratio ** -1.5
        columns["kp_n"].append(base.kp_n * _SKEW[c.nmos] * mobility)
        columns["kp_p"].append(base.kp_p * _SKEW[c.pmos] * mobility)
        columns["ind_scale"].append(base.ind_scale * _EXT_L[c.inductor])
        columns["c_unit_mom"].append(base.c_unit_mom * _EXT_C[c.capacitor])
        columns["kT"].append(base.kT * t_ratio)
    stacked = {name: frozen_array(column) for name, column in columns.items()}
    return replace(base, **stacked)


class _Failures:
    """Failure tests over the (design, corner) grid of a batch of `designs`
    designs at `corners`, in the order they are computed, and each design's
    failure in BatchResult's three columns. settle gives each design that
    fails a test the failure of its lowest-index failing corner, naming the
    first quantity that fails there; the grid's designs are those that no
    earlier settle failed."""

    def __init__(self, corners: Sequence[Corner], designs: int):
        self.n_corners = len(corners)
        self.tests: list[tuple[str, np.ndarray, Callable[[int, int], str]]] = []
        self.failure = np.full(designs, None, dtype=object)
        self.failure_corner = np.full(designs, -1, dtype=np.intp)
        self.details: list[tuple | None] = [None] * designs

    def add(self, name: str, bad: np.ndarray, detail: Callable[[int, int], str]) -> None:
        """A test that broadcasts to the grid; detail(d, i) describes design
        d's failure at corner i."""
        self.tests.append((name, bad, detail))

    def at(self, x, d: int, i: int) -> float:
        """Design d's value of x at corner i, for an x that broadcasts to
        the grid: each trailing axis of x is indexed, at 0 where it has
        length 1."""
        x = np.asarray(x)
        return x[tuple(k if n > 1 else 0 for k, n in zip((d, i)[2 - x.ndim:], x.shape))].item()

    def require_positive(self, name: str, value: np.ndarray) -> None:
        bad = ~((value > 0.0) & np.isfinite(value))
        self.add(name, bad, lambda d, i: f"nonpositive or non-finite value {self.at(value, d, i)}")

    def settle(self) -> np.ndarray:
        """Record the failures of the tests added since the last settle and
        drop the tests. Returns the mask of the grid's designs that pass."""
        rows = np.flatnonzero(self.failure_corner < 0)
        tests, self.tests = self.tests, []
        if not any(bad.any() for _, bad, _ in tests):
            return np.ones(len(rows), dtype=bool)
        bad = np.empty((len(tests), len(rows), self.n_corners), dtype=bool)
        for t, (_, b, _) in enumerate(tests):
            bad[t] = b
        at_corner = bad.any(axis=0)  # (design, corner)
        failing = at_corner.any(axis=1)
        grid = np.flatnonzero(failing)
        corner = at_corner[grid].argmax(axis=1)
        test = bad[:, grid, corner].argmax(axis=0)
        failed = rows[grid]
        self.failure[failed] = np.array([name for name, _, _ in tests], dtype=object)[test]
        self.failure_corner[failed] = corner
        for d, t, g, i in zip(failed.tolist(), test.tolist(), grid.tolist(), corner.tolist()):
            self.details[d] = (tests[t][2], g, i)
        return ~failing


def _design_values(space: DesignSpace, points: np.ndarray) -> dict[str, np.ndarray]:
    """The (n, dim) batch's variables by name, each a (designs, 1) column,
    and the space's fixed elements as float64 scalars: under _ERRSTATE a
    zero size then divides to inf or nan, which a failure test or the
    finite-metric check names, rather than raising ZeroDivisionError."""
    columns = np.ascontiguousarray(points.T)[:, :, np.newaxis]
    values = dict(zip(space._names, columns))
    values.update(zip(space.fixed, np.array(tuple(space.fixed.values()))))
    return values


def _take(x, keep: np.ndarray):
    """The designs that the mask `keep` selects, at least one, of a
    design-value dict or a model dataclass: each array with a design axis
    (two axes or more) is indexed; corner arrays and scalars pass as they
    are."""
    items = x.items() if isinstance(x, dict) else vars(x).items()
    kept = {name: value[keep] for name, value in items if np.ndim(value) >= 2}
    return {**x, **kept} if isinstance(x, dict) else replace(x, **kept)


@dataclass(frozen=True)
class VcoDerived:
    """Tank and oscillator quantities over the (design, corner) grid; the
    (designs, 1) columns are the same at every corner."""

    l_tank: np.ndarray
    q_tank: np.ndarray
    c_tank: np.ndarray
    c_par: np.ndarray  # column
    i_bias: np.ndarray  # column
    gm_sw: np.ndarray
    r_p: np.ndarray
    amplitude: np.ndarray
    amp_unclipped: np.ndarray
    p_sig: np.ndarray
    f0: np.ndarray
    f_corner_1f: np.ndarray  # column
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
    pm = 90.0 - np.degrees(np.arctan(gbw / p2))
    return pm + np.degrees(np.arctan(gbw / np.abs(f_z))) * np.where(f_z < 0, 1.0, -1.0)


_ERRSTATE = np.errstate(divide="ignore", invalid="ignore", over="ignore")


def map_vco(v: dict[str, np.ndarray], tc: TechConstants, amp_limit: float,
            failures: _Failures) -> VcoDerived:
    """Closed-form mapping from geometry to tank and oscillator quantities,
    over the design columns of v (_design_values) and the corner axis of the
    folded constants tc (runs under _evaluate's _ERRSTATE). amp_limit is the
    swing ceiling of the evaluation mode (ideal supply vs bypass-flattened
    coupled operation). Failing quantities go to `failures` for the caller
    to settle.
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
    """x with one trailing axis per axis of the array f, to broadcast over
    frequency; a scalar broadcasts as it is."""
    if not isinstance(x, np.ndarray):
        return x
    return x.reshape(x.shape + (1,) * f.ndim)


def vco_pn_intrinsic(d: VcoDerived, delta_f, tc: TechConstants) -> np.ndarray:
    """Leeson-type single-sideband phase noise in dBc/Hz at offset delta_f;
    the axes of delta_f follow the design and corner axes."""
    delta_f = np.asarray(delta_f, dtype=float)
    if np.any(delta_f <= 0):
        raise ValueError("delta_f must be positive")
    f0, q_tank, f_corner_1f, kT, p_sig = (
        _outer(x, delta_f) for x in (d.f0, d.q_tank, d.f_corner_1f, tc.kT, d.p_sig)
    )
    f_noise = 1.0 + tc.gamma_excess
    ratio = f0 / (2.0 * q_tank * delta_f)
    leeson = 1.0 + ratio * ratio
    flicker = 1.0 + f_corner_1f / delta_f
    return 10.0 * np.log10((2.0 * f_noise * kT / p_sig) * leeson * flicker)


def supply_pn(k_push, vn, delta_f) -> np.ndarray:
    """Narrowband-FM conversion of supply noise to phase noise, dBc/Hz;
    the axes of delta_f follow the axes of k_push. vn = 0 or
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
    return np.where(quiet, -math.inf, 20.0 * np.log10(ratio))


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
    total = sum(np.power(10.0, (p - ref) / 10.0) for p in parts)
    return np.where(ref == -math.inf, -math.inf, ref + 10.0 * np.log10(total))[()]


@dataclass(frozen=True)
class LdoDerived:
    """Loop and noise quantities over the (design, corner) grid; the
    (designs, 1) columns are the same at every corner."""

    a_dc: np.ndarray
    gbw: np.ndarray
    pm: np.ndarray
    gm1: np.ndarray
    f_filter: np.ndarray  # column
    i_q: np.ndarray  # column
    vdd_max: np.ndarray
    psr_max: np.ndarray  # peak of psr_curve
    # noise-model pieces kept for exact point evaluation off the grid
    _s_thermal: np.ndarray
    _s_flicker_1hz: np.ndarray  # column
    _s_ref_flicker_1hz: np.ndarray  # column
    _beta_fb: float

    def vn_at(self, f) -> np.ndarray:
        """Output-referred noise density at frequency f (closed form); the
        axes of f follow the design and corner axes."""
        f = np.asarray(f, dtype=float)
        gbw, s_thermal, s_flicker_1hz, s_ref_flicker_1hz, f_filter = (
            _outer(x, f) for x in (self.gbw, self._s_thermal, self._s_flicker_1hz,
                                   self._s_ref_flicker_1hz, self.f_filter)
        )
        s_amp = s_thermal + s_flicker_1hz / f
        x_loop, x_filter = f / (self._beta_fb * gbw), f / f_filter
        roll = 1.0 + x_loop * x_loop
        s_ref = (s_ref_flicker_1hz / f + V_REF_NOISE**2) / (1.0 + x_filter * x_filter)
        return np.sqrt((s_amp / roll + s_ref)) / self._beta_fb


def _lambda(l_chan: float, lam_per_um: float) -> float:
    return lam_per_um * 1e-6 / l_chan


class _PsrWork:
    """What psr_curve needs of a batch beyond one corner's inputs: the
    terms that depend on the design only, computed once, and the four real
    work buffers, of the curves' shape, that every corner's curve is
    written into."""

    def __init__(self, gds_pass, c_ds_pass, c_out, shape: tuple[int, ...]):
        w = 2.0 * math.pi * FREQ_GRID
        self.gds_pass, c_ds_pass, c_out = (_outer(x, w) for x in (gds_pass, c_ds_pass, c_out))
        w_c_ds, w_c_out = w * c_ds_pass, w * c_out
        self.leak_sq = self.gds_pass * self.gds_pass + w_c_ds * w_c_ds  # |gds + j w c_ds|^2
        self.w_c_out_sq = w_c_out * w_c_out
        self.buffers = tuple(np.empty(shape) for _ in range(4))


def psr_curve(work: _PsrWork, gm_pass, a_dc, gbw, p2, f_z) -> np.ndarray:
    """Supply rejection in dB vs FREQ_GRID, on a trailing axis after the
    inputs' axes, written into a buffer of `work`: the (gds + j w c_ds)
    leakage through the pass device against the output node admittance
    (gm_pass + gds + j w c_out), suppressed by the loop gain
    a_dc (1 - j f/f_z) / ((1 + j f/p1)(1 + j f/p2)), p1 = gbw / a_dc; the
    output capacitance (bypass included) strictly attenuates it at every
    frequency. In real arithmetic, with y1 = f/p1, y2 = f/p2, x = f/f_z,
    D = (1 - y1 y2) + j (y1 + y2) and N = D + a_dc (1 - j x), so that
    1 + loop = N / D:

        |h_open|^2 / |1 + loop|^2
            = (gds^2 + (w c_ds)^2) |D|^2 / (((gm_pass + gds)^2 + (w c_out)^2) |N|^2)

    y1, y2 and a_dc x are f times a (design, corner) column. The zero
    frequency is signed (positive right-half-plane zeros lose phase,
    negative left-half-plane ones add it), and an infinite f_z (no zero)
    makes x exactly 0."""
    f = FREQ_GRID
    gm_pass, a_dc, gbw, p2, f_z = (_outer(x, f) for x in (gm_pass, a_dc, gbw, p2, f_z))
    a, b, c, curve = work.buffers
    y1 = np.multiply(f, a_dc / gbw, out=a)
    y2 = np.multiply(f, 1.0 / p2, out=b)
    d_re = np.subtract(1.0, np.multiply(y1, y2, out=c), out=c)
    d_im = np.add(y1, y2, out=a)
    n_im = np.subtract(d_im, np.multiply(f, a_dc / f_z, out=b), out=b)
    d_sq = np.add(np.multiply(d_re, d_re, out=curve), np.multiply(d_im, d_im, out=a), out=curve)
    n_re = np.add(d_re, a_dc, out=c)
    n_sq = np.add(np.multiply(n_re, n_re, out=c), np.multiply(n_im, n_im, out=b), out=c)
    g = gm_pass + work.gds_pass
    den = np.multiply(np.add(g * g, work.w_c_out_sq, out=a), n_sq, out=c)
    ratio = np.divide(np.multiply(work.leak_sq, d_sq, out=curve), den, out=curve)
    # 10 log10(|h_open|^2 / |1 + loop|^2)
    return np.multiply(10.0, np.log10(ratio, out=ratio), out=ratio)


def _psr_max(gds_pass, c_ds_pass, c_out, gm_pass, a_dc, gbw, p2, f_z) -> np.ndarray:
    """The peak of psr_curve over the (design, corner) grid. gds_pass,
    c_ds_pass and c_out are per design; the curve is computed one corner at
    a time, into one set of work buffers, once per corner whose other
    inputs differ, bit for bit over the batch, from every earlier corner's
    (the LDO sees only the MOS skew and the temperature: 9 of 33 corners),
    and its peak is gathered back onto the corner axis."""
    per_corner = np.stack((gm_pass, a_dc, gbw, p2, f_z))  # (input, ..., corner)
    by_corner = np.ascontiguousarray(per_corner.T).reshape(f_z.shape[-1], -1)
    keys = by_corner.view(f"V{by_corner.shape[1] * by_corner.itemsize}").ravel().tolist()
    first = {key: keys.index(key) for key in dict.fromkeys(keys)}  # in corner order
    slots = {key: n for n, key in enumerate(first)}
    work = _PsrWork(gds_pass, c_ds_pass, c_out, f_z.shape[:-1] + (1, len(FREQ_GRID)))
    peaks = [psr_curve(work, *per_corner[..., i:i + 1]).max(axis=-1) for i in first.values()]
    return np.concatenate(peaks, axis=-1)[..., [slots[key] for key in keys]]


def ldo_headroom(v: dict[str, np.ndarray], tc: TechConstants, i_load,
                 failures: _Failures) -> None:
    """The LDO's headroom test, which comes before its loop model, over the
    same grid as map_ldo: the NMOS follower's gate drive must lie below the
    input VDD_IN."""
    w_pass = v["W_pass"] * v["F_pass"] * v["M_pass"]
    vov_pass = np.sqrt(2.0 * i_load / (tc.kp_n * w_pass / v["L_pass"]))
    gate = V_OUT + VTH_PASS + vov_pass
    failures.add("pass_headroom", gate > VDD_IN, lambda d, i: (
        f"needs {failures.at(gate, d, i):.3f} V gate drive from {VDD_IN} V"))


def map_ldo(v: dict[str, np.ndarray], tc: TechConstants, i_load, c_load) -> LdoDerived:
    """Small-signal model of the two-stage Miller op-amp with NMOS-follower
    pass device: loop gain, poles/zero, phase margin, supply rejection and
    output noise curves, over the design columns of v (_design_values) and
    the corner axis of the folded constants tc (runs under _evaluate's
    _ERRSTATE). i_load and c_load are per design.
    Run it on designs that passed ldo_headroom."""
    beta_fb = v["beta_fb"]
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
    vdd_max = np.minimum(V_OUT * (1.0 + 1.0 / a_dc) + i_load / (gm_pass * (1.0 + a_dc)), VDD_IN)

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
        f_filter=f_filter, i_q=i_q, vdd_max=vdd_max,
        psr_max=_psr_max(gds_pass, c_ds_pass, c_out, gm_pass, a_dc, gbw, p2, f_z),
        _s_thermal=s_thermal, _s_flicker_1hz=s_flicker_1hz,
        _s_ref_flicker_1hz=s_ref_flicker_1hz, _beta_fb=beta_fb,
    )


# The phase-noise metrics and their offsets.
PN_METRICS = ("pn100k", "pn1m", "pn10m")
PN_OFFSETS = np.array([1e5, 1e6, 1e7])

# Placeholder values reported for the LDO-side metrics in ideal_supply mode.
_IDEAL_PSR = -120.0
_IDEAL_PM = 90.0


def coupled_swing_limit(c_byp: float) -> float:
    """Bypass capacitance at the supply flattens the achievable tank swing."""
    return SWING_FRAC * V_OUT * C_SWING_REF / (C_SWING_REF + c_byp)


def _pn_metrics(pn: np.ndarray) -> dict[str, np.ndarray]:
    """The PN_METRICS columns of a (..., offset) array."""
    return {name: pn[..., k] for k, name in enumerate(PN_METRICS)}


def _phase_noise(vco: VcoDerived, ldo: LdoDerived | None, tcc: TechConstants,
                 offsets: np.ndarray) -> np.ndarray:
    """Phase noise in dBc/Hz over (designs, corners, offsets): the VCO's
    intrinsic part, power-summed with the supply part when an LDO feeds it."""
    intrinsic = vco_pn_intrinsic(vco, offsets, tcc)
    if ldo is None:
        return intrinsic
    return combine_pn([intrinsic, supply_pn(vco.k_push, ldo.vn_at(offsets), offsets)])


@_ERRSTATE
def _evaluate(
    space: DesignSpace,
    points: np.ndarray,
    corners: tuple[Corner, ...],
    mode: str,
    tc: TechConstants,
) -> tuple[BatchResult, VcoDerived | None, LdoDerived | None, TechConstants]:
    """The one evaluation path, for an (n, dim) batch of points: fold the
    corners into tc, read the designs once and run the models of `mode` over
    the (design, corner) grid with one failure collector. A design that
    fails a model test leaves the batch there with its failure, so the loop
    model and the phase noise run on the survivors only. If the survivors'
    table stack holds a non-finite metric, the collector takes one test per
    metric, in METRIC_NAMES order, and settles again. Returns the
    BatchResult, the survivors' model parts (those of the designs past the
    model tests) and the corner-applied constants."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    tcc = apply_corners(tc, corners)
    failures = _Failures(corners, len(points))
    v = _design_values(space, points)

    # the models' tests, then the raise point
    if mode == "ideal_supply":
        vco = map_vco(v, tcc, SWING_FRAC * V_OUT, failures)
    else:  # coupled: the LDO carries the VCO's bias and drives its parasitics
        vco = map_vco(v, tcc, coupled_swing_limit(v["c_byp"]), failures)
        ldo_headroom(v, tcc, vco.i_bias, failures)
    keep = failures.settle()
    if not keep.any():
        return BatchResult(corners, np.empty((0, len(corners), len(METRIC_NAMES))),
                           failures.failure, failures.failure_corner,
                           failures.details), None, None, tcc
    if not keep.all():  # the failing designs leave the batch
        v, vco = _take(v, keep), _take(vco, keep)

    # the survivors' loop model, power, phase noise and table
    if mode == "ideal_supply":
        ldo = None
        values = dict(psr_max=_IDEAL_PSR, pm=_IDEAL_PM, vdd_max=V_OUT, pdyn=V_OUT * vco.i_bias)
    else:
        ldo = map_ldo(v, tcc, vco.i_bias, vco.c_par + C_SUP_FIXED)
        values = dict(psr_max=ldo.psr_max, pm=ldo.pm, vdd_max=ldo.vdd_max,
                      pdyn=VDD_IN * (vco.i_bias + ldo.i_q))
    values.update(f0=vco.f0, startup_margin=vco.startup_margin,
                  **_pn_metrics(_phase_noise(vco, ldo, tcc, PN_OFFSETS)))
    values["fom"] = fom(vco.f0, 1e6, values["pn1m"], values["pdyn"])
    tables = np.empty((np.count_nonzero(keep), len(corners), len(METRIC_NAMES)))
    for k, name in enumerate(METRIC_NAMES):
        tables[..., k] = values[name]  # a scalar fills a column
    finite = np.isfinite(tables)
    if not finite.all():
        for k, name in enumerate(METRIC_NAMES):
            failures.add(name, ~finite[..., k],
                         lambda d, i, x=tables[..., k]: f"non-finite value {x[d, i]}")
        tables = tables[failures.settle()]
    return BatchResult(corners, tables, failures.failure, failures.failure_corner,
                       failures.details), vco, ldo, tcc


def evaluate_batch(
    space: DesignSpace,
    points: Sequence[DesignPoint],
    corners: Sequence[Corner],
    mode: str,
    tc: TechConstants,
) -> BatchResult:
    """Evaluate a batch of points at every corner in one mode, CHUNK_DESIGNS
    designs per numpy pass: the survivors' stacked corner x metric tables
    and each design's failing quantity and corner, if any, in batch order
    (see BatchResult). Pure and deterministic, and each design's outcome is the
    same whatever else is in the batch. A failure names the lowest-index
    failing corner and the first quantity that fails there; a model
    quantity that fails at any corner comes before a non-finite metric."""
    points = np.asarray(points, dtype=float).reshape(len(points), space.dim)
    corners = tuple(corners)
    # an empty batch is one empty chunk, so its stack has the usual shape
    starts = range(0, max(len(points), 1), CHUNK_DESIGNS)
    chunks = [_evaluate(space, points[s:s + CHUNK_DESIGNS], corners, mode, tc)[0]
              for s in starts]
    if len(chunks) == 1:
        return chunks[0]
    return BatchResult(corners, *(np.concatenate([getattr(c, name) for c in chunks])
                                  for name in ("tables", "failure", "failure_corner")),
                       [d for c in chunks for d in c.details])


def evaluate(
    space: DesignSpace,
    point: DesignPoint,
    corner: Corner,
    mode: str,
    tc: TechConstants,
) -> PerfMetrics:
    """The metrics at one corner: row 0 of a one-corner batch of one; raises
    its EvaluationFailure."""
    return PerfMetrics(*evaluate_batch(space, [point], (corner,), mode, tc).table(0)[0].tolist())


@_ERRSTATE
def pn_sweep(
    space: DesignSpace,
    point: DesignPoint,
    corner: Corner,
    mode: str,
    tc: TechConstants,
) -> np.ndarray:
    """Total phase noise at one corner, for export: one dBc/Hz value per
    offset of SWEEP_OFFSETS. The corner is evaluated as a one-corner batch
    of one, so a design that fails there raises as evaluate would."""
    result, vco, ldo, tcc = _evaluate(
        space, np.asarray(point, dtype=float)[np.newaxis], (corner,), mode, tc
    )
    result.table(0)  # raises the design's failure
    return _phase_noise(vco, ldo, tcc, SWEEP_OFFSETS)[0, 0]
