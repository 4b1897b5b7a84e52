"""Unified weak-to-strong inversion I-V model (EKV-style interpolation).

The circuits in the paper operate both deep in subthreshold
(V_dd = 250 mV, V_th > 400 mV) and at nominal supply (0.9-1.2 V), so a
single current expression must cover both regimes smoothly:

``I_ds = I_spec [ F((V_p - V_s)/v_T) - F((V_p - V_d)/v_T) ]``

with the EKV interpolation function ``F(u) = ln(1 + e^{u/2})^2``, pinch
-off voltage ``V_p = (V_gs - V_th)/m`` and specific current
``I_spec = 2 m mu_eff C_ox v_T^2 W / L_eff``.

* In weak inversion this reduces exactly to the paper's Eq. 1
  (exponential in ``(V_gs - V_th)/(m v_T)`` with the
  ``1 - e^{-V_ds/v_T}`` drain factor).
* In strong inversion it reduces to the square-law with saturation.

Short-channel reality enters through three hooks: the slope factor
``m`` is derived from the *short-channel* Eq. 2(b) slope (so extracted
S_S matches the analytic model), V_th carries DIBL from the quasi-2-D
model, and an inversion-level-weighted velocity-saturation factor
limits the strong-inversion current.

This module is the one place the current is written.  A device's
constants live in a frozen :class:`IVParams` record (floats for one
device, arrays for many), which :meth:`IVParams.from_state` maps from
the device's channel state; :func:`drain_current` evaluates the current
over a record, :func:`threshold_voltage` its DIBL-lowered V_th, and
:func:`ids_with_partials` the current together with its closed-form
``dI/dV_gs`` and ``dI/dV_ds``, which Newton solvers and the VTC gain
need.  :class:`IVModel` (one device) and
:class:`repro.device.batch.BatchDeviceMetrics` (a parameter stack) both
evaluate through these functions; :meth:`IVParams.stack` turns many
records into parameter columns for a whole table of devices at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np
import numpy.typing as npt

from ..constants import LN10, T_ROOM, thermal_voltage
from ..errors import ParameterError
from ..materials.mobility import UNIVERSAL_MOBILITY, MobilityModel
from ..materials.oxide import GateStack
from .doping import DopingProfile
from .geometry import DeviceGeometry
from .subthreshold import inverse_subthreshold_slope
from .threshold import ThresholdModel


FloatArray = npt.NDArray[np.float64]


@dataclass(frozen=True)
class IVParams:
    """The constants of one :class:`IVModel`, or columns of many.

    Every field is a float for a single device; :meth:`stack` builds
    the same record with ``(devices, 1)`` columns, which broadcast
    against ``(devices, lanes)`` bias arrays, and a parameter stack
    carries lane-shaped arrays.
    """

    #: Thermal voltage kT/q [V].
    vt_v: float | FloatArray
    #: Slope factor m.
    slope_factor: float | FloatArray
    #: Zero-drain-bias V_th including the model's offset [V].
    vth_v: float | FloatArray
    #: Long-channel V_th0 that sets the vertical field [V].
    vth0_v: float | FloatArray
    #: Source/drain barrier of the DIBL term [V].
    sce_barrier_v: float | FloatArray
    #: DIBL decay factors exp(-L_eff/2l_t) and exp(-L_eff/l_t).
    sce_e1_factor: float | FloatArray
    sce_e2_factor: float | FloatArray
    #: Specific current at zero vertical field, 2 m mu_0 C_ox v_T^2 W/L [A].
    i_spec_a: float | FloatArray
    #: Gate overdrive V_gs + V_th0 at which the vertical field reaches
    #: the mobility-degradation field, 6 EOT E_0 [V].
    v_field_v: float | FloatArray
    #: Exponent of the vertical-field mobility degradation.
    mobility_exponent: float | FloatArray
    #: Lateral voltage of velocity saturation, v_sat L_eff / mu_0 [V].
    v_lateral_v: float | FloatArray

    @classmethod
    def from_state(cls, *, vt_v, slope_factor, vth0_v, vth_offset_v,
                   sce_barrier_v, sce_e1_factor, sce_e2_factor, mu_low,
                   cox_f_per_cm2, aspect_ratio, eot_cm, l_eff_cm,
                   vsat_cm_per_s, e0_v_per_cm, exponent) -> "IVParams":
        """The record of a device state (floats, or arrays of lanes):
        ``vt_v`` [V], ``vth0_v`` [V] plus ``vth_offset_v`` [V], DIBL
        ``sce_barrier_v`` [V], low-field mobility ``mu_low``,
        ``cox_f_per_cm2`` [F/cm2], ``eot_cm`` [cm], ``l_eff_cm`` [cm],
        ``vsat_cm_per_s`` [cm/s] and the carrier's universal-mobility
        ``e0_v_per_cm`` [V/cm] and ``exponent``."""
        return cls(
            vt_v=vt_v, slope_factor=slope_factor,
            vth_v=vth0_v + vth_offset_v, vth0_v=vth0_v,
            sce_barrier_v=sce_barrier_v, sce_e1_factor=sce_e1_factor,
            sce_e2_factor=sce_e2_factor,
            i_spec_a=(2.0 * slope_factor * mu_low * cox_f_per_cm2
                      * vt_v ** 2 * aspect_ratio),
            v_field_v=6.0 * eot_cm * e0_v_per_cm,
            mobility_exponent=exponent,
            v_lateral_v=vsat_cm_per_s * l_eff_cm / mu_low,
        )

    @classmethod
    def stack(cls, records: Sequence["IVParams"]) -> "IVParams":
        """One record of ``(len(records), 1)`` parameter columns."""
        return cls(**{f.name: np.array([float(getattr(r, f.name))
                                        for r in records])[:, None]
                      for f in fields(cls)})


def _dibl(p: IVParams, vds: FloatArray) -> tuple[FloatArray, FloatArray]:
    """V_th [V] at drain bias ``vds >= 0`` [V], and ``sqrt(b (b + vds))``."""
    b = p.sce_barrier_v
    root = np.sqrt(b * (b + vds))
    return (p.vth_v - ((2.0 * b + vds) * p.sce_e1_factor
                       + 2.0 * root * p.sce_e2_factor)), root


def threshold_voltage(params: IVParams, vds) -> FloatArray:
    """Threshold voltage [V] at drain bias ``vds`` [V], DIBL included
    (negative ``vds`` counts as zero)."""
    return _dibl(params, np.maximum(np.asarray(vds, dtype=float), 0.0))[0]


def _softplus(half: FloatArray) -> tuple:
    """``ln(1 + e^h)``, overflow-safe, and the pieces of its slope:
    ``e^min(h, 30)`` and, only if some ``h > 30``, ``e^-|h|`` and that
    mask."""
    e = np.exp(np.minimum(half, 30.0))
    big = half > 30.0
    if not big.any():
        return np.log1p(e), e, None, None
    # ln(1 + e^h) == h + ln(1 + e^-h) for large h.
    tail = np.exp(-np.abs(half))
    return np.where(big, half + np.log1p(tail), np.log1p(e)), e, tail, big


def _sigmoid(e: FloatArray, tail, big) -> FloatArray:
    """``1 / (1 + e^-h)``, the softplus slope, from its pieces."""
    sig = e / (1.0 + e)
    return sig if big is None else np.where(big, 1.0 / (1.0 + tail), sig)


def _current(p: IVParams, vgs, vds, shift) -> tuple:
    """Drain current [A] and the terms :func:`ids_with_partials` reuses.

    ``I = I_spec(V_gs) [F(u_fwd) - F(u_rev)] / den(F(u_fwd), V_p, V_ds)``
    with ``u_fwd = V_p / v_T``, ``u_rev = (V_p - V_ds) / v_T`` and
    ``F(u)`` the squared softplus of ``u/2``.
    """
    vgs = np.asarray(vgs, dtype=float)
    vds = np.asarray(vds, dtype=float)
    # ndarray.any, not np.any: the latter's Python-level dispatch costs
    # more than the arithmetic of a scalar call.
    if (vds < -1e-12).any():
        raise ParameterError("ids() requires vds >= 0; swap terminals")
    vds = np.maximum(vds, 0.0)
    vt = p.vt_v
    vth, root = _dibl(p, vds)
    vp = (vgs - (vth + shift)) / p.slope_factor
    fwd = _softplus(0.5 * (vp / vt))
    rev = _softplus(0.5 * ((vp - vds) / vt))
    f_fwd = fwd[0] * fwd[0]
    # Vertical-field mobility degradation of the specific current.  The
    # ufunc, not ``**``: on numpy scalars ``**`` runs C pow, whose last
    # bit differs from the array loop's.
    overdrive = vgs + p.vth0_v
    rk = np.power(np.maximum(overdrive, 0.0) / p.v_field_v,
                  p.mobility_exponent)
    ispec = p.i_spec_a / (1.0 + rk)
    # Velocity saturation, weighted by inversion level so that weak
    # inversion (diffusion-dominated) is unaffected.
    severity = f_fwd / (1.0 + f_fwd)
    drive_on = vp > 2.0 * vt
    v_drive = np.where(drive_on, vp, 2.0 * vt)
    denom = vds + v_drive + 1e-12
    vsat_term = vds * v_drive / denom / p.v_lateral_v
    den = 1.0 + severity * vsat_term
    current = ispec * (f_fwd - rev[0] * rev[0]) / den
    return current, (vds, root, fwd, rev, f_fwd, overdrive, rk, ispec,
                     severity, drive_on, v_drive, denom, vsat_term, den)


def drain_current(params: IVParams, vgs, vds,
                  vth_shift_v: object = 0.0) -> FloatArray:
    """Drain current [A] for NFET-referenced ``vgs`` and ``vds >= 0``
    [V] plus an additive V_th shift ``vth_shift_v`` [V], all
    broadcasting against the (possibly stacked) ``params``."""
    return _current(params, vgs, vds, vth_shift_v)[0]


def ids_with_partials(params: IVParams, vgs: FloatArray, vds: FloatArray,
                      vth_shift_v: object = 0.0
                      ) -> tuple[FloatArray, FloatArray, FloatArray]:
    """Drain current [A] and its closed-form partials [S].

    Evaluates :func:`drain_current` at the same ``vgs``, ``vds`` and
    ``vth_shift_v`` [V], bit for bit, and returns
    ``(I_ds, dI/dV_gs, dI/dV_ds)``.  The partials are exact
    derivatives of the same expression, so Newton needs no
    finite-difference evaluations.  At the model's kinks (``V_ds = 0``,
    ``V_gs = -V_th0``, ``V_p = 2 v_T``) they are one-sided.
    """
    p = params
    current, (vds, root, fwd, rev, f_fwd, overdrive, rk, ispec, severity,
              drive_on, v_drive, denom, vsat_term, den) = _current(
        p, vgs, vds, vth_shift_v)
    vt = p.vt_v
    m = p.slope_factor
    # -dV_th/dV_ds: DIBL lifts V_p by dibl / m per volt of V_ds.
    dibl = (p.sce_e1_factor
            + p.sce_e2_factor * p.sce_barrier_v / np.maximum(root, 1e-300))
    slope_fwd = fwd[0] * _sigmoid(*fwd[1:])
    slope_rev = rev[0] * _sigmoid(*rev[1:])
    dlog_ispec = (-p.mobility_exponent * rk
                  / (np.maximum(overdrive, 1e-300) * (1.0 + rk)))
    # The divisor den's partials in F(u_fwd), V_p and (explicitly) V_ds.
    scale = severity / (p.v_lateral_v * denom * denom)
    dden_f = vsat_term / ((1.0 + f_fwd) * (1.0 + f_fwd))
    dden_vp = np.where(drive_on, scale * vds * (vds + 1e-12), 0.0)
    dden_ds = scale * v_drive * (v_drive + 1e-12)
    # Chain rule through V_p (which carries V_gs and, via DIBL, V_ds).
    d_vp = (ispec * (slope_fwd - slope_rev) / vt
            - current * (dden_f * slope_fwd / vt + dden_vp)) / den
    d_ds = (ispec * slope_rev / vt - current * dden_ds) / den
    return (current, current * dlog_ispec + d_vp / m,
            d_vp * (dibl / m) + d_ds)


@dataclass(frozen=True)
class IVModel:
    """Compact I-V model bound to one device description.

    All expensive self-consistency (halo <-> depletion width) is
    resolved once at construction into the model's :class:`IVParams`;
    per-call evaluation is this module's vectorised numpy kernel,
    cheap enough for Newton loops and transient integration.

    The model is polarity-agnostic: it always computes an n-channel-
    referenced current, and :class:`repro.device.mosfet.MOSFET` maps
    PFET terminal voltages onto it by symmetry.
    """

    geometry: DeviceGeometry
    profile: DopingProfile
    stack: GateStack
    mobility: MobilityModel = field(default_factory=MobilityModel)
    temperature_k: float = T_ROOM
    gate: str = "n+poly"
    #: Additive V_th perturbation [V] — the hook Monte-Carlo variability
    #: analysis uses to model random dopant fluctuation.
    vth_offset_v: float = 0.0

    # Derived in __post_init__ (frozen dataclass -> object.__setattr__).
    #: Self-consistent effective channel doping [cm^-3].
    n_eff_cm3: float = field(init=False, repr=False)
    #: Self-consistent depletion width [cm].
    w_dep_cm: float = field(init=False, repr=False)
    #: The constants every current, V_th and partial of the model reads.
    params: IVParams = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        tm = ThresholdModel(self.geometry, self.profile, self.stack,
                            self.temperature_k, gate=self.gate)
        n_eff, w_dep = tm.channel_state()
        object.__setattr__(self, "n_eff_cm3", n_eff)
        object.__setattr__(self, "w_dep_cm", w_dep)
        # The pieces of delta_vth_sce, so vth(vds) is closed-form.
        from ..materials.silicon import built_in_potential, fermi_potential
        from .threshold import N_SOURCE_DRAIN, characteristic_length
        psi_s = 2.0 * fermi_potential(n_eff, self.temperature_k)
        vbi = built_in_potential(N_SOURCE_DRAIN, n_eff, self.temperature_k)
        lt = characteristic_length(self.stack, w_dep)
        l_eff = self.geometry.l_eff_cm
        # Slope factor from the short-channel Eq. 2(b) slope so that
        # S_S extracted from this model's I-V matches the analytic S_S.
        ss = inverse_subthreshold_slope(self.stack, w_dep, l_eff,
                                        self.temperature_k)
        vt = thermal_voltage(self.temperature_k)
        e0_v_per_cm, exponent = UNIVERSAL_MOBILITY[self.mobility.carrier]
        object.__setattr__(self, "params", IVParams.from_state(
            vt_v=vt, slope_factor=ss / (LN10 * vt), vth0_v=tm.vth0(),
            vth_offset_v=self.vth_offset_v,
            sce_barrier_v=max(vbi - psi_s, 0.0),
            sce_e1_factor=np.exp(-l_eff / (2.0 * lt)),
            sce_e2_factor=np.exp(-l_eff / lt),
            mu_low=self.mobility.low_field(n_eff),
            cox_f_per_cm2=self.stack.capacitance_per_area,
            aspect_ratio=self.geometry.aspect_ratio,
            eot_cm=self.stack.eot_cm, l_eff_cm=l_eff,
            vsat_cm_per_s=self.mobility.vsat(), e0_v_per_cm=e0_v_per_cm,
            exponent=exponent,
        ))

    @property
    def slope_factor(self) -> float:
        """Effective slope factor m (includes short-channel degradation)."""
        return self.params.slope_factor

    @property
    def ss_v_per_decade(self) -> float:
        """Inverse subthreshold slope [V/dec] (equals Eq. 2(b))."""
        return LN10 * thermal_voltage(self.temperature_k) * self.slope_factor

    def vth(self, vds: float | np.ndarray = 0.05) -> float | np.ndarray:
        """Threshold voltage at drain bias ``vds`` [V] (DIBL included)."""
        out = threshold_voltage(self.params, vds)
        return float(out) if np.isscalar(vds) else out

    def ids(self, vgs, vds, vth_shift_v=0.0):
        """Drain current [A] for NFET-referenced terminal voltages.

        Accepts scalars or broadcastable arrays.  ``vds`` must be >= 0
        (the model is source-referenced; the MOSFET facade handles the
        swap for reverse operation).

        ``vth_shift_v`` [V] is an additive V_th perturbation applied per
        evaluation point; an array here is equivalent to evaluating a
        :meth:`vth`-offset copy of the device at each element (the
        offset enters only through V_th, never the specific current),
        which is what lets Monte-Carlo trials share one device object.
        """
        current = drain_current(self.params, vgs, vds, vth_shift_v)
        if (np.isscalar(vgs) and np.isscalar(vds)
                and np.ndim(vth_shift_v) == 0):
            return float(current)
        return current

    def i_off(self, vdd: float) -> float:
        """Off-state leakage ``I(V_gs=0, V_ds=V_dd)`` [A]."""
        return float(self.ids(0.0, vdd))

    def i_on(self, vdd: float) -> float:
        """On-current ``I(V_gs=V_ds=V_dd)`` [A]."""
        return float(self.ids(vdd, vdd))
