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

Newton solvers need the conductances as well as the current.
:attr:`IVModel.params` exports a model's constants as a frozen
:class:`IVParams` record; :meth:`IVParams.stack` turns many records
into parameter columns, and :func:`ids_with_partials` evaluates the
same expression as :meth:`IVModel.ids` together with its closed-form
``dI/dV_gs`` and ``dI/dV_ds`` for a whole table of devices at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np
import numpy.typing as npt

from ..constants import LN10, T_ROOM, thermal_voltage
from ..errors import ParameterError
from ..materials.mobility import MobilityModel
from ..materials.oxide import GateStack
from .doping import DopingProfile
from .geometry import DeviceGeometry
from .subthreshold import inverse_subthreshold_slope
from .threshold import ThresholdModel


FloatArray = npt.NDArray[np.float64]


def _ekv_f(u: np.ndarray) -> np.ndarray:
    """EKV interpolation function ``ln(1 + exp(u/2))^2``, overflow-safe."""
    half = 0.5 * u
    # log1p(exp(x)) == x + log1p(exp(-x)) for large x.
    out = np.where(half > 30.0, half + np.log1p(np.exp(-np.abs(half))),
                   np.log1p(np.exp(np.minimum(half, 30.0))))
    return out ** 2


@dataclass(frozen=True)
class IVParams:
    """The constants of one :class:`IVModel`, or columns of many.

    Every field is a float for a single device; :meth:`stack` builds
    the same record with ``(devices, 1)`` columns, which broadcast
    against ``(devices, lanes)`` bias arrays in
    :func:`ids_with_partials`.
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
    def stack(cls, records: Sequence["IVParams"]) -> "IVParams":
        """One record of ``(len(records), 1)`` parameter columns."""
        return cls(**{f.name: np.array([float(getattr(r, f.name))
                                        for r in records])[:, None]
                      for f in fields(cls)})


def _softplus_sigmoid(half: FloatArray) -> tuple[FloatArray, FloatArray]:
    """``ln(1 + e^h)`` and ``1 / (1 + e^-h)`` sharing one exponential.

    The softplus is the form :func:`_ekv_f` uses, so ``softplus**2``
    reproduces it bit for bit.
    """
    e = np.exp(np.minimum(half, 30.0))
    soft = np.log1p(e)
    sig = e / (1.0 + e)
    big = half > 30.0
    if np.any(big):
        tail = np.exp(-np.abs(half))
        soft = np.where(big, half + np.log1p(tail), soft)
        sig = np.where(big, 1.0 / (1.0 + tail), sig)
    return soft, sig


def _ekv_f_slope(u: FloatArray) -> tuple[FloatArray, FloatArray]:
    """:func:`_ekv_f` and its derivative
    ``ln(1 + e^{u/2}) / (1 + e^{-u/2})``."""
    soft, sig = _softplus_sigmoid(0.5 * u)
    return soft * soft, soft * sig


def _dibl_vth(p: IVParams, vds: FloatArray) -> tuple[FloatArray, FloatArray]:
    """V_th at drain bias ``vds`` [V] (as :meth:`IVModel.vth`) and
    ``-dV_th/dV_ds``."""
    b = p.sce_barrier_v
    root = np.sqrt(b * (b + vds))
    vth = p.vth_v - ((2.0 * b + vds) * p.sce_e1_factor
                     + 2.0 * root * p.sce_e2_factor)
    return vth, (p.sce_e1_factor
                 + p.sce_e2_factor * b / np.maximum(root, 1e-300))


def _field_ispec(p: IVParams, vgs: FloatArray
                 ) -> tuple[FloatArray, FloatArray]:
    """Specific current [A] under vertical-field mobility degradation,
    ``I_spec / (1 + r^k)``, and ``d ln I_spec / dV_gs``."""
    overdrive = vgs + p.vth0_v
    rk = (np.maximum(overdrive, 0.0) / p.v_field_v) ** p.mobility_exponent
    return (p.i_spec_a / (1.0 + rk),
            -p.mobility_exponent * rk
            / (np.maximum(overdrive, 1e-300) * (1.0 + rk)))


def _velocity_saturation(p: IVParams, vp: FloatArray, vds: FloatArray,
                         f_fwd: FloatArray
                         ) -> tuple[FloatArray, FloatArray, FloatArray,
                                    FloatArray]:
    """The divisor ``1 + severity V_dsat / V_lat`` and its partials
    with respect to F(u_fwd), V_p and (explicitly) V_ds."""
    severity = f_fwd / (1.0 + f_fwd)
    drive_on = vp > 2.0 * p.vt_v
    v_drive = np.where(drive_on, vp, 2.0 * p.vt_v)
    denom = vds + v_drive + 1e-12
    vsat_term = vds * v_drive / denom / p.v_lateral_v
    scale = severity / (p.v_lateral_v * denom * denom)
    return (1.0 + severity * vsat_term,
            vsat_term / ((1.0 + f_fwd) * (1.0 + f_fwd)),
            np.where(drive_on, scale * vds * (vds + 1e-12), 0.0),
            scale * v_drive * (v_drive + 1e-12))


def ids_with_partials(params: IVParams, vgs: FloatArray, vds: FloatArray,
                      vth_shift_v: object = 0.0
                      ) -> tuple[FloatArray, FloatArray, FloatArray]:
    """Drain current [A] and its closed-form partials [S].

    Evaluates :meth:`IVModel.ids` for NFET-referenced ``vgs`` and
    ``vds >= 0`` [V] plus an additive V_th shift ``vth_shift_v`` [V],
    all broadcasting against the (possibly stacked) ``params``, and
    returns ``(I_ds, dI/dV_gs, dI/dV_ds)``.  The partials are exact
    derivatives of the same expression, so Newton needs no
    finite-difference evaluations.  At the model's kinks (``V_ds = 0``,
    ``V_gs = -V_th0``, ``V_p = 2 v_T``) they are one-sided.
    """
    vgs = np.asarray(vgs, dtype=float)
    vds = np.asarray(vds, dtype=float)
    if np.any(vds < -1e-12):
        raise ParameterError("ids() requires vds >= 0; swap terminals")
    vds = np.maximum(vds, 0.0)
    p = params
    vt = p.vt_v
    m = p.slope_factor
    vth, dibl = _dibl_vth(p, vds)
    vp = (vgs - (vth + vth_shift_v)) / m
    dvp_ds = dibl / m
    # I = I_spec(V_gs) [F(u_fwd) - F(u_rev)] / den(F(u_fwd), V_p, V_ds)
    # with u_fwd = V_p / v_T and u_rev = (V_p - V_ds) / v_T.
    f_fwd, slope_fwd = _ekv_f_slope(vp / vt)
    f_rev, slope_rev = _ekv_f_slope((vp - vds) / vt)
    ispec, dlog_ispec = _field_ispec(p, vgs)
    den, dden_f, dden_vp, dden_ds = _velocity_saturation(p, vp, vds, f_fwd)
    current = ispec * (f_fwd - f_rev) / den
    # Chain rule through V_p (which carries V_gs and, via DIBL, V_ds).
    d_vp = (ispec * (slope_fwd - slope_rev) / vt
            - current * (dden_f * slope_fwd / vt + dden_vp)) / den
    d_ds = (ispec * slope_rev / vt - current * dden_ds) / den
    return (current, current * dlog_ispec + d_vp / m,
            d_vp * dvp_ds + d_ds)


@dataclass(frozen=True)
class IVModel:
    """Compact I-V model bound to one device description.

    All expensive self-consistency (halo <-> depletion width) is
    resolved once at construction; per-call evaluation is vectorised
    numpy, cheap enough for Newton loops and transient integration.

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

    # Derived, filled in __post_init__ (frozen dataclass -> object.__setattr__).
    _m: float = field(init=False, repr=False, default=0.0)
    _vth0: float = field(init=False, repr=False, default=0.0)
    _sce_barrier: float = field(init=False, repr=False, default=0.0)
    _sce_e1: float = field(init=False, repr=False, default=0.0)
    _sce_e2: float = field(init=False, repr=False, default=0.0)
    _n_eff: float = field(init=False, repr=False, default=0.0)
    _w_dep: float = field(init=False, repr=False, default=0.0)
    _params: IVParams | None = field(init=False, repr=False, default=None,
                                     compare=False)

    def __post_init__(self) -> None:
        tm = ThresholdModel(self.geometry, self.profile, self.stack,
                            self.temperature_k, gate=self.gate)
        n_eff, w_dep = tm.channel_state()
        object.__setattr__(self, "_n_eff", n_eff)
        object.__setattr__(self, "_w_dep", w_dep)
        object.__setattr__(self, "_vth0", tm.vth0())
        # Cache the pieces of delta_vth_sce so vth(vds) is closed-form.
        from ..materials.silicon import built_in_potential, fermi_potential
        from .threshold import N_SOURCE_DRAIN, characteristic_length
        psi_s = 2.0 * fermi_potential(n_eff, self.temperature_k)
        vbi = built_in_potential(N_SOURCE_DRAIN, n_eff, self.temperature_k)
        barrier = max(vbi - psi_s, 0.0)
        lt = characteristic_length(self.stack, w_dep)
        l_eff = self.geometry.l_eff_cm
        object.__setattr__(self, "_sce_barrier", barrier)
        object.__setattr__(self, "_sce_e1", np.exp(-l_eff / (2.0 * lt)))
        object.__setattr__(self, "_sce_e2", np.exp(-l_eff / lt))
        # Slope factor from the short-channel Eq. 2(b) slope so that
        # S_S extracted from this model's I-V matches the analytic S_S.
        ss = inverse_subthreshold_slope(self.stack, w_dep, l_eff,
                                        self.temperature_k)
        vt = thermal_voltage(self.temperature_k)
        object.__setattr__(self, "_m", ss / (LN10 * vt))

    # -- cached device state ------------------------------------------------

    @property
    def n_eff_cm3(self) -> float:
        """Self-consistent effective channel doping [cm^-3]."""
        return self._n_eff

    @property
    def w_dep_cm(self) -> float:
        """Self-consistent depletion width [cm]."""
        return self._w_dep

    @property
    def slope_factor(self) -> float:
        """Effective slope factor m (includes short-channel degradation)."""
        return self._m

    @property
    def params(self) -> IVParams:
        """The model's constants for :func:`ids_with_partials`, built
        on first use (only the batched MNA engine needs them)."""
        params = self._params
        if params is None:
            electron = self.mobility.carrier == "electron"
            params = IVParams(
                vt_v=thermal_voltage(self.temperature_k),
                slope_factor=self._m,
                vth_v=self._vth0 + self.vth_offset_v,
                vth0_v=self._vth0,
                sce_barrier_v=self._sce_barrier,
                sce_e1_factor=self._sce_e1,
                sce_e2_factor=self._sce_e2,
                # I_spec at zero vertical field: V_gs = -V_th0.
                i_spec_a=float(self.i_spec(-self._vth0)),
                v_field_v=6.0 * self.stack.eot_cm * (6.7e5 if electron
                                                     else 7.0e5),
                mobility_exponent=1.6 if electron else 1.0,
                v_lateral_v=(self.mobility.vsat() * self.geometry.l_eff_cm
                             / self.mobility.low_field(self._n_eff)),
            )
            object.__setattr__(self, "_params", params)
        return params

    @property
    def ss_v_per_decade(self) -> float:
        """Inverse subthreshold slope [V/dec] (equals Eq. 2(b))."""
        return LN10 * thermal_voltage(self.temperature_k) * self._m

    def vth(self, vds: float | np.ndarray = 0.05) -> float | np.ndarray:
        """Threshold voltage at drain bias ``vds`` [V] (DIBL included)."""
        vds_arr = np.maximum(np.asarray(vds, dtype=float), 0.0)
        b = self._sce_barrier
        dv = ((2.0 * b + vds_arr) * self._sce_e1
              + 2.0 * np.sqrt(b * (b + vds_arr)) * self._sce_e2)
        out = self._vth0 + self.vth_offset_v - dv
        return float(out) if np.isscalar(vds) else out

    # -- current -------------------------------------------------------------

    def i_spec(self, vgs: float | np.ndarray) -> float | np.ndarray:
        """Specific current ``2 m mu_eff C_ox v_T^2 W/L_eff`` [A]."""
        vt = thermal_voltage(self.temperature_k)
        e_eff = np.maximum(np.asarray(vgs, dtype=float) + self._vth0, 0.0) / (
            6.0 * self.stack.eot_cm
        )
        mu = self.mobility.low_field(self._n_eff) / (
            1.0 + (e_eff / 6.7e5) ** 1.6
            if self.mobility.carrier == "electron"
            else 1.0 + (e_eff / 7.0e5) ** 1.0
        )
        cox = self.stack.capacitance_per_area
        return (2.0 * self._m * mu * cox * vt ** 2
                * self.geometry.aspect_ratio)

    def i0(self) -> float:
        """Eq. 1 prefactor equivalent: the current at V_gs = V_th [A]."""
        return float(self.i_spec(self._vth0)) * np.log(2.0) ** 2

    def ids(self, vgs, vds, vth_shift_v=0.0):
        """Drain current [A] for NFET-referenced terminal voltages.

        Accepts scalars or broadcastable arrays.  ``vds`` must be >= 0
        (the model is source-referenced; the MOSFET facade handles the
        swap for reverse operation).

        ``vth_shift_v`` [V] is an additive V_th perturbation applied per
        evaluation point; an array here is equivalent to evaluating a
        :meth:`vth`-offset copy of the device at each element (the
        offset enters only through V_th, never ``i_spec``), which is
        what lets Monte-Carlo trials share one device object.
        """
        vgs_arr = np.asarray(vgs, dtype=float)
        vds_arr = np.asarray(vds, dtype=float)
        shift_arr = np.asarray(vth_shift_v, dtype=float)
        if np.any(vds_arr < -1e-12):
            raise ParameterError("ids() requires vds >= 0; swap terminals")
        vds_arr = np.maximum(vds_arr, 0.0)
        vt = thermal_voltage(self.temperature_k)
        vth = self.vth(vds_arr) + shift_arr
        vp = (vgs_arr - vth) / self._m
        i_f = _ekv_f(vp / vt)
        i_r = _ekv_f((vp - vds_arr) / vt)
        ispec = self.i_spec(vgs_arr)
        current = ispec * (i_f - i_r)
        # Velocity saturation, weighted by inversion level so that weak
        # inversion (diffusion-dominated) is unaffected.
        severity = i_f / (1.0 + i_f)
        v_drive = np.maximum(vp, 2.0 * vt)
        v_dsat = vds_arr * v_drive / (vds_arr + v_drive + 1e-12)
        mu_over = self.mobility.low_field(self._n_eff)
        vsat_term = (mu_over * v_dsat) / (self.mobility.vsat()
                                          * self.geometry.l_eff_cm)
        current = current / (1.0 + severity * vsat_term)
        if np.isscalar(vgs) and np.isscalar(vds) and shift_arr.ndim == 0:
            return float(current)
        return current

    def i_off(self, vdd: float) -> float:
        """Off-state leakage ``I(V_gs=0, V_ds=V_dd)`` [A]."""
        return float(self.ids(0.0, vdd))

    def i_on(self, vdd: float) -> float:
        """On-current ``I(V_gs=V_ds=V_dd)`` [A]."""
        return float(self.ids(vdd, vdd))

    def id_vg_curve(self, vds: float, vgs_grid: np.ndarray) -> np.ndarray:
        """Transfer curve I(V_gs) at fixed ``vds``; returns currents [A]."""
        return np.asarray(self.ids(np.asarray(vgs_grid, dtype=float),
                                   np.full_like(np.asarray(vgs_grid,
                                                           dtype=float), vds)))
