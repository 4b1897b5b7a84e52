"""Parameter-axis vectorised device evaluation.

The batch kernels in :mod:`repro.circuit.batch` vectorise the *bias*
axis of one device; the scaling flows need the orthogonal axis: many
(N_sub, N_p,halo, L_poly) parameter points evaluated at a few biases.
:class:`ParameterStack` maps arrays of doping/geometry inputs through
the same doping -> halo/depletion self-consistency -> threshold chain
as :class:`repro.device.iv.IVModel`, without constructing a per-point
:class:`repro.device.mosfet.MOSFET`, and hands the resulting channel
state to the same :meth:`repro.device.iv.IVParams.from_state` mapping;
currents and V_th then come from the one kernel of
:mod:`repro.device.iv`.

The channel-state arithmetic replicates the scalar models term for
term — same association order, same constants, same fixed-point
iteration with each point frozen at its *first* converged iterate — so
batched root-solves land on the same doping as the scalar `brentq`
loops to well below the 1e-9 relative agreement the equivalence tests
enforce.  The only deliberate divergence is ``scipy.special.erf`` vs
``math.erf`` (ulp-level).

Used by :mod:`repro.scaling.batch` for the batched doping root-solves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np
from scipy.special import erf

from .. import perf
from ..numerics import bisect_masked
from ..constants import (
    CM_PER_NM,
    CM_PER_UM,
    EPS_0,
    EPS_OX_REL,
    EPS_SI,
    EPS_SI_REL,
    LN10,
    Q,
    T_ROOM,
    VSAT_ELECTRON,
    VSAT_HOLE,
    thermal_voltage,
)
from ..errors import ParameterError
from ..materials.mobility import _MASETTI, UNIVERSAL_MOBILITY
from ..materials.silicon import bandgap_ev, intrinsic_concentration
from .doping import (
    _SQRT_2PI,
    HALO_DEPTH_FRACTION,
    HALO_SIGMA_X_FRACTION,
    HALO_SIGMA_Y_FRACTION,
)
from . import geometry as geometry_mod
from . import subthreshold as subthreshold_mod
from . import threshold as threshold_mod
from .geometry import JUNCTION_DEPTH_FRACTION
from .iv import IVParams, drain_current, threshold_voltage
from .mosfet import VTH_CC_A, Polarity
from .subthreshold import _EPS_RATIO
from .threshold import N_SOURCE_DRAIN

_SQRT2 = math.sqrt(2.0)

#: Fixed-point tolerance/iteration cap, mirroring
#: :func:`repro.device.electrostatics.self_consistent_channel_doping`.
_FP_TOL = 1e-4
_FP_MAX_ITER = 60


def _masetti(doping: np.ndarray, params: dict) -> np.ndarray:
    """Masetti low-field mobility, replicated from materials.mobility."""
    mu = params["mu_min1"] + (
        (params["mu_max"] - params["mu_min2"])
        / (1.0 + (doping / params["cr"]) ** params["alpha"])
    ) - params["mu1"] / (1.0 + (params["cs"] / doping) ** params["beta"])
    return np.maximum(mu, 10.0)


class ParameterStack:
    """Fixed geometry/stack/polarity arrays for a batch of devices.

    One instance holds everything about the candidate points that does
    *not* change during a doping root-solve (lengths, oxide, widths,
    polarities); :meth:`metrics` then evaluates any (N_sub, N_p,halo)
    assignment over the whole stack at once.

    All array inputs broadcast against each other.  ``reference_nm``
    follows the :meth:`repro.device.geometry.DeviceGeometry.from_nm`
    convention: junction depth, overlap and halo dimensions are
    proportional to the reference length (``None`` -> ``l_poly_nm``).

    ``calibration`` gives the three calibrated constants as the last
    axis of an array — ``(overlap fraction, l_t multiplier, SCE slope
    prefactor)``, broadcast against the lanes.  By default the module
    globals are read once at construction, exactly as scalar device
    construction reads them, so stacks built inside a
    :func:`repro.scaling.sensitivity.calibration` scope bake the
    overrides in the same way.  The scaling flows pass one row per
    doping request instead (:class:`repro.scaling.batch.Calibration`),
    so lanes made under different calibrations share one stack.
    """

    def __init__(self, l_poly_nm, t_ox_nm, *, is_nfet=True, width_um=1.0,
                 reference_nm=None, temperature_k: float = T_ROOM,
                 calibration=None):
        if reference_nm is None:
            reference_nm = l_poly_nm
        if calibration is None:
            calibration = (geometry_mod.OVERLAP_FRACTION,
                           threshold_mod.LT_CALIBRATION,
                           subthreshold_mod.SCE_PREFACTOR_DEFAULT)
        calibration = np.asarray(calibration, dtype=float)
        (l_poly_nm, t_ox_nm, width_um, reference_nm, is_nfet,
         overlap_fraction, lt_calibration, sce_prefactor) = (
            np.broadcast_arrays(
                np.asarray(l_poly_nm, dtype=float),
                np.asarray(t_ox_nm, dtype=float),
                np.asarray(width_um, dtype=float),
                np.asarray(reference_nm, dtype=float),
                np.asarray(is_nfet, dtype=bool),
                calibration[..., 0], calibration[..., 1],
                calibration[..., 2],
            )
        )
        if np.any(l_poly_nm <= 0.0) or np.any(t_ox_nm <= 0.0):
            raise ParameterError("gate length and T_ox must be positive")
        if np.any(width_um <= 0.0) or np.any(reference_nm <= 0.0):
            raise ParameterError("width and reference length must be positive")
        self.shape = l_poly_nm.shape
        self.is_nfet = is_nfet
        self.temperature_k = float(temperature_k)

        self._lt_calibration = lt_calibration
        self._sce_prefactor = sce_prefactor

        ref_cm = reference_nm * CM_PER_NM
        l_poly_cm = l_poly_nm * CM_PER_NM
        self.l_eff_cm = l_poly_cm - 2.0 * (overlap_fraction * ref_cm)
        if np.any(self.l_eff_cm <= 0.0):
            raise ParameterError("overlap consumes the whole gate")
        xj_cm = JUNCTION_DEPTH_FRACTION * ref_cm
        self.sigma_x_cm = HALO_SIGMA_X_FRACTION * xj_cm
        self.sigma_y_cm = HALO_SIGMA_Y_FRACTION * xj_cm
        self.halo_depth_cm = HALO_DEPTH_FRACTION * xj_cm

        width_cm = width_um * CM_PER_UM
        self.aspect_ratio = width_cm / self.l_eff_cm
        # Report widths the way DeviceGeometry.width_um does (cm-domain
        # round trip), so per-um normalisation is bitwise identical.
        self.width_um = width_cm / CM_PER_UM

        # SiO2 stack: EOT equals the physical thickness (replicate the
        # GateStack expressions rather than simplifying them).
        t_ox_cm = t_ox_nm * CM_PER_NM
        self.eot_cm = t_ox_cm * EPS_OX_REL / EPS_OX_REL
        self.cox = EPS_OX_REL * EPS_0 / t_ox_cm

        self.vt = thermal_voltage(self.temperature_k)
        self.ni = intrinsic_concentration(self.temperature_k)
        self.half_gap = bandgap_ev(self.temperature_k) / 2.0
        self.vsat = np.where(is_nfet, VSAT_ELECTRON, VSAT_HOLE)
        (e0_n, nu_n), (e0_p, nu_p) = (UNIVERSAL_MOBILITY["electron"],
                                      UNIVERSAL_MOBILITY["hole"])
        self.e0_v_per_cm = np.where(is_nfet, e0_n, e0_p)
        self.mobility_exponent = np.where(is_nfet, nu_n, nu_p)
        self._mu_temp = (self.temperature_k / 300.0) ** -2.2

    @classmethod
    def from_devices(cls, devices) -> "ParameterStack":
        """A stack whose lanes replicate constructed MOSFETs.

        Lane ``i`` carries ``devices[i]``'s geometry, oxide and
        polarity, with the reference length recovered from the stored
        overlap (the inverse of :meth:`DeviceGeometry.proportional`),
        so ``stack.metrics(n_sub, n_p_halo)`` with the devices' own
        dopings reproduces their scalar metrics to the batch layer's
        usual ulp-level agreement.  Used by the design-space grid fill
        (:mod:`repro.service.grid`) to evaluate optimised devices over
        a whole V_dd axis at once; :func:`repro.device.corners.corner_grid`
        applies the same reconstruction with corner shifts folded in.

        All devices must share a temperature and carry no per-device
        V_th offset (offsets have no stack representation).
        """
        devices = tuple(devices)
        if not devices:
            raise ParameterError("need at least one device")
        for dev in devices:
            if dev.vth_offset_v:
                raise ParameterError(
                    "stacks cannot carry per-device V_th offsets")
            if dev.temperature_k != devices[0].temperature_k:
                raise ParameterError("stack devices must share T")
        as_array = np.asarray
        return cls(
            l_poly_nm=as_array([d.geometry.l_poly_nm for d in devices]),
            t_ox_nm=as_array([d.stack.thickness_cm / CM_PER_NM
                              for d in devices]),
            is_nfet=as_array([d.polarity is Polarity.NFET for d in devices]),
            width_um=as_array([d.geometry.width_um for d in devices]),
            reference_nm=as_array([
                d.geometry.overlap_cm / geometry_mod.OVERLAP_FRACTION
                / CM_PER_NM
                for d in devices
            ]),
            temperature_k=devices[0].temperature_k,
        )

    def take(self, idx) -> "ParameterStack":
        """The sub-stack at flat lane indices ``idx`` (1-D result).

        Per-lane arrays are gathered, shared scalars are kept; the
        result evaluates exactly like the corresponding lanes of the
        full stack, which is what lets the root-solve core hand
        residual callbacks only the active subset.
        """
        idx = np.asarray(idx)
        clone = object.__new__(ParameterStack)
        for name, value in self.__dict__.items():
            if isinstance(value, np.ndarray) and value.shape == self.shape:
                clone.__dict__[name] = np.ravel(value)[idx]
            else:
                clone.__dict__[name] = value
        clone.shape = idx.shape
        return clone

    # -- pieces of the scalar model, vectorised -----------------------------

    def _depletion_width(self, doping: np.ndarray) -> np.ndarray:
        psi = 2.0 * (self.vt * np.log(doping / self.ni))
        return np.sqrt(2.0 * EPS_SI * psi / (Q * doping))

    def _low_field_mobility(self, doping: np.ndarray) -> np.ndarray:
        mu = np.where(self.is_nfet,
                      _masetti(doping, _MASETTI["electron"]),
                      _masetti(doping, _MASETTI["hole"]))
        return mu * self._mu_temp

    def _channel_state(self, n_sub: np.ndarray, peak: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
        """The N_eff <-> W_dep fixed point, each point frozen at its
        *first* converged iterate (matching the scalar early return)."""
        shape = np.broadcast_shapes(n_sub.shape, self.shape)

        def flat(values: np.ndarray) -> np.ndarray:
            return np.ravel(np.broadcast_to(values, shape))

        lateral = flat(peak * _SQRT_2PI * self.sigma_x_cm
                       * erf(self.l_eff_cm / (_SQRT2 * self.sigma_x_cm))
                       / self.l_eff_cm)
        erf_a = flat(erf((0.0 - self.halo_depth_cm)
                         / (_SQRT2 * self.sigma_y_cm)))
        sy_factor = flat(self.sigma_y_cm * math.sqrt(math.pi / 2.0))
        halo_depth = flat(self.halo_depth_cm)
        sigma_y = flat(self.sigma_y_cm)
        n_sub_f = flat(n_sub)

        # Active-set compression: only the unconverged lanes are carried
        # through each iteration; a lane's iterate sequence is unchanged
        # (the update is elementwise), so freezing at the first converged
        # iterate lands on the same value as the scalar early return.
        n_eff = n_sub_f + lateral * 1.0
        w_dep = self._depletion_width(n_eff)
        out_n = np.empty_like(n_eff)
        out_w = np.empty_like(w_dep)
        idx = np.arange(n_eff.shape[0])
        for _ in range(_FP_MAX_ITER):
            erf_b = erf((w_dep - halo_depth[idx]) / (_SQRT2 * sigma_y[idx]))
            vertical = sy_factor[idx] * (erf_b - erf_a[idx]) / w_dep
            n_next = n_sub_f[idx] + lateral[idx] * vertical
            w_next = self._depletion_width(n_next)
            converged = np.abs(n_next - n_eff) <= _FP_TOL * n_eff
            done = np.flatnonzero(converged)
            out_n[idx[done]] = n_next[done]
            out_w[idx[done]] = w_next[done]
            keep = np.flatnonzero(~converged)
            idx = idx[keep]
            if not idx.shape[0]:
                break
            n_eff = n_next[keep]
            w_dep = w_next[keep]
        # Non-converged stragglers keep their last iterate, as scalar.
        if idx.shape[0]:
            out_n[idx] = n_eff
            out_w[idx] = w_dep
        return out_n.reshape(shape), out_w.reshape(shape)

    def metrics(self, n_sub_cm3, n_p_halo_cm3) -> "BatchDeviceMetrics":
        """Evaluate the stack at one (N_sub, N_p,halo) assignment:
        ``n_sub_cm3`` [cm3] substrate doping, ``n_p_halo_cm3`` [cm3]
        halo peak (0 disables the halo)."""
        n_sub, peak, _ = np.broadcast_arrays(
            np.asarray(n_sub_cm3, dtype=float),
            np.asarray(n_p_halo_cm3, dtype=float),
            np.empty(self.shape),
        )
        if np.any(n_sub <= 0.0) or np.any(peak < 0.0):
            raise ParameterError("N_sub must be > 0 and N_p,halo >= 0")
        perf.bump("scaling.device_eval_points", int(n_sub.size))

        n_eff, w_dep = self._channel_state(n_sub, peak)
        phi_f = self.vt * np.log(n_eff / self.ni)
        gamma = np.sqrt(2.0 * Q * EPS_SI * n_eff) / self.cox
        vfb = -(self.half_gap + phi_f)
        vth0 = vfb + 2.0 * phi_f + gamma * np.sqrt(2.0 * phi_f)

        psi_s = 2.0 * phi_f
        vbi = self.vt * np.log(N_SOURCE_DRAIN * n_eff / self.ni ** 2)
        barrier = np.maximum(vbi - psi_s, 0.0)
        lt = self._lt_calibration * np.sqrt(
            (EPS_SI_REL / EPS_OX_REL) * self.eot_cm * w_dep)
        e1 = np.exp(-self.l_eff_cm / (2.0 * lt))
        e2 = np.exp(-self.l_eff_cm / lt)

        m0 = 1.0 + _EPS_RATIO * self.eot_cm / w_dep
        scale = w_dep + _EPS_RATIO * self.eot_cm
        degradation = 1.0 + self._sce_prefactor * (self.eot_cm / w_dep) \
            * np.exp(-math.pi * self.l_eff_cm / (2.0 * scale))
        slope = LN10 * self.vt * m0
        slope = slope * degradation
        m = slope / (LN10 * self.vt)

        return BatchDeviceMetrics(
            stack=self, n_eff_cm3=n_eff, w_dep_cm=w_dep,
            params=IVParams.from_state(
                vt_v=self.vt, slope_factor=m, vth0_v=vth0, vth_offset_v=0.0,
                sce_barrier_v=barrier, sce_e1_factor=e1, sce_e2_factor=e2,
                mu_low=self._low_field_mobility(n_eff),
                cox_f_per_cm2=self.cox, aspect_ratio=self.aspect_ratio,
                eot_cm=self.eot_cm, l_eff_cm=self.l_eff_cm,
                vsat_cm_per_s=self.vsat, e0_v_per_cm=self.e0_v_per_cm,
                exponent=self.mobility_exponent,
            ),
        )


@dataclass(slots=True)
class BatchDeviceMetrics:
    """Vectorised device metrics at one (N_sub, N_p,halo) assignment.

    Carries the channel state (``n_eff``, ``w_dep``) of every point of
    a :class:`ParameterStack` and the points' :class:`IVParams` columns,
    built once per :meth:`ParameterStack.metrics` call; currents and
    V_th evaluate the kernel of :mod:`repro.device.iv` over them.
    """

    stack: ParameterStack
    n_eff_cm3: np.ndarray
    w_dep_cm: np.ndarray
    params: IVParams

    def take(self, idx) -> "BatchDeviceMetrics":
        """The metrics of flat lanes ``idx`` (gathered stack included)."""
        idx = np.asarray(idx)
        shape = np.shape(self.n_eff_cm3)

        def flat(values):
            return np.ravel(np.broadcast_to(values, shape))[idx]

        return BatchDeviceMetrics(
            stack=self.stack.take(idx),
            n_eff_cm3=flat(self.n_eff_cm3), w_dep_cm=flat(self.w_dep_cm),
            params=IVParams(**{f.name: flat(getattr(self.params, f.name))
                               for f in fields(IVParams)}),
        )

    @property
    def ss_v_per_dec(self) -> np.ndarray:
        """Inverse subthreshold slope [V/dec] (equals Eq. 2(b))."""
        return LN10 * thermal_voltage(self.stack.temperature_k) \
            * self.params.slope_factor

    def vth(self, vds) -> np.ndarray:
        """Threshold voltage at drain bias ``vds`` [V] (DIBL included)."""
        return threshold_voltage(self.params, vds)

    def ids(self, vgs, vds) -> np.ndarray:
        """Drain current [A] for NFET-referenced terminal voltages."""
        return drain_current(self.params, vgs, vds)

    def i_off_per_um(self, vdd) -> np.ndarray:
        """Leakage per µm of width at supply ``vdd`` [A/µm]."""
        return self.ids(0.0, vdd) / self.stack.width_um

    def i_on_per_um(self, vdd) -> np.ndarray:
        """On-current per µm of width at supply ``vdd`` [A/µm]."""
        return self.ids(vdd, vdd) / self.stack.width_um

    def vth_sat_cc(self, vdd, xtol: float = 1e-9) -> np.ndarray:
        """Constant-current saturation V_th over the stack [V].

        Gathered bisection (:func:`repro.numerics.bisect_masked`) of
        the same increasing residual the scalar
        :meth:`repro.device.mosfet.MOSFET.vth_sat_cc` hands to
        ``brentq`` (criterion ``I = VTH_CC_A * W/L_eff`` at
        ``V_ds = V_dd``), over the same [-0.5, 2.0] V bracket.
        """
        shape = self.stack.shape
        n = int(np.prod(shape, dtype=int))
        vdd_flat = np.ravel(np.broadcast_to(np.asarray(vdd, float), shape))
        target = np.ravel(np.broadcast_to(
            VTH_CC_A * self.stack.aspect_ratio, shape))
        flat = self.take(np.arange(n))

        def residual(vgs: np.ndarray, idx: np.ndarray) -> np.ndarray:
            return flat.take(idx).ids(vgs, vdd_flat[idx]) - target[idx]

        all_lanes = np.arange(n)
        lo = np.full(n, -0.5)
        hi = np.full(n, 2.0)
        if np.any(residual(lo, all_lanes) > 0.0) \
                or np.any(residual(hi, all_lanes) < 0.0):
            raise ParameterError(
                "constant-current criterion not bracketed; device far "
                "outside calibrated regime"
            )
        return bisect_masked(residual, lo, hi, xtol=xtol).reshape(shape)


def device_metrics(l_poly_nm, t_ox_nm, n_sub_cm3, n_p_halo_cm3=0.0, *,
                   polarity: Polarity = Polarity.NFET, width_um=1.0,
                   reference_nm=None, temperature_k: float = T_ROOM
                   ) -> BatchDeviceMetrics:
    """One-shot parameter-axis evaluation (convenience wrapper).

    Maps arrays of (N_sub, N_p,halo, L_poly, ...) to vectorised device
    metrics without constructing per-point MOSFET objects.  Geometry
    arrives as ``l_poly_nm`` [nm] / ``t_ox_nm`` [nm] / ``width_um``
    [um] against the ``reference_nm`` [nm] node; doping as
    ``n_sub_cm3`` [cm3] and ``n_p_halo_cm3`` [cm3]; the stack is
    evaluated at ``temperature_k`` [K]:

    >>> import numpy as np
    >>> m = device_metrics(65.0, 2.1, np.array([5e17, 1e18, 2e18]))
    >>> bool(np.all(np.diff(m.i_off_per_um(1.1)) < 0.0))
    True
    """
    stack = ParameterStack(
        l_poly_nm, t_ox_nm, is_nfet=(polarity is Polarity.NFET),
        width_um=width_um, reference_nm=reference_nm,
        temperature_k=temperature_k,
    )
    return stack.metrics(n_sub_cm3, n_p_halo_cm3)
