"""Batched circuit-evaluation kernels: vectorised VTC, gain and SNM.

Scalar circuit evaluation solves one current-balance root-find per
(input voltage, V_th perturbation) point — 101 scalar ``gain`` calls
per SNM extraction and one full extraction per Monte Carlo trial.
This module applies the same stacked-system trick as the batched
Poisson kernel one layer up: *all* points of a grid — every input
voltage of every Monte Carlo trial — are solved simultaneously by a
safeguarded Newton iteration on the inverter current balance

``I_N(V_in, V_out; dV_th,n) = I_P(V_in, V_out; dV_th,p)``

The balance is strictly increasing in ``V_out``, so each point's
bracket ``[0, V_dd]`` contains exactly one root; rail points (balance
already signed at a rail) retire from the active set immediately and
every other point iterates until its Newton step or its bracket falls
below ``xtol`` (:func:`repro.numerics.newton_safeguarded`).

Both devices of every point are evaluated by one call of the
closed-form device kernel :func:`repro.device.iv.ids_with_partials`
over the stacked NFET/PFET parameters, which returns the currents and
the output conductances ``g_ds`` that make up the balance's slope.
The small-signal gain is the balance's implicit derivative at a solved
point, ``-(g_m,N + g_m,P) / (g_ds,N + g_ds,P)``: one more kernel call.

The gain = -1 crossings of :func:`noise_margins_batch` are located by
the same scan as the scalar path, then each crossing is solved inside
its scan bracket by one Illinois root-solve on ``gain + 1``
(:func:`repro.numerics.bisect_illinois`) — the batched counterpart of
the scalar oracle's brentq — so a whole Monte Carlo population costs
a handful of batched VTC solves instead of thousands of scalar
root-finds.  The scan already holds the gain at both ends of every
bracket, so the solve takes them as its known end residuals instead
of solving those VTC points again, and it holds the outputs there, so
every VTC solve of the refinement starts Newton from an output
interpolated between outputs already solved instead of from
mid-supply.

The supply is lane data, like the V_th offsets: every kernel takes an
optional ``vdd`` [V] that broadcasts with ``dvth_n``/``dvth_p`` and
defaults to the inverter's own supply.  The scan grid and the rail
pins follow each lane's supply, so one call over a stack of supplies
returns, lane for lane, the same bits as one call per supply — which
is how the rare-event estimator solves a whole failure-rate-vs-V_dd
curve in lock-step.

The device pair is lane data too: every kernel's first argument is one
inverter or a sequence of inverters, one per lane of the inputs' last
axis.  The NFET/PFET constants travel as a ``(2, k)``
:class:`~repro.device.iv.IVParams` record: one inverter's ``(2, 1)``
columns broadcast over every point and are never gathered, while a
stack carries one column per point, gathered with the root-solve
core's active lanes.  A ``vdd`` of ``None`` then means each lane's
own supply.  The kernel is elementwise, so one call over a family of
designs returns, lane for lane, the same bits as one call per design:
an experiment's SNMs are one extraction (fig4's eight, fig10's eight,
ext_sensitivity's twelve).

These kernels are the only production path.  The scalar per-point
implementations they replaced live in ``tests/oracles/circuit.py`` as
correctness oracles; agreement to <= 1e-9 relative is locked down by
``tests/test_circuit_batch_equivalence.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .. import perf
from ..device.iv import IVParams, ids_with_partials
from ..errors import LostRegenerationError, ParameterError
from ..numerics import bisect_illinois, bisect_masked, newton_safeguarded

#: Default step/bracket tolerance of the batched root-solves [V].
XTOL_DEFAULT = 1e-10

#: Canonical lost-regeneration messages, indexed by ``lost_code - 1``.
#: The per-inverter SNM readout raises them wrapped in the structured
#: :class:`repro.errors.LostRegenerationError` (via
#: :func:`lost_regeneration_error`), which is what Monte Carlo and the
#: service layer catch; every other :class:`ParameterError` is a
#: genuine defect and propagates.
LOST_REGENERATION_MESSAGES = (
    "VTC never reaches gain -1; supply too low for regeneration",
    "gain = -1 crossing hits the sweep boundary",
)


def lost_regeneration_error(code: int) -> LostRegenerationError:
    """The structured error for batch ``lost_code == code``.

    Pairs each code (``1`` — no gain = -1 point, ``2`` — crossing on
    the sweep boundary) with its canonical message from
    :data:`LOST_REGENERATION_MESSAGES`, so the batch kernel and its
    per-inverter readout share one error contract.
    """
    if code not in (1, 2):
        raise ParameterError("lost-regeneration code must be 1 or 2")
    return LostRegenerationError(LOST_REGENERATION_MESSAGES[code - 1],
                                 code=code)


def solve_balance_batch(balance, lo, hi, xtol: float = XTOL_DEFAULT
                        ) -> np.ndarray:
    """Gathered vectorised bisection on a monotone-increasing balance.

    Thin circuit-layer wrapper over :func:`repro.numerics.bisect_masked`
    preserving the ``circuit.balance_bisection_sweeps`` counter.
    ``balance(v, idx)`` maps gathered candidate outputs (plus their lane
    indices) to the signed balance at each live point; each bracket
    ``[lo_i, hi_i]`` must contain the sign change.  Points whose
    bracket is already below ``xtol`` (rails pinned by the caller)
    never enter the active set; the rest retire as their brackets
    converge.  Returns bracket midpoints.
    """
    if xtol <= 0.0:
        raise ParameterError("xtol must be positive")
    return bisect_masked(balance, lo, hi, xtol=xtol,
                         sweep_counter="circuit.balance_bisection_sweeps")


def _pair_columns(inverters: Sequence) -> IVParams:
    """The NFET (row 0) and PFET (row 1) parameters of ``inverters``,
    one column per inverter: ``(2, 1)`` columns for one inverter."""
    return IVParams(**{
        f.name: np.array([[float(getattr(inv.nfet.iv.params, f.name))
                           for inv in inverters],
                          [float(getattr(inv.pfet.iv.params, f.name))
                           for inv in inverters]])
        for f in fields(IVParams)})


def _is_shared(pair: IVParams) -> bool:
    """Whether ``pair`` is one inverter's ``(2, 1)`` record, which
    broadcasts over every lane and is never gathered."""
    return np.shape(pair.vth_v)[1] == 1


def _columns(pair: IVParams, cols: np.ndarray) -> IVParams:
    """The columns ``cols`` of a device-pair record.

    Lane-shaped columns are gathered and shared ``(2, 1)`` columns are
    kept, the rule :meth:`repro.device.batch.ParameterStack.take`
    follows, so a record of one inverter comes back unchanged.
    """
    return IVParams(**{name: value if value.shape[1] == 1 else value[:, cols]
                       for name, value in vars(pair).items()})


class _VtcSystem:
    """NFET+PFET current balance of one batch of VTC points.

    Row 0 of each ``(2, n)`` array is the NFET, row 1 the PFET, whose
    source sits at the point's supply ``vdd``: its gate-source and
    drain-source magnitudes are ``V_dd - V_in`` and ``V_dd - V_out``.
    ``pair`` holds the devices as ``(2, k)`` parameter columns: ``k =
    1`` when every point belongs to one inverter (the columns
    broadcast and are never gathered), ``k = n`` for one column per
    point.  One :func:`ids_with_partials` call over the stacked
    parameters evaluates both devices of every gathered point;
    :meth:`solve` finds every point's output and :meth:`gain` its
    small-signal gain there.
    """

    def __init__(self, pair: IVParams, vin: np.ndarray, dvth_n: np.ndarray,
                 dvth_p: np.ndarray, vdd: np.ndarray) -> None:
        self.vdd = vdd
        self.params = pair
        self.shared = _is_shared(pair)
        self.vgs = np.stack([vin, vdd - vin])
        self.vth_shift = np.stack([dvth_n, dvth_p])

    def balance(self, vout: np.ndarray, idx: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
        """``(I_N - I_P, g_ds,N + g_ds,P)`` at candidate outputs [A, S].

        The second entry is the balance's slope in ``V_out``.  ``idx``
        holds the points (the root-solve core's gathered-lane indices)
        that ``vout`` belongs to; the kernel is elementwise, so a
        gathered evaluation matches the same lanes of a full one
        bitwise.
        """
        params = self.params if self.shared else _columns(self.params, idx)
        current, _, g_ds = ids_with_partials(
            params, self.vgs[:, idx],
            np.stack([vout, self.vdd[idx] - vout]), self.vth_shift[:, idx])
        return current[0] - current[1], g_ds[0] + g_ds[1]

    def solve(self, xtol: float, start: np.ndarray | None = None
              ) -> np.ndarray:
        """Static output voltages [V] of every point.

        Without ``start`` every point starts at mid-supply, and one
        kernel call over both rails first pins the points whose
        balance is already signed at a rail.  ``start`` [V] holds one
        starting output per point, for points that lie off the rails
        (the gain = -1 crossings of :func:`noise_margins_batch`): the
        solve then skips the rail call and Newton starts there,
        safeguarded by the full supply ``[0, V_dd]``, which always
        holds the root.  A start only sets where Newton begins, so a
        poor one costs sweeps, never the root.
        """
        if xtol <= 0.0:
            raise ParameterError("xtol must be positive")
        supply = self.vdd
        vin = self.vgs[0]  # the NFET's V_gs
        if np.any((vin < 0.0) | (vin > supply)):
            raise ParameterError("vin outside the supply range [0, V_dd]")
        n = vin.size
        if start is None:
            # Both rails of every point in one kernel call.
            f_rails, _ = self.balance(np.concatenate([np.zeros(n), supply]),
                                      np.tile(np.arange(n), 2))
            at_lo = f_rails[:n] >= 0.0
            at_hi = (f_rails[n:] <= 0.0) & ~at_lo
            # Rail points are pinned by collapsing their bracket, which
            # keeps them out of the Newton iteration's active set from
            # sweep zero.
            lo = np.where(at_hi, supply, 0.0)
            hi = np.where(at_lo, 0.0, supply)
        else:
            lo, hi = np.zeros(n), supply
        perf.bump("circuit.vtc_batch_solves")
        perf.bump("circuit.vtc_batch_points", n)
        return newton_safeguarded(self.balance, lo, hi, xtol=xtol, x0=start,
                                  sweep_counter="circuit.vtc_newton_sweeps")

    def gain(self, vout: np.ndarray) -> np.ndarray:
        """``dV_out/dV_in`` of every point at its solved output ``vout``
        [V]: ``-(g_m,N + g_m,P) / (g_ds,N + g_ds,P)``, the implicit
        derivative of the balance (the PFET's gate and drain voltages
        fall as V_in and V_out rise, so both of its partials enter with
        the NFET's sign)."""
        _, g_m, g_ds = ids_with_partials(
            self.params, self.vgs, np.stack([vout, self.vdd - vout]),
            self.vth_shift)
        return -(g_m[0] + g_m[1]) / (g_ds[0] + g_ds[1])


def _broadcast_inputs(inverter, *inputs) -> list[np.ndarray]:
    """Broadcast the lane inputs together; the last is the supply.

    ``inverter`` is one inverter or a sequence of them, one per lane
    of the inputs' last axis.  ``None`` for the supply means each
    lane's own ``vdd`` [V].
    """
    *data, vdd = inputs
    if isinstance(inverter, Sequence):
        own = np.array([inv.vdd for inv in inverter], dtype=float)
        lane_axis = [own]  # broadcast against, then dropped
    else:
        own, lane_axis = inverter.vdd, []
    arrays = np.broadcast_arrays(
        *(np.asarray(x, dtype=float) for x in data),
        np.asarray(own if vdd is None else vdd, dtype=float),
        *lane_axis)[:len(inputs)]
    if np.any(arrays[-1] <= 0.0):
        raise ParameterError("vdd must be positive")
    return arrays


def _lane_pairs(inverter, shape: tuple) -> IVParams:
    """The device-pair record of every lane of ``shape``, flattened:
    one shared column for one inverter, else one column per lane."""
    if not isinstance(inverter, Sequence):
        return _pair_columns([inverter])
    lane = np.broadcast_to(np.arange(len(inverter)), shape)
    return _columns(_pair_columns(inverter), lane.ravel())


def solve_vtc_batch(inverter, vin, dvth_n=0.0, dvth_p=0.0,
                    xtol: float = XTOL_DEFAULT, vdd=None):
    """Static output voltages for whole arrays of VTC points [V].

    Solves ``I_N(V_in, V_out) = I_P(V_in, V_out)`` for every
    (``vin``, ``dvth_n``, ``dvth_p``, ``vdd``) point at once (inputs
    broadcast together; ``vdd`` [V] defaults to the inverter's
    supply); each element is the batched equivalent of
    ``Inverter.vtc_point`` on a V_th-offset copy of the devices at
    that supply.  ``inverter`` may also be a sequence of inverters,
    one per lane of the inputs' last axis.  Scalar inputs return a
    float.
    """
    vin_arr, dn_arr, dp_arr, vdd_arr = _broadcast_inputs(
        inverter, vin, dvth_n, dvth_p, vdd)
    system = _VtcSystem(_lane_pairs(inverter, vin_arr.shape),
                        vin_arr.ravel(), dn_arr.ravel(), dp_arr.ravel(),
                        vdd_arr.ravel())
    vout = system.solve(xtol)
    if vin_arr.shape == ():
        return float(vout[0])
    return vout.reshape(vin_arr.shape)


def gain_batch(inverter, vin, dvth_n=0.0, dvth_p=0.0,
               xtol: float = XTOL_DEFAULT):
    """Small-signal gain dV_out/dV_in for arrays of VTC points.

    One batched VTC solve, then the devices' closed-form partials at
    every solved (V_in, V_out): ``-(g_m,N + g_m,P) / (g_ds,N +
    g_ds,P)``, the same definition as ``Inverter.gain``.  ``inverter``
    may be a sequence, as in :func:`solve_vtc_batch`.
    """
    vin_arr, dn_arr, dp_arr, vdd_arr = _broadcast_inputs(
        inverter, vin, dvth_n, dvth_p, None)
    _, gains = _gain_flat(_lane_pairs(inverter, vin_arr.shape),
                          vin_arr.ravel(), dn_arr.ravel(), dp_arr.ravel(),
                          vdd_arr.ravel(), xtol)
    if vin_arr.shape == ():
        return float(gains[0])
    return gains.reshape(vin_arr.shape)


def _gain_flat(pair: IVParams, vin: np.ndarray, dvth_n: np.ndarray,
               dvth_p: np.ndarray, vdd: np.ndarray, xtol: float,
               start: np.ndarray | None = None
               ) -> tuple[np.ndarray, np.ndarray]:
    """The solved outputs [V] of flat VTC points and the gains there
    (``start``: as :meth:`_VtcSystem.solve`)."""
    system = _VtcSystem(pair, vin, dvth_n, dvth_p, vdd)
    vout = system.solve(xtol, start)
    return vout, system.gain(vout)


@dataclass(frozen=True)
class BatchNoiseMargins:
    """Per-trial noise-margin arrays of a batched SNM extraction.

    Attributes mirror :class:`repro.circuit.snm.NoiseMargins`
    elementwise; trials that lost regeneration carry NaN in every
    voltage field and a nonzero ``lost_code``.

    Attributes
    ----------
    v_il / v_ih / v_ol / v_oh / nm_low / nm_high:
        Noise-margin voltages per trial [V].
    lost_code:
        0 = regenerative, 1 = the VTC never reaches gain -1,
        2 = a gain = -1 crossing hits the sweep boundary (the indices
        of :data:`LOST_REGENERATION_MESSAGES`, offset by one).
    """

    v_il: np.ndarray
    v_ih: np.ndarray
    v_ol: np.ndarray
    v_oh: np.ndarray
    nm_low: np.ndarray
    nm_high: np.ndarray
    lost_code: np.ndarray

    @property
    def lost(self) -> np.ndarray:
        """Boolean mask of trials that lost regeneration."""
        return self.lost_code > 0

    @property
    def snm(self) -> np.ndarray:
        """min(NM_L, NM_H) per trial (NaN where regeneration is lost)."""
        return np.minimum(self.nm_low, self.nm_high)


def _refine_crossings(pair: IVParams, a: np.ndarray, b: np.ndarray,
                      scan_a: tuple[np.ndarray, np.ndarray],
                      scan_b: tuple[np.ndarray, np.ndarray],
                      sign: np.ndarray, dvth_n: np.ndarray,
                      dvth_p: np.ndarray, vdd: np.ndarray,
                      xtol: float) -> tuple[np.ndarray, np.ndarray]:
    """Solve each gain = -1 crossing inside its scan bracket ``[a, b]``,
    and the VTC output there.

    ``sign`` is +1 where ``gain + 1`` crosses downwards inside the
    bracket (the V_IL side) and -1 where it crosses upwards (V_IH), so
    ``-sign * (gain + 1)`` rises through zero in every bracket: one
    :func:`repro.numerics.bisect_illinois` stack solve, whose every
    residual pass is one batched gain evaluation, locates all
    crossings to ``xtol`` (the scalar oracle runs brentq on the same
    function and brackets).  ``pair`` holds the crossings' devices
    (one shared column, or one per crossing).  ``scan_a`` / ``scan_b``
    are the scan's ``(output, gain)`` at the bracket ends — the same
    ``vin`` floats on the same lanes, so bitwise what the residual
    would recompute — and the gains enter the solve as its known end
    residuals.

    Every VTC solve here is seeded.  Each lane keeps the outputs
    solved at its current bracket ends — the scan's two points at
    first, then each point the Illinois solve evaluates, which
    replaces ``lo`` where its residual is negative (numerics' rule)
    and ``hi`` otherwise — and each solve starts from the output
    interpolated linearly between them, within one scan step of the
    root.  The outputs at the refined roots (V_OH on the V_IL side,
    V_OL on the V_IH side) are seeded from the final bracket's ends.
    A seed only moves Newton's starting point, and each lane's seed
    comes from its own outputs alone.  Returns ``(roots, outputs)``.
    """
    shared = _is_shared(pair)
    (out_a, gain_a), (out_b, gain_b) = scan_a, scan_b
    # Each lane's current bracket ends and the outputs solved there.
    v_lo, v_hi, out_lo, out_hi = a.copy(), b.copy(), out_a.copy(), out_b.copy()

    def seed(vin: np.ndarray, idx: np.ndarray) -> np.ndarray:
        lo, hi = v_lo[idx], v_hi[idx]
        return out_lo[idx] + ((vin - lo) / (hi - lo)
                              * (out_hi[idx] - out_lo[idx]))

    def residual(vin: np.ndarray, idx: np.ndarray) -> np.ndarray:
        vout, gains = _gain_flat(pair if shared else _columns(pair, idx),
                                 vin, dvth_n[idx], dvth_p[idx], vdd[idx],
                                 xtol, seed(vin, idx))
        r = -sign[idx] * (gains + 1.0)
        new_lo = r < 0.0
        new_hi = ~new_lo
        v_lo[idx[new_lo]], out_lo[idx[new_lo]] = vin[new_lo], vout[new_lo]
        v_hi[idx[new_hi]], out_hi[idx[new_hi]] = vin[new_hi], vout[new_hi]
        return r

    ends = (-sign * (gain_a + 1.0), -sign * (gain_b + 1.0))
    roots = bisect_illinois(residual, a, b, xtol=xtol, ends=ends).root
    outputs = _VtcSystem(pair, roots, dvth_n, dvth_p, vdd).solve(
        xtol, seed(roots, np.arange(roots.size)))
    return roots, outputs


def noise_margins_batch(inverter, dvth_n=0.0, dvth_p=0.0, n_scan: int = 101,
                        xtol: float = XTOL_DEFAULT,
                        vdd=None) -> BatchNoiseMargins:
    """Gain = -1 noise margins for whole arrays of V_th perturbations.

    The batched equivalent of running ``noise_margins`` on a
    V_th-offset copy of the inverter per trial: the same ``n_scan``
    grid locates each trial's two sign-change brackets, one Illinois
    stack solve refines them below ``xtol``, and one more batched
    solve reads off ``V_OL``/``V_OH``.  The scan's solve starts every
    point at mid-supply; every later solve starts each point from the
    output interpolated between the outputs its own lane has already
    solved at the ends of its bracket (:func:`_refine_crossings`),
    which moves only Newton's starting point.  Trials whose VTC never reaches gain -1
    (or only at the sweep boundary) are flagged in ``lost_code``
    instead of raising.

    ``inverter`` is one inverter, or a sequence of inverters, one per
    trial of the last axis: a whole family's SNMs are one extraction,
    lane for lane bitwise the one-inverter calls.  ``vdd`` [V]
    broadcasts with the offsets (and the sequence) and defaults to
    each trial's own inverter's supply; each trial's scan grid spans
    its own supply.
    """
    if n_scan < 5:
        raise ParameterError("need at least 5 scan points")
    dn_arr, dp_arr, vdd_arr = _broadcast_inputs(inverter, dvth_n, dvth_p,
                                                vdd)
    shape = dn_arr.shape
    pair = _lane_pairs(inverter, shape)
    dn = np.atleast_1d(dn_arr.ravel())
    dp = np.atleast_1d(dp_arr.ravel())
    supply = np.atleast_1d(vdd_arr.ravel())
    trials = dn.size
    margin = supply * 1e-3
    vins = np.linspace(margin, supply - margin, n_scan, axis=-1)

    scan_pair = (pair if _is_shared(pair) else
                 _columns(pair, np.repeat(np.arange(trials), n_scan)))
    outs, gains = _gain_flat(scan_pair, vins.ravel(),
                             np.repeat(dn, n_scan), np.repeat(dp, n_scan),
                             np.repeat(supply, n_scan), xtol)
    outs, gains = outs.reshape(trials, n_scan), gains.reshape(trials, n_scan)
    below = (gains + 1.0) < 0.0
    has_crossing = below.any(axis=1)
    first = np.argmax(below, axis=1)
    last = n_scan - 1 - np.argmax(below[:, ::-1], axis=1)
    lost_code = np.zeros(trials, dtype=int)
    lost_code[~has_crossing] = 1
    boundary = has_crossing & ((first == 0) | (last == n_scan - 1))
    lost_code[boundary] = 2
    ok = lost_code == 0

    nan = np.full(trials, np.nan)
    v_il, v_ih = nan.copy(), nan.copy()
    v_ol, v_oh = nan.copy(), nan.copy()
    k = int(ok.sum())
    if k:
        rows = np.flatnonzero(ok)
        first_ok, last_ok = first[ok], last[ok]
        lo_col = np.concatenate([first_ok - 1, last_ok])
        hi_col = np.concatenate([first_ok, last_ok + 1])
        rows2 = np.concatenate([rows, rows])
        pair2 = _columns(pair, rows2)
        sign = np.concatenate([np.ones(k), -np.ones(k)])
        dn2 = np.concatenate([dn[ok], dn[ok]])
        dp2 = np.concatenate([dp[ok], dp[ok]])
        vdd2 = np.concatenate([supply[ok], supply[ok]])
        roots, vouts = _refine_crossings(
            pair2, vins[rows2, lo_col], vins[rows2, hi_col],
            (outs[rows2, lo_col], gains[rows2, lo_col]),
            (outs[rows2, hi_col], gains[rows2, hi_col]),
            sign, dn2, dp2, vdd2, xtol)
        v_il[ok] = roots[:k]
        v_ih[ok] = roots[k:]
        v_oh[ok] = vouts[:k]
        v_ol[ok] = vouts[k:]
    perf.bump("circuit.snm_batch_extractions", trials)
    return BatchNoiseMargins(
        v_il=v_il.reshape(shape) if shape else v_il,
        v_ih=v_ih.reshape(shape) if shape else v_ih,
        v_ol=v_ol.reshape(shape) if shape else v_ol,
        v_oh=v_oh.reshape(shape) if shape else v_oh,
        nm_low=(v_il - v_ol).reshape(shape) if shape else v_il - v_ol,
        nm_high=(v_oh - v_ih).reshape(shape) if shape else v_oh - v_ih,
        lost_code=lost_code.reshape(shape) if shape else lost_code,
    )
