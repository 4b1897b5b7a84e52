"""Batched nodal analysis: compiled DC and transient over lanes.

The scalar :class:`~repro.circuit.mna.NodalSolver` re-walks the
netlist per residual and finite-differences the Jacobian one node at a
time — fine for one inverter, hopeless for a stimulus sweep times a
(ΔV_th,n, ΔV_th,p) corner grid on an SRAM column.  This engine solves
the same equations over a trailing **lane** axis:

* the netlist is lowered once by :func:`repro.circuit.compile.compile_circuit`
  into index arrays, constant linear stamps, a per-transistor
  parameter table and two sparse incidence matrices;
* each Newton sweep makes **one** device call: the array-native
  :func:`repro.device.iv.ids_with_partials` returns every
  transistor's current and closed-form ``dI/dV_gs``, ``dI/dV_ds`` for
  every lane, with the V_th variation shifts as data, so a variation
  corner is not a rebuilt circuit;
* the compiled incidences stamp the currents into the residual and the
  conductances into dense per-lane Jacobians with one sparse product
  each, solved with one stacked ``numpy.linalg.solve``;
* Newton runs with active-lane compression in the
  :mod:`repro.numerics` style: an index array of unconverged lanes, a
  bounded ``for`` sweep loop, and ``circuit.mna.*`` perf counters.

Batch semantics: ``stimulus`` values, variation shifts and initial
seeds broadcast to a common batch shape; results carry that shape per
node.  ``solver="sequential"`` routes every lane through the scalar
:class:`NodalSolver` on a per-lane rebuilt circuit (shifted devices
via ``with_vth_offset``) — the correctness oracle the equivalence
tests compare against.  Its finite-difference Jacobian shares nothing
with the closed-form one here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np
import numpy.typing as npt

from .. import perf
from ..device.iv import ids_with_partials
from ..device.mosfet import Polarity
from ..errors import ConvergenceError, ParameterError
from .batch import validate_solver
from .compile import CompiledCircuit, compile_circuit
from .mna import NodalSolver, _GMIN_START
from .netlist import Circuit

__all__ = ["BatchDCResult", "BatchTransientResult", "solve_dc_batch",
           "solve_transient_batch"]

FloatArray = npt.NDArray[np.float64]
IntArray = npt.NDArray[np.intp]

#: A stimulus entry: a constant (scalar or batch-shaped array) or a
#: waveform callable mapping time [s] to a constant of either kind.
Stimulus = Mapping[str, object]

#: gmin continuation ladder of the scalar solver's fallback phase,
#: reproduced rung for rung so the sequential oracle stays bitwise
#: comparable: 1e-6 relaxed by 1e-3 until < 1e-12, then released.
_GMIN_LADDER: tuple[float, ...] = (_GMIN_START, 1e-9, 1e-12, 1e-15, 0.0)


# ---------------------------------------------------------------------------
# results


@dataclass(frozen=True)
class BatchDCResult:
    """A batch of DC operating points.

    Attributes
    ----------
    batch_shape:
        The broadcast stimulus/corner shape; every array below has it.
    voltages:
        node name -> voltages [V], shaped ``batch_shape``.
    source_currents_a:
        source name -> current [A] the source injects into the
        circuit, shaped ``batch_shape`` (supply leakage reads
        straight off the rail source).
    iterations:
        Newton sweeps executed (batch) or summed scalar iterations
        (sequential).
    """

    batch_shape: tuple[int, ...]
    voltages: dict[str, FloatArray]
    source_currents_a: dict[str, FloatArray]
    iterations: int

    def __getitem__(self, node: str) -> FloatArray:
        return self.voltages[node]


@dataclass(frozen=True)
class BatchTransientResult:
    """Batched transient waveforms on one shared time grid.

    Attributes
    ----------
    time_s:
        Accepted time samples [s], shape ``(t,)`` — shared across
        lanes (the step controller is global, so every lane sees the
        same grid).
    voltages:
        node name -> waveforms [V], shape ``(t,) + batch_shape``.
    rejected_steps:
        Steps the shared controller rejected: a lane's Newton failed
        (no convergence in ``max_iter`` sweeps, or a singular stacked
        solve) or ``max_change_v`` tripped.  With none, the grid
        depends only on ``t_stop_s`` and ``dt_s``, and every lane's
        waveform is bitwise what it would be solved alone.  The
        sequential oracle reports 0: its per-lane scalar controllers
        share no grid.
    """

    time_s: FloatArray
    voltages: dict[str, FloatArray]
    batch_shape: tuple[int, ...]
    rejected_steps: int = 0

    def at(self, node: str, time_s: float) -> FloatArray:
        """Linearly interpolated node voltages at ``time_s`` [s],
        shaped ``batch_shape`` (clamped to the grid ends)."""
        wave = self.voltages[node]
        t = self.time_s
        if time_s <= t[0]:
            return wave[0]
        if time_s >= t[-1]:
            return wave[-1]
        i = int(np.searchsorted(t, time_s))
        w = (time_s - t[i - 1]) / (t[i] - t[i - 1])
        return (1.0 - w) * wave[i - 1] + w * wave[i]

    def crossing_times(self, node: str, level_v: float,
                       rising: bool | None = None) -> FloatArray:
        """First time each lane crosses ``level_v`` [V], in [s].

        Vectorised analogue of
        :meth:`repro.circuit.mna.TransientResult.crossing_time` with
        identical per-lane semantics (including a waveform that starts
        exactly at the level and departs in the requested direction
        crossing at t = 0) — except that lanes which never cross
        report ``nan`` instead of raising, so a batched binary search
        can keep probing the other lanes.
        """
        shape = self.batch_shape
        lanes = int(np.prod(shape)) if shape else 1
        wave = self.voltages[node].reshape(self.time_s.size, lanes)
        t = self.time_s
        above = wave >= level_v
        trans = above[1:] != above[:-1]
        if rising is True:
            valid = trans & above[1:]
        elif rising is False:
            valid = trans & ~above[1:]
        else:
            valid = trans
        found = valid.any(axis=0)
        first = np.argmax(valid, axis=0)
        cols = np.arange(lanes)
        v0 = wave[first, cols]
        v1 = wave[first + 1, cols]
        t0 = t[first]
        t1 = t[first + 1]
        denom = np.where(v1 == v0, 1.0, v1 - v0)
        out = np.where(found, t0 + (level_v - v0) * (t1 - t0) / denom,
                       np.nan)
        # A lane that starts exactly on the level "crosses" at t = 0
        # if its first departure goes the requested way.
        starts_on = wave[0] == level_v
        if bool(np.any(starts_on)):
            off_level = wave != level_v
            departs = off_level.any(axis=0)
            fi = np.argmax(off_level, axis=0)
            going_up = wave[fi, cols] > level_v
            ok = starts_on & departs
            if rising is True:
                ok &= going_up
            elif rising is False:
                ok &= ~going_up
            out = np.where(ok, 0.0, out)
        return out.reshape(shape)


# ---------------------------------------------------------------------------
# broadcasting and stimulus plumbing


def _value_shape(value: object, time_s: float) -> tuple[int, ...]:
    if callable(value):
        return np.shape(value(time_s))
    return np.shape(value)


def _batch_shape(stimulus: Stimulus | None, dvth_n_v: object,
                 dvth_p_v: object, initial: Mapping[str, object] | None,
                 time_s: float) -> tuple[int, ...]:
    shapes = [np.shape(dvth_n_v), np.shape(dvth_p_v)]
    for value in (stimulus or {}).values():
        shapes.append(_value_shape(value, time_s))
    for value in (initial or {}).items():
        shapes.append(np.shape(value[1]))
    return tuple(np.broadcast_shapes(*shapes))


def _as_lanes(value: object, batch_shape: tuple[int, ...]) -> FloatArray:
    lanes = int(np.prod(batch_shape)) if batch_shape else 1
    arr = np.asarray(value, dtype=float)
    return np.ascontiguousarray(
        np.broadcast_to(arr, batch_shape).reshape(lanes))


class _FixedPlan:
    """Per-call plan for the fixed-node voltage matrix.

    Resolves the compiled source waveforms plus the per-lane stimulus
    overrides into a dense ``(n_fixed, lanes)`` matrix at any time.
    """

    def __init__(self, compiled: CompiledCircuit, stimulus: Stimulus | None,
                 batch_shape: tuple[int, ...]) -> None:
        self.compiled = compiled
        self.batch_shape = batch_shape
        self.lanes = int(np.prod(batch_shape)) if batch_shape else 1
        self.overrides: list[tuple[int, object]] = []
        for key, value in sorted((stimulus or {}).items()):
            pos = compiled.source_position.get(key)
            if pos is None:
                raise ParameterError(
                    f"stimulus key {key!r} names no source (by name or "
                    f"node) in the circuit")
            self.overrides.append((pos, value))

    def at(self, time_s: float) -> FloatArray:
        base = self.compiled.fixed_base(time_s)
        fixed = np.repeat(base[:, None], self.lanes, axis=1)
        for pos, value in self.overrides:
            resolved = value(time_s) if callable(value) else value
            fixed[pos] = _as_lanes(resolved, self.batch_shape)
        return fixed

    def lane_waveform(self, pos: int, lane: int
                      ) -> Callable[[float], float] | None:
        """A scalar waveform for one lane of one override (oracle path)."""
        for p, value in self.overrides:
            if p == pos:
                if callable(value):
                    return lambda t, f=value: float(
                        _as_lanes(f(t), self.batch_shape)[lane])
                return lambda _t, v=float(_as_lanes(
                    value, self.batch_shape)[lane]): v
        return None


# ---------------------------------------------------------------------------
# assembly


def _linear_part(compiled: CompiledCircuit, x: FloatArray, fixed: FloatArray,
                 prev_full: FloatArray | None, inv_dt: float | None
                 ) -> tuple[FloatArray, FloatArray]:
    """Full voltage vector and the resistor/capacitor residual."""
    v = np.concatenate([x, fixed], axis=0)
    f = compiled.g_linear @ v
    if inv_dt is not None and prev_full is not None:
        f = f + (compiled.c_linear @ (v - prev_full)) * inv_dt
    return v, f


def _device_stamps(compiled: CompiledCircuit, v: FloatArray,
                   shift_n: object, shift_p: object
                   ) -> tuple[FloatArray, FloatArray]:
    """Drain currents [A] and stacked terminal conductances [S].

    One :func:`~repro.device.iv.ids_with_partials` call over the whole
    transistor table.  Mirrors
    :meth:`repro.circuit.netlist.Transistor.current_into_drain`: a
    PFET is the NFET model on negated node voltages, and the symmetric
    model always sees the source-referenced magnitudes of the
    conducting orientation, the sign flipping when drain and source
    swap roles.  Returns ``(i_drain, g)`` with ``i_drain`` shaped
    ``(T, lanes)`` and ``g`` the ``(3T, lanes)`` partials of
    ``i_drain`` with respect to the drain, gate and source voltages.
    """
    table = compiled.transistors
    sign = table.sign
    vd, vg, vs = sign * v[table.terminals]
    forward = vd >= vs
    lo = np.minimum(vd, vs)
    mag, g_gs, g_ds = ids_with_partials(
        table.params, vg - lo, np.maximum(vd, vs) - lo,
        np.where(table.is_nfet, np.asarray(shift_n), np.asarray(shift_p)))
    direction = np.where(forward, 1.0, -1.0)
    g_gate = direction * g_gs
    g_drain = np.where(forward, g_ds, g_gs + g_ds)
    g = np.concatenate([g_drain, g_gate, -(g_drain + g_gate)], axis=0)
    perf.bump("circuit.mna.device_evals", mag.size)
    return sign * direction * mag, g


def _residual_full(compiled: CompiledCircuit, x: FloatArray,
                   fixed: FloatArray, shift_n: object, shift_p: object,
                   gmin: float, prev_full: FloatArray | None,
                   inv_dt: float | None) -> FloatArray:
    """KCL residual at every node, shape ``(n_total, lanes)``.

    Rows ``:n_unknown`` must vanish at a solution; fixed-node rows
    read back as the current each source injects.
    """
    n = compiled.n_unknown
    v, f = _linear_part(compiled, x, fixed, prev_full, inv_dt)
    i_drain, _ = _device_stamps(compiled, v, shift_n, shift_p)
    f = f + compiled.residual_incidence @ i_drain
    if gmin > 0.0:
        f[:n] += gmin * x
    return f


def _assemble(compiled: CompiledCircuit, x: FloatArray, fixed: FloatArray,
              shift_n: object, shift_p: object, gmin: float,
              prev_full: FloatArray | None, inv_dt: float | None
              ) -> tuple[FloatArray, FloatArray]:
    """Residual rows and stacked Jacobian for the unknown block.

    Returns ``(f, jac)`` with ``f`` shaped ``(n_total, lanes)`` and
    ``jac`` shaped ``(lanes, n, n)``.  Device currents and their
    closed-form partials come from one kernel call over the transistor
    table; the compiled incidence matrices stamp them with one sparse
    product each.
    """
    n = compiled.n_unknown
    v, f = _linear_part(compiled, x, fixed, prev_full, inv_dt)
    i_drain, g = _device_stamps(compiled, v, shift_n, shift_p)
    f = f + compiled.residual_incidence @ i_drain
    flat = compiled.jacobian_incidence @ g
    stacked = flat.reshape(n, n, x.shape[1]).transpose(2, 0, 1)
    stacked += compiled.g_linear[:n, :n]
    if inv_dt is not None:
        stacked += compiled.c_linear[:n, :n] * inv_dt
    if gmin > 0.0:
        f[:n] += gmin * x
        diag = np.arange(n)
        stacked[:, diag, diag] += gmin
    return f, stacked


# ---------------------------------------------------------------------------
# batched Newton


def _gather_shift(shift: object, idx: IntArray) -> object:
    if isinstance(shift, np.ndarray):
        return shift[idx]
    return shift


def _newton_batch(compiled: CompiledCircuit, x: FloatArray,
                  fixed: FloatArray, shift_n: object, shift_p: object,
                  gmin: float, prev_full: FloatArray | None,
                  inv_dt: float | None, rail: FloatArray, tol_v: float,
                  max_iter: int) -> tuple[FloatArray, FloatArray, int]:
    """Damped Newton over lanes with active-set compression.

    Same damping, clipping and step-size convergence test as the
    scalar :meth:`NodalSolver._newton`, applied per lane.  Returns
    ``(x, converged_mask, sweeps)`` — a singular stacked Jacobian
    marks the remaining live lanes unconverged instead of raising, so
    the caller can send them through the gmin ladder.
    """
    n = compiled.n_unknown
    lanes = x.shape[1]
    converged = np.zeros(lanes, dtype=bool)
    idx = np.arange(lanes)
    sweeps = 0
    for _ in range(max_iter):
        live = int(idx.shape[0])
        if not live:
            break
        sweeps += 1
        perf.bump("circuit.mna.newton_sweeps")
        perf.bump("circuit.mna.total_lanes", lanes)
        perf.bump("circuit.mna.active_lanes", live)
        prev_live = None if prev_full is None else prev_full[:, idx]
        f, jac = _assemble(compiled, x[:, idx], fixed[:, idx],
                           _gather_shift(shift_n, idx),
                           _gather_shift(shift_p, idx),
                           gmin, prev_live, inv_dt)
        try:
            update = np.linalg.solve(jac, -f[:n].T[:, :, None])[:, :, 0].T
        except np.linalg.LinAlgError:
            break
        biggest = np.max(np.abs(update), axis=0)
        rail_live = rail[idx]
        scale = np.minimum(
            1.0, 0.25 * np.maximum(rail_live, 0.1)
            / np.maximum(biggest, 1e-30))
        moved = x[:, idx] + scale * update
        x[:, idx] = np.clip(moved, -0.5, rail_live + 0.5)
        done = biggest * scale < tol_v
        converged[idx[done]] = True
        idx = idx[~done]
    return x, converged, sweeps


def _dc_core(compiled: CompiledCircuit, fixed: FloatArray,
             shift_n: object, shift_p: object, x0: FloatArray,
             tol_v: float, max_iter: int) -> tuple[FloatArray, int]:
    """The scalar solver's two-phase DC strategy, batched.

    Phase 1 is direct Newton at ``gmin = 0`` from the seed (so
    bistable lanes converge to the basin their seed lies in); lanes
    that fail restart from the seed and walk the gmin ladder.
    """
    rail = np.max(np.abs(fixed), axis=0)
    x = x0.copy()
    x, converged, sweeps = _newton_batch(
        compiled, x, fixed, shift_n, shift_p, 0.0, None, None, rail,
        tol_v, max_iter)
    total = sweeps
    bad = np.flatnonzero(~converged)
    if int(bad.shape[0]):
        xb = x0[:, bad].copy()
        for gmin in _GMIN_LADDER:
            xb, conv_b, sweeps = _newton_batch(
                compiled, xb, fixed[:, bad],
                _gather_shift(shift_n, bad), _gather_shift(shift_p, bad),
                gmin, None, None, rail[bad], tol_v, max_iter)
            total += sweeps
            if not bool(np.all(conv_b)):
                raise ConvergenceError(
                    f"batched nodal Newton left "
                    f"{int(np.sum(~conv_b))} lane(s) unconverged at "
                    f"gmin={gmin:g}", iterations=total)
        x[:, bad] = xb
    return x, total


# ---------------------------------------------------------------------------
# public API


def solve_dc_batch(circuit: Circuit, *, stimulus: Stimulus | None = None,
                   dvth_n_v: object = 0.0, dvth_p_v: object = 0.0,
                   initial: Mapping[str, object] | None = None,
                   time_s: float = 0.0, tol_v: float = 1e-9,
                   max_iter: int = 80, solver: str = "batch",
                   compiled: CompiledCircuit | None = None
                   ) -> BatchDCResult:
    """Batched DC operating points of ``circuit``.

    Parameters
    ----------
    stimulus:
        source name (or source node) -> value: a scalar, an array
        (one lane per entry), or a waveform callable of time.  Arrays
        broadcast against the corner shifts to the batch shape.
    dvth_n_v / dvth_p_v:
        Additive V_th variation [v] applied to every NFET / PFET
        (composing with any offset already built into the devices);
        scalars or batch arrays.
    initial:
        node -> seed voltage(s) for Newton (selects the basin of
        bistable circuits, exactly as the scalar solver).
    time_s:
        Waveform evaluation time [s] for sources not overridden.
    tol_v:
        Newton step-size convergence bound [v].
    solver:
        ``"batch"`` (default) or ``"sequential"`` — the per-lane
        scalar-oracle path used by the equivalence tests.
    compiled:
        Optional pre-lowered netlist (skips recompilation in sweeps
        that reuse one topology).
    """
    validate_solver(solver)
    compiled = compiled or compile_circuit(circuit)
    batch_shape = _batch_shape(stimulus, dvth_n_v, dvth_p_v, initial,
                               time_s)
    lanes = int(np.prod(batch_shape)) if batch_shape else 1
    plan = _FixedPlan(compiled, stimulus, batch_shape)
    if solver == "sequential":
        return _solve_dc_sequential(circuit, compiled, plan, dvth_n_v,
                                    dvth_p_v, initial, time_s, batch_shape)
    perf.bump("circuit.mna.batch_solves")
    perf.bump("circuit.mna.batch_lanes", lanes)
    fixed = plan.at(time_s)
    shift_n = _maybe_lanes(dvth_n_v, batch_shape)
    shift_p = _maybe_lanes(dvth_p_v, batch_shape)
    rail = np.max(np.abs(fixed), axis=0)
    x0 = np.repeat((0.5 * rail)[None, :], compiled.n_unknown, axis=0)
    for node, value in (initial or {}).items():
        if node in compiled.unknowns:
            x0[compiled.unknowns.index(node)] = _as_lanes(value,
                                                          batch_shape)
    x, iterations = _dc_core(compiled, fixed, shift_n, shift_p, x0,
                             tol_v, max_iter)
    f = _residual_full(compiled, x, fixed, shift_n, shift_p, 0.0, None,
                       None)
    return _pack_dc(compiled, x, fixed, f, batch_shape, iterations)


def solve_transient_batch(circuit: Circuit, t_stop_s: float, dt_s: float,
                          *, stimulus: Stimulus | None = None,
                          dvth_n_v: object = 0.0, dvth_p_v: object = 0.0,
                          initial: Mapping[str, object] | None = None,
                          use_initial_conditions: bool = False,
                          dt_min_factor: float = 1e-6,
                          max_change_v: float | None = None,
                          tol_v: float = 1e-9, max_iter: int = 80,
                          solver: str = "batch",
                          compiled: CompiledCircuit | None = None
                          ) -> BatchTransientResult:
    """Batched backward-Euler transient of ``circuit``.

    Same companion model and step policy as the scalar
    :meth:`NodalSolver.solve_transient` — the step halves when Newton
    fails (down to ``dt_s * dt_min_factor``) or when any node moves
    more than ``max_change_v`` [v], and recovers by 1.5x up to
    ``dt_s`` — except the controller is **global**: all lanes share
    one time grid, and any lane can trigger the halving.  ``t_stop_s``
    and ``dt_s`` are the horizon and initial step [s]; ``dvth_n_v`` /
    ``dvth_p_v`` are per-lane V_th shifts [v]; ``tol_v`` [v] bounds
    the Newton step; ``stimulus``, ``initial`` and ``solver`` behave
    as in :func:`solve_dc_batch` (waveform stimuli may return per-lane
    arrays, which is how a binary search probes many pulse widths in
    one transient).  The result counts the rejected steps; with none,
    every lane's waveform is bitwise what that lane gives solved alone.
    """
    validate_solver(solver)
    if t_stop_s <= 0.0 or dt_s <= 0.0:
        raise ParameterError("t_stop_s and dt_s must be positive")
    compiled = compiled or compile_circuit(circuit)
    batch_shape = _batch_shape(stimulus, dvth_n_v, dvth_p_v, initial, 0.0)
    lanes = int(np.prod(batch_shape)) if batch_shape else 1
    plan = _FixedPlan(compiled, stimulus, batch_shape)
    if solver == "sequential":
        return _solve_transient_sequential(
            circuit, compiled, plan, dvth_n_v, dvth_p_v, initial,
            use_initial_conditions, t_stop_s, dt_s, dt_min_factor,
            max_change_v, batch_shape)
    perf.bump("circuit.mna.batch_solves")
    perf.bump("circuit.mna.batch_lanes", lanes)
    shift_n = _maybe_lanes(dvth_n_v, batch_shape)
    shift_p = _maybe_lanes(dvth_p_v, batch_shape)
    n = compiled.n_unknown
    if use_initial_conditions:
        x = np.zeros((n, lanes))
        for node, value in (initial or {}).items():
            if node in compiled.unknowns:
                x[compiled.unknowns.index(node)] = _as_lanes(value,
                                                             batch_shape)
    else:
        fixed0 = plan.at(0.0)
        rail0 = np.max(np.abs(fixed0), axis=0)
        x0 = np.repeat((0.5 * rail0)[None, :], n, axis=0)
        for node, value in (initial or {}).items():
            if node in compiled.unknowns:
                x0[compiled.unknowns.index(node)] = _as_lanes(value,
                                                              batch_shape)
        x, _ = _dc_core(compiled, fixed0, shift_n, shift_p, x0, tol_v,
                        max_iter)
    prev_full = np.concatenate([x, plan.at(0.0)], axis=0)
    times = [0.0]
    snapshots = [prev_full.copy()]
    t = 0.0
    step = dt_s
    min_step = dt_s * dt_min_factor
    rejected = 0
    while t < t_stop_s - 1e-18:
        step = min(step, t_stop_s - t)
        fixed = plan.at(t + step)
        rail = np.max(np.abs(fixed), axis=0)
        x_try, conv, _ = _newton_batch(
            compiled, x.copy(), fixed, shift_n, shift_p, 0.0, prev_full,
            1.0 / step, rail, tol_v, max_iter)
        reject = not bool(np.all(conv))
        if reject and step <= min_step:
            raise ConvergenceError(
                f"batched transient Newton left "
                f"{int(np.sum(~conv))} lane(s) unconverged at the "
                f"minimum step", iterations=len(times))
        if not reject and max_change_v is not None and step > min_step:
            change = float(np.max(np.abs(x_try - prev_full[:n])))
            reject = change > max_change_v
        if reject:
            rejected += 1
            perf.bump("circuit.mna.rejected_steps")
            step *= 0.5
            continue
        t += step
        x = x_try
        prev_full = np.concatenate([x, fixed], axis=0)
        times.append(t)
        snapshots.append(prev_full.copy())
        step = min(step * 1.5, dt_s)
        perf.bump("circuit.mna.transient_steps")
    stacked = np.stack(snapshots, axis=0)
    names = compiled.node_names
    shape = (len(times),) + batch_shape
    return BatchTransientResult(
        time_s=np.array(times),
        voltages={name: stacked[:, i].reshape(shape)
                  for i, name in enumerate(names)},
        batch_shape=batch_shape,
        rejected_steps=rejected,
    )


def _maybe_lanes(value: object, batch_shape: tuple[int, ...]) -> object:
    """Lanes array for a batch-varying shift, plain float otherwise."""
    if np.shape(value) == ():
        return float(value)  # type: ignore[arg-type]
    return _as_lanes(value, batch_shape)


def _pack_dc(compiled: CompiledCircuit, x: FloatArray, fixed: FloatArray,
             f: FloatArray, batch_shape: tuple[int, ...], iterations: int
             ) -> BatchDCResult:
    n = compiled.n_unknown
    voltages: dict[str, FloatArray] = {}
    for i, name in enumerate(compiled.unknowns):
        voltages[name] = x[i].reshape(batch_shape).copy()
    for j, name in enumerate(compiled.fixed):
        voltages[name] = fixed[j].reshape(batch_shape).copy()
    currents = {}
    for pos, key in enumerate(compiled.source_names):
        if key is not None:
            currents[key] = f[n + pos].reshape(batch_shape).copy()
    return BatchDCResult(batch_shape=batch_shape, voltages=voltages,
                         source_currents_a=currents, iterations=iterations)


# ---------------------------------------------------------------------------
# sequential oracle


def _lane_circuit(circuit: Circuit, compiled: CompiledCircuit,
                  plan: _FixedPlan, shift_n: float, shift_p: float,
                  lane: int) -> Circuit:
    """The lane's scalar circuit: overridden sources, shifted devices."""
    lane_c = Circuit()
    for s in circuit.sources:
        pos = compiled.source_position[s.name]
        waveform = plan.lane_waveform(pos, lane) or s.waveform
        lane_c.add_vsource(s.name, s.node, waveform)
    for r in circuit.resistors:
        lane_c.add_resistor(r.name, r.node_a, r.node_b, r.ohms)
    for c in circuit.capacitors:
        lane_c.add_capacitor(c.name, c.node_a, c.node_b, c.farads)
    for tr in circuit.transistors:
        shift = (shift_n if tr.device.polarity is Polarity.NFET
                 else shift_p)
        dev = tr.device
        if shift != 0:
            dev = dev.with_vth_offset(dev.vth_offset_v + shift)
        lane_c.add_mosfet(tr.name, tr.drain, tr.gate, tr.source, dev)
    return lane_c


def _lane_scalar(value: object, batch_shape: tuple[int, ...], lane: int
                 ) -> float:
    return float(_as_lanes(value, batch_shape)[lane])


def _solve_dc_sequential(circuit: Circuit, compiled: CompiledCircuit,
                         plan: _FixedPlan, dvth_n_v: object,
                         dvth_p_v: object,
                         initial: Mapping[str, object] | None,
                         time_s: float, batch_shape: tuple[int, ...]
                         ) -> BatchDCResult:
    lanes = plan.lanes
    names = compiled.node_names
    volts = np.zeros((len(names), lanes))
    currents = np.zeros((len(circuit.sources), lanes))
    iterations = 0
    for lane in range(lanes):
        perf.bump("circuit.mna.sequential_solves")
        lane_c = _lane_circuit(
            circuit, compiled, plan,
            _lane_scalar(dvth_n_v, batch_shape, lane),
            _lane_scalar(dvth_p_v, batch_shape, lane), lane)
        seed = {node: _lane_scalar(value, batch_shape, lane)
                for node, value in (initial or {}).items()}
        result = NodalSolver(lane_c).solve_dc(initial=seed or None,
                                              time_s=time_s)
        iterations += result.iterations
        for i, name in enumerate(names):
            volts[i, lane] = result.voltages[name]
        for k, s in enumerate(circuit.sources):
            currents[k, lane] = _scalar_source_current(lane_c, s.node,
                                                       result.voltages)
    voltages = {name: volts[i].reshape(batch_shape).copy()
                for i, name in enumerate(names)}
    currents_map = {s.name: currents[k].reshape(batch_shape).copy()
                    for k, s in enumerate(circuit.sources)}
    return BatchDCResult(batch_shape=batch_shape, voltages=voltages,
                         source_currents_a=currents_map,
                         iterations=iterations)


def _scalar_source_current(circuit: Circuit, node: str,
                           volts: Mapping[str, float]) -> float:
    """Current [A] the source driving ``node`` injects, from element
    currents at the solved operating point."""
    total = 0.0
    for r in circuit.resistors:
        if node in (r.node_a, r.node_b):
            i_ab = (volts[r.node_a] - volts[r.node_b]) / r.ohms
            total += i_ab if node == r.node_a else -i_ab
    for t in circuit.transistors:
        if node in (t.drain, t.source):
            i_d = t.current_into_drain(volts[t.drain], volts[t.gate],
                                       volts[t.source])
            if node == t.drain:
                total += i_d
            if node == t.source:
                total -= i_d
    return total


def _solve_transient_sequential(circuit: Circuit,
                                compiled: CompiledCircuit,
                                plan: _FixedPlan, dvth_n_v: object,
                                dvth_p_v: object,
                                initial: Mapping[str, object] | None,
                                use_initial_conditions: bool,
                                t_stop_s: float, dt_s: float,
                                dt_min_factor: float,
                                max_change_v: float | None,
                                batch_shape: tuple[int, ...]
                                ) -> BatchTransientResult:
    """Per-lane scalar transients, resampled onto one shared grid.

    The scalar controller adapts its step per lane, so lane grids
    differ; waveforms are linearly interpolated onto a uniform
    ``dt_s`` grid for the batched result shape.  (The batch path keeps
    its own native grid — comparisons interpolate, as the equivalence
    tests do.)
    """
    lanes = plan.lanes
    names = compiled.node_names
    grid = np.arange(0.0, t_stop_s + 0.5 * dt_s, dt_s)
    grid[-1] = min(grid[-1], t_stop_s)
    waves = np.zeros((grid.size, len(names), lanes))
    for lane in range(lanes):
        perf.bump("circuit.mna.sequential_solves")
        lane_c = _lane_circuit(
            circuit, compiled, plan,
            _lane_scalar(dvth_n_v, batch_shape, lane),
            _lane_scalar(dvth_p_v, batch_shape, lane), lane)
        seed = {node: _lane_scalar(value, batch_shape, lane)
                for node, value in (initial or {}).items()}
        result = NodalSolver(lane_c).solve_transient(
            t_stop_s, dt_s, initial=seed or None,
            use_initial_conditions=use_initial_conditions,
            dt_min_factor=dt_min_factor, max_change_v=max_change_v)
        for i, name in enumerate(names):
            waves[:, i, lane] = np.interp(grid, result.time_s,
                                          result.voltages[name])
    shape = (grid.size,) + batch_shape
    return BatchTransientResult(
        time_s=grid,
        voltages={name: waves[:, i].reshape(shape).copy()
                  for i, name in enumerate(names)},
        batch_shape=batch_shape,
    )
