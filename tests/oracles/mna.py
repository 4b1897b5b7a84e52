"""Scalar nodal-analysis oracle for the compiled batched MNA engine.

:func:`solve_dc` and :func:`solve_transient` take the signatures and
return the result types of :mod:`repro.circuit.mna_batch`'s entry
points, but solve every lane with the scalar
:class:`repro.circuit.mna.NodalSolver` on a per-lane rebuilt circuit,
whose finite-difference Jacobian shares nothing with the batched one."""

from __future__ import annotations

from typing import Callable, Iterator, Mapping

import numpy as np

from repro.circuit.compile import CompiledCircuit, compile_circuit
from repro.circuit.mna import NodalSolver
from repro.circuit.mna_batch import (BatchDCResult, BatchTransientResult,
                                     Stimulus, _as_lanes, _batch_shape,
                                     _FixedPlan)
from repro.circuit.netlist import Circuit
from repro.device.mosfet import Polarity
from repro.errors import ParameterError


def _lane_waveform(plan: _FixedPlan, pos: int, lane: int
                   ) -> Callable[[float], float] | None:
    """A scalar waveform for one lane of one stimulus override."""
    for p, value in plan.overrides:
        if p == pos:
            if callable(value):
                return lambda t, f=value: float(
                    _as_lanes(f(t), plan.batch_shape)[lane])
            return lambda _t, v=float(_as_lanes(
                value, plan.batch_shape)[lane]): v
    return None


def _lane_circuit(circuit: Circuit, compiled: CompiledCircuit,
                  plan: _FixedPlan, shift_n: float, shift_p: float,
                  lane: int) -> Circuit:
    """The lane's scalar circuit: overridden sources, shifted devices."""
    lane_c = Circuit()
    for s in circuit.sources:
        pos = compiled.source_position[s.name]
        waveform = _lane_waveform(plan, pos, lane) or s.waveform
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


def _lane_inputs(circuit: Circuit, compiled: CompiledCircuit,
                 plan: _FixedPlan, dvth_n_v: object, dvth_p_v: object,
                 initial: Mapping[str, object] | None
                 ) -> Iterator[tuple[Circuit, dict[str, float] | None]]:
    """Per lane, in order: its scalar circuit and its Newton seed."""
    def at(value: object, lane: int) -> float:
        return float(_as_lanes(value, plan.batch_shape)[lane])

    for lane in range(plan.lanes):
        seed = {node: at(value, lane)
                for node, value in (initial or {}).items()}
        yield (_lane_circuit(circuit, compiled, plan, at(dvth_n_v, lane),
                             at(dvth_p_v, lane), lane), seed or None)


def _source_current(circuit: Circuit, node: str,
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


def solve_dc(circuit: Circuit, *, stimulus: Stimulus | None = None,
             dvth_n_v: object = 0.0, dvth_p_v: object = 0.0,
             initial: Mapping[str, object] | None = None,
             time_s: float = 0.0, tol_v: float = 1e-9,
             max_iter: int = 80,
             compiled: CompiledCircuit | None = None) -> BatchDCResult:
    """Per-lane scalar DC operating points; ``iterations`` sums the
    scalar solves' Newton iterations."""
    compiled = compiled or compile_circuit(circuit)
    batch_shape = _batch_shape(stimulus, dvth_n_v, dvth_p_v, initial,
                               time_s)
    plan = _FixedPlan(compiled, stimulus, batch_shape)
    names = compiled.node_names
    volts = np.zeros((len(names), plan.lanes))
    currents = np.zeros((len(circuit.sources), plan.lanes))
    iterations = 0
    lanes = _lane_inputs(circuit, compiled, plan, dvth_n_v, dvth_p_v,
                         initial)
    for lane, (lane_c, seed) in enumerate(lanes):
        result = NodalSolver(lane_c).solve_dc(initial=seed, time_s=time_s)
        iterations += result.iterations
        for i, name in enumerate(names):
            volts[i, lane] = result.voltages[name]
        for k, s in enumerate(circuit.sources):
            currents[k, lane] = _source_current(lane_c, s.node,
                                                result.voltages)
    voltages = {name: volts[i].reshape(batch_shape).copy()
                for i, name in enumerate(names)}
    currents_map = {s.name: currents[k].reshape(batch_shape).copy()
                    for k, s in enumerate(circuit.sources)}
    return BatchDCResult(batch_shape=batch_shape, voltages=voltages,
                         source_currents_a=currents_map,
                         iterations=iterations)


def solve_transient(circuit: Circuit, t_stop_s: float, dt_s: float, *,
                    stimulus: Stimulus | None = None,
                    dvth_n_v: object = 0.0, dvth_p_v: object = 0.0,
                    initial: Mapping[str, object] | None = None,
                    use_initial_conditions: bool = False,
                    dt_min_factor: float = 1e-6,
                    max_change_v: float | None = None,
                    tol_v: float = 1e-9, max_iter: int = 80,
                    compiled: CompiledCircuit | None = None
                    ) -> BatchTransientResult:
    """Per-lane scalar transients, resampled onto one shared grid.

    The scalar controller adapts its step per lane, so lane grids
    differ; waveforms are linearly interpolated onto a uniform
    ``dt_s`` grid for the batched result shape.  The result reports no
    rejected steps: the per-lane controllers share no grid.
    """
    if t_stop_s <= 0.0 or dt_s <= 0.0:
        raise ParameterError("t_stop_s and dt_s must be positive")
    compiled = compiled or compile_circuit(circuit)
    batch_shape = _batch_shape(stimulus, dvth_n_v, dvth_p_v, initial, 0.0)
    plan = _FixedPlan(compiled, stimulus, batch_shape)
    names = compiled.node_names
    grid = np.arange(0.0, t_stop_s + 0.5 * dt_s, dt_s)
    grid[-1] = min(grid[-1], t_stop_s)
    waves = np.zeros((grid.size, len(names), plan.lanes))
    lanes = _lane_inputs(circuit, compiled, plan, dvth_n_v, dvth_p_v,
                         initial)
    for lane, (lane_c, seed) in enumerate(lanes):
        result = NodalSolver(lane_c).solve_transient(
            t_stop_s, dt_s, initial=seed,
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
