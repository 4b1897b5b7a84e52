"""Lane independence of the batched transient, and its rejection count.

When the shared step controller rejects no step, the time grid depends
only on ``t_stop_s`` and ``dt_s``, and every lane's arithmetic is its
own: the device kernel is elementwise, the sparse stamps act column by
column, the stacked LU factors each lane's matrix alone, and damping,
the convergence test and the active set are per lane.  So a lane's
waveform is bitwise the same solved alone, in any subset, in any
order — the property ``min_write_pulse`` relies on to probe several
bisection levels in one transient.  A rejected step halves the step of
every lane, so the result counts them.
"""

import numpy as np
import pytest

from repro import perf
from repro.circuit.gate_netlists import nand2_netlist
from repro.circuit.mna_batch import solve_transient_batch
from repro.circuit.sram import SramCell
from repro.circuit.sram_array import build_column, flip_time_scale_s
from tests.oracles import mna as oracle

VDD = 0.25


@pytest.fixture(scope="module")
def write_row(nfet90, pfet90):
    cell = SramCell(pulldown=nfet90.with_width_um(2.0),
                    pullup=pfet90.with_width_um(1.0),
                    access=nfet90.with_width_um(1.0), vdd=VDD)
    return cell, build_column(cell, 1, stored=1, drive_bitlines=True)


@pytest.fixture(scope="module")
def nand2(nfet90, pfet90):
    return nand2_netlist(nfet90, pfet90, VDD)


def _pulse_solver(write_row):
    """Solve the one-row write column for a subset of 12 lanes: four
    wordline pulse widths x three access corners, flattened."""
    cell, column = write_row
    t_max = 40.0 * flip_time_scale_s(cell)
    t_start = 0.05 * t_max
    widths, corners = np.meshgrid(t_max * np.array([0.05, 0.2, 0.45, 0.9]),
                                  np.array([-0.02, 0.0, 0.02]),
                                  indexing="ij")
    widths, corners = widths.ravel(), corners.ravel()

    def solve(lanes):
        w = widths[lanes]

        def wordline(t):
            return np.where((t >= t_start) & (t < t_start + w), VDD, 0.0)

        return solve_transient_batch(
            column.circuit, 1.6 * t_max, 1.6 * t_max / 96,
            stimulus={"wl0": wordline, "vbl": 0.0},
            dvth_n_v=corners[lanes], initial=column.seed(bl_v=0.0))

    return solve, widths.size


def _gate_delay_solver(nand2):
    """Solve ``gate_delay``'s NAND2 transient (input ``a`` steps up a
    tenth of the way in) for a subset of 12 lanes: input ``b`` held
    high or low x three NFET x two PFET corners, flattened."""
    t_stop = 40.0 * nand2.time_scale_s()
    held, dvth_n, dvth_p = np.meshgrid(
        np.array([VDD, 0.0]), np.array([-0.02, 0.0, 0.02]),
        np.array([-0.01, 0.01]), indexing="ij")
    held, dvth_n, dvth_p = held.ravel(), dvth_n.ravel(), dvth_p.ravel()

    def step(t):
        return VDD if t >= 0.1 * t_stop else 0.0

    def solve(lanes):
        return solve_transient_batch(
            nand2.circuit, t_stop, t_stop / 80,
            stimulus={"a": step, "b": held[lanes]},
            dvth_n_v=dvth_n[lanes], dvth_p_v=dvth_p[lanes])

    return solve, held.size


@pytest.mark.parametrize("build", [_pulse_solver, _gate_delay_solver],
                         ids=["write_row", "nand2_gate_delay"])
def test_lanes_are_bitwise_their_own(request, build):
    fixture = "write_row" if build is _pulse_solver else "nand2"
    solve, n_lanes = build(request.getfixturevalue(fixture))
    full = solve(np.arange(n_lanes))
    assert full.rejected_steps == 0
    rng = np.random.default_rng(2007)
    subsets = [np.array([lane]) for lane in range(n_lanes)]
    subsets += [rng.permutation(n_lanes)[:size] for size in (2, 5, 9)]
    subsets.append(rng.permutation(n_lanes))
    for lanes in subsets:
        part = solve(lanes)
        assert part.rejected_steps == 0
        assert np.array_equal(part.time_s, full.time_s)
        for node, wave in full.voltages.items():
            assert np.array_equal(part.voltages[node], wave[:, lanes]), (
                node, lanes)


class TestRejectedSteps:
    def _switch(self, nand2, engine=solve_transient_batch, **kwargs):
        t_stop = 40.0 * nand2.time_scale_s()

        def step(t):
            return VDD if t >= 0.1 * t_stop else 0.0

        before = perf.get("circuit.mna.rejected_steps")
        result = engine(
            nand2.circuit, t_stop, kwargs.pop("dt_s"),
            stimulus={"a": step, "b": VDD}, **kwargs)
        return result, perf.get("circuit.mna.rejected_steps") - before

    def test_newton_failures_are_counted(self, nand2):
        # Six sweeps cannot follow the output's fall in one 4-tau step.
        t_stop = 40.0 * nand2.time_scale_s()
        result, counted = self._switch(nand2, dt_s=t_stop / 10,
                                       max_iter=6)
        assert result.rejected_steps > 0
        assert counted == result.rejected_steps
        # Each rejection halves the step, so the grid gains samples.
        assert result.time_s.size > 11

    def test_max_change_rejections_are_counted(self, nand2):
        t_stop = 40.0 * nand2.time_scale_s()
        result, counted = self._switch(nand2, dt_s=t_stop / 80,
                                       max_change_v=0.05)
        assert result.rejected_steps > 0
        assert counted == result.rejected_steps

    def test_a_clean_run_counts_none(self, nand2):
        t_stop = 40.0 * nand2.time_scale_s()
        result, counted = self._switch(nand2, dt_s=t_stop / 80)
        assert result.rejected_steps == 0
        assert counted == 0
        assert result.time_s.size == 81

    def test_sequential_oracle_reports_zero(self, nand2):
        t_stop = 40.0 * nand2.time_scale_s()
        result, counted = self._switch(nand2, dt_s=t_stop / 10,
                                       max_change_v=0.05,
                                       engine=oracle.solve_transient)
        assert result.rejected_steps == 0
        assert counted == 0
