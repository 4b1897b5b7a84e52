"""Behavioral tests for the SRAM-column array workloads."""

import dataclasses
import random
import statistics

import numpy as np
import pytest

from repro.circuit import sram_array
from repro.circuit.compile import compile_circuit
from repro.circuit.mna_batch import solve_transient_batch
from repro.circuit.sram import SramCell, read_snm
from repro.circuit.sram_array import (bitline_leakage_vs_height,
                                      build_column, default_keeper_ohms,
                                      flip_time_scale_s, loaded_read_snm,
                                      min_write_pulse, storage_node_cap_f,
                                      write_trip_voltage)
from repro.errors import ConvergenceError, ParameterError
from repro.experiments.ext_array import (WRITE_CORNERS_V, WRITE_PROBES,
                                         WRITE_ROWS, _cell)
from repro.experiments.families import sub_vth_family

VDD = 0.25


@pytest.fixture(scope="module")
def cell(nfet90, pfet90):
    return SramCell(pulldown=nfet90.with_width_um(2.0),
                    pullup=pfet90.with_width_um(1.0),
                    access=nfet90.with_width_um(1.0), vdd=VDD)


class TestBuildColumn:
    def test_basic_shape(self, cell):
        col = build_column(cell, 3)
        assert col.n_rows == 3
        assert col.stored == (0, 0, 0)
        names = {s.name for s in col.circuit.sources}
        assert names == {"vdd", "wl0", "wl1", "wl2"}
        # 6 transistors per row.
        assert len(col.circuit.transistors) == 18
        # Floating bitlines carry caps plus keepers.
        cap_names = {c.name for c in col.circuit.capacitors}
        assert {"cbl", "cblb"} <= cap_names

    def test_stored_pattern_and_seed(self, cell):
        col = build_column(cell, 3, stored=[1, 0, 1])
        assert col.stored == (1, 0, 1)
        seeds = col.seed()
        assert seeds["q0"] == VDD and seeds["qb0"] == 0.0
        assert seeds["q1"] == 0.0 and seeds["qb1"] == VDD
        assert seeds["bl"] == VDD
        assert col.seed(bl_v=0.0)["bl"] == 0.0

    def test_drive_bitlines_replaces_caps_with_sources(self, cell):
        col = build_column(cell, 2, drive_bitlines=True)
        names = {s.name for s in col.circuit.sources}
        assert {"vbl", "vblb"} <= names
        assert not any(c.name in ("cbl", "cblb")
                       for c in col.circuit.capacitors)

    def test_probe_attaches_to_selected_row(self, cell):
        col = build_column(cell, 4, selected_row=2, probe="qb")
        probe = next(s for s in col.circuit.sources if s.name == "vprobe")
        assert probe.node == "qb2"

    @pytest.mark.parametrize("kwargs", [
        dict(n_rows=0),
        dict(n_rows=2, selected_row=2),
        dict(n_rows=2, selected_row=-1),
        dict(n_rows=2, stored=[0, 1, 0]),
        dict(n_rows=2, r_keeper_ohms=0.0),
        dict(n_rows=2, probe="x"),
    ])
    def test_rejects_bad_arguments(self, cell, kwargs):
        n_rows = kwargs.pop("n_rows")
        with pytest.raises(ParameterError):
            build_column(cell, n_rows, **kwargs)


class TestScales:
    def test_keeper_sags_two_percent_per_cell(self, cell):
        keeper = default_keeper_ohms(cell)
        sag = keeper * cell.access.i_off(VDD)
        assert sag == pytest.approx(0.02 * VDD)

    def test_flip_time_scale_is_cv_over_ion(self, cell):
        t = flip_time_scale_s(cell)
        assert t == pytest.approx(storage_node_cap_f(cell) * VDD
                                  / cell.access.i_on(VDD))
        assert 0.0 < t < 1.0


class TestLeakageLoading:
    def test_per_cell_leakage_shrinks_with_height(self, cell):
        out = bitline_leakage_vs_height(cell, (1, 2, 4, 8))
        assert out.heights == (1, 2, 4, 8)
        # Total grows, bitline sags, per-cell share strictly falls:
        # the loading effect of Mukhopadhyay et al.
        assert np.all(np.diff(out.i_bl_a) > 0.0)
        assert np.all(np.diff(out.v_bl) < 0.0)
        assert np.all(np.diff(out.per_cell_a) < 0.0)

    def test_leakage_total_is_sublinear(self, cell):
        out = bitline_leakage_vs_height(cell, (1, 8))
        assert out.i_bl_a[1] < 8.0 * out.i_bl_a[0]

    def test_vth_corner_moves_leakage(self, cell):
        lo = bitline_leakage_vs_height(cell, (4,), dvth_n_v=+0.02)
        hi = bitline_leakage_vs_height(cell, (4,), dvth_n_v=-0.02)
        assert hi.i_bl_a[0] > lo.i_bl_a[0]


class TestReadSnm:
    def test_loaded_snm_between_zero_and_pinned(self, cell):
        snm2 = loaded_read_snm(cell, 2, n_points=15)
        pinned = read_snm(cell)
        assert 0.0 < pinned < snm2 < VDD / 2.0

    def test_snm_degrades_with_height(self, cell):
        snm2 = loaded_read_snm(cell, 2, n_points=15)
        snm8 = loaded_read_snm(cell, 8, n_points=15)
        assert snm8 < snm2

    def test_rejects_too_few_points(self, cell):
        with pytest.raises(ParameterError):
            loaded_read_snm(cell, 2, n_points=4)


class TestWrite:
    def test_trip_voltage_within_rail(self, cell):
        trip = write_trip_voltage(cell, 2, ramp_taus=20.0, n_steps=60)
        assert 0.0 < float(trip) < VDD

    def test_trip_falls_with_weaker_access(self, cell):
        # Corners stay <= 0: at this 0.25 V cell the nominal trip is
        # already near ground, so a weakening corner would push it off
        # the ramp entirely (nan).
        corners = np.array([-0.03, -0.015, 0.0])
        trips = write_trip_voltage(cell, 2, dvth_n_v=corners,
                                   ramp_taus=20.0, n_steps=60)
        assert trips.shape == (3,)
        # A weaker (higher-Vth) access device needs the bitline pulled
        # further down before the cell flips.
        assert trips[2] < trips[1] < trips[0]

    def test_min_pulse_positive_and_monotone(self, cell):
        corners = np.array([-0.02, 0.02])
        widths = min_write_pulse(cell, 2, dvth_n_v=corners,
                                 n_probes=4, n_steps=24)
        assert np.all(np.isfinite(widths))
        assert np.all(widths > 0.0)
        assert widths[1] >= widths[0]

    def test_min_pulse_rejects_bad_horizon(self, cell):
        with pytest.raises(ParameterError):
            min_write_pulse(cell, 2, t_max_s=0.0)

    @pytest.mark.parametrize("study", [write_trip_voltage, min_write_pulse])
    def test_rejects_an_empty_column(self, cell, study):
        with pytest.raises(ParameterError):
            study(cell, 0)


# ---------------------------------------------------------------------------
# The full-column, one-level-per-transient oracle: the write studies as
# they were before they solved the written row alone and probed several
# bisection levels per transient, kept verbatim.  The production studies
# must reproduce them bitwise.


def _oracle_write_trip_voltage(cell, n_rows, *, ramp_taus=80.0,
                               n_steps=240, dvth_n_v=0.0, dvth_p_v=0.0):
    vdd = cell.vdd
    column = build_column(cell, n_rows, stored=1, drive_bitlines=True)
    t_ramp = ramp_taus * flip_time_scale_s(cell)

    def vbl_ramp(t: float) -> float:
        return vdd * max(0.0, 1.0 - t / t_ramp)

    result = solve_transient_batch(
        column.circuit, t_ramp, t_ramp / n_steps,
        stimulus={"vbl": vbl_ramp, "wl0": vdd},
        dvth_n_v=dvth_n_v, dvth_p_v=dvth_p_v,
        initial=column.seed())
    t_flip = result.crossing_times("qb0", 0.5 * vdd, rising=True)
    return np.asarray(vdd * (1.0 - t_flip / t_ramp))


def _oracle_min_write_pulse(cell, n_rows, *, t_max_s=None, n_probes=10,
                            n_steps=96, dvth_n_v=0.0, dvth_p_v=0.0):
    if t_max_s is None:
        t_max_s = 40.0 * flip_time_scale_s(cell)
    if t_max_s <= 0.0:
        raise ParameterError("t_max_s must be positive")
    vdd = cell.vdd
    column = build_column(cell, n_rows, stored=1, drive_bitlines=True)
    compiled = compile_circuit(column.circuit)
    shape = np.broadcast_shapes(np.shape(dvth_n_v), np.shape(dvth_p_v))
    t_start = 0.05 * t_max_s
    t_stop = 1.6 * t_max_s
    dt = t_stop / n_steps

    def probe(widths):
        def wordline(t: float):
            on = (t >= t_start) & (t < t_start + widths)
            return np.where(on, vdd, 0.0)

        result = solve_transient_batch(
            column.circuit, t_stop, dt,
            stimulus={"wl0": wordline, "vbl": 0.0},
            dvth_n_v=dvth_n_v, dvth_p_v=dvth_p_v,
            initial=column.seed(bl_v=0.0), compiled=compiled)
        return result.voltages["q0"][-1] < 0.5 * vdd

    lo = np.zeros(shape)
    hi = np.full(shape, t_max_s)
    writable = probe(hi)
    for _ in range(n_probes):
        mid = 0.5 * (lo + hi)
        flipped = probe(mid)
        hi = np.where(flipped, mid, hi)
        lo = np.where(flipped, lo, mid)
    return np.asarray(np.where(writable, hi, np.nan))


def _e2e_corners(seed: int, round_index: int) -> np.ndarray:
    """The array workload's write-study corners for one seeded round:
    one access ΔV_th,n drawn from each quartile of N(0, 15 mV)."""
    rng = random.Random(f"array:{seed}:{round_index}")
    normal = statistics.NormalDist(0.0, 0.015)
    return np.array([normal.inv_cdf((k + rng.uniform(0.005, 0.995)) / 4)
                     for k in range(4)])


@pytest.fixture(scope="module")
def array_cell():
    """ext_array's sub-V_th 32nm cell, also the array workload's."""
    return _cell(sub_vth_family().design("32nm"))


def _transient_log(monkeypatch, spoil=None):
    """Record (widths per corner, rejected steps) of every transient
    the write studies run; ``spoil`` may replace the result of each
    transient that carries several widths per corner."""
    log = []

    def spy(circuit, t_stop_s, dt_s, **kwargs):
        result = solve_transient_batch(circuit, t_stop_s, dt_s, **kwargs)
        log.append((result.batch_shape[0], result.rejected_steps))
        if spoil is not None and result.batch_shape[0] > 1:
            return spoil(result)
        return result

    monkeypatch.setattr(sram_array, "solve_transient_batch", spy)
    return log


@pytest.fixture(scope="module")
def ext_array_margins(array_cell):
    corners = np.array(WRITE_CORNERS_V)
    with pytest.MonkeyPatch.context() as monkeypatch:
        log = _transient_log(monkeypatch)
        pulse = min_write_pulse(array_cell, WRITE_ROWS, dvth_n_v=corners,
                                n_probes=WRITE_PROBES)
    trip = write_trip_voltage(array_cell, WRITE_ROWS, dvth_n_v=corners)
    return trip, pulse, log


class TestWriteStudiesMatchTheFullColumnOracle:
    """Solving the written row alone and probing three bisection levels
    per transient leave every write margin bitwise the full column's,
    one level per transient.  The heights cover 2, 4 and 32 rows; the
    oracle's 32-row column is slow, so one case runs it."""

    def test_ext_array_corners(self, array_cell, ext_array_margins):
        corners = np.array(WRITE_CORNERS_V)
        trip, pulse, _ = ext_array_margins
        assert np.array_equal(
            trip, _oracle_write_trip_voltage(array_cell, WRITE_ROWS,
                                             dvth_n_v=corners),
            equal_nan=True)
        assert np.array_equal(
            pulse, _oracle_min_write_pulse(array_cell, WRITE_ROWS,
                                           dvth_n_v=corners,
                                           n_probes=WRITE_PROBES),
            equal_nan=True)

    def test_ext_array_search_falls_back(self, ext_array_margins):
        # A speculative transient (several widths per corner) had a
        # rejected step, so its levels were probed again one per
        # transient — and the answer above still matched the oracle.
        _, _, log = ext_array_margins
        assert any(widths > 1 and rejected for widths, rejected in log)
        assert any(widths == 1 for widths, _ in log)

    def test_e2e_corners_at_the_workload_height(self, array_cell):
        corners = _e2e_corners(2007, 0)
        assert np.array_equal(
            write_trip_voltage(array_cell, 32, dvth_n_v=corners),
            _oracle_write_trip_voltage(array_cell, 32, dvth_n_v=corners),
            equal_nan=True)
        assert np.array_equal(
            min_write_pulse(array_cell, 32, dvth_n_v=corners),
            _oracle_min_write_pulse(array_cell, 32, dvth_n_v=corners),
            equal_nan=True)

    @pytest.mark.parametrize("round_index, n_rows",
                             [(1, 2), (2, 4), (3, 2)])
    def test_e2e_corners_pulse(self, array_cell, round_index, n_rows):
        # The trip's only change is the row cut, covered above; the
        # pulse search also speculates, so every round is checked.
        corners = _e2e_corners(2007, round_index)
        assert np.array_equal(
            min_write_pulse(array_cell, n_rows, dvth_n_v=corners),
            _oracle_min_write_pulse(array_cell, n_rows, dvth_n_v=corners),
            equal_nan=True)


class TestSpeculationFallback:
    """A speculative transient that is not certified exact is thrown
    away and its steps re-probed one transient each."""

    KWARGS = dict(dvth_n_v=np.array([-0.02, 0.02]), n_probes=4,
                  n_steps=24)

    def _search(self, cell, monkeypatch, spoil):
        log = _transient_log(monkeypatch, spoil)
        pulse = min_write_pulse(cell, 2, **self.KWARGS)
        return pulse, [widths for widths, _ in log]

    def test_rejected_step_falls_back(self, cell, monkeypatch):
        pulse, widths_seen = self._search(
            cell, monkeypatch,
            lambda result: dataclasses.replace(result, rejected_steps=1))
        # Ceiling plus three levels in one transient, spoiled; then the
        # ceiling and each level alone; then the last level alone.
        assert widths_seen == [8, 1, 1, 1, 1, 1]
        assert np.array_equal(
            pulse, _oracle_min_write_pulse(cell, 2, **self.KWARGS),
            equal_nan=True)

    def test_convergence_failure_falls_back(self, cell, monkeypatch):
        def fail(_result):
            raise ConvergenceError("minimum step", iterations=0)

        pulse, widths_seen = self._search(cell, monkeypatch, fail)
        assert widths_seen == [8, 1, 1, 1, 1, 1]
        assert np.array_equal(
            pulse, _oracle_min_write_pulse(cell, 2, **self.KWARGS),
            equal_nan=True)

    def test_certified_search_takes_two_transients(self, cell,
                                                   monkeypatch):
        pulse, widths_seen = self._search(cell, monkeypatch, None)
        assert widths_seen == [8, 1]
        assert np.array_equal(
            pulse, _oracle_min_write_pulse(cell, 2, **self.KWARGS),
            equal_nan=True)


class TestBisectionTree:
    def test_widths_are_the_one_level_search_widths(self):
        lo = np.array([0.0, 1.0])
        hi = np.array([3.0, 2.0])
        widths = sram_array._bisection_widths(lo, hi, 3)
        assert widths.shape == (7, 2)
        # Walk every outcome path level by level, as the one-level
        # search would, and find each probed width at its heap node.
        for path in range(8):
            b_lo, b_hi, node = lo.copy(), hi.copy(), 0
            for level in range(3):
                mid = 0.5 * (b_lo + b_hi)
                assert np.array_equal(widths[node], mid)
                flipped = bool(path >> level & 1)
                b_lo, b_hi = (b_lo, mid) if flipped else (mid, b_hi)
                node = 2 * node + (1 if flipped else 2)

    def test_descent_follows_outcomes_not_monotonicity(self):
        lo, hi = np.array([0.0]), np.array([8.0])
        widths = sram_array._bisection_widths(lo, hi, 3)
        # Flips at 4, fails at 2, flips at 3: a non-monotone story the
        # walk must still follow node by node.
        flipped = np.zeros((7, 1), dtype=bool)
        flipped[0] = True    # width 4
        flipped[4] = True    # width 3, under the failing width 2
        new_lo, new_hi = sram_array._descend(lo, hi, widths, flipped, 3)
        assert (float(new_lo[0]), float(new_hi[0])) == (2.0, 3.0)

    def test_zero_levels(self):
        widths = sram_array._bisection_widths(np.zeros(3), np.ones(3), 0)
        assert widths.shape == (0, 3)
