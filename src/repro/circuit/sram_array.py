"""Bitline-loaded SRAM columns: array-scale margins and leakage.

The paper evaluates one 6T cell; Mukhopadhyay et al. (PAPERS.md,
"Loading Effect in Leakage of Nano-Scaled Bulk-CMOS Logic Circuits")
show that leakage and margins are *loading* quantities — an N-row
column is not N independent cells.  This module builds full column
netlists (cross-coupled pairs, access devices, a resistive bitline
keeper, per-cell bitline capacitance) and characterises them with the
compiled batched MNA engine:

* **leakage under loading** — the keeper current feeding the leakage
  of every '0'-storing cell on the line.  As rows are added the
  bitline sags, each cell's access V_ds (and its DIBL boost) shrinks,
  and total leakage grows *sub-linearly* — the loading effect.
* **read SNM vs height** — during a read the N-1 unaccessed
  '1'-storing cells hold the floating bitline near V_dd, stiffening
  the read disturb on the accessed cell; loaded read SNM degrades
  with height toward the pinned-bitline limit.
* **write margins** — the DC bitline trip voltage, and an
  OpenNVRAM-style binary search for the minimum wordline pulse that
  flips the cell, where each transient probes up to three bisection
  levels over all variation corners.  Ideal drivers pin both
  bitlines during a write, so no other row shares an unknown with the
  written one: write margins do not depend on the column height, and
  both studies solve the written row alone.  The loading effect lives
  in the leakage and read studies, whose bitlines float.

Every solve runs through :func:`repro.circuit.mna_batch.solve_dc_batch`
/ :func:`solve_transient_batch`, so (ΔV_th,n, ΔV_th,p) corners are a
batch axis, and ``solver="sequential"`` swaps in the scalar oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import numpy.typing as npt

from ..errors import ConvergenceError, ParameterError
from .batch import validate_solver
from .compile import CompiledCircuit, compile_circuit
from .mna_batch import solve_dc_batch, solve_transient_batch
from .netlist import Circuit, GROUND
from .snm import butterfly_snm
from .sram import SramCell, read_snm

__all__ = ["SramColumn", "build_column", "bitline_leakage_vs_height",
           "loaded_read_snm", "read_snm_vs_height", "write_trip_voltage",
           "min_write_pulse"]

FloatArray = npt.NDArray[np.float64]

#: Default per-cell bitline wiring+junction capacitance [F] (same
#: figure as :func:`repro.circuit.sram.bitline_read`).
C_BL_PER_CELL_F = 0.2e-15

#: Keeper sizing: the default keeper drops ``KEEPER_DROP_PER_CELL``
#: of V_dd per leaking cell at the nominal access leakage, so a
#: 32-row column shows a deep (strongly sub-linear) sag.
KEEPER_DROP_PER_CELL = 0.02

#: Bisection levels :func:`min_write_pulse` probes per transient: one
#: lane per width those levels could ask for, 2**3 - 1 = 7 per corner.
#: Two, three and four levels measured within noise of each other on
#: the 32-row write study.
_LEVELS_PER_TRANSIENT = 3


@dataclass(frozen=True)
class SramColumn:
    """An N-row, one-column 6T array netlist.

    ``circuit`` has sources ``vdd``, ``wl0 .. wl{N-1}`` (all parked at
    0 V — drive the selected row through the batched ``stimulus``),
    optional bitline write drivers ``vbl`` / ``vblb``, keeper
    resistors from both bitlines to the rail, and per-row storage
    nodes ``q{i}`` / ``qb{i}``.
    """

    cell: SramCell
    n_rows: int
    selected_row: int
    stored: tuple[int, ...]
    r_keeper_ohms: float
    c_bl_per_cell_f: float
    circuit: Circuit

    def q(self, row: int) -> str:
        """Storage-node name of ``row`` (the bit side)."""
        return f"q{row}"

    def qb(self, row: int) -> str:
        """Complement storage-node name of ``row``."""
        return f"qb{row}"

    def seed(self, bl_v: float | None = None, blb_v: float | None = None
             ) -> dict[str, float]:
        """Newton seeds [v] for the stored data pattern.

        Bitlines default to the rail (their standby level through the
        keeper); ``bl_v`` / ``blb_v`` override where the bitlines are
        driven or expected elsewhere.
        """
        vdd = self.cell.vdd
        seeds: dict[str, float] = {}
        for row, bit in enumerate(self.stored):
            seeds[self.q(row)] = vdd if bit else 0.0
            seeds[self.qb(row)] = 0.0 if bit else vdd
        seeds["bl"] = vdd if bl_v is None else bl_v
        seeds["blb"] = vdd if blb_v is None else blb_v
        return seeds


def _stored_pattern(stored: int | Sequence[int], n_rows: int
                    ) -> tuple[int, ...]:
    if isinstance(stored, int):
        return tuple([int(bool(stored))] * n_rows)
    pattern = tuple(int(bool(b)) for b in stored)
    if len(pattern) != n_rows:
        raise ParameterError(
            f"stored pattern has {len(pattern)} bits for {n_rows} rows")
    return pattern


def default_keeper_ohms(cell: SramCell) -> float:
    """The default bitline keeper resistance [ohms].

    Sized so one '0'-storing cell at nominal access leakage sags the
    bitline by :data:`KEEPER_DROP_PER_CELL` of the rail — deep enough
    that a tall column's sag (and with it the loading effect on
    leakage) is well resolved by the solver.
    """
    return KEEPER_DROP_PER_CELL * cell.vdd / cell.access.i_off(cell.vdd)


def storage_node_cap_f(cell: SramCell) -> float:
    """Per-storage-node capacitance [f]: the opposite inverter's gate
    input capacitance, which sets the cell's flip time scale."""
    vdd = cell.vdd
    return cell.pulldown.c_gate_eff(vdd) + cell.pullup.c_gate_eff(vdd)


def flip_time_scale_s(cell: SramCell) -> float:
    """The cell's characteristic write-flip time [s].

    The storage node swings a rail at roughly the access device's on
    current — the RC scale every write characterisation's horizon and
    step default to, so they adapt across device families (a
    super-threshold cell flips ~10^3x faster than a subthreshold one).
    """
    return (storage_node_cap_f(cell) * cell.vdd
            / cell.access.i_on(cell.vdd))


def build_column(cell: SramCell, n_rows: int, *,
                 stored: int | Sequence[int] = 0, selected_row: int = 0,
                 drive_bitlines: bool = False,
                 probe: str | None = None,
                 r_keeper_ohms: float | None = None,
                 c_bl_per_cell_f: float = C_BL_PER_CELL_F) -> SramColumn:
    """Build the column netlist.

    Parameters
    ----------
    stored:
        Data pattern — one bit (replicated) or one bit per row; bit b
        of row i means ``q{i}`` holds ``b * vdd``.
    selected_row:
        The row the read/write characterisations drive (its ``wl``
        source is still parked at 0 — select it via ``stimulus``).
    drive_bitlines:
        Add write-driver sources ``vbl`` / ``vblb`` pinning the
        bitlines (write characterisation); otherwise the bitlines
        float behind the keeper.
    probe:
        ``"q"`` or ``"qb"`` adds a ``vprobe`` source at that storage
        node of the selected row — the loop-breaking probe the
        butterfly-SNM sweeps drive.
    r_keeper_ohms:
        Bitline keeper resistance [ohms]
        (default :func:`default_keeper_ohms`).
    c_bl_per_cell_f:
        Per-cell bitline capacitance [f].
    """
    if n_rows < 1:
        raise ParameterError("need at least one row")
    if not 0 <= selected_row < n_rows:
        raise ParameterError("selected_row outside the column")
    pattern = _stored_pattern(stored, n_rows)
    keeper = (default_keeper_ohms(cell) if r_keeper_ohms is None
              else r_keeper_ohms)
    if keeper <= 0.0:
        raise ParameterError("keeper resistance must be positive")
    vdd = cell.vdd
    c = Circuit()
    c.add_vsource("vdd", "vdd", vdd)
    for row in range(n_rows):
        c.add_vsource(f"wl{row}", f"wl{row}", 0.0)
    if drive_bitlines:
        c.add_vsource("vbl", "bl", vdd)
        c.add_vsource("vblb", "blb", vdd)
    else:
        c.add_capacitor("cbl", "bl", GROUND, n_rows * c_bl_per_cell_f)
        c.add_capacitor("cblb", "blb", GROUND, n_rows * c_bl_per_cell_f)
    c.add_resistor("rkbl", "vdd", "bl", keeper)
    c.add_resistor("rkblb", "vdd", "blb", keeper)
    c_node = storage_node_cap_f(cell)
    for row in range(n_rows):
        q, qb = f"q{row}", f"qb{row}"
        c.add_mosfet(f"m{row}.pdl", q, qb, GROUND, cell.pulldown)
        c.add_mosfet(f"m{row}.pul", q, qb, "vdd", cell.pullup)
        c.add_mosfet(f"m{row}.pdr", qb, q, GROUND, cell.pulldown)
        c.add_mosfet(f"m{row}.pur", qb, q, "vdd", cell.pullup)
        c.add_mosfet(f"m{row}.axl", "bl", f"wl{row}", q, cell.access)
        c.add_mosfet(f"m{row}.axr", "blb", f"wl{row}", qb, cell.access)
        c.add_capacitor(f"c{row}.q", q, GROUND, c_node)
        c.add_capacitor(f"c{row}.qb", qb, GROUND, c_node)
    if probe is not None:
        if probe not in ("q", "qb"):
            raise ParameterError("probe must be 'q' or 'qb'")
        c.add_vsource("vprobe", f"{probe}{selected_row}", 0.0)
    return SramColumn(cell=cell, n_rows=n_rows, selected_row=selected_row,
                      stored=pattern, r_keeper_ohms=keeper,
                      c_bl_per_cell_f=c_bl_per_cell_f, circuit=c)


# ---------------------------------------------------------------------------
# leakage under loading


@dataclass(frozen=True)
class LeakageVsHeight:
    """Standby bitline leakage vs array height.

    ``i_bl_a`` / ``v_bl`` / ``per_cell_a`` are shaped
    ``(len(heights),) + batch_shape`` — heights stack as the leading
    axis, variation corners broadcast behind.
    """

    heights: tuple[int, ...]
    i_bl_a: FloatArray
    v_bl: FloatArray
    per_cell_a: FloatArray


def bitline_leakage_vs_height(cell: SramCell, heights: Sequence[int], *,
                              dvth_n_v: object = 0.0,
                              dvth_p_v: object = 0.0,
                              r_keeper_ohms: float | None = None,
                              solver: str = "batch") -> LeakageVsHeight:
    """Standby (all wordlines low) bitline leakage per array height.

    Every cell stores '0', so each access device leaks the bitline
    into its low node; the ``r_keeper_ohms`` [ohms] keeper supplies
    ``(vdd - v_bl) / r`` [A].
    ``dvth_n_v`` / ``dvth_p_v`` [v] broadcast as variation corners.
    The loading claim: total leakage grows sub-linearly (per-cell
    leakage strictly falls) because the sagging bitline strips each
    access device of drain bias and DIBL.
    """
    validate_solver(solver)
    keeper = (default_keeper_ohms(cell) if r_keeper_ohms is None
              else r_keeper_ohms)
    i_rows = []
    v_rows = []
    for n_rows in heights:
        column = build_column(cell, int(n_rows), stored=0,
                              r_keeper_ohms=keeper)
        result = solve_dc_batch(column.circuit, dvth_n_v=dvth_n_v,
                                dvth_p_v=dvth_p_v,
                                initial=column.seed(), solver=solver)
        v_bl = result["bl"]
        v_rows.append(v_bl)
        i_rows.append((cell.vdd - v_bl) / keeper)
    heights_arr = np.array([int(n) for n in heights])
    i_bl = np.stack(i_rows, axis=0)
    v_bl = np.stack(v_rows, axis=0)
    shape = (len(heights),) + (1,) * (i_bl.ndim - 1)
    per_cell = i_bl / heights_arr.reshape(shape)
    return LeakageVsHeight(heights=tuple(int(n) for n in heights),
                           i_bl_a=i_bl, v_bl=v_bl, per_cell_a=per_cell)


# ---------------------------------------------------------------------------
# read SNM under loading


def _probe_vtc(column: SramColumn, vins: FloatArray, out_node: str,
               solver: str, compiled: CompiledCircuit | None = None
               ) -> FloatArray:
    vdd = column.cell.vdd
    seeds = {node: value for node, value in column.seed().items()
             if node not in (out_node,)}
    seeds[out_node] = vdd - vins
    result = solve_dc_batch(
        column.circuit, stimulus={"vprobe": vins,
                                  f"wl{column.selected_row}": vdd},
        initial=seeds, solver=solver, compiled=compiled)
    return result[out_node]


def loaded_read_snm(cell: SramCell, n_rows: int, *, n_points: int = 33,
                    r_keeper_ohms: float | None = None,
                    solver: str = "batch") -> float:
    """Read SNM [V] of the accessed cell with loaded bitlines.

    The selected row is read (wordline high); the other ``n_rows - 1``
    cells store '1' and hold the floating bitline (behind its
    ``r_keeper_ohms`` [ohms] keeper) near the rail, so the read
    disturb stiffens with height.  Both butterfly lobes are solved as
    batched DC sweeps of a loop-breaking probe source.
    """
    validate_solver(solver)
    if n_points < 8:
        raise ParameterError("need at least 8 VTC points")
    vdd = cell.vdd
    vins = np.linspace(0.0, vdd, n_points)
    stored = [1] * n_rows
    stored[0] = 0
    lobes = []
    for probe, out in (("qb", "q0"), ("q", "qb0")):
        column = build_column(cell, n_rows, stored=stored,
                              selected_row=0, probe=probe,
                              r_keeper_ohms=r_keeper_ohms)
        lobes.append(_probe_vtc(column, vins, out, solver))
    return butterfly_snm((vins, lobes[0]), (vins, lobes[1]),
                         solver=solver)


def read_snm_vs_height(cell: SramCell, heights: Sequence[int], *,
                       n_points: int = 33,
                       r_keeper_ohms: float | None = None,
                       solver: str = "batch"
                       ) -> tuple[FloatArray, FloatArray, float]:
    """Loaded read SNM [V] per array height, plus the pinned-bitline
    limit the degradation approaches (``(heights, snm, snm_pinned)``).
    ``r_keeper_ohms`` [ohms] overrides the bitline keeper.
    """
    snm = np.array([loaded_read_snm(cell, int(n), n_points=n_points,
                                    r_keeper_ohms=r_keeper_ohms,
                                    solver=solver)
                    for n in heights])
    pinned = read_snm(cell, solver=solver)
    return np.array([int(n) for n in heights]), snm, pinned


# ---------------------------------------------------------------------------
# write margins


def _written_row(cell: SramCell, n_rows: int) -> SramColumn:
    """The one-row driven column a write study solves.

    In the driven ``n_rows`` column, ``vbl``, ``vblb``, ``vdd``,
    ground and every ``wl{i}`` are fixed nodes, and the keeper
    resistors join two fixed nodes.  Row i's elements therefore touch
    no unknown but ``q{i}`` and ``qb{i}``: the Jacobian is
    block-diagonal by row, and only the written row's block reaches
    the answer, so the other ``n_rows - 1`` rows are left out.  (A
    full-column solve couples the rows only through Newton's step
    norm, taken over all of a lane's unknowns; the idle rows hold
    still, and tests/test_circuit_sram_array.py finds the full column
    bitwise equal at 2, 4 and 32 rows.)  ``n_rows`` is still
    validated as :func:`build_column` does.
    """
    if n_rows < 1:
        raise ParameterError("need at least one row")
    return build_column(cell, 1, stored=1, drive_bitlines=True)


def _bisection_widths(lo: FloatArray, hi: FloatArray, levels: int
                      ) -> FloatArray:
    """Every width the next ``levels`` bisection levels could probe.

    Shaped ``(2**levels - 1,) + lo.shape`` in heap order: node ``j``'s
    children are ``2j + 1`` (the cell flipped, so the bracket keeps
    its lower half) and ``2j + 2``.  Each width is the search's own
    ``0.5 * (lo + hi)`` on its path's bracket, so it is bitwise the
    width a one-level-per-transient search would probe there.
    """
    brackets = [(lo, hi)]
    widths = []
    for _ in range(levels):
        below = []
        for b_lo, b_hi in brackets:
            mid = 0.5 * (b_lo + b_hi)
            widths.append(mid)
            below += [(b_lo, mid), (mid, b_hi)]
        brackets = below
    return np.stack(widths) if widths else np.empty((0,) + lo.shape)


def _descend(lo: FloatArray, hi: FloatArray, widths: FloatArray,
             flipped: npt.NDArray[np.bool_], levels: int
             ) -> tuple[FloatArray, FloatArray]:
    """Walk ``levels`` bisection levels through probed outcomes.

    Each corner follows its own path through the heap of
    :func:`_bisection_widths`, reading the outcome at every node it
    reaches; nothing assumes the outcome is monotone in width.
    """
    node = np.zeros(np.shape(lo), dtype=np.intp)
    for _ in range(levels):
        mid = np.take_along_axis(widths, node[None], axis=0)[0]
        went = np.take_along_axis(flipped, node[None], axis=0)[0]
        hi = np.where(went, mid, hi)
        lo = np.where(went, lo, mid)
        node = 2 * node + np.where(went, 1, 2)
    return lo, hi


def write_trip_voltage(cell: SramCell, n_rows: int, *,
                       ramp_taus: float = 80.0, n_steps: int = 240,
                       dvth_n_v: object = 0.0, dvth_p_v: object = 0.0,
                       solver: str = "batch") -> FloatArray:
    """Write trip: the bitline voltage [V] at which the accessed cell
    flips as ``vbl`` ramps down from the rail, per variation corner.

    The selected cell stores '1'; the wordline is selected and
    ``vbl`` ramps quasistatically (``ramp_taus`` flip time scales, so
    the tracking lag is ~``vdd / ramp_taus``) from V_dd to 0 while
    ``vblb`` holds high.  A slow ramp follows the held state until
    its basin disappears — the write trip — which sidesteps the
    Newton cycling a cold DC solve suffers exactly at that
    bifurcation (the scalar oracle fails there too).  A higher trip
    voltage means an easier write.  ``dvth_n_v`` / ``dvth_p_v`` [v]
    broadcast as corners; lanes whose cell never flips report
    ``nan``.

    The answer does not depend on ``n_rows`` (>= 1): both bitlines,
    the rail, ground and every wordline are driven, so no other row
    shares an unknown with the written one, and the written row is
    solved alone.
    """
    validate_solver(solver)
    vdd = cell.vdd
    column = _written_row(cell, n_rows)
    t_ramp = ramp_taus * flip_time_scale_s(cell)

    def vbl_ramp(t: float) -> float:
        return vdd * max(0.0, 1.0 - t / t_ramp)

    result = solve_transient_batch(
        column.circuit, t_ramp, t_ramp / n_steps,
        stimulus={"vbl": vbl_ramp, "wl0": vdd},
        dvth_n_v=dvth_n_v, dvth_p_v=dvth_p_v,
        initial=column.seed(), solver=solver)
    t_flip = result.crossing_times("qb0", 0.5 * vdd, rising=True)
    return np.asarray(vdd * (1.0 - t_flip / t_ramp))


def min_write_pulse(cell: SramCell, n_rows: int, *,
                    t_max_s: float | None = None, n_probes: int = 10,
                    n_steps: int = 96, dvth_n_v: object = 0.0,
                    dvth_p_v: object = 0.0, solver: str = "batch"
                    ) -> FloatArray:
    """Minimum wordline pulse width [s] that writes the cell, per
    variation corner — an OpenNVRAM-style binary search over batched
    transients.

    The cell stores '1', the bitline is driven low, and the selected
    wordline pulses high for a per-lane width; a lane succeeds when
    its cell has flipped once the pulse is gone.  ``t_max_s`` [s] is
    the search ceiling, defaulting to 40 flip time scales (lanes that
    cannot flip report ``nan``); ``dvth_n_v`` / ``dvth_p_v`` [v]
    broadcast as corners.  The result is the surviving upper bracket
    after ``n_probes`` bisection levels.

    Resolution: the wordline is sampled only at the backward-Euler
    step ends, ``dt = 1.6 * t_max_s / n_steps``, so every width
    between two step edges gives the same transient.  The answer is
    therefore resolved to one step, not to ``t_max_s / 2**n_probes``:
    where the bisection is finer than ``dt``, it is the first point
    of the dyadic grid above the step edge that first writes the cell.

    The answer does not depend on ``n_rows`` (>= 1), for the reason
    :func:`write_trip_voltage` gives: the written row is solved alone.

    Each transient probes up to three bisection levels: per corner,
    every width those levels could ask for, one lane each (the first
    also carries the ``t_max_s`` ceiling).  It is trusted only when
    its shared step controller rejected no step; otherwise its levels
    are probed again one transient each, as a one-level search would.
    Either way every width and outcome, and so the result, is bitwise
    the one-level-per-transient search's.
    """
    validate_solver(solver)
    if t_max_s is None:
        t_max_s = 40.0 * flip_time_scale_s(cell)
    if t_max_s <= 0.0:
        raise ParameterError("t_max_s must be positive")
    vdd = cell.vdd
    column = _written_row(cell, n_rows)
    compiled = compile_circuit(column.circuit)
    shape = np.broadcast_shapes(np.shape(dvth_n_v), np.shape(dvth_p_v))
    t_start = 0.05 * t_max_s
    t_stop = 1.6 * t_max_s
    dt = t_stop / n_steps

    def probe(widths: FloatArray) -> npt.NDArray[np.bool_] | None:
        """Flipped per lane of ``widths`` (one row per probed width),
        or None when a transient of several widths is not exact."""
        def wordline(t: float) -> FloatArray:
            on = (t >= t_start) & (t < t_start + widths)
            return np.where(on, vdd, 0.0)

        speculative = widths.shape[0] > 1
        try:
            result = solve_transient_batch(
                column.circuit, t_stop, dt,
                stimulus={"wl0": wordline, "vbl": 0.0},
                dvth_n_v=dvth_n_v, dvth_p_v=dvth_p_v,
                initial=column.seed(bl_v=0.0), solver=solver,
                compiled=compiled)
        except ConvergenceError:
            if speculative:
                return None
            raise
        if speculative and result.rejected_steps:
            return None
        return result.voltages["q0"][-1] < 0.5 * vdd

    lo = np.zeros(shape)
    hi = np.full(shape, t_max_s)
    writable = None
    level = 0
    singles = 0  # steps left to probe one transient each
    while writable is None or level < n_probes:
        ceiling = writable is None
        if singles:
            levels = 0 if ceiling else 1
        else:
            levels = min(_LEVELS_PER_TRANSIENT, n_probes - level)
        widths = _bisection_widths(lo, hi, levels)
        if ceiling:
            widths = np.concatenate([hi[None], widths])
        flipped = probe(widths)
        if flipped is None:
            # A rejected step (or a Newton failure at the minimum step)
            # cut the grid for every lane, so one lane may have moved
            # another's outcome: redo these steps (the ceiling, then
            # each level) one transient each.
            singles = int(ceiling) + levels
            continue
        # No step was rejected, so the grid is the fixed one every
        # one-level probe of these levels runs on.  Each lane's
        # arithmetic is then its own: the device kernel is elementwise,
        # the sparse stamps act column by column, the stacked LU
        # factors each lane's matrix alone, and damping, the
        # convergence test and the active set are per lane.  The t = 0
        # hold state does not depend on the width (the pulse starts at
        # 0.05 t_max > 0), so its DC solve raises alike either way.  A
        # one-level probe runs a subset of these lanes on the same
        # grid, so by induction over steps it rejects nothing either,
        # and its outcomes are bitwise the ones read here.
        if ceiling:
            writable, flipped = flipped[0], flipped[1:]
            widths = widths[1:]
        lo, hi = _descend(lo, hi, widths, flipped, levels)
        level += levels
        singles = max(singles - 1, 0)
    return np.asarray(np.where(writable, hi, np.nan))
