"""The proposed sub-V_th scaling flow (paper Section 3).

Per node the strategy keeps ``T_ox`` on the industrial 10 %/generation
trajectory and the junction/overlap parasitics on the 30 %/generation
node trajectory, pins ``I_off`` at 100 pA/µm across all generations,
and then co-optimises the gate length and doping profile:

* **doping, given a length** (:func:`optimize_doping_for_length`) —
  among all (N_sub, N_p,halo) pairs that meet the I_off target at this
  L_poly, pick the one with minimum S_S.  This is the paper's Fig. 7
  observation: at long channels the halo only hurts the slope, so the
  optimum backs the halo off as the channel lengthens.
* **length** (:class:`SubVthOptimizer`) — sweep L_poly and select the
  minimum of the energy factor ``C_L S_S^2`` (Eq. 8); the delay factor
  ``C_L S_S`` minimum is so shallow that the energy-optimal length
  costs almost nothing in speed (the paper's Fig. 8 argument).

The result reproduces Table 3: longer, slower-scaling gate lengths,
reduced doping, and an S_S that stays ~80 mV/dec down to 32nm.

The batched flow runs in lock-step (:func:`optimize_sub_vth_stack`):
every optimiser's length sweep is one stacked root-solve and every
refinement a second one, whatever the number of nodes or calibrations.
The single-problem entry points are its one-problem case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.optimize import brentq

from .. import perf
from ..circuit.inverter import Inverter
from ..device.mosfet import MOSFET, Polarity, nfet as build_nfet, pfet as build_pfet
from ..errors import OptimizationError
from . import batch as batch_mod
from .batch import Calibration, DopingSolveRequest
from .roadmap import NodeSpec, roadmap_nodes, sub_vth_ioff_target
from .strategy import DeviceDesign, DeviceFamily
from .supervth import N_SUB_BOUNDS, PFET_WIDTH_RATIO

#: Halo-to-substrate peak ratios scanned during doping optimisation.
HALO_RATIO_GRID: tuple[float, ...] = (0.0, 0.25, 0.5, 1.0, 1.5, 2.25)
#: L_poly search range as multiples of the node's super-V_th L_poly.
LENGTH_RANGE: tuple[float, float] = (1.0, 3.2)
#: Supply used to evaluate/report sub-V_th designs [V].
SUB_VTH_EVAL_VDD: float = 0.30
#: The energy-factor landscape is extremely shallow around its minimum
#: (the paper makes the same observation for the delay factor).  Within
#: this relative tolerance of the minimum, the optimiser prefers the
#: *longest* gate — the flattest-S_S design — at negligible energy cost.
FLATNESS_TOLERANCE: float = 0.02
#: S_S near-ties during doping selection (relative) are broken toward
#: lower substrate doping, which minimises junction capacitance.
SS_TIE_TOLERANCE: float = 0.005


def _builder(polarity: Polarity):
    return build_nfet if polarity is Polarity.NFET else build_pfet


def _solve_substrate_for_ioff(node: NodeSpec, l_poly_nm: float,
                              halo_ratio: float, ioff_target: float,
                              polarity: Polarity, width_um: float,
                              vdd_leak: float) -> MOSFET | None:
    """Find N_sub (with N_p,halo = ratio * N_sub) meeting the I_off target.

    Returns ``None`` when no root exists in the doping bounds (that
    halo ratio cannot meet the target at this length).
    """
    build = _builder(polarity)

    def device(n_sub: float) -> MOSFET:
        return build(
            l_poly_nm=l_poly_nm,
            t_ox_nm=node.t_ox_nm,
            n_sub_cm3=n_sub,
            n_p_halo_cm3=halo_ratio * n_sub,
            width_um=width_um,
            reference_nm=node.l_poly_nm,
        )

    evaluated: dict[float, MOSFET] = {}

    def residual(log_n: float) -> float:
        perf.bump("optimizer.brentq_residual_evals")
        dev = device(10.0 ** log_n)
        evaluated[log_n] = dev
        return math.log(dev.i_off_per_um(vdd_leak) / ioff_target)

    lo, hi = (math.log10(b) for b in N_SUB_BOUNDS)
    if residual(lo) < 0.0 or residual(hi) > 0.0:
        return None
    log_n = brentq(residual, lo, hi, xtol=1e-12)
    # brentq's last evaluation is at the root it returns: reuse that
    # device instead of re-running the doping self-consistency solve.
    dev = evaluated.get(log_n)
    return device(10.0 ** log_n) if dev is None else dev


def optimize_doping_for_length(node: NodeSpec, l_poly_nm: float,
                               ioff_target: float | None = None,
                               polarity: Polarity = Polarity.NFET,
                               width_um: float = 1.0,
                               vdd_leak: float | None = None) -> MOSFET:
    """Minimum-S_S doping meeting the I_off target at a given gate length.

    This is the per-length doping co-optimisation behind the paper's
    Fig. 7 "optimized doping" curve and the inner loop of the sub-V_th
    strategy.  The halo-ratio grid runs as one masked vectorised
    root-solve.

    Parameters
    ----------
    node:
        Node inputs (sets T_ox and the parasitic scale).
    l_poly_nm:
        Candidate gate length.
    ioff_target:
        Leakage target [A/µm]; defaults to the strategy's 100 pA/µm.
    vdd_leak:
        Drain bias for the leakage measurement; defaults to the node's
        nominal V_dd (leakage budgets are specified at full rail even
        for devices destined for sub-V_th use).
    """
    return optimize_doping_for_lengths(
        node, [l_poly_nm], ioff_target, polarity, width_um, vdd_leak)[0]


def optimize_doping_for_lengths(node: NodeSpec, lengths_nm,
                                ioff_target: float | None = None,
                                polarity: Polarity = Polarity.NFET,
                                width_um: float = 1.0,
                                vdd_leak: float | None = None
                                ) -> list[MOSFET]:
    """:func:`optimize_doping_for_length` over a length grid, in lock-step.

    One masked root-solve covers every length ``lengths_nm`` [nm]
    x halo ratio; lane for lane it is the one-length solve, so each
    returned device is bitwise the one a per-length call returns.
    Raises :class:`~repro.errors.OptimizationError` for the first
    length with no feasible doping.
    """
    target = sub_vth_ioff_target(node) if ioff_target is None else ioff_target
    bias = node.vdd_nominal if vdd_leak is None else vdd_leak
    groups = [DopingSolveRequest(node=node, l_poly_nm=float(l_poly),
                                 polarity=polarity, width_um=width_um,
                                 ioff_target=target, vdd_leak=bias)
              for l_poly in lengths_nm]
    return batch_mod.optimize_doping_groups(groups, HALO_RATIO_GRID,
                                            SS_TIE_TOLERANCE)


#: One evaluated length: ``(l_poly_nm, design, energy_factor)``.
Row = tuple[float, DeviceDesign, float]


@dataclass(frozen=True)
class SubVthOptimizer:
    """Finds the energy-optimal gate length for one node.

    The figure of merit is the Eq. 8 energy factor ``C_L S_S^2`` with
    ``C_L`` the FO1 load of a symmetric inverter built from the
    per-length doping-optimised NFET/PFET pair.

    ``calibration`` is not an argument: it records the calibrated
    device constants in force when the optimiser is made, and the
    optimiser solves under them.  So optimisers made inside different
    calibration scopes stack in one :func:`optimize_sub_vth_stack`
    call, and an optimiser made outside a scope ignores a scope entered
    later.  The batch entry points (:meth:`optimize`, :meth:`sweep`,
    :meth:`design_for_length`, :meth:`designs_for_lengths`) are that
    lock-step flow's one-problem case.
    """

    node: NodeSpec
    ioff_target: float | None = None
    pfet_width_um: float = PFET_WIDTH_RATIO
    n_length_points: int = 9
    calibration: Calibration = field(default_factory=Calibration.current,
                                     init=False)

    def design_for_length(self, l_poly_nm: float) -> DeviceDesign:
        """Doping-optimised device pair at one candidate length.

        The leakage target is enforced at the sub-V_th operating bias
        (``SUB_VTH_EVAL_VDD``) rather than at the nominal rail: a
        technology aimed at sub-V_th use specs I_off where it runs.
        This pins the 250 mV drive current across generations, which is
        what gives the strategy its graceful delay scaling (Fig. 11).
        """
        return self.designs_for_lengths([l_poly_nm])[0]

    def designs_for_lengths(self, lengths_nm) -> list[DeviceDesign]:
        """:meth:`design_for_length` over a length grid, in lock-step.

        One stacked root-solve covers every length; each design is
        bitwise the one a per-length call returns.
        """
        rows = _unwrap(_rows_stack([(self, lengths_nm)])[0])
        return [row[1] for row in rows]

    def energy_factor(self, design: DeviceDesign) -> float:
        """``C_L S_S^2`` for one candidate design (arbitrary units)."""
        c_load = design.load_capacitance()
        ss = design.nfet.ss_v_per_dec
        return c_load * ss ** 2

    def delay_factor(self, design: DeviceDesign) -> float:
        """``C_L S_S`` (constant-I_off delay factor, Eq. 6)."""
        c_load = design.load_capacitance()
        return c_load * design.nfet.ss_v_per_dec

    def _target(self) -> float:
        return (sub_vth_ioff_target(self.node)
                if self.ioff_target is None else self.ioff_target)

    def _pair_groups(self, l_poly_nm: float) -> list[DopingSolveRequest]:
        """The NFET and PFET doping groups at one length."""
        return [
            DopingSolveRequest(
                node=self.node, l_poly_nm=l_poly_nm, polarity=polarity,
                width_um=width, ioff_target=self._target(),
                vdd_leak=SUB_VTH_EVAL_VDD, calibration=self.calibration)
            for polarity, width in ((Polarity.NFET, 1.0),
                                    (Polarity.PFET, self.pfet_width_um))
        ]

    def _row(self, l_poly_nm: float, nfet: MOSFET, pfet: MOSFET) -> Row:
        design = DeviceDesign(node=self.node, nfet=nfet, pfet=pfet,
                              strategy="sub-vth", vdd=SUB_VTH_EVAL_VDD)
        return (l_poly_nm, design, self.energy_factor(design))

    def _sweep_lengths(self) -> np.ndarray:
        return np.linspace(self.node.l_poly_nm * LENGTH_RANGE[0],
                           self.node.l_poly_nm * LENGTH_RANGE[1],
                           self.n_length_points)

    def sweep(self) -> list[Row]:
        """Evaluate the length grid: ``(l_poly_nm, design, energy_factor)``."""
        return _unwrap(_rows_stack([(self, self._sweep_lengths())])[0])

    def optimize(self) -> DeviceDesign:
        """Grid search with a flatness-aware selection rule.

        The energy-factor landscape is extremely shallow around its
        minimum (the paper's Fig. 8 observation), so among all grid
        points within :data:`FLATNESS_TOLERANCE` of the minimum the
        *longest* gate is selected: it has the flattest S_S at
        negligible energy cost — the same argument the paper uses to
        pick the energy-optimal length over the delay-optimal one.
        A second, local grid refines the choice.
        """
        return optimize_sub_vth_stack([self])[0]

    def _edge_error(self, rows: list[Row],
                    chosen: Row) -> OptimizationError | None:
        """The refusal to return an edge design, if ``chosen`` is one."""
        if chosen[0] == rows[-1][0] and len(rows) > 1:
            return OptimizationError(
                f"{self.node.name}: energy factor still flat/falling at "
                f"{rows[-1][0]:.0f} nm; widen LENGTH_RANGE"
            )
        return None

    @staticmethod
    def _refine_lengths(rows: list[Row], chosen: Row) -> np.ndarray | None:
        """The local refinement grid around the chosen length (None when
        the sweep has a single point)."""
        step = rows[1][0] - rows[0][0] if len(rows) > 1 else 0.0
        if step <= 0.0:
            return None
        lo = max(chosen[0] - step, rows[0][0])
        hi = min(chosen[0] + step, rows[-1][0])
        return np.linspace(lo, hi, 7)

    @staticmethod
    def _select(rows: list[Row], reference: list[Row] | None = None) -> Row:
        """Longest-length row whose energy factor is within tolerance of the min.

        The minimum is taken over ``rows`` plus the optional
        ``reference`` grid so local refinement cannot drift away from
        the global floor.  Returns the winning row itself so the caller
        never has to re-find a design by float comparison on length.
        """
        pool = rows if reference is None else rows + reference
        floor = min(r[2] for r in pool)
        eligible = [r for r in rows if r[2] <= floor * (1.0 + FLATNESS_TOLERANCE)]
        if not eligible:
            eligible = [min(rows, key=lambda r: r[2])]
        return max(eligible, key=lambda r: r[0])


def _unwrap(rows: list[Row] | OptimizationError) -> list[Row]:
    if isinstance(rows, OptimizationError):
        raise rows
    return rows


def _rows_stack(problems: Sequence[tuple[SubVthOptimizer, Sequence[float]]]
                ) -> list[list[Row] | OptimizationError]:
    """Rows for every ``(optimizer, lengths)`` problem in one root-solve.

    The ``problems x lengths x polarity x halo-ratio`` candidates stack
    on the lane axis.  Each problem gets its rows, or the
    :class:`~repro.errors.OptimizationError` its one-problem solve
    raises (its first length/polarity with no feasible doping).
    Designs and energy factors are evaluated inside each optimiser's
    calibration scope, as its one-problem flow would.
    """
    if not problems:
        return []
    lengths = [[float(l) for l in grid] for _opt, grid in problems]
    groups = [group for (opt, _grid), grid in zip(problems, lengths)
              for l_poly in grid for group in opt._pair_groups(l_poly)]
    try:
        winners = batch_mod.optimize_doping_groups(groups, HALO_RATIO_GRID,
                                                   SS_TIE_TOLERANCE)
    except OptimizationError as err:
        if len(problems) == 1:
            return [err]
        # Some problem has no feasible doping: solve each alone, as its
        # one-problem flow would, to find which.
        out: list[list[Row] | OptimizationError] = []
        for problem in problems:
            out += _rows_stack([problem])
        return out
    rows: list[list[Row] | OptimizationError] = []
    start = 0
    for (opt, _grid), grid in zip(problems, lengths):
        mine = winners[start:start + 2 * len(grid)]
        start += 2 * len(grid)
        with opt.calibration.scope():
            rows.append([opt._row(l_poly, mine[2 * i], mine[2 * i + 1])
                         for i, l_poly in enumerate(grid)])
    return rows


def optimize_sub_vth_stack(optimizers: Sequence[SubVthOptimizer]
                           ) -> list[DeviceDesign]:
    """Run :meth:`SubVthOptimizer.optimize` for many optimisers in lock-step.

    Every optimiser's length sweep is one stacked root-solve and every
    refinement grid a second one, so a family costs two solves however
    many nodes — or calibrations — it spans.  Every lane solves cold,
    so every design is bitwise the one a per-optimiser loop returns.
    Errors follow that loop too: problem ``i`` runs sweep, edge check
    and refinement before problem ``i+1``, so an earlier problem's
    refinement failure outranks a later problem's sweep failure.
    """
    sweeps = _rows_stack([(opt, opt._sweep_lengths()) for opt in optimizers])
    chosen: list[Row] = []
    first_error: OptimizationError | None = None
    for opt, rows in zip(optimizers, sweeps):
        if isinstance(rows, OptimizationError):
            first_error = rows
            break
        pick = opt._select(rows)
        first_error = opt._edge_error(rows, pick)
        if first_error is not None:
            break
        chosen.append(pick)

    # Refine the problems before the first error, in one more solve.
    local_grids = [SubVthOptimizer._refine_lengths(rows, pick)
                   for rows, pick in zip(sweeps, chosen)]
    refine = [(i, grid) for i, grid in enumerate(local_grids)
              if grid is not None]
    locals_ = _rows_stack([(optimizers[i], grid) for i, grid in refine])
    for (i, _grid), local in zip(refine, locals_):
        chosen[i] = optimizers[i]._select(_unwrap(local), sweeps[i])
    if first_error is not None:
        raise first_error
    return [row[1] for row in chosen]


def build_sub_vth_family(include_130nm: bool = False,
                         ioff_target: float | None = None) -> DeviceFamily:
    """The paper's Table 3 device family.

    Each node's design uses the energy-optimal gate length and the
    minimum-S_S doping at the fixed 100 pA/µm leakage target.  The
    batched flow optimises every node in lock-step
    (:func:`optimize_sub_vth_stack`: two stacked root-solves).
    """
    optimizers = [SubVthOptimizer(node, ioff_target=ioff_target)
                  for node in roadmap_nodes(include_130nm)]
    designs = optimize_sub_vth_stack(optimizers)
    return DeviceFamily(strategy="sub-vth", designs=tuple(designs))
