"""Energy per cycle and the minimum-energy voltage V_min.

The paper's Eq. 7 testbench: a chain of ``N`` inverters with activity
factor ``alpha``, clocked at its own critical path (``T = N t_p``):

``E_dyn  = N alpha C_L V_dd^2``
``E_leak = N I_leak V_dd T = N I_leak V_dd N t_p``

Sweeping V_dd trades the quadratic dynamic term against the leakage
term, whose exponential delay growth at low V_dd creates the classic
interior minimum at ``V_min`` (refs [17][18]).  The scaling-parameter
factor ``C_L S_S^2`` of Eq. 8 is implemented in
:mod:`repro.scaling.metrics` and validated against these simulations in
the Fig. 6 experiment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from .. import perf
from ..errors import ParameterError
from .delay import K_D_DEFAULT, analytic_delay
from .inverter import Inverter
from .transient import propagation_delay


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy per cycle of an inverter chain at one supply point.

    Attributes
    ----------
    vdd:
        Supply voltage [V].
    dynamic_j / leakage_j:
        The two Eq. 7 components [J].
    cycle_time_s:
        The chain critical path ``N t_p`` used for leakage integration.
    """

    vdd: float
    dynamic_j: float
    leakage_j: float
    cycle_time_s: float

    @property
    def total_j(self) -> float:
        """Total energy per cycle [J]."""
        return self.dynamic_j + self.leakage_j

    @property
    def leakage_fraction(self) -> float:
        """E_leak / E_total (0..1)."""
        return self.leakage_j / self.total_j


def chain_energy_per_cycle(inverter: Inverter, n_stages: int = 30,
                           activity: float = 0.1, transient: bool = False,
                           k_d: float = K_D_DEFAULT) -> EnergyBreakdown:
    """Energy per cycle of an ``n_stages`` chain at the inverter's V_dd.

    Parameters
    ----------
    inverter:
        The unit stage (each stage drives the next: FO1 loading).
    n_stages:
        Chain length; the paper uses 30.
    activity:
        Switching activity factor alpha; the paper uses 0.1.
    transient:
        When true the stage delay comes from transient simulation
        instead of the Eq. 4 analytic form (slower, used by the
        headline experiments).
    """
    if n_stages < 1:
        raise ParameterError("need at least one stage")
    if not 0.0 <= activity <= 1.0:
        raise ParameterError("activity factor must be in [0, 1]")
    vdd = inverter.vdd
    c_load = inverter.load_capacitance(fanout=1)
    if transient:
        t_p = propagation_delay(inverter, c_load)
    else:
        t_p = analytic_delay(inverter, c_load, k_d)
    cycle = n_stages * t_p
    dynamic = n_stages * activity * c_load * vdd ** 2
    leakage = n_stages * inverter.leakage_current() * vdd * cycle
    return EnergyBreakdown(vdd=vdd, dynamic_j=dynamic, leakage_j=leakage,
                           cycle_time_s=cycle)


def chain_energy_sweep(inverter: Inverter, vdd_grid,
                       n_stages: int = 30, activity: float = 0.1,
                       k_d: float = K_D_DEFAULT) -> np.ndarray:
    """Total Eq. 7 energy per cycle over a whole V_dd grid [J].

    Vectorised equivalent of calling ``chain_energy_per_cycle`` (with
    the analytic delay) at each grid point: the bias-dependent load
    capacitance, on-currents and leakage are all evaluated as arrays,
    so the Fig. 6 V_min bracket sweep costs a handful of vector ops
    instead of ``n_grid`` scalar rebuild-and-solve rounds.
    """
    if n_stages < 1:
        raise ParameterError("need at least one stage")
    if not 0.0 <= activity <= 1.0:
        raise ParameterError("activity factor must be in [0, 1]")
    if k_d <= 0.0:
        raise ParameterError("k_d must be positive")
    vdd = np.asarray(vdd_grid, dtype=float)
    if np.any(vdd <= 0.0):
        raise ParameterError("vdd must be positive")
    nfet, pfet = inverter.nfet, inverter.pfet
    c_load, cycle = _load_and_cycle(inverter, vdd, n_stages, k_d)
    i_leak = 0.5 * (nfet.ids(np.zeros_like(vdd), vdd)
                    + pfet.ids(np.zeros_like(vdd), vdd))
    dynamic = n_stages * activity * c_load * vdd ** 2
    leakage = n_stages * i_leak * vdd * cycle
    perf.bump("circuit.energy_sweep_points", int(vdd.size))
    return dynamic + leakage


def _load_and_cycle(inverter: Inverter, vdd: np.ndarray, n_stages: int,
                    k_d: float) -> tuple[np.ndarray, np.ndarray]:
    """FO1 load and chain cycle time ``N t_p`` over a V_dd array.

    The vectorised Eq. 4 kernel shared by :func:`chain_energy_sweep`
    and the DVS throughput solves (:mod:`repro.circuit.dvs`) — the same
    load/on-current expressions as the scalar
    :meth:`InverterChain.critical_path` path, evaluated arraywise.
    """
    nfet, pfet = inverter.nfet, inverter.pfet
    c_in = (nfet.capacitance.c_gate_effective(
                vdd, nfet.iv.vth(vdd), nfet.slope_factor)
            + pfet.capacitance.c_gate_effective(
                vdd, pfet.iv.vth(vdd), pfet.slope_factor))
    c_out = nfet.capacitance.c_drain() + pfet.capacitance.c_drain()
    c_load = 1 * c_in + c_out
    i_on = 0.5 * (nfet.ids(vdd, vdd) + pfet.ids(vdd, vdd))
    t_p = k_d * c_load * vdd / i_on
    return c_load, n_stages * t_p


@dataclass(frozen=True)
class VminResult:
    """Minimum-energy operating point of an inverter chain.

    Attributes
    ----------
    vmin:
        The energy-optimal supply [V].
    energy:
        The energy breakdown at ``vmin``.
    vdd_grid / energy_grid_j:
        The sweep used to bracket the minimum (for plotting Fig. 6/12).
    """

    vmin: float
    energy: EnergyBreakdown
    vdd_grid: np.ndarray
    energy_grid_j: np.ndarray


def find_vmin(inverter: Inverter, n_stages: int = 30, activity: float = 0.1,
              vdd_lo: float = 0.08, vdd_hi: float = 0.70,
              n_grid: int = 33, transient: bool = False,
              k_d: float = K_D_DEFAULT) -> VminResult:
    """Locate the minimum-energy supply voltage V_min.

    A coarse geometric grid brackets the minimum, then bounded scalar
    minimisation refines it.  Raises :class:`ParameterError` when the
    minimum sits on the sweep boundary (no interior V_min in range).

    The bracketing grid is one :func:`chain_energy_sweep` array
    evaluation, except under a transient delay model, which has no
    vectorised form and sweeps the grid point by point.
    """
    if not 0.0 < vdd_lo < vdd_hi:
        raise ParameterError("need 0 < vdd_lo < vdd_hi")

    def total(vdd: float) -> float:
        return chain_energy_per_cycle(
            inverter.with_vdd(vdd), n_stages, activity,
            transient=transient, k_d=k_d,
        ).total_j

    grid = np.geomspace(vdd_lo, vdd_hi, n_grid)
    if transient:
        energies = np.array([total(float(v)) for v in grid])
    else:
        energies = chain_energy_sweep(inverter, grid, n_stages, activity,
                                      k_d=k_d)
    idx = int(np.argmin(energies))
    if idx == 0 or idx == n_grid - 1:
        raise ParameterError(
            f"energy minimum at sweep boundary (V_dd = {grid[idx]:.3f} V); "
            "widen [vdd_lo, vdd_hi]"
        )
    result = minimize_scalar(total, bounds=(float(grid[idx - 1]),
                                            float(grid[idx + 1])),
                             method="bounded",
                             options={"xatol": 1e-4})
    vmin = float(result.x)
    breakdown = chain_energy_per_cycle(inverter.with_vdd(vmin), n_stages,
                                       activity, transient=transient, k_d=k_d)
    return VminResult(vmin=vmin, energy=breakdown, vdd_grid=grid,
                      energy_grid_j=energies)
