"""The 30-stage inverter chain testbench (paper Figs. 6 and 12)."""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ParameterError
from .delay import K_D_DEFAULT, analytic_delay
from .energy import EnergyBreakdown, VminResult, chain_energy_per_cycle, find_vmin
from .inverter import Inverter
from .transient import propagation_delay


@dataclass(frozen=True)
class InverterChain:
    """A homogeneous chain of identical FO1-loaded inverters.

    Parameters
    ----------
    stage:
        The unit inverter (defines devices and V_dd).
    n_stages:
        Chain length (the paper's figure uses 30).
    activity:
        Switching activity factor alpha (the paper uses 0.1).
    """

    stage: Inverter
    n_stages: int = 30
    activity: float = 0.1

    def __post_init__(self) -> None:
        if self.n_stages < 1:
            raise ParameterError("chain needs at least one stage")
        if not 0.0 <= self.activity <= 1.0:
            raise ParameterError("activity must be in [0, 1]")

    @property
    def vdd(self) -> float:
        """Chain supply voltage [V]."""
        return self.stage.vdd

    def stage_delay(self, transient: bool = False,
                    k_d: float = K_D_DEFAULT) -> float:
        """Per-stage FO1 delay [s]."""
        c_load = self.stage.load_capacitance(fanout=1)
        if transient:
            return propagation_delay(self.stage, c_load)
        return analytic_delay(self.stage, c_load, k_d)

    def critical_path(self, transient: bool = False,
                      k_d: float = K_D_DEFAULT) -> float:
        """End-to-end chain delay ``N t_p`` [s]."""
        return self.n_stages * self.stage_delay(transient, k_d)

    def energy_per_cycle(self, transient: bool = False,
                         k_d: float = K_D_DEFAULT) -> EnergyBreakdown:
        """Energy per cycle at the current V_dd."""
        return chain_energy_per_cycle(self.stage, self.n_stages,
                                      self.activity, transient=transient,
                                      k_d=k_d)

    def minimum_energy_point(self, transient: bool = False,
                             vdd_lo: float = 0.08, vdd_hi: float = 0.70,
                             k_d: float = K_D_DEFAULT) -> VminResult:
        """V_min and the energy there (the Fig. 6/12 measurement)."""
        return find_vmin(self.stage, self.n_stages, self.activity,
                         vdd_lo=vdd_lo, vdd_hi=vdd_hi,
                         transient=transient, k_d=k_d)

    def at_vdd(self, vdd: float) -> "InverterChain":
        """Copy of this chain re-biased to a different supply."""
        return InverterChain(stage=self.stage.with_vdd(vdd),
                             n_stages=self.n_stages, activity=self.activity)
