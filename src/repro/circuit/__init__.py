"""Circuit layer: inverters, chains, noise margins, delay and energy.

The paper's circuit evidence is built from CMOS inverters: a single
inverter for static noise margins (Fig. 4/10), an FO1-loaded inverter
for delay (Fig. 5/11), and a 30-stage inverter chain with activity
factor 0.1 for energy and V_min (Fig. 6/12).  This package implements
those testbenches on top of the compact device models, plus SRAM,
gate-netlist and DVS extensions.
"""

from .batch import (
    BatchNoiseMargins,
    LOST_REGENERATION_MESSAGES,
    gain_batch,
    lost_regeneration_error,
    noise_margins_batch,
    solve_balance_batch,
    solve_vtc_batch,
)
from .inverter import Inverter
from .snm import NoiseMargins, noise_margins, butterfly_snm
from .delay import DelayResult, fo1_delay, analytic_delay, analytic_delay_batch
from .energy import (
    EnergyBreakdown,
    VminResult,
    chain_energy_per_cycle,
    chain_energy_sweep,
    find_vmin,
)
from .chain import InverterChain
from .sram import SramCell, hold_snm, read_snm
from .netlist import Circuit, GROUND
from .mna import NodalSolver, DCResult, TransientResult
from .analytic_vtc import vin_of_vout_matched, analytic_snm_matched
from .dvs import energy_per_cycle_at_throughput, dvs_range

__all__ = [
    "BatchNoiseMargins",
    "LOST_REGENERATION_MESSAGES",
    "gain_batch",
    "lost_regeneration_error",
    "noise_margins_batch",
    "solve_balance_batch",
    "solve_vtc_batch",
    "Inverter",
    "NoiseMargins",
    "noise_margins",
    "butterfly_snm",
    "DelayResult",
    "fo1_delay",
    "analytic_delay",
    "analytic_delay_batch",
    "EnergyBreakdown",
    "chain_energy_per_cycle",
    "chain_energy_sweep",
    "find_vmin",
    "VminResult",
    "InverterChain",
    "SramCell",
    "hold_snm",
    "read_snm",
    "Circuit",
    "GROUND",
    "NodalSolver",
    "DCResult",
    "TransientResult",
    "vin_of_vout_matched",
    "analytic_snm_matched",
    "energy_per_cycle_at_throughput",
    "dvs_range",
]
