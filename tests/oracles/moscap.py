"""Quasi-static MOS C-V simulation: the test oracle for gate capacitance.

The low-frequency gate capacitance is the derivative of the total
semiconductor sheet charge with respect to gate voltage, in series with
nothing (the oxide is included through the boundary condition).  This
module computes C_gg(V_g) numerically from the Poisson solver and is
the numeric ground truth that ``tests/test_tcad_moscap.py`` holds the
compact model's *weak-inversion capacitance collapse* against — the
effect that makes the sub-V_th strategy's longer gates cheap (see
:meth:`repro.device.capacitance.CapacitanceModel.c_gate_weak`) and
therefore underpins the Fig. 12 energy result.  No experiment calls it,
so it lives with the tests rather than in the library.

The classic low-frequency C-V shape emerges: accumulation at C_ox,
a depletion minimum, and recovery to C_ox in strong inversion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ParameterError
from repro.tcad.charge import sheet_charges
from repro.tcad.simulator import DeviceSimulator


@dataclass(frozen=True)
class CVCurve:
    """A quasi-static C-V characteristic.

    Attributes
    ----------
    vg:
        Gate voltages [V].
    c_gg_per_area:
        Gate capacitance per area [F/cm^2].
    c_ox_per_area:
        The oxide capacitance bound [F/cm^2].
    """

    vg: np.ndarray
    c_gg_per_area: np.ndarray
    c_ox_per_area: float

    def minimum(self) -> tuple[float, float]:
        """(V_g, C) at the depletion minimum."""
        idx = int(np.argmin(self.c_gg_per_area))
        return float(self.vg[idx]), float(self.c_gg_per_area[idx])

    def at(self, vg: float) -> float:
        """Interpolated capacitance at ``vg`` [F/cm^2]."""
        return float(np.interp(vg, self.vg, self.c_gg_per_area))


def simulate_cv(simulator: DeviceSimulator, vg_lo: float, vg_hi: float,
                n_points: int = 61) -> CVCurve:
    """Quasi-static C-V by charge differentiation.

    ``C_gg = dQ_s/dV_g`` with ``Q_s`` the total (inversion + depletion)
    semiconductor sheet charge from the converged Poisson solution at
    each bias.  Low-frequency limit: minority carriers follow the gate.
    """
    if vg_hi <= vg_lo:
        raise ParameterError("need vg_hi > vg_lo")
    if n_points < 9:
        raise ParameterError("need at least 9 C-V points")
    vg = np.linspace(vg_lo, vg_hi, n_points)
    q_total = np.empty_like(vg)
    warm = None
    for i, v in enumerate(vg):
        sol = simulator.solve(float(v), initial_psi=warm)
        warm = sol.psi_v
        q_total[i] = sheet_charges(sol).total
    c_gg = np.gradient(q_total, vg)
    c_ox = simulator.device.stack.capacitance_per_area
    # Numerical differentiation of a monotone charge: clip tiny
    # negative noise at the flat ends.
    c_gg = np.clip(c_gg, 0.0, None)
    return CVCurve(vg=vg, c_gg_per_area=c_gg, c_ox_per_area=c_ox)


def weak_inversion_capacitance_ratio(simulator: DeviceSimulator) -> float:
    """Numeric ``C_gg(weak inversion) / C_ox`` for the bound device.

    Evaluated midway between the depletion minimum and threshold; this
    is the quantity the compact model approximates as ``(m-1)/m`` and
    the sub-V_th energy argument rides on.
    """
    dev = simulator.device
    vth0 = dev.threshold.vth0()
    curve = simulate_cv(simulator, vth0 - 0.5, vth0 + 0.4, n_points=46)
    return curve.at(vth0 - 0.15) / curve.c_ox_per_area


def compare_with_compact(simulator: DeviceSimulator) -> dict[str, float]:
    """Numeric vs compact weak-inversion intrinsic-capacitance ratio.

    The compact model uses ``(m-1)/m`` for the intrinsic area term; the
    numeric value is the C-V curve in weak inversion.  Returns both and
    their relative difference.
    """
    numeric = weak_inversion_capacitance_ratio(simulator)
    m = simulator.device.slope_factor
    compact = (m - 1.0) / m
    return {
        "numeric_ratio": numeric,
        "compact_ratio": compact,
        "relative_difference": abs(numeric - compact) / compact,
    }
