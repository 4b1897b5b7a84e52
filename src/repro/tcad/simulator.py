"""DeviceSimulator — the top-level MEDICI-replacement API.

Given a :class:`repro.device.mosfet.MOSFET`, the simulator:

1. builds a vertical mesh and the halo-augmented vertical doping cut,
2. solves the nonlinear 1-D Poisson equation at each gate bias (warm-
   started sweeps) for source-end and drain-end inversion charges,
3. assembles the drain current from the charge-sheet expression

   ``I_d = (W/L_eff) mu [ v_T (Q_s - Q_d) + (Q_s^2 - Q_d^2)/(2 m C_ox) ]``

   which is exact in weak inversion (diffusion) and reduces to the
   square law in strong inversion (drift), and
4. injects short-channel behaviour through the quasi-2-D V_th shift and
   swing-degradation factor.

The result is an :class:`repro.tcad.extract.IdVgCurve` that downstream
extraction treats exactly like a MEDICI output deck.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..constants import thermal_voltage
from ..device.mosfet import MOSFET
from ..device.electrostatics import flatband_voltage
from ..errors import ParameterError
from .charge import sheet_charges_batch
from .extract import IdVgCurve, extract_ss, extract_vth_constant_current
from .grid import Mesh1D
from .poisson1d import (
    BatchPoissonSolution,
    PoissonSolution,
    solve_mos_poisson,
    solve_mos_poisson_batch,
)
from .quasi2d import sce_vth_shift, slope_degradation_factor


@dataclass
class DeviceSimulator:
    """Numerical simulator bound to one device.

    Parameters
    ----------
    device:
        The MOSFET to simulate.
    n_nodes:
        Vertical mesh nodes; 161 keeps charges accurate to <1 %.
    depth_factor:
        Mesh depth as a multiple of the zero-order depletion width.

    Every gate bias of a sweep runs through the vectorised batch
    kernel.  The warm-started bias-by-bias loop it replaced is the
    correctness oracle in ``tests/oracles/tcad.py``; both converge to
    the same fixed points, so extracted metrics agree to solver
    tolerance.
    """

    device: MOSFET
    n_nodes: int = 161
    depth_factor: float = 6.0

    _mesh: Mesh1D = field(init=False, repr=False, default=None)
    _doping: np.ndarray = field(init=False, repr=False, default=None)
    _vfb: float = field(init=False, repr=False, default=0.0)

    def __post_init__(self) -> None:
        if self.n_nodes < 21:
            raise ParameterError("need at least 21 mesh nodes")
        dev = self.device
        w_dep = dev.iv.w_dep_cm
        halo_reach = 0.0
        if dev.profile.halo is not None:
            halo_reach = (dev.profile.halo.depth_cm
                          + 3.0 * dev.profile.halo.sigma_y_cm)
        depth = max(self.depth_factor * w_dep, 2.0 * halo_reach, 5.0e-6)
        self._mesh = Mesh1D.geometric(depth, n_nodes=self.n_nodes)
        self._doping = dev.profile.vertical_profile(
            self._mesh.nodes_cm, dev.geometry.l_eff_cm
        )
        self._vfb = flatband_voltage(float(self._doping[-1]),
                                     dev.temperature_k)

    # -- raw vertical solves ---------------------------------------------------

    def solve(self, vg: float, channel_potential_v: float = 0.0,
              initial_psi: np.ndarray | None = None) -> PoissonSolution:
        """Solve the vertical Poisson problem at one gate bias, with
        quasi-Fermi shift ``channel_potential_v`` [V]."""
        return solve_mos_poisson(
            self._mesh, self._doping, self.device.stack, vg, self._vfb,
            temperature_k=self.device.temperature_k,
            initial_psi=initial_psi,
            channel_potential_v=channel_potential_v,
        )

    def solve_batch(self, vgs_grid: np.ndarray,
                    channel_potential_v: float | np.ndarray = 0.0
                    ) -> BatchPoissonSolution:
        """Solve the vertical Poisson problem at every bias in one
        batch, with quasi-Fermi shift ``channel_potential_v`` [V]."""
        return solve_mos_poisson_batch(
            self._mesh, self._doping, self.device.stack,
            np.asarray(vgs_grid, dtype=float), self._vfb,
            temperature_k=self.device.temperature_k,
            channel_potential_v=channel_potential_v,
        )

    def surface_potential_sweep(self, vgs_grid: np.ndarray,
                                channel_potential_v: float | np.ndarray = 0.0
                                ) -> np.ndarray:
        """Surface potential psi_s at each gate voltage, with
        quasi-Fermi shift ``channel_potential_v`` [V] (one value, or
        one per gate voltage)."""
        batch = self.solve_batch(vgs_grid, channel_potential_v)
        return batch.surface_potential_v

    def inversion_charge_sweep(self, vgs_grid: np.ndarray,
                               channel_potential_v: float | np.ndarray = 0.0
                               ) -> np.ndarray:
        """Inversion sheet charge [C/cm2] at each gate voltage, with
        quasi-Fermi shift ``channel_potential_v`` [V] (one value, or
        one per gate voltage)."""
        batch = self.solve_batch(vgs_grid, channel_potential_v)
        return sheet_charges_batch(batch).inversion

    # -- assembled curves -------------------------------------------------------

    def id_vg(self, vds: float, vgs_grid: np.ndarray) -> IdVgCurve:
        """Numerically simulated transfer curve at fixed ``vds``.

        Short-channel effects enter as an effective-gate-voltage map:
        the quasi-2-D V_th shift moves the curve left (DIBL) and the
        swing-degradation factor stretches the subthreshold region.
        """
        if vds < 0.0:
            raise ParameterError("vds must be >= 0")
        dev = self.device
        vgs = np.asarray(vgs_grid, dtype=float)
        iv = dev.iv
        shift = sce_vth_shift(dev.geometry.l_eff_cm, dev.stack, iv.w_dep_cm,
                              iv.n_eff_cm3, vds, dev.temperature_k)
        factor = slope_degradation_factor(dev.geometry.l_eff_cm, dev.stack,
                                          iv.w_dep_cm)
        # Pivot the swing stretch around the long-channel threshold so
        # strong inversion is barely affected.
        pivot = dev.threshold.vth0()
        vg_eff = pivot + (vgs + shift - pivot) / factor

        q_source = self.inversion_charge_sweep(vg_eff, 0.0)
        q_drain = self.inversion_charge_sweep(vg_eff, vds)

        vt = thermal_voltage(dev.temperature_k)
        mu = iv.mobility.low_field(iv.n_eff_cm3)
        cox = dev.stack.capacitance_per_area
        m = iv.slope_factor
        aspect = dev.geometry.aspect_ratio
        diffusion = vt * (q_source - q_drain)
        drift = (q_source ** 2 - q_drain ** 2) / (2.0 * m * cox)
        current = aspect * mu * (diffusion + drift)
        current = np.maximum(current, 1e-30)
        return IdVgCurve(vgs=vgs, ids=current, vds=vds,
                         width_um=dev.geometry.width_um)

    def id_vd(self, vgs: float, vds_grid: np.ndarray) -> np.ndarray:
        """Numerically simulated output characteristic I_d(V_ds) [A].

        One source-end solve per gate bias plus a drain-end solve per
        ``vds`` point; same charge-sheet assembly as :meth:`id_vg`.
        """
        dev = self.device
        vds_arr = np.asarray(vds_grid, dtype=float)
        if np.any(vds_arr < 0.0):
            raise ParameterError("vds grid must be >= 0")
        iv = dev.iv
        vt = thermal_voltage(dev.temperature_k)
        mu = iv.mobility.low_field(iv.n_eff_cm3)
        cox = dev.stack.capacitance_per_area
        m = iv.slope_factor
        aspect = dev.geometry.aspect_ratio
        pivot = dev.threshold.vth0()
        factor = slope_degradation_factor(dev.geometry.l_eff_cm, dev.stack,
                                          iv.w_dep_cm)
        shifts = np.array([
            sce_vth_shift(dev.geometry.l_eff_cm, dev.stack, iv.w_dep_cm,
                          iv.n_eff_cm3, float(vds), dev.temperature_k)
            for vds in vds_arr
        ])
        vg_eff = pivot + (vgs + shifts - pivot) / factor
        q_s = self.inversion_charge_sweep(vg_eff, 0.0)
        q_d = self.inversion_charge_sweep(vg_eff, vds_arr)
        diffusion = vt * (q_s - q_d)
        drift = (q_s ** 2 - q_d ** 2) / (2.0 * m * cox)
        return np.maximum(aspect * mu * (diffusion + drift), 1e-30)

    # -- extracted metrics --------------------------------------------------------

    def numeric_ss(self, vds: float = 0.05) -> float:
        """Numerically extracted inverse subthreshold slope [V/dec]."""
        dev = self.device
        vth = dev.threshold.vth0()
        vgs = np.linspace(vth - 0.45, vth + 0.15, 41)
        curve = self.id_vg(vds, vgs)
        return extract_ss(curve, decade_low=4.0, decade_high=1.5)

    def numeric_vth(self, vds: float, criterion_a_per_sq: float = 1.0e-7
                    ) -> float:
        """Constant-current threshold [V] from the simulated curve at
        width-normalised criterion ``criterion_a_per_sq`` [a/sq]."""
        dev = self.device
        vth_guess = dev.threshold.vth0()
        vgs = np.linspace(vth_guess - 0.5, vth_guess + 0.5, 61)
        curve = self.id_vg(vds, vgs)
        criterion = criterion_a_per_sq * dev.geometry.aspect_ratio
        return extract_vth_constant_current(curve, criterion)
