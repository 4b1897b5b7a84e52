"""Scalar TCAD oracle: the warm-started bias-by-bias Poisson sweep.

:class:`SequentialDeviceSimulator` overrides the two sweeps of
:class:`repro.tcad.simulator.DeviceSimulator` with scalar solves, so
``id_vg``, ``id_vd`` and the extracted metrics run unchanged on top.
A sweep at one channel potential warm-starts each bias from the last;
one with a potential per bias (``id_vd``'s drain ends) solves cold."""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.tcad.charge import sheet_charges
from repro.tcad.poisson1d import PoissonSolution
from repro.tcad.simulator import DeviceSimulator


class SequentialDeviceSimulator(DeviceSimulator):
    """A :class:`DeviceSimulator` that sweeps with scalar solves."""

    def _sweep(self, vgs_grid: np.ndarray,
               channel_potential_v: float | np.ndarray,
               extract: Callable[[PoissonSolution], float]) -> np.ndarray:
        vgs = np.asarray(vgs_grid, dtype=float)
        per_point = np.ndim(channel_potential_v) > 0
        potentials = np.broadcast_to(channel_potential_v, vgs.shape)
        values = np.empty_like(vgs)
        warm = None
        for i, vg in enumerate(vgs):
            sol = self.solve(float(vg), float(potentials[i]),
                             initial_psi=warm)
            values[i] = extract(sol)
            warm = None if per_point else sol.psi_v
        return values

    def surface_potential_sweep(self, vgs_grid: np.ndarray,
                                channel_potential_v: float | np.ndarray = 0.0
                                ) -> np.ndarray:
        return self._sweep(vgs_grid, channel_potential_v,
                           lambda sol: sol.surface_potential_v)

    def inversion_charge_sweep(self, vgs_grid: np.ndarray,
                               channel_potential_v: float | np.ndarray = 0.0
                               ) -> np.ndarray:
        return self._sweep(vgs_grid, channel_potential_v,
                           lambda sol: sheet_charges(sol).inversion)
