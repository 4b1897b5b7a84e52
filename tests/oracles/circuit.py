"""Scalar circuit oracles: the per-point paths the batched kernels of
:mod:`repro.circuit.batch` replaced, each taking the production
function's inputs and solving one point at a time with scalar
root-finders."""

from __future__ import annotations

import numpy as np
from scipy.optimize import brentq, minimize_scalar

from repro.circuit.batch import XTOL_DEFAULT, lost_regeneration_error
from repro.circuit.chain import InverterChain
from repro.circuit.delay import K_D_DEFAULT
from repro.circuit.dvs import energy_per_cycle_at_throughput
from repro.circuit.energy import VminResult, chain_energy_per_cycle
from repro.circuit.inverter import Inverter
from repro.circuit.snm import NoiseMargins, _decreasing_interpolator
from repro.circuit.sram import SramCell
from repro.errors import ParameterError


def vtc(inverter: Inverter, n_points: int = 121,
        xtol: float = 1e-9) -> tuple[np.ndarray, np.ndarray]:
    """``(vin, vout)`` on a uniform input grid, one Brent solve a point."""
    if n_points < 5:
        raise ParameterError("need at least 5 VTC points")
    vins = np.linspace(0.0, inverter.vdd, n_points)
    vouts = np.array([inverter.vtc_point(float(v), xtol=xtol) for v in vins])
    return vins, vouts


def _unity_gain_points(inverter: Inverter, n_scan: int = 101,
                       xtol: float = XTOL_DEFAULT) -> tuple[float, float]:
    """Locate the two gain = -1 inputs by scan + brentq refinement.

    The scan and the refinement evaluate the *same* gain
    (:meth:`Inverter.gain`, from the devices' partials at the solved
    output), so brentq brackets are guaranteed consistent.
    """
    vdd = inverter.vdd
    margin = vdd * 1e-3
    vins = np.linspace(margin, vdd - margin, n_scan)

    def gain_plus_one(vin: float) -> float:
        return inverter.gain(float(vin), xtol=xtol) + 1.0

    values = np.array([gain_plus_one(v) for v in vins])
    below = values < 0.0
    if not below.any():
        raise lost_regeneration_error(1)
    first = int(np.argmax(below))
    last = int(len(below) - 1 - np.argmax(below[::-1]))
    if first == 0 or last == len(vins) - 1:
        raise lost_regeneration_error(2)
    v_il = float(brentq(gain_plus_one, vins[first - 1], vins[first],
                        xtol=xtol))
    v_ih = float(brentq(gain_plus_one, vins[last], vins[last + 1],
                        xtol=xtol))
    return v_il, v_ih


def noise_margins(inverter: Inverter, n_scan: int = 101,
                  xtol: float = XTOL_DEFAULT) -> NoiseMargins:
    """Gain = -1 noise margins by the per-point scan; raises the same
    :class:`repro.errors.LostRegenerationError` as the batched path."""
    v_il, v_ih = _unity_gain_points(inverter, n_scan=n_scan, xtol=xtol)
    v_oh = inverter.vtc_point(v_il, xtol=xtol)
    v_ol = inverter.vtc_point(v_ih, xtol=xtol)
    return NoiseMargins(
        v_il=v_il, v_ih=v_ih, v_ol=v_ol, v_oh=v_oh,
        nm_low=v_il - v_ol, nm_high=v_oh - v_ih,
    )


def _lobe_square(f_curve: tuple[np.ndarray, np.ndarray],
                 g_curve: tuple[np.ndarray, np.ndarray]) -> float:
    """Largest square between ``f`` (above) and ``g`` (below): a per-x
    fixed-point loop with running-best pruning."""
    f = _decreasing_interpolator(*f_curve, side="upper")
    g = _decreasing_interpolator(*g_curve, side="lower")
    x_lo = float(min(f_curve[0].min(), g_curve[0].min()))
    x_hi = float(max(f_curve[0].max(), g_curve[0].max()))
    if x_hi - x_lo <= 0.0:
        return 0.0
    best = 0.0
    for x in np.linspace(x_lo, x_hi, 256):
        x = float(x)
        gap0 = f(x) - g(x)
        if gap0 <= best:
            continue
        lo, hi = 0.0, min(gap0, x_hi - x)
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if mid <= f(x + mid) - g(x):
                lo = mid
            else:
                hi = mid
        best = max(best, lo)
    return best


def butterfly_snm(forward: tuple[np.ndarray, np.ndarray],
                  backward: tuple[np.ndarray, np.ndarray] | None = None
                  ) -> float:
    """Largest-square SNM of a cross-coupled pair [V], one candidate
    square at a time."""
    vin_f, vout_f = (np.asarray(a, dtype=float) for a in forward)
    if backward is None:
        vin_b, vout_b = vin_f.copy(), vout_f.copy()
    else:
        vin_b, vout_b = (np.asarray(a, dtype=float) for a in backward)
    if vin_f.size < 8:
        raise ParameterError("need at least 8 VTC samples")
    upper = _lobe_square((vin_f, vout_f), (vout_b, vin_b))
    lower = _lobe_square((vin_b, vout_b), (vout_f, vin_f))
    return max(min(upper, lower), 0.0)


def read_vtc(cell: SramCell, n_points: int = 121,
             xtol: float = 1e-9) -> tuple[np.ndarray, np.ndarray]:
    """Read-disturbed VTC, one Brent solve
    (:meth:`SramCell.read_vtc_point`) per input."""
    vins = np.linspace(0.0, cell.vdd, n_points)
    vouts = np.array([cell.read_vtc_point(float(v), xtol=xtol)
                      for v in vins])
    return vins, vouts


def find_vmin(inverter: Inverter, n_stages: int = 30,
              activity: float = 0.1, vdd_lo: float = 0.08,
              vdd_hi: float = 0.70, n_grid: int = 33,
              k_d: float = K_D_DEFAULT) -> VminResult:
    """V_min with the bracketing grid evaluated one supply at a time,
    then the same bounded refinement as the production search."""
    if not 0.0 < vdd_lo < vdd_hi:
        raise ParameterError("need 0 < vdd_lo < vdd_hi")

    def total(vdd: float) -> float:
        return chain_energy_per_cycle(inverter.with_vdd(vdd), n_stages,
                                      activity, k_d=k_d).total_j

    grid = np.geomspace(vdd_lo, vdd_hi, n_grid)
    energies = np.array([total(float(v)) for v in grid])
    idx = int(np.argmin(energies))
    if idx == 0 or idx == n_grid - 1:
        raise ParameterError("energy minimum at sweep boundary")
    result = minimize_scalar(total, bounds=(float(grid[idx - 1]),
                                            float(grid[idx + 1])),
                             method="bounded", options={"xatol": 1e-4})
    vmin = float(result.x)
    breakdown = chain_energy_per_cycle(inverter.with_vdd(vmin), n_stages,
                                       activity, k_d=k_d)
    return VminResult(vmin=vmin, energy=breakdown, vdd_grid=grid,
                      energy_grid_j=energies)


def dvs_curve(chain: InverterChain, f_targets_hz,
              mep: VminResult | None = None,
              power_gated: bool = False) -> np.ndarray:
    """Energy per delivered cycle [J] per rate target, one scalar
    operating point a target."""
    targets = np.asarray(f_targets_hz, dtype=float)
    return np.array([
        energy_per_cycle_at_throughput(chain, float(f), mep,
                                       power_gated=power_gated).energy_j
        for f in np.ravel(targets)
    ]).reshape(targets.shape)
