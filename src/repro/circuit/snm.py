"""Static noise margins.

Two definitions are provided:

* :func:`noise_margins` — the paper's definition for a single inverter
  (Section 2.3.2): noise margins measured at the two points where the
  VTC gain equals -1 (``NM_L = V_IL - V_OL``, ``NM_H = V_OH - V_IH``,
  SNM = min of the two).  :func:`lane_noise_margins` reads one lane of
  a stacked extraction the same way, so an experiment extracts all its
  inverters' margins in one batched call.
* :func:`butterfly_snm` — the classic largest-embedded-square SNM of a
  cross-coupled pair (used for the SRAM extension, ref [16]).

Both run on the vectorised kernels of :mod:`repro.circuit.batch`; the
original scalar implementations are the correctness oracles in
``tests/oracles/circuit.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import perf
from ..errors import ParameterError
from .batch import (
    XTOL_DEFAULT,
    BatchNoiseMargins,
    lost_regeneration_error,
    noise_margins_batch,
)
from .inverter import Inverter


@dataclass(frozen=True)
class NoiseMargins:
    """Noise-margin summary of one inverter VTC (all volts).

    Attributes
    ----------
    v_il / v_ih:
        Input voltages where the VTC gain is -1 (low and high).
    v_ol / v_oh:
        Output voltages at those points: ``V_OL = VTC(V_IH)``,
        ``V_OH = VTC(V_IL)``.
    nm_low / nm_high:
        ``NM_L = V_IL - V_OL`` and ``NM_H = V_OH - V_IH``.
    """

    v_il: float
    v_ih: float
    v_ol: float
    v_oh: float
    nm_low: float
    nm_high: float

    @property
    def snm(self) -> float:
        """The static noise margin: min(NM_L, NM_H)."""
        return min(self.nm_low, self.nm_high)


def noise_margins(inverter: Inverter, n_scan: int = 101,
                  xtol: float = XTOL_DEFAULT) -> NoiseMargins:
    """Gain = -1 noise margins of a CMOS inverter (paper Fig. 4/10).

    Raises :class:`repro.errors.LostRegenerationError` when the
    inverter has no gain = -1 points (supply so low the VTC
    degenerates), which is itself a meaningful "no noise margin left"
    result for callers to handle structurally via the error's ``code``
    (aligned with the batch kernel's ``lost_code``).

    The margins are extracted through the vectorised VTC kernel.
    """
    return lane_noise_margins(noise_margins_batch(
        inverter, 0.0, 0.0, n_scan=n_scan, xtol=xtol), 0)


def lane_noise_margins(batch: BatchNoiseMargins, lane: int) -> NoiseMargins:
    """Lane ``lane`` of a batched extraction, as :func:`noise_margins`
    returns it for that lane's inverter.

    Raises the lane's :class:`repro.errors.LostRegenerationError` when
    it lost regeneration.  Reading the lanes of one stacked
    :func:`repro.circuit.batch.noise_margins_batch` call in order
    therefore raises what a per-inverter loop of :func:`noise_margins`
    raises, at the same lane.
    """
    code = int(batch.lost_code[lane])
    if code:
        raise lost_regeneration_error(code)
    return NoiseMargins(
        v_il=float(batch.v_il[lane]), v_ih=float(batch.v_ih[lane]),
        v_ol=float(batch.v_ol[lane]), v_oh=float(batch.v_oh[lane]),
        nm_low=float(batch.nm_low[lane]), nm_high=float(batch.nm_high[lane]),
    )


def _decreasing_interpolator(x: np.ndarray, y: np.ndarray, side: str):
    """Interpolator for a monotone-decreasing curve, clamped at the ends.

    A mirrored VTC is multivalued where the original is rail-flat, so
    duplicate x samples are aggregated: the *upper* boundary of a lobe
    keeps the max y at each x, the *lower* boundary the min.  The
    returned callable accepts scalars or arrays.
    """
    order = np.argsort(x)
    xs, ys = x[order], y[order]
    unique_x, inverse = np.unique(xs, return_inverse=True)
    agg = np.full(unique_x.shape, -np.inf if side == "upper" else np.inf)
    if side == "upper":
        np.maximum.at(agg, inverse, ys)
    else:
        np.minimum.at(agg, inverse, ys)

    def evaluate(q):
        out = np.interp(q, unique_x, agg)
        return float(out) if np.isscalar(q) else out

    return evaluate


def _lobe_square(f_curve: tuple[np.ndarray, np.ndarray],
                 g_curve: tuple[np.ndarray, np.ndarray]) -> float:
    """Largest square between decreasing curve ``f`` (above) and ``g`` (below).

    For an axis-aligned square of side ``s`` with lower-left corner
    ``(x, y)`` lying in the region ``g <= y <= f``, feasibility reduces
    to ``s <= f(x + s) - g(x)`` (both curves are decreasing, so the
    binding corners are upper-right against ``f`` and lower-left against
    ``g``).  For each ``x`` the right-hand side is decreasing in ``s``,
    so the maximal side solves a 1-D fixed point; we take the max over
    a grid of ``x``.

    All 256 corner abscissae iterate their fixed point as one array.
    The pruning of the scalar oracle only skips abscissae that cannot
    beat the running best, so the unpruned vectorised maximum is
    identical; each surviving point runs the same 40 bisection
    iterations on the same interpolants.
    """
    f = _decreasing_interpolator(*f_curve, side="upper")
    g = _decreasing_interpolator(*g_curve, side="lower")
    x_lo = float(min(f_curve[0].min(), g_curve[0].min()))
    x_hi = float(max(f_curve[0].max(), g_curve[0].max()))
    if x_hi - x_lo <= 0.0:
        return 0.0
    xs = np.linspace(x_lo, x_hi, 256)
    g0 = g(xs)
    gap0 = f(xs) - g0
    valid = gap0 > 0.0
    if not valid.any():
        return 0.0
    xs, g0, gap0 = xs[valid], g0[valid], gap0[valid]
    lo = np.zeros_like(xs)
    hi = np.minimum(gap0, x_hi - xs)
    perf.bump("circuit.butterfly_batch_solves")
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        feasible = mid <= f(xs + mid) - g0
        lo = np.where(feasible, mid, lo)
        hi = np.where(feasible, hi, mid)
    return float(lo.max())


def butterfly_snm(forward: tuple[np.ndarray, np.ndarray],
                  backward: tuple[np.ndarray, np.ndarray] | None = None
                  ) -> float:
    """Largest-square (Seevinck) SNM of a cross-coupled pair [V].

    Parameters
    ----------
    forward:
        ``(vin, vout)`` samples of the first inverter's VTC (monotone
        decreasing).
    backward:
        VTC of the second inverter; defaults to the first (symmetric
        cell).  The second characteristic is mirrored across the
        ``V_out = V_in`` diagonal to form the butterfly.

    The butterfly's two lobes are bounded above by one VTC and below by
    the mirror of the other; the SNM is the side of the largest square
    that fits in the smaller lobe.  All candidate squares iterate as
    one array.
    """
    vin_f, vout_f = (np.asarray(a, dtype=float) for a in forward)
    if backward is None:
        vin_b, vout_b = vin_f.copy(), vout_f.copy()
    else:
        vin_b, vout_b = (np.asarray(a, dtype=float) for a in backward)
    if vin_f.size < 8:
        raise ParameterError("need at least 8 VTC samples")

    # Upper-left lobe: below curve A (y = f(x)), above mirrored curve B
    # (y = f_b^{-1}(x), i.e. the swapped-axis samples).
    upper = _lobe_square((vin_f, vout_f), (vout_b, vin_b))
    # Lower-right lobe: mirror the construction.
    lower = _lobe_square((vin_b, vout_b), (vout_f, vin_f))
    return max(min(upper, lower), 0.0)
