"""Surrogate tier: multilinear table lookups over the metric tensors.

Per technology node (the categorical axis is never interpolated
across), the served metrics are stacked into two multi-channel
tables — (L_poly ratio, log10 leakage target, V_dd) for the V_dd
metrics, (L_poly ratio, log10 leakage target) for the per-design
ones — so one query costs two table lookups, not eight.
Strictly positive metrics (leakage, drive, delay, energy) interpolate
in log10 space, where the design-space curves are close to linear;
sign-changing or near-zero-crossing metrics (V_th, SNM, V_min, S_S)
interpolate directly.

Accuracy and latency are decoupled by a fit-time densify pass: when a
node's tensor slice is pchip-eligible (>= 4 points on every axis, no
NaN cells — PCHIP derivative estimation would smear a NaN beyond its
own cell), a pchip interpolant is evaluated once, vectorised, on a
:data:`REFINE`-x refined mesh, and the server interpolates *linearly*
on that mesh, while the refined spacing keeps the linear truncation
error below the pchip fit error.  NaN-carrying or too-coarse slices
serve plain linear interpolation on the original axes, where a NaN
stays confined to its neighbouring cells.

The served interpolant is a plain table — knot axes plus the
(densified) values — read by :func:`_lookup`, a short multilinear
evaluation of one point that reproduces scipy's linear regular-grid
interpolator (``bounds_error=False``, ``fill_value=nan``) bit for
bit, at a fraction of its per-call cost;
``tests/test_service_surrogate.py`` keeps scipy as the oracle.

Outside the hull — and anywhere a NaN cell contaminates the answer —
the lookup returns NaN, which the server treats as a miss and routes
to the exact tier.

:func:`validate_surrogate` measures the worst-case relative error of
the *served* interpolants (densify pass included) against the exact
tier at interior cell midpoints of the original grid; the recorded
per-metric bounds ride along in every query's provenance footer.
"""

from __future__ import annotations

import math
from bisect import bisect_right

import numpy as np
from scipy.interpolate import PchipInterpolator

from ..scaling.roadmap import node_by_name
from .contract import ALL_METRICS, DESIGN_METRICS, VDD_METRICS
from .exact import exact_point
from .grid import Grid

__all__ = ["Surrogate", "fit_surrogate", "validate_surrogate",
           "SURROGATE_TOL_REL", "POSITIVE_METRICS", "REFINE"]

#: The stated surrogate accuracy target [relative error]: the serving
#: grid is sized so the recorded worst-case bound stays at or below
#: this on every served metric.
SURROGATE_TOL_REL: float = 1e-3

#: Metrics interpolated in log10 space (strictly positive by
#: construction; their design-space curves are near-linear in log10).
POSITIVE_METRICS: tuple[str, ...] = (
    "ioff_a_per_um", "ion_a_per_um", "delay_ps", "energy_fj_per_op")

#: Points per axis pchip needs for its derivative estimates.
_PCHIP_MIN_POINTS = 4

#: Fit-time mesh refinement: each grid cell of a pchip-eligible slice
#: is subdivided this many times before the serving (linear) fit.
REFINE: int = 4


def _refine_axis(axis: np.ndarray, factor: int) -> np.ndarray:
    """Subdivide every cell of ``axis`` into ``factor`` segments,
    keeping the original knots bitwise (segment interiors are fresh
    ``linspace`` points)."""
    pieces = [axis[:1]]
    for a, b in zip(axis, axis[1:]):
        pieces.append(np.linspace(a, b, factor + 1)[1:])
    return np.concatenate(pieces)


#: One served table: per-axis knots (ascending floats) and the values
#: on their tensor product, with a trailing channel axis.
_Table = tuple[tuple[tuple[float, ...], ...], np.ndarray]


def _fit_slice(axes: tuple[np.ndarray, ...], values: np.ndarray) -> _Table:
    """The served table for one node's stacked channel tensor.

    pchip-eligible slices are densified (pchip evaluated on the
    refined mesh, linear served over it); the rest serve linear on
    the original axes.  ``values`` carries a trailing channel axis.
    """
    eligible = (all(axis.shape[0] >= _PCHIP_MIN_POINTS for axis in axes)
                and not np.any(np.isnan(values)))
    if eligible:
        # Tensor-product pchip, one vectorised 1-D pass per axis (the
        # whole tensor rides along as trailing dimensions), instead of
        # per-point recursive evaluation — ~100x faster to densify.
        fine_axes = tuple(_refine_axis(axis, REFINE) for axis in axes)
        for dim, (axis, fine) in enumerate(zip(axes, fine_axes)):
            values = PchipInterpolator(axis, values, axis=dim)(fine)
        axes = fine_axes
    return tuple(tuple(axis.tolist()) for axis in axes), values


def _lookup(axes: tuple[tuple[float, ...], ...], values: np.ndarray,
            point: tuple[float, ...]) -> np.ndarray:
    """Multilinear interpolation of one point: the row of channels.

    The arithmetic of scipy's linear regular-grid interpolator
    (``bounds_error=False``, ``fill_value=nan``) on a table with a
    trailing channel axis, step for step, so the rows agree bitwise:

    * a NaN coordinate, or one outside an axis's knots, gives NaN;
    * the cell is ``bisect_right(axis, x) - 1``, clamped to the last
      cell (a point on the upper face uses it), and the cell
      coordinate is ``y = (x - a_i) / (a_{i+1} - a_i)``;
    * corners run in ``itertools.product`` order, each weighted by
      ``1.0`` times, axis by axis, ``1 - y`` (lower knot) or ``y``;
    * the row is ``0.0`` plus each corner's channels times its
      weight, added one corner at a time in that order (a running
      sum; a pairwise one would change bits).  A NaN cell spreads
      through its zero weights (NaN x 0 is NaN), as in scipy.
    """
    cell = []
    weights = [1.0]
    for axis, x in zip(axes, point):
        if not axis[0] <= x <= axis[-1]:
            return np.full(values.shape[-1], np.nan)
        i = min(bisect_right(axis, x) - 1, len(axis) - 2)
        y = (x - axis[i]) / (axis[i + 1] - axis[i])
        cell.append(slice(i, i + 2))
        weights = [w * f for w in weights for f in (1 - y, y)]
    terms = (values[tuple(cell)].reshape(len(weights), -1)
             * np.array(weights)[:, None])
    terms[0] += 0.0  # the sum starts at 0.0: a -0.0 first term is +0.0
    return np.add.accumulate(terms)[-1]


class Surrogate:
    """Fitted tables for every (node, metric) of a grid.

    Query coordinates mirror the grid axes: L_poly ratio
    (dimensionless multiple of the node's etched length), log10 of the
    leakage target [A/um], and supply [V] for the V_dd metrics.
    """

    def __init__(self, grid: Grid) -> None:
        self.grid = grid
        spec = grid.spec
        l_axis = np.asarray(spec.l_ratios, dtype=float)
        t_axis = np.asarray(spec.log10_ioff, dtype=float)
        v_axis = np.asarray(spec.vdd_v, dtype=float)
        self._vdd_channel = {m: i for i, m in enumerate(VDD_METRICS)}
        self._design_channel = {m: i for i, m in enumerate(DESIGN_METRICS)}
        self._vdd_table: dict[str, _Table] = {}
        self._design_table: dict[str, _Table] = {}
        for n, name in enumerate(spec.nodes):
            stacked = np.stack(
                [self._transform(m, grid.tensors[m][n])
                 for m in VDD_METRICS], axis=-1)
            self._vdd_table[name] = _fit_slice(
                (l_axis, t_axis, v_axis), stacked)
            stacked = np.stack(
                [self._transform(m, grid.tensors[m][n])
                 for m in DESIGN_METRICS], axis=-1)
            self._design_table[name] = _fit_slice(
                (l_axis, t_axis), stacked)

    @staticmethod
    def _transform(metric: str, values: np.ndarray) -> np.ndarray:
        if metric in POSITIVE_METRICS:
            with np.errstate(divide="ignore", invalid="ignore"):
                return np.log10(values)
        return values

    @property
    def nodes(self) -> tuple[str, ...]:
        """Node labels the surrogate can answer for."""
        return self.grid.spec.nodes

    def query(self, node: str, l_ratio: float, log10_ioff: float,
              vdd_v: float, metrics: tuple[str, ...] = ALL_METRICS
              ) -> dict[str, float] | None:
        """Interpolated metric values at one design-space point.

        Coordinates are (L_poly ratio, log10 I_off target [A/um],
        supply ``vdd_v`` [V]).  Returns None when the node is not on
        the grid; individual values are NaN outside the hull or where
        a NaN grid cell contaminates the answer (the server falls back
        to the exact tier on any NaN).
        """
        if node not in self._vdd_table:
            return None
        out: dict[str, float] = {}
        if any(m in self._vdd_channel for m in metrics):
            row = _lookup(*self._vdd_table[node],
                          (l_ratio, log10_ioff, vdd_v))
            for m in metrics:
                channel = self._vdd_channel.get(m)
                if channel is not None:
                    value = float(row[channel])
                    out[m] = 10.0 ** value if m in POSITIVE_METRICS \
                        else value
        if any(m in self._design_channel for m in metrics):
            row = _lookup(*self._design_table[node],
                          (l_ratio, log10_ioff))
            for m in metrics:
                channel = self._design_channel.get(m)
                if channel is not None:
                    out[m] = float(row[channel])
        return out


def fit_surrogate(grid: Grid) -> Surrogate:
    """Fit (and densify) the table set over a filled grid."""
    return Surrogate(grid)


def _midpoints(axis: tuple[float, ...]) -> list[float]:
    return [0.5 * (a + b) for a, b in zip(axis, axis[1:])]


def validate_surrogate(surrogate: Surrogate,
                       max_points_per_node: int = 32) -> dict[str, float]:
    """Worst-case relative error of the surrogate vs the exact tier.

    Evaluates both tiers at interior cell midpoints of the original
    grid — the worst case of a cell-wise interpolant — and records,
    per metric, the largest ``|surrogate - exact| / |exact|``
    observed.  Midpoint sets larger than ``max_points_per_node`` are
    strided deterministically (the subsample is a pure function of the
    spec, so rebuilt grids record identical bounds).  Point pairs
    where either tier reports NaN are skipped: a NaN surrogate answer
    is served from the exact tier anyway, and an exact NaN marks a
    region where the metric is undefined at the grid's own resolution.

    The result is attached to ``surrogate.grid.error_bounds_rel`` and
    returned.
    """
    spec = surrogate.grid.spec
    bounds = {metric: 0.0 for metric in ALL_METRICS}
    for name in spec.nodes:
        node = node_by_name(name)
        points = [(lr, ti, vv)
                  for lr in _midpoints(spec.l_ratios)
                  for ti in _midpoints(spec.log10_ioff)
                  for vv in _midpoints(spec.vdd_v)]
        if len(points) > max_points_per_node:
            stride = -(-len(points) // max_points_per_node)
            points = points[::stride]
        for l_ratio, log_t, vdd in points:
            approx = surrogate.query(name, l_ratio, log_t, vdd)
            assert approx is not None
            exact = exact_point(node, l_ratio * node.l_poly_nm,
                                10.0 ** log_t, vdd)
            for metric in ALL_METRICS:
                a, e = approx[metric], exact[metric]
                if math.isnan(a) or math.isnan(e):
                    continue
                scale = max(abs(e), 1e-30)
                bounds[metric] = max(bounds[metric], abs(a - e) / scale)
    surrogate.grid.error_bounds_rel = bounds
    return bounds
