"""Surrogate tier: accuracy bounds, NaN semantics, hull behaviour.

Two layers of coverage.  Synthetic-tensor tests exercise the
interpolation machinery (densify pass, log-space positives, NaN
confinement, hull edges) against analytic fields where the truth is
free.  The expensive test at the end is the acceptance bound: on a
serving-density window the measured worst-case relative error vs the
exact tier stays within ``SURROGATE_TOL_REL`` on every served metric.
"""

import math

import numpy as np
import pytest
from scipy.interpolate import RegularGridInterpolator

from repro.service import SURROGATE_TOL_REL, fit_surrogate
from repro.service.contract import (ALL_METRICS, DESIGN_METRICS,
                                    VDD_METRICS)
from repro.service.grid import Grid, GridSpec
from repro.service.surrogate import (POSITIVE_METRICS, REFINE,
                                     _fit_slice, _lookup, _refine_axis)

#: Axes dense enough for the densify pass (>= 4 points everywhere).
SPEC = GridSpec(nodes=("65nm",),
                l_ratios=(1.0, 1.2, 1.4, 1.6, 1.8),
                log10_ioff=(-11.0, -10.5, -10.0, -9.5),
                vdd_v=(0.20, 0.25, 0.30, 0.35))


def _field(l, t, v):
    """A smooth positive analytic stand-in for a metric surface."""
    return math.exp(0.3 * l - 0.1 * t + 0.8 * v)


def synthetic_grid(nan_cell=None):
    """A Grid whose tensors sample ``_field`` (optionally with one
    NaN poked into V_dd-metric cell ``nan_cell``)."""
    shape = SPEC.shape
    vdd_tensor = np.empty(shape[1:])
    design_tensor = np.empty(shape[1:3])
    for i, l in enumerate(SPEC.l_ratios):
        for j, t in enumerate(SPEC.log10_ioff):
            design_tensor[i, j] = _field(l, t, 0.0)
            for k, v in enumerate(SPEC.vdd_v):
                vdd_tensor[i, j, k] = _field(l, t, v)
    tensors = {m: vdd_tensor[None].copy() for m in VDD_METRICS}
    tensors.update({m: design_tensor[None].copy()
                    for m in DESIGN_METRICS})
    if nan_cell is not None:
        for m in VDD_METRICS:
            tensors[m][(0, *nan_cell)] = np.nan
    return Grid(spec=SPEC, schema_hash="synthetic", tensors=tensors)


class TestMachinery:
    def test_refine_axis_keeps_original_knots_bitwise(self):
        axis = np.array([1.0, 1.3, 2.0])
        fine = _refine_axis(axis, REFINE)
        assert fine.shape[0] == (axis.shape[0] - 1) * REFINE + 1
        assert np.all(np.diff(fine) > 0)
        assert all(a in fine for a in axis)

    def test_knot_values_are_reproduced(self):
        surrogate = fit_surrogate(synthetic_grid())
        got = surrogate.query("65nm", 1.4, -10.5, 0.30)
        expected = _field(1.4, -10.5, 0.30)
        for metric in VDD_METRICS:
            assert got[metric] == pytest.approx(expected, rel=1e-12)
        for metric in DESIGN_METRICS:
            assert got[metric] == pytest.approx(
                _field(1.4, -10.5, 0.0), rel=1e-12)

    def test_densified_midpoints_beat_plain_linear(self):
        """The whole point of the densify pass: mid-cell error well
        under the coarse linear truncation error on a curved field."""
        surrogate = fit_surrogate(synthetic_grid())
        worst = 0.0
        for l, t, v in [(1.1, -10.75, 0.225), (1.5, -10.25, 0.325),
                        (1.7, -9.75, 0.275)]:
            got = surrogate.query("65nm", l, t, v)["ion_a_per_um"]
            truth = _field(l, t, v)
            worst = max(worst, abs(got - truth) / truth)
        assert worst < 2e-4

    def test_unknown_node_returns_none(self):
        surrogate = fit_surrogate(synthetic_grid())
        assert surrogate.query("32nm", 1.4, -10.5, 0.30) is None

    def test_out_of_hull_is_nan(self):
        surrogate = fit_surrogate(synthetic_grid())
        outside = surrogate.query("65nm", 1.4, -10.5, 0.50)
        assert all(math.isnan(outside[m]) for m in VDD_METRICS)
        assert all(math.isfinite(outside[m]) for m in DESIGN_METRICS)

    def test_metrics_subset_returns_only_requested(self):
        surrogate = fit_surrogate(synthetic_grid())
        got = surrogate.query("65nm", 1.4, -10.5, 0.30,
                              metrics=("vth_v", "vmin_v"))
        assert sorted(got) == ["vmin_v", "vth_v"]

    def test_nan_cell_disables_densify_and_stays_local(self):
        """A NaN cell demotes the slice to plain linear interpolation,
        where the NaN contaminates only its neighbouring cells — far
        cells still answer (and the server falls back to exact on the
        NaN ones)."""
        surrogate = fit_surrogate(synthetic_grid(nan_cell=(0, 0, 0)))
        near = surrogate.query("65nm", 1.05, -10.9, 0.21)
        far = surrogate.query("65nm", 1.7, -9.7, 0.33)
        assert math.isnan(near["ion_a_per_um"])
        assert math.isfinite(far["ion_a_per_um"])
        truth = _field(1.7, -9.7, 0.33)
        assert far["ion_a_per_um"] == pytest.approx(truth, rel=5e-3)

    def test_positive_metrics_interpolate_in_log_space(self):
        """log10-space interpolation reproduces an exponential field
        almost exactly even between knots (it is linear in the
        transformed space) — the behaviour direct interpolation of
        POSITIVE_METRICS would not show."""
        surrogate = fit_surrogate(synthetic_grid())
        got = surrogate.query("65nm", 1.3, -10.75, 0.275)
        for metric in POSITIVE_METRICS:
            truth = _field(1.3, -10.75, 0.275)
            assert got[metric] == pytest.approx(truth, rel=1e-9)


def _probe_points(axes, seed):
    """Seeded probes of one table: interior points, knots, points on
    each upper face, points just outside each end of each axis, and a
    NaN in each coordinate."""
    rng = np.random.default_rng(seed)
    lo = np.array([axis[0] for axis in axes])
    hi = np.array([axis[-1] for axis in axes])
    points = [tuple(rng.uniform(lo, hi)) for _ in range(120)]
    points += [tuple(float(rng.choice(axis)) for axis in axes)
               for _ in range(30)]
    for dim, axis in enumerate(axes):
        inside = list(rng.uniform(lo, hi))
        for x in (axis[-1], np.nextafter(axis[0], -np.inf),
                  np.nextafter(axis[-1], np.inf), np.nan):
            points.append(tuple(inside[:dim] + [float(x)]
                                + inside[dim + 1:]))
    points.append(tuple(hi))
    return points


class TestLookupOracle:
    """The served lookup is scipy's linear regular-grid interpolator,
    bit for bit, on the axes and values ``_fit_slice`` serves."""

    @staticmethod
    def _slice(case):
        grid = synthetic_grid(nan_cell=(1, 2, 0) if case == "nan_cell"
                              else None)
        axes = (np.array(SPEC.l_ratios), np.array(SPEC.log10_ioff),
                np.array(SPEC.vdd_v))
        if case == "coarse":
            # Three L points: too coarse for pchip, served as is.
            axes = (axes[0][:3], axes[1])
            values = np.stack([grid.tensors[m][0][:3]
                               for m in DESIGN_METRICS], axis=-1)
        else:
            values = np.stack([grid.tensors[m][0] for m in VDD_METRICS],
                              axis=-1)
        # Sign changes and exact zeros in some channels.
        values[..., 0] = np.log10(values[..., 0])
        values[..., 1] -= np.nanmedian(values[..., 1])
        values[..., -1] = 0.0
        return axes, values

    @pytest.mark.parametrize("case", ["densified", "nan_cell", "coarse"])
    def test_rows_equal_scipy(self, case):
        axes, values = self._slice(case)
        served_axes, served = _fit_slice(axes, values)
        densified = case == "densified"
        assert (len(served_axes[0]) > len(axes[0])) == densified
        oracle = RegularGridInterpolator(
            served_axes, served, method="linear", bounds_error=False,
            fill_value=np.nan)
        points = _probe_points(served_axes, seed=len(case))
        expected = oracle(np.array(points))
        got = np.array([_lookup(served_axes, served, p) for p in points])
        assert np.array_equal(got, expected, equal_nan=True)
        finite = ~np.isnan(expected)
        assert np.array_equal(np.signbit(got[finite]),
                              np.signbit(expected[finite]))
        assert np.isnan(got).all(axis=1).sum() >= 3 * len(axes)
        if case == "nan_cell":
            assert np.isnan(got).any(axis=1).sum() > np.isnan(
                got).all(axis=1).sum()


class TestAcceptanceBound:
    def test_error_bounds_within_tol(self, service_grid,
                                     service_surrogate):
        """The acceptance bound: measured worst-case relative error vs
        the exact tier <= SURROGATE_TOL_REL on every served metric, at
        serving axis density (the fixture validates at interior cell
        midpoints — the worst case of a cell-wise interpolant)."""
        bounds = service_grid.error_bounds_rel
        assert bounds is not None and sorted(bounds) == sorted(ALL_METRICS)
        for metric, bound in bounds.items():
            assert bound <= SURROGATE_TOL_REL, (metric, bound)
        assert service_surrogate.grid.error_bounds_rel is bounds
