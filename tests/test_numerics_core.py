"""Property tests for the shared masked root-solve core.

The invariants the three batched engines rely on (see
``src/repro/numerics/rootsolve.py``):

* gather/scatter preserves lane order — every residual call sees a
  sorted subset of the original lane indices, and results land back in
  their own lanes regardless of which lanes retire first;
* NaN and infeasible lanes terminate without poisoning their
  neighbours;
* a bracket of width <= ``xtol`` retires before the first sweep with
  its midpoint, and end residuals handed in by the caller change no
  bit of the solve;
* the compression counters tick per executed sweep;
* the Illinois endgame's tolerance step never costs a lane a residual
  evaluation against the loop without it (kept below, verbatim), and
  changes no bit where no proposal is rejected;
* a Newton start strictly inside the bracket reaches the midpoint
  start's root within ``xtol``, a start on or outside a bracket end is
  the midpoint start bitwise, and no start is bitwise the loop from
  before starts existed (kept below, verbatim).
"""

import numpy as np
import pytest

from repro import perf
from repro.numerics import bisect_illinois, bisect_masked, newton_safeguarded

XTOL = 1e-10


def _roots(n, lo=-0.9, hi=0.9, seed=7):
    rng = np.random.default_rng(seed)
    return rng.uniform(lo, hi, size=n)


class TestBisectMasked:
    def test_lane_order_independent_of_retirement(self):
        # Wildly different bracket widths retire lanes at different
        # sweeps; every root must still land in its own lane.
        roots = _roots(64)
        widths = np.logspace(-9, 0, 64)
        lo = roots - widths
        hi = roots + widths

        def residual(x, idx):
            return x - roots[idx]

        solved = bisect_masked(residual, lo, hi, xtol=XTOL)
        assert np.all(np.abs(solved - roots) <= widths)
        assert np.all(np.abs(solved - roots) <= 2.0 * XTOL)

    def test_residual_sees_only_sorted_live_lanes(self):
        roots = _roots(32)
        lo = np.full(32, -1.0)
        hi = np.full(32, 1.0)
        seen = []

        def residual(x, idx):
            seen.append(idx.copy())
            assert np.all(np.diff(idx) > 0)
            return x - roots[idx]

        bisect_masked(residual, lo, hi, xtol=1e-6)
        sizes = [s.size for s in seen]
        assert sizes == sorted(sizes, reverse=True)
        for later in seen[1:]:
            assert np.all(np.isin(later, seen[0]))

    def test_collapsed_lanes_never_activate(self):
        roots = _roots(8)
        lo = roots.copy()
        hi = roots.copy()
        lo[0] -= 0.5
        hi[0] += 0.5

        def residual(x, idx):
            assert np.all(idx == 0)
            return x - roots[idx]

        solved = bisect_masked(residual, lo, hi, xtol=XTOL)
        assert solved[1:] == pytest.approx(roots[1:], abs=0.0)

    def test_nan_lanes_terminate_without_poisoning(self):
        roots = _roots(16)
        bad = np.zeros(16, dtype=bool)
        bad[3] = bad[11] = True

        def residual(x, idx):
            r = x - roots[idx]
            return np.where(bad[idx], np.nan, r)

        lo = np.full(16, -1.0)
        hi = np.full(16, 1.0)
        solved = bisect_masked(residual, lo, hi, xtol=XTOL)
        assert solved[~bad] == pytest.approx(roots[~bad], abs=2e-10)
        assert np.all(np.isfinite(solved))

    def test_compression_counters_tick(self):
        roots = _roots(10)
        before_total = perf.get("numerics.total_lanes")
        before_active = perf.get("numerics.active_lanes")
        bisect_masked(lambda x, idx: x - roots[idx],
                      np.full(10, -1.0), np.full(10, 1.0), xtol=1e-6)
        d_total = perf.get("numerics.total_lanes") - before_total
        d_active = perf.get("numerics.active_lanes") - before_active
        assert d_total > 0
        assert 0 < d_active <= d_total


class TestBisectIllinois:
    def test_matches_brentq_grade_accuracy(self):
        roots = _roots(40)

        def residual(x, idx):
            return np.expm1(x - roots[idx])

        result = bisect_illinois(residual, np.full(40, -1.0),
                                 np.full(40, 1.0), xtol=1e-12,
                                 warmup_sweeps=4)
        assert np.all(result.feasible)
        assert result.root == pytest.approx(roots, abs=1e-11)

    def test_warm_bracket_retires_bitwise(self):
        """A bracket already at or below ``xtol`` — here a converged
        solve's own final bracket, handed back as the bounds — retires
        before the first sweep with exactly that solve's root."""
        roots = _roots(6)

        def residual(x, idx):
            return x - roots[idx]

        cold = bisect_illinois(residual, np.full(6, -1.0),
                               np.full(6, 1.0), xtol=1e-9)
        narrow = bisect_illinois(residual, cold.lo, cold.hi, xtol=1e-9)
        assert narrow.sweeps == 0
        assert np.array_equal(narrow.root, cold.root)
        assert np.array_equal(narrow.r_lo, residual(cold.lo, np.arange(6)))
        assert np.array_equal(narrow.r_hi, residual(cold.hi, np.arange(6)))

    def test_infeasible_lanes_flagged_not_iterated(self):
        roots = np.array([0.0, 5.0])  # second root outside [-1, 1]

        def residual(x, idx):
            return x - roots[idx]

        result = bisect_illinois(residual, np.full(2, -1.0),
                                 np.full(2, 1.0), xtol=1e-10)
        assert bool(result.feasible[0]) and not bool(result.feasible[1])
        assert result.root[0] == pytest.approx(0.0, abs=1e-9)

    def test_decreasing_residual_negated_at_call_site(self):
        roots = _roots(5)

        def decreasing(x, idx):
            return roots[idx] - x

        result = bisect_illinois(lambda x, idx: -decreasing(x, idx),
                                 np.full(5, -1.0), np.full(5, 1.0),
                                 xtol=1e-11)
        assert result.root == pytest.approx(roots, abs=1e-10)

    def test_known_end_residuals_change_no_bit(self):
        """Ends the caller already holds replace the two opening
        residual passes; everything else is bitwise the solve without
        them — including an infeasible lane and a collapsed one."""
        roots = np.concatenate([_roots(30), [5.0, 0.25]])
        lo = np.full(32, -1.0)
        hi = np.concatenate([np.full(31, 1.0), [0.25]])
        lo[31] = 0.25

        def residual(x, idx):
            return np.expm1(x - roots[idx])

        calls = []

        def counted(x, idx):
            calls.append(x.copy())
            return residual(x, idx)

        plain = bisect_illinois(residual, lo, hi, xtol=1e-12,
                                warmup_sweeps=3)
        ends = (residual(lo, np.arange(32)), residual(hi, np.arange(32)))
        known = bisect_illinois(counted, lo, hi, xtol=1e-12,
                                warmup_sweeps=3, ends=ends)
        for name in ("root", "lo", "hi", "feasible", "r_lo", "r_hi"):
            assert np.array_equal(getattr(known, name),
                                  getattr(plain, name)), name
        assert known.sweeps == plain.sweeps
        assert len(calls) == known.sweeps
        assert not bool(known.feasible[30])


def _illinois_without_tolerance_step(residual, lo, hi, *, xtol: float,
                                     ends=None, warmup_sweeps: int = 0,
                                     max_sweeps: int = 80):
    """:func:`bisect_illinois` as it was before its tolerance step: the
    iteration verbatim, without its perf counters.  Returns
    ``(root, lo, hi, sweeps)``."""
    lo = np.array(lo, dtype=float, copy=True)
    hi = np.array(hi, dtype=float, copy=True)
    n = int(lo.shape[0])
    if ends is None:
        all_lanes = np.arange(n)
        r_lo = residual(lo, all_lanes)
        r_hi = residual(hi, all_lanes)
    else:
        r_lo, r_hi = ends
    rl = np.array(r_lo, dtype=float, copy=True)
    rh = np.array(r_hi, dtype=float, copy=True)

    feasible = (rl <= 0.0) & (rh >= 0.0)
    side = np.zeros(n, dtype=np.int8)
    idx = np.flatnonzero(feasible & ((hi - lo) > xtol))
    sweeps = 0
    while int(idx.shape[0]) and sweeps < max_sweeps:
        lo_a, hi_a = lo[idx], hi[idx]
        rl_a, rh_a = rl[idx], rh[idx]
        side_a = side[idx]
        mid = 0.5 * (lo_a + hi_a)
        x = mid
        if sweeps >= warmup_sweeps:
            denom = rh_a - rl_a
            falsi = ((lo_a * rh_a - hi_a * rl_a)
                     / np.where(denom == 0, 1.0, denom))
            use = ((denom != 0) & np.isfinite(falsi)
                   & (falsi > lo_a) & (falsi < hi_a))
            x = np.where(use, falsi, mid)
        r = residual(x, idx)
        move_lo = r < 0.0
        move_hi = ~move_lo
        rh_a = np.where(move_lo & (side_a == 1), 0.5 * rh_a, rh_a)
        rl_a = np.where(move_hi & (side_a == -1), 0.5 * rl_a, rl_a)
        side_a = np.where(move_lo, 1, -1).astype(np.int8)
        lo_a = np.where(move_lo, x, lo_a)
        rl_a = np.where(move_lo, r, rl_a)
        hi_a = np.where(move_hi, x, hi_a)
        rh_a = np.where(move_hi, r, rh_a)
        lo[idx] = lo_a
        hi[idx] = hi_a
        rl[idx] = rl_a
        rh[idx] = rh_a
        side[idx] = side_a
        idx = idx[np.flatnonzero((hi_a - lo_a) > xtol)]
        sweeps += 1
    return 0.5 * (lo + hi), lo, hi, sweeps


def _lane_family(name: str, n: int, seed: int):
    """``n`` monotone-increasing residual lanes on ``[-1, 1]``."""
    rng = np.random.default_rng(seed)
    roots = rng.uniform(-0.9, 0.9, n)
    if name == "expm1":
        return lambda x, idx: np.expm1(x - roots[idx])
    if name == "steep":
        return lambda x, idx: np.sinh(20.0 * (x - roots[idx]))
    if name == "jump":
        # A 1e-4 step 1e-7 above the linear root.
        return lambda x, idx: ((x - roots[idx])
                               + 1e-4 * (x >= roots[idx] + 1e-7))
    # Roots within 3e-16 of a dyadic point, where midpoints land.
    dyadic = np.round(roots * 2.0 ** 10) / 2.0 ** 10
    offset = rng.uniform(-3e-16, 3e-16, n)
    return lambda x, idx: (x - dyadic[idx]) - offset[idx]


def _counted(residual, counts):
    def counting(x, idx):
        np.add.at(counts, idx, 1)
        return residual(x, idx)
    return counting


class TestIllinoisEndgame:
    def test_lane_on_its_root_retires_at_once(self):
        """The state of ext_sensitivity's worst doping lane: its iterate
        at log10 N ~ 18.1 has residual ~ -1e-15, its far end ~6e-6 away
        is at ~+1e-4, and the root lies within an ulp of the iterate.
        On dyadic values every Illinois proposal is exact and rounds
        onto the near end, so without the tolerance step the lane
        bisects its far end down to xtol (23 sweeps); with it the lane
        retires on the next sweep."""
        x0 = np.array([18.0625])

        def residual(x, idx):
            return 16.0 * (x - x0[idx]) - 2.0 ** -47

        lo, hi = x0.copy(), x0 + 3 * 2.0 ** -19
        ends = (residual(lo, [0]), residual(hi, [0]))
        before = perf.get("numerics.tolerance_steps")
        result = bisect_illinois(residual, lo, hi, xtol=1e-12, ends=ends)
        assert result.sweeps <= 2
        assert perf.get("numerics.tolerance_steps") - before == 1
        assert result.hi[0] - result.lo[0] <= 1e-12
        assert residual(result.lo, [0])[0] <= 0.0 <= residual(result.hi,
                                                               [0])[0]
        *_, sweeps = _illinois_without_tolerance_step(
            residual, lo, hi, xtol=1e-12, ends=ends)
        assert sweeps == 23

    @pytest.mark.parametrize("warmup", (0, 3, 8))
    @pytest.mark.parametrize("xtol", (1e-12, 1e-10, 1e-6))
    @pytest.mark.parametrize("family", ("expm1", "steep", "jump", "dyadic"))
    def test_never_costs_a_lane_an_evaluation(self, family, xtol, warmup):
        """Seeded lanes of four residual families: no lane makes more
        residual evaluations than without the tolerance step, and each
        retires with ``hi - lo <= xtol`` around a sign change."""
        n = 300
        residual = _lane_family(family, n, seed=int(1e6 * xtol) + warmup)
        lanes = np.arange(n)
        with_step, without = np.zeros(n, int), np.zeros(n, int)
        result = bisect_illinois(_counted(residual, with_step),
                                 np.full(n, -1.0), np.full(n, 1.0),
                                 xtol=xtol, warmup_sweeps=warmup)
        _illinois_without_tolerance_step(
            _counted(residual, without), np.full(n, -1.0),
            np.full(n, 1.0), xtol=xtol, warmup_sweeps=warmup)
        assert np.all(result.feasible)
        assert np.all(with_step <= without)
        assert np.all(result.hi - result.lo <= xtol)
        assert np.all(residual(result.lo, lanes) <= 0.0)
        assert np.all(residual(result.hi, lanes) >= 0.0)

    def test_wasted_tolerance_step_is_followed_by_a_halving(self):
        """A residual 1e30 times flatter below its root than above:
        proposals round onto the flat end while the root is still far
        away, so tolerance steps keep missing.  Each miss is followed by
        a midpoint, so every lane converges, with at most twice the
        evaluations of the loop without the step."""
        n = 200
        roots = np.random.default_rng(3).uniform(-0.5, 0.5, n)

        def residual(x, idx):
            d = x - roots[idx]
            return np.where(d < 0.0, 1e-30 * d, d)

        with_step, without = np.zeros(n, int), np.zeros(n, int)
        result = bisect_illinois(_counted(residual, with_step),
                                 np.full(n, -1.0), np.full(n, 1.0),
                                 xtol=1e-10, warmup_sweeps=8)
        _illinois_without_tolerance_step(
            _counted(residual, without), np.full(n, -1.0),
            np.full(n, 1.0), xtol=1e-10, warmup_sweeps=8)
        assert np.all(result.hi - result.lo <= 1e-10)
        assert np.all(with_step <= 2 * without)

    @pytest.mark.parametrize("warmup", (0, 3, 8))
    def test_no_rejected_proposal_changes_no_bit(self, warmup):
        """At xtol 1e-6 no expm1 lane has a proposal rejected, so the
        solve is bitwise the one without the tolerance step."""
        residual = _lane_family("expm1", 300, seed=warmup)
        before = perf.get("numerics.tolerance_steps")
        result = bisect_illinois(residual, np.full(300, -1.0),
                                 np.full(300, 1.0), xtol=1e-6,
                                 warmup_sweeps=warmup)
        assert perf.get("numerics.tolerance_steps") == before
        root, lo, hi, sweeps = _illinois_without_tolerance_step(
            residual, np.full(300, -1.0), np.full(300, 1.0), xtol=1e-6,
            warmup_sweeps=warmup)
        assert result.sweeps == sweeps
        for got, want in ((result.root, root), (result.lo, lo),
                          (result.hi, hi)):
            assert np.array_equal(got, want)


def _newton_from_midpoint(residual_jacobian, lo, hi, *, xtol: float,
                          max_sweeps: int = 80):
    """:func:`newton_safeguarded` as it was before it took a start: the
    iteration verbatim, without its perf counters."""
    lo = np.array(lo, dtype=float, copy=True)
    hi = np.array(hi, dtype=float, copy=True)
    x = 0.5 * (lo + hi)
    step = hi - lo
    idx = np.flatnonzero((hi - lo) > xtol)
    for _ in range(max_sweeps):
        if not int(idx.shape[0]):
            break
        x_a = x[idx]
        r, dr = residual_jacobian(x_a, idx)
        move_lo = r < 0.0
        lo_a = np.where(move_lo, x_a, lo[idx])
        hi_a = np.where(move_lo, hi[idx], x_a)
        slope_ok = np.isfinite(dr) & (dr != 0)
        newton = x_a - r / np.where(slope_ok, dr, 1.0)
        use = (slope_ok & (newton >= lo_a) & (newton <= hi_a)
               & (2.0 * np.abs(newton - x_a) <= np.abs(step[idx])))
        x_new = np.where(use, newton, 0.5 * (lo_a + hi_a))
        step_a = x_new - x_a
        x[idx] = x_new
        step[idx] = step_a
        lo[idx] = lo_a
        hi[idx] = hi_a
        idx = idx[np.flatnonzero((np.abs(step_a) > xtol)
                                 & ((hi_a - lo_a) > xtol))]
    return x


def _with_slope(name: str, n: int, seed: int):
    """The lanes of :func:`_lane_family` with their slopes, as a Newton
    ``residual_jacobian`` (the jump lanes' slope ignores the jump)."""
    residual = _lane_family(name, n, seed)
    roots = np.random.default_rng(seed).uniform(-0.9, 0.9, n)

    def residual_jacobian(x, idx):
        if name == "expm1":
            slope = np.exp(x - roots[idx])
        elif name == "steep":
            slope = 20.0 * np.cosh(20.0 * (x - roots[idx]))
        else:
            slope = np.ones_like(x)
        return residual(x, idx), slope

    return residual_jacobian, roots


FAMILIES = ("expm1", "steep", "jump", "dyadic")


class TestNewtonSafeguarded:
    def test_quadratic_convergence_on_smooth_residual(self):
        roots = _roots(20)

        def residual_jacobian(x, idx):
            d = x - roots[idx]
            return d ** 3 + d, 3.0 * d ** 2 + 1.0

        solved = newton_safeguarded(residual_jacobian, np.full(20, -1.0),
                                    np.full(20, 1.0), xtol=1e-12)
        assert solved == pytest.approx(roots, abs=1e-11)

    def test_convex_residual_beats_bisection(self):
        """exp(x) - 2 is convex, so the bracket closes from one side
        only; stopping on the Newton step keeps the sweep count far
        below bisection's ~35 on [0, 3] at 1e-10."""
        def residual_jacobian(x, idx):
            return np.exp(x) - 2.0, np.exp(x)

        before = perf.get("circuit.vtc_newton_sweeps")
        solved = newton_safeguarded(residual_jacobian, np.array([0.0]),
                                    np.array([3.0]), xtol=1e-10,
                                    sweep_counter="circuit.vtc_newton_sweeps")
        sweeps = perf.get("circuit.vtc_newton_sweeps") - before
        assert solved[0] == pytest.approx(np.log(2.0), abs=1e-12)
        assert sweeps <= 8

    def test_zero_derivative_falls_back_to_bisection(self):
        roots = _roots(8)

        def residual_jacobian(x, idx):
            return x - roots[idx], np.zeros_like(x)

        solved = newton_safeguarded(residual_jacobian, np.full(8, -1.0),
                                    np.full(8, 1.0), xtol=1e-9)
        assert solved == pytest.approx(roots, abs=1e-8)

    @pytest.mark.parametrize("xtol", (1e-12, 1e-10, 1e-6))
    @pytest.mark.parametrize("family", FAMILIES)
    def test_start_inside_reaches_the_midpoint_root(self, family, xtol):
        """Starts anywhere strictly inside the bracket, and starts near
        the root (what an interpolated seed gives): every lane reaches
        the midpoint start's root within ``xtol``."""
        n = 300
        residual_jacobian, roots = _with_slope(family, n,
                                               seed=int(1e6 * xtol))
        rng = np.random.default_rng(int(1e6 * xtol) + 1)
        lo, hi = np.full(n, -1.0), np.full(n, 1.0)
        plain = newton_safeguarded(residual_jacobian, lo, hi, xtol=xtol)
        for start in (rng.uniform(-1.0, 1.0, n),
                      roots + rng.uniform(-1e-3, 1e-3, n)):
            assert np.all((start > lo) & (start < hi))
            seeded = newton_safeguarded(residual_jacobian, lo, hi,
                                        xtol=xtol, x0=start)
            assert np.all(np.abs(seeded - plain) <= xtol)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_start_outside_the_open_bracket_is_the_midpoint_run(self,
                                                                family):
        """Starts on either bracket end, beyond it, or not a number
        fall back to the midpoint, bitwise."""
        n = 300
        residual_jacobian, _ = _with_slope(family, n, seed=11)
        lo = np.full(n, -1.0)
        hi = np.full(n, 1.0)
        start = np.resize([-1.0, 1.0, -1.5, 3.0, np.nan, np.inf, -np.inf],
                          n)
        seeded = newton_safeguarded(residual_jacobian, lo, hi, xtol=1e-12,
                                    x0=start)
        plain = newton_safeguarded(residual_jacobian, lo, hi, xtol=1e-12)
        assert np.array_equal(seeded, plain)

    @pytest.mark.parametrize("xtol", (1e-12, 1e-10, 1e-6))
    @pytest.mark.parametrize("family", FAMILIES)
    def test_no_start_is_the_loop_without_one(self, family, xtol):
        n = 300
        residual_jacobian, _ = _with_slope(family, n, seed=int(1e6 * xtol))
        lo, hi = np.full(n, -1.0), np.full(n, 1.0)
        assert np.array_equal(
            newton_safeguarded(residual_jacobian, lo, hi, xtol=xtol),
            _newton_from_midpoint(residual_jacobian, lo, hi, xtol=xtol))
