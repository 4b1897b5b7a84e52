"""Tests for the rare-event yield engine (QMC streams + IS estimator).

The estimator-level tests run on *analytic* failure sets (half-planes
in the standardised offset space) whose probabilities are exact normal
tail masses, so unbiasedness and chunk-invariance are checked against
ground truth rather than against another sampler.  A handful of tests
drive the physical indicators on the shared inverter fixtures.  The
failure-point search, which drops rays that cannot win, is checked
bitwise against the search without dropping (kept below, verbatim) on
seeded stacks of half-planes, discs and annuli.
"""

import math
import warnings

import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import norm, qmc

from repro import perf
from repro.circuit import (analytic_delay_batch, noise_margins_batch,
                           solve_vtc_batch)
from repro.errors import ParameterError
from repro.experiments.ext_yield import (DELAY_VDD_GRID, R_MAX_SIGMA,
                                         SNM_REPLICATES, SNM_TRIALS,
                                         SNM_VDD_GRID)
from repro.variability import (
    FailurePoint,
    PseudoNormalStream,
    SobolNormalStream,
    cell_failure_rate,
    estimate_failure_probability,
    failure_indicator,
    failure_probability,
    failure_rate_curve,
    find_failure_shift,
    qmc_vth_offsets,
    sigma_level,
    timing_margin,
)
from repro.variability.importance import (estimate_failure_probabilities,
                                         find_failure_shifts)
from repro.variability.rdf import rdf_sigma_vth
from repro.variability.sampler import (MC_BLOCK_TRIALS, SOBOL_BITS,
                                      SOBOL_MAX_DIM)
from repro.variability.tails import SNM_SCAN_DEFAULT, SNM_XTOL_DEFAULT


def half_plane(beta, direction=(1.0, 0.0)):
    """Failure set {u : u . d > beta}; exact probability ndtr(-beta)."""
    d = np.asarray(direction) / np.linalg.norm(direction)

    def indicator(u):
        return np.asarray(u) @ d > beta

    return indicator


def plane_stack(*planes):
    """Stacked indicator over half-planes ``(beta, direction)``: a row
    ``u`` of problem ``k`` fails when ``u . d_k > beta_k``.  The dot
    product is written out elementwise, so a row's answer does not
    depend on which rows share its call."""
    betas = np.array([beta for beta, _ in planes])
    dirs = np.array([np.asarray(d, dtype=float) / np.linalg.norm(d)
                     for _, d in planes])

    def failure(u, k):
        return u[:, 0] * dirs[k, 0] + u[:, 1] * dirs[k, 1] > betas[k]

    return failure


def solo(stacked):
    """Problem 0 of a stacked indicator as a plain ``failure(u)``."""
    return lambda u: stacked(u, np.zeros(len(u), dtype=int))


def counted(failure):
    """``failure`` plus a list that grows by one per call."""
    calls = []

    def wrapped(*args):
        calls.append(len(args[0]))
        return failure(*args)

    return wrapped, calls


def assert_same_estimate(a, b):
    """Bit-for-bit equality of two YieldEstimates, shift included."""
    assert (a.p_fail, a.ci_lo, a.ci_hi, a.ess, a.rel_err, a.sigma,
            a.n_trials) == (b.p_fail, b.ci_lo, b.ci_hi, b.ess, b.rel_err,
                            b.sigma, b.n_trials)
    assert (a.shift is None) == (b.shift is None)
    if a.shift is not None:
        np.testing.assert_array_equal(a.shift.u_star, b.shift.u_star)
        assert a.shift.n_probes == b.shift.n_probes


def _search_without_pruning(failure, n_problems, n_directions=16,
                            r_max_sigma=8.0, n_bisections=16):
    """:func:`find_failure_shifts` as it was before it dropped rays that
    cannot win: every live ray bisects through every level.  The search
    verbatim, without its input checks and perf counter; one
    ``(u_star, beta_sigma, n_probes)`` or ``None`` per problem."""
    n_probes = np.zeros(n_problems, dtype=int)

    def fail_at(points, owner):
        n_probes[:] += np.bincount(owner, minlength=n_problems)
        return np.asarray(failure(points, owner), dtype=bool)

    def bisect_fans(angles, problems):
        rays = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
        flat = rays.reshape(-1, 2)
        owner = np.repeat(problems, n_directions)
        alive = fail_at(r_max_sigma * flat, owner)
        radii = np.full(alive.shape, np.inf)
        if alive.any():
            rays_live, owner_live = flat[alive], owner[alive]
            lo = np.zeros(rays_live.shape[0])
            hi = np.full(rays_live.shape[0], r_max_sigma)
            for _ in range(n_bisections):
                mid = 0.5 * (lo + hi)
                failed = fail_at(mid[:, None] * rays_live, owner_live)
                hi = np.where(failed, mid, hi)
                lo = np.where(failed, lo, mid)
            radii[alive] = hi   # first radius verified to fail
        return radii.reshape(angles.shape), rays

    coarse = np.linspace(0.0, 2.0 * math.pi, n_directions, endpoint=False)
    problems = np.arange(n_problems)
    radii, rays = bisect_fans(np.tile(coarse, (n_problems, 1)), problems)
    best = np.argmin(radii, axis=1)
    found = np.isfinite(radii[problems, best])
    shifts = [None] * n_problems
    if not found.any():
        return shifts
    span = 2.0 * math.pi / n_directions
    live = problems[found]
    fine = coarse[best[found]][:, None] + np.linspace(-span, span,
                                                      n_directions)
    fine_radii, fine_rays = bisect_fans(fine, live)
    all_radii = np.concatenate([radii[found], fine_radii], axis=1)
    all_rays = np.concatenate([rays[found], fine_rays], axis=1)
    for row, k in enumerate(live):
        best_k = int(np.argmin(all_radii[row]))
        beta = float(all_radii[row, best_k])
        shifts[k] = (beta * all_rays[row, best_k], beta, int(n_probes[k]))
    return shifts


def random_sets(rng, n):
    """A stacked indicator over ``n`` seeded failure sets.  Each is a
    half-plane, some beyond the 8-sigma horizon and a quarter of them
    normal to a coarse search ray, joined in two of three problems by
    a disc or an annulus: rays through a disc or annulus fail, pass
    and fail again on their way out.  Written elementwise, so a row's
    answer does not depend on which rows share its call."""
    theta = rng.uniform(0.0, 2.0 * math.pi, n)
    on_grid = rng.random(n) < 0.25
    theta[on_grid] = rng.integers(0, 16, on_grid.sum()) * (math.pi / 8.0)
    dirs = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    beta = rng.uniform(1.0, 10.0, n)
    kind = rng.integers(0, 3, n)          # 0 plane, 1 + disc, 2 + annulus
    centre = rng.uniform(-6.0, 6.0, (n, 2))
    r_in = np.where(kind == 2, rng.uniform(0.5, 2.0, n), 0.0)
    r_out = np.where(kind > 0, r_in + rng.uniform(0.3, 2.5, n), 0.0)

    def failure(u, k):
        plane = u[:, 0] * dirs[k, 0] + u[:, 1] * dirs[k, 1] > beta[k]
        dx, dy = u[:, 0] - centre[k, 0], u[:, 1] - centre[k, 1]
        dist2 = dx * dx + dy * dy
        return plane | ((r_in[k] ** 2 <= dist2) & (dist2 < r_out[k] ** 2))

    return failure


class TestStreams:
    @pytest.mark.parametrize("stream_cls",
                             [SobolNormalStream, PseudoNormalStream])
    def test_index_addressing_is_chunk_invariant(self, stream_cls):
        stream = stream_cls(seed=11)
        whole = stream.take(0, 96)
        parts = np.concatenate([stream.take(0, 13), stream.take(13, 51),
                                stream.take(64, 32)])
        np.testing.assert_array_equal(whole, parts)

    def test_pseudo_stream_invariant_across_block_boundary(self):
        stream = PseudoNormalStream(seed=3)
        start = MC_BLOCK_TRIALS - 5
        whole = stream.take(start, 10)
        parts = np.concatenate([stream.take(start, 5),
                                stream.take(MC_BLOCK_TRIALS, 5)])
        np.testing.assert_array_equal(whole, parts)

    @pytest.mark.parametrize("stream_cls",
                             [SobolNormalStream, PseudoNormalStream])
    def test_replicates_are_distinct(self, stream_cls):
        a = stream_cls(seed=11, replicate=0).take(0, 32)
        b = stream_cls(seed=11, replicate=1).take(0, 32)
        assert not np.array_equal(a, b)

    def test_sobol_stream_is_roughly_standard_normal(self):
        z = SobolNormalStream(seed=0).take(0, 4096)
        assert abs(float(z.mean())) < 0.05
        assert float(z.std()) == pytest.approx(1.0, abs=0.05)

    @pytest.mark.parametrize("stream_cls",
                             [SobolNormalStream, PseudoNormalStream])
    def test_take_validates_range(self, stream_cls):
        with pytest.raises(ParameterError):
            stream_cls().take(-1, 4)
        with pytest.raises(ParameterError):
            stream_cls().take(0, 0)

    @pytest.mark.parametrize("stream_cls",
                             [SobolNormalStream, PseudoNormalStream])
    def test_constructor_validates(self, stream_cls):
        with pytest.raises(ParameterError):
            stream_cls(replicate=-1)
        with pytest.raises(ParameterError):
            stream_cls(dim=0)

    def test_qmc_vth_offsets_scale_with_device_sigma(self, inverter_sub):
        offs_n, offs_p = qmc_vth_offsets(inverter_sub, 1024, seed=5)
        assert offs_n.shape == offs_p.shape == (1024,)
        # mV-scale RDF offsets, not standardised units
        assert 1e-4 < float(np.std(offs_n)) < 0.05
        with pytest.raises(ParameterError):
            qmc_vth_offsets(inverter_sub, 0)


def scipy_sobol_take(seed, replicate, dim, start, count):
    """Trials ``start .. start+count-1`` from scipy's own scrambled
    Sobol' engine under the stream's seeding: the replicate's spawn
    child seeds the Generator, the engine is fast-forwarded to
    ``start``, and the clipped uniforms go through ``ndtri``."""
    children = np.random.SeedSequence(seed).spawn(replicate + 1)
    rng = np.random.default_rng(children[replicate])
    engine = qmc.Sobol(d=dim, scramble=True, seed=rng)
    if start:
        engine.fast_forward(start)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        u = engine.random(count)
    return ndtri(np.clip(u, 1e-16, 1.0 - 1e-16))


class TestScipyStatsOracle:
    """scipy.stats, kept in the tests only: the Sobol' stream and the
    timing-margin quantile are bit for bit its values."""

    @pytest.mark.parametrize("start,count", [(0, 1), (13, 51), (0, 4096),
                                             (2 ** 20 - 3, 700)])
    @pytest.mark.parametrize("dim", range(1, SOBOL_MAX_DIM + 1))
    def test_take_is_scipys_stream(self, dim, start, count):
        for seed in (0, 1, 11, 2007):
            for replicate in (0, 1, 3):
                stream = SobolNormalStream(seed=seed, replicate=replicate,
                                           dim=dim)
                np.testing.assert_array_equal(
                    stream.take(start, count),
                    scipy_sobol_take(seed, replicate, dim, start, count))

    def test_dim_beyond_the_table_is_refused(self):
        SobolNormalStream(dim=SOBOL_MAX_DIM)
        with pytest.raises(ParameterError):
            SobolNormalStream(dim=SOBOL_MAX_DIM + 1)

    def test_range_beyond_the_sequence_is_refused(self):
        stream = SobolNormalStream()
        assert stream.take(2 ** SOBOL_BITS - 2, 2).shape == (2, 2)
        with pytest.raises(ParameterError):
            stream.take(2 ** SOBOL_BITS - 2, 3)
        with pytest.raises(ParameterError):
            stream.take(2 ** SOBOL_BITS, 1)

    @pytest.mark.parametrize("n_paths,yield_target",
                             [(1, 0.9), (1000, 0.999), (100000, 0.9999)])
    def test_timing_margin_quantile_is_norm_ppf(self, inverter_sub,
                                                n_paths, yield_target):
        q = yield_target ** (1.0 / n_paths)
        z = float(norm.ppf(q))
        assert float(ndtri(q)) == z
        report = timing_margin(inverter_sub, n_gates=1, n_paths=n_paths,
                               yield_target=yield_target)
        assert report.margin_multiplier == math.exp(z * report.sigma_ln_path)


class TestSigmaLevel:
    def test_six_sigma_round_trip(self):
        assert sigma_level(failure_probability(6.0)) == pytest.approx(6.0)
        assert failure_probability(6.0) == pytest.approx(9.866e-10,
                                                         rel=1e-3)

    def test_edge_cases(self):
        assert sigma_level(0.0) == math.inf
        assert sigma_level(1.0) == -math.inf
        with pytest.raises(ParameterError):
            sigma_level(-1e-9)

    def test_monotone_decreasing_in_p(self):
        ps = [1e-9, 1e-6, 1e-3, 0.5]
        sigmas = [sigma_level(p) for p in ps]
        assert sigmas == sorted(sigmas, reverse=True)


class TestFindFailureShift:
    def test_recovers_half_plane_design_point(self):
        shift = find_failure_shift(half_plane(3.0))
        assert shift is not None
        assert shift.beta_sigma == pytest.approx(3.0, abs=0.02)
        np.testing.assert_allclose(shift.u_star, [3.0, 0.0], atol=0.15)

    def test_diagonal_direction(self):
        shift = find_failure_shift(half_plane(2.5, direction=(1.0, 1.0)))
        assert shift.beta_sigma == pytest.approx(2.5, abs=0.02)

    def test_none_beyond_horizon(self):
        assert find_failure_shift(half_plane(12.0),
                                  r_max_sigma=8.0) is None

    def test_probe_count_is_batched_not_per_ray(self):
        shift = find_failure_shift(half_plane(3.0), n_directions=16,
                                   n_bisections=16)
        # two fans of 16 rays, <= 17 batched rounds each
        assert shift.n_probes <= 2 * 16 * 17

    def test_lockstep_search_equals_solo_searches(self):
        planes = [(3.0, (1.0, 0.0)), (2.5, (1.0, 1.0)), (12.0, (1.0, 0.0))]
        stacked, calls = counted(plane_stack(*planes))
        shifts = find_failure_shifts(stacked, 3, r_max_sigma=8.0)
        assert len(calls) == 34
        for shift, plane in zip(shifts, planes):
            one, solo_calls = counted(solo(plane_stack(plane)))
            ref = find_failure_shift(one, r_max_sigma=8.0)
            if ref is None:
                assert shift is None
                continue
            np.testing.assert_array_equal(shift.u_star, ref.u_star)
            assert shift.beta_sigma == ref.beta_sigma
            assert shift.n_probes == ref.n_probes
            assert len(solo_calls) == 34
        assert shifts[2] is None

    @pytest.mark.parametrize("seed", range(8))
    def test_dropping_rays_changes_no_failure_point(self, seed):
        """Seeded stacks of 1-4 problems: every failure point is bitwise
        the search's without dropped rays, and no problem spends more
        probes."""
        rng = np.random.default_rng(seed)
        spent, oracle_spent = 0, 0
        for _ in range(25):
            n = int(rng.integers(1, 5))
            failure = random_sets(rng, n)
            shifts = find_failure_shifts(failure, n, r_max_sigma=8.0)
            for shift, ref in zip(shifts,
                                  _search_without_pruning(failure, n)):
                assert (shift is None) == (ref is None)
                if ref is None:
                    continue
                u_star, beta, n_probes = ref
                assert shift.beta_sigma == beta
                np.testing.assert_array_equal(shift.u_star, u_star)
                assert shift.n_probes <= n_probes
                spent += shift.n_probes
                oracle_spent += n_probes
        assert spent < oracle_spent

    def test_validates_inputs(self):
        with pytest.raises(ParameterError):
            find_failure_shift(half_plane(3.0), dim=3)
        with pytest.raises(ParameterError):
            find_failure_shift(half_plane(3.0), n_directions=2)
        with pytest.raises(ParameterError):
            find_failure_shift(half_plane(3.0), r_max_sigma=0.0)


class TestEstimator:
    @pytest.mark.parametrize("method", ["is", "qmc-is"])
    def test_unbiased_on_analytic_tail(self, method):
        # p = ndtr(-4) ~ 3.17e-5: far beyond a 4096-trial brute reach,
        # easily resolved by the shifted estimator.  The plane is
        # tilted: an exactly axis-aligned boundary would sit on a
        # dyadic boundary of the Sobol' net after the shift, where the
        # replicate-spread CI is known to under-cover.
        exact = failure_probability(4.0)
        est = estimate_failure_probability(half_plane(4.0, (1.0, 0.5)),
                                           method=method,
                                           n_trials=4096, seed=7)
        assert est.ci_lo <= exact <= est.ci_hi
        assert est.p_fail == pytest.approx(exact, rel=0.15)
        assert est.rel_err < 0.10
        assert est.ess > 50.0

    def test_mc_matches_exact_at_moderate_p(self):
        exact = failure_probability(2.0)        # ~2.3e-2
        est = estimate_failure_probability(half_plane(2.0), method="mc",
                                           n_trials=1 << 14, seed=7)
        assert est.ci_lo <= exact <= est.ci_hi

    @pytest.mark.parametrize("chunk", [129, 777, 4096, 100000])
    def test_chunk_size_does_not_change_the_bytes(self, chunk):
        base = estimate_failure_probability(half_plane(4.0),
                                            n_trials=4096, seed=7)
        alt = estimate_failure_probability(half_plane(4.0),
                                           n_trials=4096, seed=7,
                                           chunk_trials=chunk)
        assert alt.p_fail == base.p_fail
        assert alt.rel_err == base.rel_err
        assert alt.ci_lo == base.ci_lo and alt.ci_hi == base.ci_hi

    @pytest.mark.parametrize("chunk", [129, 4096])
    def test_early_stopping_is_chunk_invariant(self, chunk):
        est = estimate_failure_probability(half_plane(4.0),
                                           n_trials=1 << 15, seed=7,
                                           target_rel_err=0.10,
                                           chunk_trials=chunk)
        assert est.n_trials < (1 << 15)          # actually stopped early
        assert est.rel_err <= 0.10
        base = estimate_failure_probability(half_plane(4.0),
                                            n_trials=1 << 15, seed=7,
                                            target_rel_err=0.10)
        assert est.n_trials == base.n_trials
        assert est.p_fail == base.p_fail

    def test_explicit_shift_skips_search(self):
        shift = FailurePoint(u_star=np.array([4.0, 0.0]), beta_sigma=4.0,
                             n_probes=0)
        est = estimate_failure_probability(half_plane(4.0), shift=shift,
                                           n_trials=2048, seed=7)
        assert est.shift is shift
        assert est.ci_lo <= failure_probability(4.0) <= est.ci_hi

    def test_unreachable_failure_reports_zero_without_trials(self):
        est = estimate_failure_probability(half_plane(12.0),
                                           r_max_sigma=8.0)
        assert est.p_fail == 0 and est.n_trials == 0
        assert est.sigma == math.inf and est.rel_err == math.inf

    def test_unshifted_methods_carry_no_shift(self):
        est = estimate_failure_probability(half_plane(1.0), method="qmc",
                                           n_trials=1024, seed=7)
        assert est.shift is None
        assert est.n_replicates == 8

    def test_validates_inputs(self):
        with pytest.raises(ParameterError):
            estimate_failure_probability(half_plane(1.0), method="lhs")
        with pytest.raises(ParameterError):
            estimate_failure_probability(half_plane(1.0), n_trials=1)
        with pytest.raises(ParameterError):
            estimate_failure_probability(half_plane(1.0), method="qmc",
                                         n_replicates=1)
        with pytest.raises(ParameterError):
            estimate_failure_probability(half_plane(1.0),
                                         target_rel_err=0.0)
        with pytest.raises(ParameterError):
            estimate_failure_probability(half_plane(1.0), chunk_trials=0)

    def test_lockstep_core_validates_problem_count(self):
        stacked = plane_stack((3.0, (1.0, 0.0)), (2.5, (1.0, 1.0)))
        with pytest.raises(ParameterError):
            find_failure_shifts(stacked, 0)
        with pytest.raises(ParameterError):
            estimate_failure_probabilities(stacked, 0)
        shift = find_failure_shift(half_plane(3.0))
        with pytest.raises(ParameterError):
            estimate_failure_probabilities(stacked, 2, shifts=(shift,))


class TestPhysicalIndicators:
    def test_delay_indicator_fails_on_slow_corners(self, inverter_sub):
        indicator = failure_indicator(inverter_sub, mode="delay",
                                      slowdown=1.5)
        u = np.array([[0.0, 0.0], [8.0, 8.0], [-8.0, -8.0]])
        mask = indicator(u)
        assert not mask[0]          # nominal cell meets timing
        assert mask[1]              # +8 sigma V_th on both devices: slow
        assert not mask[2]          # fast corner never *exceeds* t_max

    def test_snm_indicator_nominal_cell_passes(self, inverter_sub):
        indicator = failure_indicator(inverter_sub, mode="snm")
        mask = indicator(np.zeros((1, 2)))
        assert not mask[0]

    def test_validates_modes_and_thresholds(self, inverter_sub):
        with pytest.raises(ParameterError):
            failure_indicator(inverter_sub, mode="leakage")
        with pytest.raises(ParameterError):
            failure_indicator(inverter_sub, mode="snm", snm_min_v=-0.1)
        with pytest.raises(ParameterError):
            failure_indicator(inverter_sub, mode="delay", slowdown=0.9)
        with pytest.raises(ParameterError):
            failure_indicator(inverter_sub, mode="delay", t_max_s=-1e-9)

    def test_cell_failure_rate_delay_tail(self, sub_family):
        inv = sub_family.design("32nm").inverter(0.25)
        est = cell_failure_rate(inv, mode="delay", slowdown=1.3,
                                n_trials=2048)
        # The brute-verified agreement point: p ~ 2.5e-4.
        assert 1e-4 < est.p_fail < 1e-3
        assert est.rel_err < 0.10

    def test_cell_failure_rate_rejects_unknown_method(self, inverter_sub):
        with pytest.raises(ParameterError):
            cell_failure_rate(inverter_sub, method="lhs")


class TestSnmIndicatorAccuracy:
    """The SNM-collapse indicator's cheap settings are converged."""

    VDD_GRID = (0.10, 0.115, 0.13, 0.14)

    def test_indicator_matches_tight_extraction(self, sub_family,
                                                super_family):
        rng = np.random.default_rng(2007)
        for family in (sub_family, super_family):
            design = family.design("32nm")
            for vdd in self.VDD_GRID:
                inv = design.inverter(vdd)
                u = 2.0 * rng.standard_normal((64, 2))
                dn = rdf_sigma_vth(inv.nfet) * u[:, 0]
                dp = rdf_sigma_vth(inv.pfet) * u[:, 1]
                cheap = noise_margins_batch(inv, dn, dp,
                                            n_scan=SNM_SCAN_DEFAULT,
                                            xtol=SNM_XTOL_DEFAULT)
                tight = noise_margins_batch(inv, dn, dp,
                                            n_scan=SNM_SCAN_DEFAULT,
                                            xtol=1e-13)
                np.testing.assert_array_equal(cheap.lost_code,
                                              tight.lost_code)
                kept = ~tight.lost
                assert np.max(np.abs(cheap.snm[kept] - tight.snm[kept])) \
                    <= SNM_XTOL_DEFAULT, (family.strategy, vdd)

    @pytest.mark.parametrize("strategy", ["sub", "super"])
    def test_per_lane_supply_equals_per_supply_calls(self, sub_family,
                                                     super_family,
                                                     strategy):
        """One kernel call over a stack of supplies returns the bits of
        one call per supply, on ext_yield's SNM and delay grids."""
        family = sub_family if strategy == "sub" else super_family
        design = family.design("32nm")
        rng = np.random.default_rng(2007)
        for grid in (SNM_VDD_GRID, DELAY_VDD_GRID):
            base = design.inverter(grid[0])
            u = 2.0 * rng.standard_normal((8 * len(grid), 2))
            dn = rdf_sigma_vth(base.nfet) * u[:, 0]
            dp = rdf_sigma_vth(base.pfet) * u[:, 1]
            vdd = np.repeat(grid, 8)
            vin = 0.45 * vdd
            nm = noise_margins_batch(base, dn, dp, n_scan=21, xtol=1e-5,
                                     vdd=vdd)
            vout = solve_vtc_batch(base, vin, dn, dp, vdd=vdd)
            delay = analytic_delay_batch(base, dn, dp, vdd=vdd)
            for i, v in enumerate(grid):
                lanes = slice(8 * i, 8 * i + 8)
                inv = design.inverter(v)
                ref = noise_margins_batch(inv, dn[lanes], dp[lanes],
                                          n_scan=21, xtol=1e-5)
                for name in ("v_il", "v_ih", "v_ol", "v_oh", "nm_low",
                             "nm_high", "lost_code"):
                    assert np.array_equal(getattr(nm, name)[lanes],
                                          getattr(ref, name),
                                          equal_nan=True), (v, name)
                assert np.array_equal(
                    vout[lanes],
                    solve_vtc_batch(inv, vin[lanes], dn[lanes], dp[lanes]))
                assert np.array_equal(
                    delay[lanes],
                    analytic_delay_batch(inv, dn[lanes], dp[lanes]))

    @pytest.mark.parametrize("strategy, vdd, sigma", [
        ("super", 0.115, 1.466),
        ("sub", 0.14, 8.988),
    ])
    def test_ext_yield_snm_sigma_pinned(self, sub_family, super_family,
                                        strategy, vdd, sigma):
        """ext_yield's SNM-collapse sigma-levels at its own budget equal
        the tight-tolerance (xtol 1e-10) extraction's values."""
        family = super_family if strategy == "super" else sub_family
        est = cell_failure_rate(family.design("32nm").inverter(vdd),
                                mode="snm", n_trials=SNM_TRIALS,
                                n_replicates=SNM_REPLICATES,
                                r_max_sigma=R_MAX_SIGMA, seed=2007)
        assert est.sigma == pytest.approx(sigma, abs=0.01)


class TestFailureRateCurve:
    def test_curve_is_order_independent(self, sub_family):
        design = sub_family.design("32nm")
        kwargs = dict(mode="delay", slowdown=1.3, n_trials=512,
                      n_replicates=4)
        fwd = failure_rate_curve(design.inverter, [0.25, 0.30], "sub",
                                 **kwargs)
        rev = failure_rate_curve(design.inverter, [0.30, 0.25], "sub",
                                 **kwargs)
        np.testing.assert_array_equal(fwd.p_fail, rev.p_fail[::-1])
        np.testing.assert_array_equal(fwd.ci_lo, rev.ci_lo[::-1])

    def test_sigma_rises_with_supply(self, sub_family):
        design = sub_family.design("32nm")
        curve = failure_rate_curve(design.inverter, [0.25, 0.40], "sub",
                                   mode="delay", slowdown=1.3,
                                   n_trials=512, n_replicates=4,
                                   r_max_sigma=10.0)
        assert curve.sigma[1] > curve.sigma[0]

    def test_rejects_empty_grid(self, inverter_sub):
        with pytest.raises(ParameterError):
            failure_rate_curve(lambda v: inverter_sub, [], "x")

    def test_rejects_mixed_device_pairs(self, sub_family, super_family):
        sub = sub_family.design("32nm")
        sup = super_family.design("32nm")

        def mixed(vdd):
            return (sub if vdd < 0.2 else sup).inverter(vdd)

        with pytest.raises(ParameterError, match="device pair"):
            failure_rate_curve(mixed, [0.15, 0.25], "mixed")

    @staticmethod
    def assert_curve_is_solo_points(design, grid, **kwargs):
        curve = failure_rate_curve(design.inverter, grid, "x", **kwargs)
        for vdd, est in zip(grid, curve.estimates):
            assert_same_estimate(
                est, cell_failure_rate(design.inverter(vdd), **kwargs))
        return curve

    def test_snm_curve_equals_solo_points_at_one_search_cost(
            self, super_family):
        design = super_family.design("32nm")
        grid = (0.115, 0.13)
        kwargs = dict(mode="snm", n_trials=64, n_replicates=4,
                      r_max_sigma=R_MAX_SIGMA)

        def solves_of(run):
            before = perf.get("circuit.vtc_batch_solves")
            out = run()
            return out, perf.get("circuit.vtc_batch_solves") - before

        solo_runs = [solves_of(lambda v=v: cell_failure_rate(
            design.inverter(v), **kwargs)) for v in grid]
        curve, curve_solves = solves_of(lambda: failure_rate_curve(
            design.inverter, grid, "x", **kwargs))
        for est, (ref, _) in zip(curve.estimates, solo_runs):
            assert_same_estimate(est, ref)
        # The stack pays about one point's solves, not their sum.
        assert curve_solves <= 1.25 * max(n for _, n in solo_runs)

    def test_delay_curve_with_point_beyond_horizon(self, sub_family):
        curve = self.assert_curve_is_solo_points(
            sub_family.design("32nm"), (0.15, 0.40), mode="delay",
            slowdown=1.5, n_trials=512, r_max_sigma=6.0)
        assert curve.estimates[0].n_trials == 512
        assert curve.estimates[1].n_trials == 0

    def test_early_stopping_points_retire_separately(self, sub_family):
        curve = self.assert_curve_is_solo_points(
            sub_family.design("32nm"), (0.25, 0.40), mode="delay",
            slowdown=1.3, n_trials=4096, target_rel_err=0.1,
            min_trials=256, r_max_sigma=10.0)
        assert [e.n_trials for e in curve.estimates] == [256, 512]

    def test_mc_curve_equals_solo_points(self, sub_family):
        self.assert_curve_is_solo_points(
            sub_family.design("32nm"), (0.10, 0.115), mode="snm",
            method="mc", n_trials=128)

    def test_curve_is_chunk_invariant(self, sub_family):
        design = sub_family.design("32nm")
        kwargs = dict(mode="delay", slowdown=1.3, n_trials=512)
        base = self.assert_curve_is_solo_points(design, (0.25, 0.30),
                                                **kwargs)
        small = failure_rate_curve(design.inverter, (0.25, 0.30), "x",
                                   chunk_trials=64, **kwargs)
        for a, b in zip(base.estimates, small.estimates):
            assert_same_estimate(a, b)


class TestYieldCli:
    def test_yield_smoke(self, capsys):
        from repro.cli import main
        assert main(["yield", "--vdd", "0.25", "--trials", "256",
                     "--slowdown", "1.3"]) == 0
        out = capsys.readouterr().out
        assert "p_fail" in out and "sigma" in out

    def test_yield_reports_search_horizon_only_when_searched(self,
                                                             capsys):
        from repro.cli import main
        assert main(["yield", "--vdd", "0.40", "--trials", "256",
                     "--r-max-sigma", "6"]) == 0
        out = capsys.readouterr().out
        assert "no failure within 6 sigma" in out

    def test_yield_reports_no_failing_trial_for_brute_force(self, capsys):
        from repro.cli import main
        assert main(["yield", "--method", "mc", "--mode", "snm", "--vdd",
                     "0.40", "--trials", "256"]) == 0
        out = capsys.readouterr().out
        assert "no failing trial in 256 trials" in out
        assert "sigma" not in out.split("\n", 1)[1]

    def test_yield_unknown_node_exits_2(self, capsys):
        from repro.cli import main
        assert main(["yield", "--node", "7nm"]) == 2
        err = capsys.readouterr().err
        assert "7nm" in err and "32nm" in err
