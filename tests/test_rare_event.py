"""Tests for the rare-event yield engine (QMC streams + IS estimator).

The estimator-level tests run on *analytic* failure sets (half-planes
in the standardised offset space) whose probabilities are exact normal
tail masses, so unbiasedness and chunk-invariance are checked against
ground truth rather than against another sampler.  A handful of tests
drive the physical indicators on the shared inverter fixtures.
"""

import math

import numpy as np
import pytest

from repro.circuit import noise_margins_batch
from repro.errors import ParameterError
from repro.experiments.ext_yield import R_MAX_SIGMA, SNM_REPLICATES, SNM_TRIALS
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
)
from repro.variability.rdf import rdf_sigma_vth
from repro.variability.sampler import MC_BLOCK_TRIALS
from repro.variability.tails import SNM_SCAN_DEFAULT, SNM_XTOL_DEFAULT


def half_plane(beta, direction=(1.0, 0.0)):
    """Failure set {u : u . d > beta}; exact probability ndtr(-beta)."""
    d = np.asarray(direction) / np.linalg.norm(direction)

    def indicator(u):
        return np.asarray(u) @ d > beta

    return indicator


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


class TestYieldCli:
    def test_yield_smoke(self, capsys):
        from repro.cli import main
        assert main(["yield", "--vdd", "0.25", "--trials", "256",
                     "--slowdown", "1.3"]) == 0
        out = capsys.readouterr().out
        assert "p_fail" in out and "sigma" in out

    def test_yield_unknown_node_exits_2(self, capsys):
        from repro.cli import main
        assert main(["yield", "--node", "7nm"]) == 2
        err = capsys.readouterr().err
        assert "7nm" in err and "32nm" in err
