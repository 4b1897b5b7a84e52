"""Benches: the rare-event yield engine (QMC + importance sampling).

The headline gate is **equal-accuracy speedup**: at a brute-force-
verifiable tail point (p ~ 1e-4 delay exceedance at the sub-V_th
design's 0.25 V operating point) the mean-shift QMC-IS estimator must
beat plain batched Monte Carlo by >= 100x wall-clock at matched
confidence-interval width — while agreeing with it inside both 95 %
intervals (unbiasedness is checked, not assumed).  The matched-width
brute run is a few-second bench; set ``REPRO_BENCH_QUICK=1`` (the CI
quick mode) to replace it with a smaller, unmatched brute run and skip
the speedup gate.
"""

from __future__ import annotations

import os
import time

from conftest import run_once

from repro.experiments import run_experiment
from repro.experiments.ext_yield import R_MAX_SIGMA, SNM_VDD_GRID
from repro.experiments.families import sub_vth_family, super_vth_family
from repro.variability import (
    estimate_failure_probability,
    failure_indicator,
    find_failure_shift,
)
from repro.variability.importance import find_failure_shifts
from repro.variability.tails import (SNM_SCAN_DEFAULT, SNM_XTOL_DEFAULT,
                                     _snm_indicator)

QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"

#: The brute-force-verifiable agreement point: a 1.3x timing window at
#: the sub-V_th design's nominal supply sits at p ~ 2.5e-4.
AGREE_VDD = 0.25
AGREE_SLOWDOWN = 1.3
IS_TRIALS = 2048

#: Wall-clock gate of the equal-accuracy comparison.
SPEEDUP_GATE = 100.0


def _agreement_indicator():
    inv = sub_vth_family().design("32nm").inverter(AGREE_VDD)
    return failure_indicator(inv, mode="delay", slowdown=AGREE_SLOWDOWN)


def _full_is_pipeline(indicator):
    """Shift search + estimation — everything brute force doesn't need."""
    return estimate_failure_probability(indicator, method="qmc-is",
                                        n_trials=IS_TRIALS)


def _next_pow2(n: float) -> int:
    power = 1
    while power < n:
        power *= 2
    return power


def test_bench_yield_qmc_is(benchmark):
    """The full 2048-trial QMC-IS pipeline, shift search included."""
    indicator = _agreement_indicator()
    est = run_once(benchmark, _full_is_pipeline, indicator)
    benchmark.extra_info["p_fail"] = est.p_fail
    benchmark.extra_info["rel_err"] = est.rel_err
    benchmark.extra_info["sigma"] = est.sigma
    benchmark.extra_info["ess"] = est.ess
    assert 0.0 < est.p_fail < 1e-3
    assert est.rel_err < 0.10


def test_bench_yield_shift_search(benchmark):
    """Batched minimum-norm failure-point search alone."""
    indicator = _agreement_indicator()
    shift = run_once(benchmark, find_failure_shift, indicator)
    benchmark.extra_info["beta_sigma"] = shift.beta_sigma
    benchmark.extra_info["n_probes"] = shift.n_probes
    assert 3.0 < shift.beta_sigma < 4.0


def test_bench_yield_equal_accuracy_speedup(benchmark):
    """Matched-CI-width brute force vs the QMC-IS pipeline.

    The bench times the composite so the recorded number is the whole
    comparison; the split timings, trial counts and the measured
    speedup ride along in ``extra_info``.  Quick mode shrinks the
    brute run (then the widths are no longer matched, so the >= 100x
    gate only applies to the full run).
    """
    indicator = _agreement_indicator()

    facts: dict[str, float] = {}

    def composite():
        start = time.perf_counter()
        est = _full_is_pipeline(indicator)
        t_is = time.perf_counter() - start
        # Plain-MC trials needed to match the IS CI width:
        # N = (1 - p) / (p rel^2), rounded up to a Sobol'-friendly
        # power of two.
        matched = _next_pow2(
            (1.0 - est.p_fail) / (est.p_fail * est.rel_err ** 2))
        n_brute = 1 << 18 if QUICK else matched
        start = time.perf_counter()
        brute = estimate_failure_probability(indicator, method="mc",
                                             n_trials=n_brute)
        t_brute = time.perf_counter() - start
        facts.update(
            t_is_s=t_is, t_brute_s=t_brute,
            speedup=t_brute / t_is,
            is_trials=est.n_trials, brute_trials=n_brute,
            matched_trials=matched,
            trial_compression=matched / est.n_trials,
            p_is=est.p_fail, p_brute=brute.p_fail,
            rel_is=est.rel_err, rel_brute=brute.rel_err,
        )
        return est, brute

    est, brute = run_once(benchmark, composite)
    benchmark.extra_info.update(
        {k: round(v, 6) if isinstance(v, float) else v
         for k, v in facts.items()})
    # Unbiasedness: the two 95 % intervals overlap.
    assert est.agrees_with(brute)
    if not QUICK:
        assert facts["speedup"] >= SPEEDUP_GATE


def test_bench_ext_yield(benchmark):
    """The provenance-tracked experiment end to end."""
    result = run_once(benchmark, run_experiment, "ext_yield")
    assert result.all_hold()
    sub_curve = result.get_series("delay-exceedance sigma, sub-vth")
    assert sub_curve.y[0] > 4.0


def test_bench_yield_snm_shift_search(benchmark):
    """The stacked SNM-mode failure-point search of ext_yield's
    super-V_th 32nm curve: its four supplies in one search, each
    indicator call one batched SNM extraction."""
    design = super_vth_family().design("32nm")
    indicator = _snm_indicator([design.inverter(v) for v in SNM_VDD_GRID],
                               0.0, SNM_SCAN_DEFAULT, SNM_XTOL_DEFAULT)
    shifts = run_once(benchmark, find_failure_shifts, indicator,
                      len(SNM_VDD_GRID), r_max_sigma=R_MAX_SIGMA)
    benchmark.extra_info["beta_sigma"] = [s.beta_sigma for s in shifts]
    benchmark.extra_info["n_probes"] = [s.n_probes for s in shifts]
    betas = [s.beta_sigma for s in shifts]
    assert betas == sorted(betas)  # margins widen with the supply
