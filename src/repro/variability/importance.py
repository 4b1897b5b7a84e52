"""Mean-shift importance sampling for 5-6 sigma failure probabilities.

Brute-force Monte Carlo needs ~1/p trials to *see* one failure, so a
6 sigma cell failure rate (p ~ 1e-9) is out of reach even for the
array-native kernels.  This module implements the standard rare-event
workaround in the standardised offset space ``u = ΔV_th / sigma``:

1. **Minimum-norm failure point.**  A batched radial search over the
   failure indicator (itself built on ``noise_margins_batch`` /
   ``analytic_delay_batch``) finds the failure-boundary point closest
   to the origin — the dominant failure mode, at distance ``beta``
   sigmas.  Every bisection step probes all live directions in one
   batched kernel call.
2. **Mean-shift sampling.**  Trials are drawn from ``N(u*, I)``
   centred on that point, so failures are common instead of
   astronomically rare, and each trial is reweighted by the exact
   likelihood ratio ``w(u) = phi(u)/phi(u - u*)``.  The estimator
   ``p = mean(w * 1[fail])`` is unbiased for *any* failure set
   because the shifted Gaussian keeps full support.
3. **QMC option.**  The shifted trials can come from replicated
   scrambled-Sobol' streams (:mod:`repro.variability.sampler`); the
   spread between replicate estimates gives the confidence interval.

**Lock-step problems.**  The core solves a stack of independent
estimation problems at once — the V_dd points of one failure-rate
curve.  A stacked indicator ``failure(u, k)`` takes rows ``u`` of
standardised offsets and the index ``k`` of the problem each row
belongs to (the ``residual(x, idx)`` convention of
:mod:`repro.numerics`).  :func:`find_failure_shifts` bisects every
problem's direction fans in the same indicator calls, and
:func:`estimate_failure_probabilities` draws each replicate's
standard-normal chunk once, shifts it per problem and evaluates every
problem and replicate in one call.  Each problem's rows are computed
exactly as a one-problem run computes them, so its result is bitwise
the one :func:`find_failure_shift` / :func:`estimate_failure_probability`
return — those are the one-problem case of the same code.

Evaluation is chunked so memory stays flat at 10^5+ trials, yet the
result is byte-deterministic for any chunk size: the streams address
trials by absolute index and all reductions run over one preallocated
per-trial array.  The optional relative-error stopping rule only
examines the estimator at power-of-two milestones, which keeps early
stopping chunk-invariant too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.special import ndtr, ndtri

from .. import perf
from ..errors import ParameterError
from .sampler import PseudoNormalStream, SobolNormalStream

#: Estimator flavours: pseudo-random or replicated-QMC draws, with or
#: without the mean shift ("mc" is the brute-force baseline).
METHODS = ("mc", "qmc", "is", "qmc-is")

#: Two-sided 95 % normal quantile used for the confidence intervals.
_Z95 = 1.959963984540054


def sigma_level(p_fail: float) -> float:
    """One-sided sigma equivalent of a failure probability.

    ``sigma_level(9.87e-10) ~ 6.0`` — the "6 sigma" currency of memory
    yield.  Returns ``inf`` for ``p_fail <= 0``.
    """
    if p_fail < 0.0:
        raise ParameterError("failure probability cannot be negative")
    if p_fail == 0:
        return math.inf
    if p_fail >= 1.0:
        return -math.inf
    return float(-ndtri(p_fail))


def failure_probability(sigma: float) -> float:
    """Inverse of :func:`sigma_level`: the one-sided tail mass beyond
    ``sigma`` standard deviations (``6 -> 9.87e-10``)."""
    return float(ndtr(-sigma))


@dataclass(frozen=True)
class FailurePoint:
    """Minimum-norm failure-boundary point found by the radial search.

    Attributes
    ----------
    u_star:
        Standardised shift vector (units of per-device sigma).
    beta_sigma:
        Its norm — the design point's sigma distance, a first-order
        (FORM) estimate of the failure rate's sigma level.
    n_probes:
        Failure-indicator evaluations the search spent.  Rays that
        cannot be the shortest leave the bisection early, so this is
        not a fixed count per ray.
    """

    u_star: np.ndarray
    beta_sigma: float
    n_probes: int


#: A stacked failure indicator: ``failure(u, k)`` maps an ``(n, dim)``
#: array of standardised offsets and the ``(n,)`` problem index of each
#: row to a boolean failure mask.
StackedIndicator = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _one_problem(failure: Callable[[np.ndarray], np.ndarray]
                 ) -> StackedIndicator:
    """A plain ``failure(u)`` indicator as a one-problem stack."""
    return lambda u, k: failure(u)


def find_failure_shift(failure: Callable[[np.ndarray], np.ndarray],
                       dim: int = 2, n_directions: int = 16,
                       r_max_sigma: float = 8.0,
                       n_bisections: int = 16) -> FailurePoint | None:
    """Batched minimum-norm failure-point search.

    Probes ``n_directions`` unit rays from the origin of the
    standardised space; every ray that fails at radius ``r_max_sigma``
    [sigma] is bisected towards its first failing radius, all rays per
    step in **one** call of ``failure`` (one batched kernel solve),
    until the ray provably cannot be the shortest.  A second fan around
    the winning ray refines the direction.  Returns
    ``None`` when no probed ray fails within ``r_max_sigma`` — the
    failure set is beyond the search horizon (or empty).

    ``failure`` maps an ``(n, dim)`` array of standardised offsets to
    a boolean failure mask; only ``dim == 2`` directions fans are
    implemented (the inverter's two perturbed devices).  This is the
    one-problem case of :func:`find_failure_shifts`.
    """
    return find_failure_shifts(_one_problem(failure), 1, dim=dim,
                               n_directions=n_directions,
                               r_max_sigma=r_max_sigma,
                               n_bisections=n_bisections)[0]


def find_failure_shifts(failure: StackedIndicator, n_problems: int,
                        dim: int = 2, n_directions: int = 16,
                        r_max_sigma: float = 8.0, n_bisections: int = 16
                        ) -> tuple[FailurePoint | None, ...]:
    """Lock-step :func:`find_failure_shift` over ``n_problems`` problems.

    ``failure(u, k)`` is a stacked indicator (see the module
    docstring).  One call probes the coarse fans of all problems, the
    live rays of all problems are bisected together, and each
    problem's best ray seeds its own fine fan, bisected together again
    — so the whole stack costs the indicator calls of one search.

    **Exact pruning.**  Before each bisection level a ray leaves the
    bisection once its ``lo`` is at or above the smallest verified
    failing radius among its own problem's rays (for the fine fan, the
    problem's coarse best counts too).  Its final radius would lie
    strictly above that ``lo``, so it could never be the ``argmin``; it
    keeps its current ``hi``, which is strictly above the winner too,
    so the ``argmin`` and its first-index tie rule pick the same ray as
    bisecting every ray through every level.  The winning ray keeps all
    ``n_bisections`` levels, so ``beta_sigma`` and ``u_star`` are
    bitwise unchanged and only ``n_probes`` (and
    ``variability.shift_probes``) fall.  Each fan keeps its schedule
    of ``n_bisections + 1`` indicator calls (a level whose rays have
    all left makes its call with no rows).  Pruning is decided per
    problem, so entry ``k`` (``n_probes`` included) equals the
    one-problem search of problem ``k``.
    """
    if n_problems < 1:
        raise ParameterError("need at least one problem")
    if dim != 2:
        raise ParameterError("direction fans are implemented for dim == 2")
    if n_directions < 4:
        raise ParameterError("need at least 4 search directions")
    if r_max_sigma <= 0.0:
        raise ParameterError("r_max_sigma must be positive")
    n_probes = np.zeros(n_problems, dtype=int)

    def fail_at(points: np.ndarray, owner: np.ndarray) -> np.ndarray:
        n_probes[:] += np.bincount(owner, minlength=n_problems)
        perf.bump("variability.shift_probes", points.shape[0])
        return np.asarray(failure(points, owner), dtype=bool)

    def bisect_fans(angles: np.ndarray, problems: np.ndarray,
                    floor: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Verified failing radius of each ray of each problem's fan
        (``angles`` row ``i`` belongs to ``problems[i]``); ``inf``
        where the ray does not fail within the horizon.  ``floor[i]``
        is a radius already verified to fail for ``problems[i]``
        (``inf`` if none).  A ray whose ``lo`` reaches its row's
        smallest verified failing radius leaves the bisection with its
        current ``hi`` (the exact pruning above)."""
        rays = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
        flat = rays.reshape(-1, 2)
        owner = np.repeat(problems, n_directions)
        alive = fail_at(r_max_sigma * flat, owner)
        hi = np.where(alive, r_max_sigma, np.inf)  # verified to fail
        lo = np.where(alive, 0.0, np.inf)  # only failing rays bisect
        for _ in range(n_bisections if alive.any() else 0):
            bound = np.minimum(hi.reshape(angles.shape).min(axis=1), floor)
            bisected = np.flatnonzero(lo.reshape(angles.shape)
                                      < bound[:, None])
            lo_b, hi_b = lo[bisected], hi[bisected]
            mid = 0.5 * (lo_b + hi_b)
            failed = fail_at(mid[:, None] * flat[bisected], owner[bisected])
            hi[bisected] = np.where(failed, mid, hi_b)
            lo[bisected] = np.where(failed, lo_b, mid)
        return hi.reshape(angles.shape), rays

    coarse = np.linspace(0.0, 2.0 * math.pi, n_directions, endpoint=False)
    problems = np.arange(n_problems)
    radii, rays = bisect_fans(np.tile(coarse, (n_problems, 1)), problems,
                              np.full(n_problems, np.inf))
    best = np.argmin(radii, axis=1)
    coarse_best = radii[problems, best]
    found = np.isfinite(coarse_best)
    shifts: list[FailurePoint | None] = [None] * n_problems
    if not found.any():
        return tuple(shifts)
    # Refine the direction: a narrow fan spanning the winning ray's
    # neighbours, then keep the overall minimum-norm point.
    span = 2.0 * math.pi / n_directions
    live = problems[found]
    fine = coarse[best[found]][:, None] + np.linspace(-span, span,
                                                      n_directions)
    fine_radii, fine_rays = bisect_fans(fine, live, coarse_best[found])
    all_radii = np.concatenate([radii[found], fine_radii], axis=1)
    all_rays = np.concatenate([rays[found], fine_rays], axis=1)
    for row, k in enumerate(live):
        best_k = int(np.argmin(all_radii[row]))
        beta = float(all_radii[row, best_k])
        shifts[k] = FailurePoint(u_star=beta * all_rays[row, best_k],
                                 beta_sigma=beta,
                                 n_probes=int(n_probes[k]))
    return tuple(shifts)


@dataclass(frozen=True)
class YieldEstimate:
    """One rare-event failure-probability estimate.

    Attributes
    ----------
    p_fail:
        Estimated per-cell failure probability.
    rel_err:
        Standard error over the estimate (``inf`` when no failures
        were observed).
    ci_lo / ci_hi:
        Two-sided 95 % confidence bounds (clipped at 0).
    sigma:
        One-sided sigma equivalent of ``p_fail``.
    ess:
        Effective sample size of the failure-weighted trials,
        ``(sum w)^2 / sum w^2``.
    n_trials:
        Trials actually evaluated (early stopping may use fewer than
        requested).
    method:
        One of :data:`METHODS`.
    shift:
        The importance shift used (``None`` for the unshifted
        methods).
    n_replicates:
        Independent scrambles averaged by the QMC methods (1 for the
        pseudo-random methods).
    seed:
        Root seed of the trial streams.
    """

    p_fail: float
    rel_err: float
    ci_lo: float
    ci_hi: float
    sigma: float
    ess: float
    n_trials: int
    method: str
    shift: FailurePoint | None
    n_replicates: int
    seed: int

    def agrees_with(self, other: "YieldEstimate") -> bool:
        """Whether the two estimates' 95 % intervals overlap."""
        return self.ci_lo <= other.ci_hi and other.ci_lo <= self.ci_hi


def _round_up(value: int, multiple: int) -> int:
    return ((value + multiple - 1) // multiple) * multiple


def _stats(terms: np.ndarray, n_replicates: int
           ) -> tuple[float, float, float]:
    """(p_hat, standard error, ESS) of a filled per-trial prefix.

    Pseudo-random methods use the classic sample variance of the
    weighted terms; QMC methods read the spread between replicate
    means instead (within one scramble the trials are *not*
    independent, so the classic formula would lie).  Trials are
    interleaved round-robin across replicates, so a prefix holds
    equally many trials of each.
    """
    n = terms.size
    if n_replicates > 1:
        means = terms.reshape(n // n_replicates, n_replicates).mean(axis=0)
        p_hat = float(means.mean())
        se = float(means.std(ddof=1) / math.sqrt(n_replicates))
    else:
        p_hat = float(terms.mean())
        se = float(terms.std(ddof=1) / math.sqrt(n))
    failing = terms[terms > 0.0]
    ess = (float(failing.sum()) ** 2 / float((failing ** 2).sum())
           if failing.size else 0.0)
    return p_hat, se, ess


def estimate_failure_probability(
        failure: Callable[[np.ndarray], np.ndarray],
        method: str = "qmc-is",
        n_trials: int = 4096,
        seed: int = 2007,
        chunk_trials: int = 4096,
        n_replicates: int = 8,
        shift: FailurePoint | None = None,
        target_rel_err: float | None = None,
        min_trials: int = 1024,
        n_directions: int = 16,
        r_max_sigma: float = 8.0) -> YieldEstimate:
    """Unbiased likelihood-ratio estimate of ``P(failure)``.

    ``failure`` maps an ``(n, 2)`` array of standardised V_th offsets
    (units of each device's RDF sigma) to a boolean failure mask; it
    is evaluated in chunks of ``chunk_trials`` so peak memory does not
    grow with ``n_trials``, and the result is byte-identical for any
    chunk size.

    ``method`` selects the trial stream (:data:`METHODS`): plain
    brute force (``"mc"``), replicated scrambled-Sobol' QMC
    (``"qmc"``), and their mean-shifted importance-sampling versions
    (``"is"``, ``"qmc-is"``).  The shifted methods locate the shift
    with :func:`find_failure_shift` unless one is passed in; when no
    failure point exists within ``r_max_sigma`` [sigma] the estimate
    degenerates to "no failures observed" (``p_fail = 0`` with an
    infinite relative error) without spending the trial budget.

    With ``target_rel_err`` set, evaluation stops early at the first
    power-of-two milestone (>= ``min_trials``) where the estimate's
    relative standard error falls below the target — the
    effective-sample-size / relative-error stopping rule.  Milestones
    are independent of ``chunk_trials``, so early stopping is as
    chunk-invariant as the full run.  This is the one-problem case of
    :func:`estimate_failure_probabilities`.
    """
    return estimate_failure_probabilities(
        _one_problem(failure), 1, method=method, n_trials=n_trials,
        seed=seed, chunk_trials=chunk_trials, n_replicates=n_replicates,
        shifts=None if shift is None else (shift,),
        target_rel_err=target_rel_err, min_trials=min_trials,
        n_directions=n_directions, r_max_sigma=r_max_sigma)[0]


def estimate_failure_probabilities(
        failure: StackedIndicator,
        n_problems: int,
        method: str = "qmc-is",
        n_trials: int = 4096,
        seed: int = 2007,
        chunk_trials: int = 4096,
        n_replicates: int = 8,
        shifts: Sequence[FailurePoint] | None = None,
        target_rel_err: float | None = None,
        min_trials: int = 1024,
        n_directions: int = 16,
        r_max_sigma: float = 8.0) -> tuple[YieldEstimate, ...]:
    """Lock-step :func:`estimate_failure_probability` of ``n_problems``.

    ``failure(u, k)`` is a stacked indicator (see the module
    docstring).  Every problem shares the root ``seed``, so each
    replicate's chunk of standard-normal trials is drawn once and
    shifted per problem; one indicator call then carries every active
    problem and replicate, about ``chunk_trials`` rows in all.  The shifted
    methods search all problems' failure points with
    :func:`find_failure_shifts` unless ``shifts`` (one per problem)
    are passed in; a problem without a failure point inside
    ``r_max_sigma`` gets the no-failure estimate without trials.
    With ``target_rel_err`` every problem is checked at the same
    power-of-two milestones and retires at the first one it passes.
    Entry ``k`` equals the one-problem estimate of problem ``k``.
    """
    if method not in METHODS:
        raise ParameterError(f"unknown method {method!r}; "
                             f"choose one of {METHODS}")
    if n_problems < 1:
        raise ParameterError("need at least one problem")
    if shifts is not None and len(shifts) != n_problems:
        raise ParameterError("need one shift per problem")
    if n_trials < 2:
        raise ParameterError("need at least 2 trials")
    if chunk_trials < 1:
        raise ParameterError("chunk_trials must be >= 1")
    if n_replicates < 2 and method.startswith("qmc"):
        raise ParameterError("QMC error estimation needs >= 2 replicates")
    if target_rel_err is not None and target_rel_err <= 0.0:
        raise ParameterError("target_rel_err must be positive")

    use_qmc = method.startswith("qmc")
    use_shift = method.endswith("is")
    replicates = n_replicates if use_qmc else 1
    n_total = _round_up(n_trials, replicates)

    found: Sequence[FailurePoint | None] = [None] * n_problems
    if use_shift:
        found = (find_failure_shifts(failure, n_problems,
                                     n_directions=n_directions,
                                     r_max_sigma=r_max_sigma)
                 if shifts is None else shifts)
    # Nothing fails within the search horizon of a problem without a
    # failure point: it reports the no-failure outcome explicitly
    # instead of burning trials.
    active = [k for k in range(n_problems)
              if not use_shift or found[k] is not None]

    if use_qmc:
        streams = [SobolNormalStream(seed=seed, replicate=r)
                   for r in range(replicates)]
    else:
        streams = [PseudoNormalStream(seed=seed)]

    # Per-problem, per-trial likelihood-ratio terms w * 1[fail]; global
    # trial g is trial g // R of replicate g % R, so any prefix
    # balances the replicates and any chunking fills identical values.
    terms = {k: np.empty(n_total) for k in active}

    def fill(a: int, b: int) -> None:
        rows, owners, slots = [], [], []
        for r, stream in enumerate(streams):
            # Intra-replicate index range of global trials in [a, b)
            # with g % R == r.
            j0 = (a - r + replicates - 1) // replicates
            j1 = (b - r + replicates - 1) // replicates
            if j1 <= j0:
                continue
            z = stream.take(j0, j1 - j0)
            for k in active:
                if use_shift:
                    u_star = found[k].u_star
                    rows.append(z + u_star)
                    w = np.exp(-z @ u_star - 0.5 * float(u_star @ u_star))
                else:
                    rows.append(z)
                    w = np.ones(z.shape[0])
                owners.append(np.full(z.shape[0], k))
                slots.append((k, j0 * replicates + r, w))
        fail = np.asarray(failure(np.concatenate(rows),
                                  np.concatenate(owners)), dtype=bool)
        start = 0
        for k, g0, w in slots:
            terms[k][g0:b:replicates] = np.where(
                fail[start:start + w.size], w, 0.0)
            start += w.size
        perf.bump("variability.estimator_trials", (b - a) * len(active))

    milestone = _round_up(max(min(min_trials, n_total), 2), replicates)
    filled = 0
    n_used = dict.fromkeys(active, n_total)
    while active and filled < n_total:
        target = n_total if target_rel_err is None else min(milestone,
                                                            n_total)
        while filled < target:
            step = min(max(chunk_trials // len(active), 1), target - filled)
            fill(filled, filled + step)
            filled += step
        if target_rel_err is not None:
            for k in list(active):
                p_hat, se, _ess = _stats(terms[k][:filled], replicates)
                if p_hat > 0.0 and se / p_hat <= target_rel_err:
                    n_used[k] = filled
                    active.remove(k)
            milestone = min(milestone * 2, n_total)

    def estimate(k: int) -> YieldEstimate:
        n = n_used.get(k, 0)
        p_hat, se, ess = (_stats(terms[k][:n], replicates) if n
                          else (0.0, 0.0, 0.0))
        return YieldEstimate(
            p_fail=p_hat,
            rel_err=se / p_hat if p_hat > 0.0 else math.inf,
            ci_lo=max(p_hat - _Z95 * se, 0.0),
            ci_hi=p_hat + _Z95 * se,
            sigma=sigma_level(p_hat),
            ess=ess,
            n_trials=n,
            method=method,
            shift=found[k],
            n_replicates=replicates,
            seed=seed,
        )

    return tuple(estimate(k) for k in range(n_problems))
