"""Cell failure rates at 5-6 sigma: tail curves over supply voltage.

This is the product-facing face of the rare-event engine: a
million-cell subthreshold memory ships on its *per-cell* failure
probability at 5-6 sigma, far beyond what the brute-force Monte Carlo
of :mod:`repro.variability.montecarlo` can resolve.  The module wires
the two physical failure modes of the paper's variability story into
the importance-sampling estimator of
:mod:`repro.variability.importance`:

* **SNM collapse** — the perturbed inverter's static noise margin
  falls below a required margin (or regeneration is lost outright),
  evaluated with the batched VTC kernel ``noise_margins_batch``; and
* **delay exceedance** — the perturbed cell misses its timing window,
  ``t_p > t_max``, evaluated with ``analytic_delay_batch`` (deep in
  subthreshold the delay is exponential in ΔV_th, so this tail is
  heavy and V_dd-sensitive).

Both indicators operate on *standardised* offsets ``u`` (units of each
device's RDF sigma), which is the space the mean-shift search and the
likelihood-ratio weights live in.  :func:`failure_rate_curve` sweeps
V_dd and returns sigma-level failure-rate curves with confidence
intervals — the data behind the ``ext_yield`` experiment and the
``repro yield`` CLI subcommand.

A curve is one stacked problem: its inverters share one device pair,
so one kernel call with the supply as per-lane data evaluates every
V_dd point (the stacked indicator ``failure(u, k)`` reads point
``k``'s supply, load and timing window), and the lock-step estimator
of :mod:`repro.variability.importance` runs all points' searches and
trials through it together.  The single-inverter functions are the
one-point case of the same code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .. import perf
from ..circuit.batch import noise_margins_batch
from ..circuit.delay import analytic_delay, analytic_delay_batch
from ..circuit.inverter import Inverter
from ..errors import ParameterError
from .importance import (METHODS, StackedIndicator, YieldEstimate,
                         estimate_failure_probabilities)
from .rdf import rdf_sigma_vth

#: Supported failure modes of the tail estimator.
TAIL_MODES = ("snm", "delay")

#: Default SNM-mode scan resolution / tolerance [V].  On seeded 2-sigma
#: trials of both 32nm flows at V_dd 0.10-0.14 V, the indicator's SNM
#: at these settings is within ``SNM_XTOL_DEFAULT`` of the same 21-point
#: scan solved at xtol 1e-13, and every ``lost_code`` is identical
#: (``tests/test_rare_event.py::TestSnmIndicatorAccuracy``).
SNM_SCAN_DEFAULT = 21
SNM_XTOL_DEFAULT = 1e-5


def _lanes(inverters: Sequence[Inverter]
           ) -> tuple[Inverter, float, float, np.ndarray]:
    """The first inverter, its NFET/PFET RDF sigmas [V] and every
    inverter's supply [V] — once all share the first one's devices."""
    first = inverters[0]
    if any(inv.nfet is not first.nfet or inv.pfet is not first.pfet
           for inv in inverters):
        raise ParameterError("the inverters of one curve must share one "
                             "device pair (as design.inverter builds them)")
    return (first, rdf_sigma_vth(first.nfet), rdf_sigma_vth(first.pfet),
            np.array([inv.vdd for inv in inverters]))


def _snm_indicator(inverters: Sequence[Inverter], snm_min_v: float,
                   n_scan: int, xtol: float) -> StackedIndicator:
    if snm_min_v < 0.0:
        raise ParameterError("snm_min_v cannot be negative")
    inverter, sigma_n, sigma_p, vdd = _lanes(inverters)

    def indicator(u: np.ndarray, k: np.ndarray) -> np.ndarray:
        nm = noise_margins_batch(inverter, sigma_n * u[:, 0],
                                 sigma_p * u[:, 1], n_scan=n_scan,
                                 xtol=xtol, vdd=vdd[k])
        return nm.lost | np.where(nm.lost, False, nm.snm < snm_min_v)

    return indicator


def _delay_indicator(inverters: Sequence[Inverter], t_max_s: float | None,
                     slowdown: float) -> StackedIndicator:
    if t_max_s is None and slowdown <= 1.0:
        raise ParameterError("slowdown must exceed 1")
    inverter, sigma_n, sigma_p, vdd = _lanes(inverters)
    t_max = np.array([slowdown * analytic_delay(inv) if t_max_s is None
                      else float(t_max_s) for inv in inverters])
    if np.any(t_max <= 0.0):
        raise ParameterError("t_max_s must be positive")
    c_load = np.array([inv.load_capacitance(fanout=1) for inv in inverters])

    def indicator(u: np.ndarray, k: np.ndarray) -> np.ndarray:
        delays = analytic_delay_batch(inverter, sigma_n * u[:, 0],
                                      sigma_p * u[:, 1], c_load[k],
                                      vdd=vdd[k])
        return delays > t_max[k]

    return indicator


def _stacked_indicator(inverters: Sequence[Inverter], mode: str,
                       snm_min_v: float, t_max_s: float | None,
                       slowdown: float, n_scan: int,
                       xtol: float) -> StackedIndicator:
    """``failure(u, k)`` of one of :data:`TAIL_MODES` over a curve's
    inverters (``k`` indexes ``inverters``)."""
    if mode == "snm":
        return _snm_indicator(inverters, snm_min_v, n_scan, xtol)
    if mode == "delay":
        return _delay_indicator(inverters, t_max_s, slowdown)
    raise ParameterError(f"unknown tail mode {mode!r}; "
                         f"choose one of {TAIL_MODES}")


def _at_one_point(stacked: StackedIndicator
                  ) -> Callable[[np.ndarray], np.ndarray]:
    """A one-inverter stacked indicator as a plain ``failure(u)``."""

    def indicator(u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        return stacked(u, np.zeros(u.shape[0], dtype=int))

    return indicator


def snm_failure_indicator(inverter: Inverter, snm_min_v: float = 0.0,
                          n_scan: int = SNM_SCAN_DEFAULT,
                          xtol: float = SNM_XTOL_DEFAULT
                          ) -> Callable[[np.ndarray], np.ndarray]:
    """SNM-collapse failure indicator over standardised offsets.

    Returns a callable mapping an ``(n, 2)`` array of standardised
    (NFET, PFET) V_th offsets to a boolean mask that is True where the
    perturbed inverter either loses regeneration entirely or extracts
    an SNM below ``snm_min_v`` [V].  Each call is one batched VTC
    solve (``noise_margins_batch`` with ``n_scan`` scan points and
    tolerance ``xtol`` [V]).
    """
    return _at_one_point(_snm_indicator((inverter,), snm_min_v, n_scan,
                                        xtol))


def delay_failure_indicator(inverter: Inverter,
                            t_max_s: float | None = None,
                            slowdown: float = 10.0
                            ) -> Callable[[np.ndarray], np.ndarray]:
    """Delay-exceedance failure indicator over standardised offsets.

    True where the perturbed cell's Eq. 4 delay exceeds ``t_max_s``
    [s]; when ``t_max_s`` is ``None`` the window defaults to
    ``slowdown`` times the unperturbed cell's delay — "the cell is
    10x slower than nominal" is the timing-failure currency of the
    paper's margin discussion.  Each call is one vectorised
    ``analytic_delay_batch`` evaluation.
    """
    return _at_one_point(_delay_indicator((inverter,), t_max_s, slowdown))


def failure_indicator(inverter: Inverter, mode: str = "delay",
                      snm_min_v: float = 0.0,
                      t_max_s: float | None = None,
                      slowdown: float = 10.0,
                      n_scan: int = SNM_SCAN_DEFAULT,
                      xtol: float = SNM_XTOL_DEFAULT
                      ) -> Callable[[np.ndarray], np.ndarray]:
    """Build the failure indicator for one of :data:`TAIL_MODES`.

    ``snm_min_v`` [V] parameterises the ``"snm"`` mode; ``t_max_s``
    [s] (or the ``slowdown`` fallback) parameterises ``"delay"``.
    """
    return _at_one_point(_stacked_indicator(
        (inverter,), mode, snm_min_v, t_max_s, slowdown, n_scan, xtol))


def _failure_rates(inverters: Sequence[Inverter], mode: str = "delay",
                   method: str = "qmc-is", n_trials: int = 2048,
                   seed: int = 2007, snm_min_v: float = 0.0,
                   t_max_s: float | None = None, slowdown: float = 10.0,
                   n_scan: int = SNM_SCAN_DEFAULT,
                   xtol: float = SNM_XTOL_DEFAULT, chunk_trials: int = 4096,
                   n_replicates: int = 8,
                   target_rel_err: float | None = None,
                   min_trials: int = 1024, n_directions: int = 16,
                   r_max_sigma: float = 8.0) -> tuple[YieldEstimate, ...]:
    """Lock-step failure rates of inverters sharing one device pair."""
    if method not in METHODS:
        raise ParameterError(f"unknown method {method!r}; "
                             f"choose one of {METHODS}")
    indicator = _stacked_indicator(inverters, mode, snm_min_v, t_max_s,
                                   slowdown, n_scan, xtol)
    return estimate_failure_probabilities(
        indicator, len(inverters), method=method, n_trials=n_trials,
        seed=seed, chunk_trials=chunk_trials, n_replicates=n_replicates,
        target_rel_err=target_rel_err, min_trials=min_trials,
        n_directions=n_directions, r_max_sigma=r_max_sigma)


def cell_failure_rate(inverter: Inverter, mode: str = "delay",
                      method: str = "qmc-is", n_trials: int = 2048,
                      seed: int = 2007, snm_min_v: float = 0.0,
                      t_max_s: float | None = None,
                      slowdown: float = 10.0,
                      n_scan: int = SNM_SCAN_DEFAULT,
                      xtol: float = SNM_XTOL_DEFAULT,
                      chunk_trials: int = 4096,
                      n_replicates: int = 8,
                      target_rel_err: float | None = None,
                      min_trials: int = 1024,
                      n_directions: int = 16,
                      r_max_sigma: float = 8.0) -> YieldEstimate:
    """Per-cell failure probability of one inverter at its supply.

    Convenience wrapper: builds the ``mode`` failure indicator
    (``snm_min_v`` [V] / ``t_max_s`` [s] as in
    :func:`failure_indicator`) and runs
    :func:`repro.variability.importance.estimate_failure_probability`
    with the given estimator ``method`` (:data:`METHODS`).  It is the
    one-point case of :func:`failure_rate_curve`.
    """
    return _failure_rates(
        (inverter,), mode=mode, method=method, n_trials=n_trials,
        seed=seed, snm_min_v=snm_min_v, t_max_s=t_max_s,
        slowdown=slowdown, n_scan=n_scan, xtol=xtol,
        chunk_trials=chunk_trials, n_replicates=n_replicates,
        target_rel_err=target_rel_err, min_trials=min_trials,
        n_directions=n_directions, r_max_sigma=r_max_sigma)[0]


@dataclass(frozen=True)
class TailCurve:
    """Failure-rate-vs-V_dd curve of one design and failure mode.

    Attributes
    ----------
    label:
        Human-readable flow/design tag (e.g. ``"sub-vth 32nm"``).
    mode:
        One of :data:`TAIL_MODES`.
    vdd_v:
        Supply grid [V].
    p_fail:
        Estimated per-cell failure probability at each supply.
    sigma:
        One-sided sigma equivalents (``inf`` where no failure was
        reachable).
    ci_lo / ci_hi:
        95 % confidence bounds on ``p_fail``.
    estimates:
        The full per-point :class:`YieldEstimate` records.
    """

    label: str
    mode: str
    vdd_v: np.ndarray
    p_fail: np.ndarray
    sigma: np.ndarray
    ci_lo: np.ndarray
    ci_hi: np.ndarray
    estimates: tuple[YieldEstimate, ...]


def failure_rate_curve(make_inverter: Callable[[float], Inverter],
                       vdd_grid_v: Sequence[float] | np.ndarray,
                       label: str, mode: str = "delay",
                       **kwargs) -> TailCurve:
    """Sweep V_dd and estimate the per-cell failure rate at each point.

    ``make_inverter`` maps a supply voltage to the design's inverter
    (scaling-flow designs expose exactly this as ``design.inverter``);
    every inverter it returns must share one device pair, else
    :class:`ParameterError`.  ``vdd_grid_v`` [V] is the supply grid.
    Remaining keyword arguments are those of
    :func:`cell_failure_rate` — estimator method, trial budget,
    thresholds.

    All points are estimated in lock-step: one stacked failure-point
    search and, per trial chunk, one indicator call over every point
    and replicate (the supply is per-lane kernel data).  Each point's
    estimate is bitwise the one :func:`cell_failure_rate` returns for
    its inverter — same root seed, same trials — so the curve is
    byte-deterministic regardless of grid order.
    """
    grid = np.asarray(vdd_grid_v, dtype=float)
    if grid.ndim != 1 or grid.size < 1:
        raise ParameterError("need a 1-D, non-empty V_dd grid")
    inverters = [make_inverter(float(vdd)) for vdd in grid]
    estimates = _failure_rates(inverters, mode=mode, **kwargs)
    perf.bump("variability.tail_points", grid.size)
    return TailCurve(
        label=label,
        mode=mode,
        vdd_v=grid,
        p_fail=np.array([e.p_fail for e in estimates]),
        sigma=np.array([e.sigma for e in estimates]),
        ci_lo=np.array([e.ci_lo for e in estimates]),
        ci_hi=np.array([e.ci_hi for e in estimates]),
        estimates=estimates,
    )
