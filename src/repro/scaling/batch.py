"""Batched design-space engine: vectorised doping root-solves.

The scalar scaling flows (kept as oracles in
``tests/oracles/scaling.py``) call ``brentq`` once per (length,
halo-ratio, polarity) candidate, constructing a full
:class:`repro.device.mosfet.MOSFET` per residual evaluation.  This
module replaces those loops with a gathered bracketing solve in
``log10(doping)`` over the whole candidate stack at once — delegated to
the shared root-solve core (:func:`repro.numerics.bisect_illinois`),
which evaluates the residual only on the still-active lanes — on top of
the parameter-axis device evaluation in :mod:`repro.device.batch`.
Scalar MOSFETs are constructed only at the converged roots (the designs
the caller keeps anyway), so the selection rules and returned objects
are shared with the scalar oracles.

Lock-step stacks: the lanes of a masked solve are independent, so
the flows stack *independent problems* on the lane axis — every node of
a family, every length of a Fig. 7/8 curve, every setting of an
ablation, every calibration of ``ext_sensitivity`` — and make one
:func:`solve_log_doping` call per flow phase.  Lane for lane the result
is bitwise the one-problem solve.  Each stack raises the
:class:`~repro.errors.OptimizationError` the per-problem loop would
raise first.

Per-lane calibration: a :class:`DopingSolveRequest` records the three
calibrated constants in force when it is made
(:class:`Calibration`), so a request made inside a
:func:`repro.scaling.sensitivity.calibration` scope carries the
override.  The residual stack takes them per lane, and winning devices
are built inside their request's calibration scope.

Every lane starts cold, from the full doping bounds
(:data:`~repro.scaling.supervth.N_SUB_BOUNDS` or
:data:`~repro.scaling.supervth.N_HALO_BOUNDS`), and nothing is
remembered between solves.  A solved device is therefore a pure
function of its request, whatever ran before it in the process or
shares its stack.

The residual ``log(I_off(N)/target)`` is monotone *decreasing* in
``log10(N)`` (more doping -> higher V_th -> less leakage), which gives
the feasibility tests: a candidate is solvable iff the residual is
``>= 0`` at the lower doping bound and ``<= 0`` at the upper one.

Perf counters: ``scaling.doping_batch_solves`` / ``..._points`` count
batched solves and stacked candidate points (grid sizes only), and
``scaling.doping_bisection_sweeps`` counts bisection passes.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .. import perf
from ..numerics import bisect_illinois
from ..device import geometry as geometry_mod
from ..device import subthreshold as subthreshold_mod
from ..device import threshold as threshold_mod
from ..device.batch import ParameterStack
from ..device.mosfet import (
    MOSFET,
    Polarity,
    nfet as build_nfet,
    pfet as build_pfet,
)
from ..errors import OptimizationError
from .roadmap import NodeSpec
from .supervth import LONG_CHANNEL_MULTIPLE, N_HALO_BOUNDS, N_SUB_BOUNDS

__all__ = [
    "Calibration",
    "DopingSolveRequest",
    "DopingSolveResult",
    "solve_log_doping",
    "solve_substrate_stack",
    "optimize_doping_groups",
    "super_vth_substrate",
    "super_vth_halo",
    "super_vth_request",
    "optimize_super_vth_stack",
]

#: Bisection tolerance in log10(doping) — tight enough that batched and
#: scalar-oracle (brentq, xtol=1e-12) roots agree to ~1e-12 relative,
#: comfortably inside the 1e-9 equivalence budget.
XTOL_LOG10: float = 1e-12

class Calibration(NamedTuple):
    """The three calibrated device constants (DESIGN.md §2) as one value.

    The physics reads them as module globals: the gate-overlap
    fraction, the quasi-2-D ``l_t`` multiplier and the Eq. 2(b) SCE
    slope prefactor.  A value of this type records them, so a doping
    request or an optimiser carries the calibration it was made under
    (:meth:`current`), and :meth:`scope` puts it back in force.
    """

    overlap_fraction: float
    lt_calibration: float
    sce_prefactor: float

    @classmethod
    def current(cls) -> "Calibration":
        """The constants in force now."""
        return cls(geometry_mod.OVERLAP_FRACTION,
                   threshold_mod.LT_CALIBRATION,
                   subthreshold_mod.SCE_PREFACTOR_DEFAULT)

    @contextlib.contextmanager
    def scope(self):
        """Put these constants in force; restore the previous ones on
        exit, exception or not."""
        saved = Calibration.current()
        try:
            (geometry_mod.OVERLAP_FRACTION, threshold_mod.LT_CALIBRATION,
             subthreshold_mod.SCE_PREFACTOR_DEFAULT) = self
            yield
        finally:
            (geometry_mod.OVERLAP_FRACTION, threshold_mod.LT_CALIBRATION,
             subthreshold_mod.SCE_PREFACTOR_DEFAULT) = saved


@dataclass(frozen=True)
class DopingSolveRequest:
    """One point of a batched doping root-solve.

    For substrate solves the unknown is ``N_sub`` with
    ``N_p,halo = halo_ratio * N_sub``; for halo solves the unknown is
    ``N_p,halo`` at a fixed ``N_sub`` (see :func:`super_vth_halo`).
    ``calibration`` defaults to the constants in force when the request
    is made, so a request made inside a calibration scope carries it.
    """

    node: NodeSpec
    l_poly_nm: float
    polarity: Polarity
    width_um: float
    ioff_target: float
    vdd_leak: float
    halo_ratio: float = 0.0
    calibration: Calibration = field(default_factory=Calibration.current)


@dataclass(frozen=True)
class DopingSolveResult:
    """Outcome of one masked-bisection doping solve.

    ``root_log10`` is meaningful only where ``feasible``.  ``r_lo`` /
    ``r_hi`` are the residuals at the full doping bounds.
    """

    root_log10: np.ndarray
    feasible: np.ndarray
    r_lo: np.ndarray
    r_hi: np.ndarray


#: Pure-bisection sweeps before the Illinois polish kicks in.  The
#: leakage residual spans tens of log units across the full doping
#: bounds (exponential tails), where false position is badly skewed;
#: a few halvings first make the bracket near-linear.
_BISECTION_WARMUP_SWEEPS: int = 8
#: Hard cap on total sweeps (bisection alone would need ~45 to reach
#: xtol over the full bounds; Illinois converges far sooner).
_MAX_SWEEPS: int = 80


def solve_log_doping(residual: Callable[[np.ndarray, np.ndarray], np.ndarray],
                     n: int, lo_bound: float, hi_bound: float,
                     xtol: float = XTOL_LOG10) -> DopingSolveResult:
    """Gathered bracketing solve for ``n`` log10-doping roots.

    ``residual(log_n, idx)`` maps gathered log10 dopings (plus their
    lane indices, for slicing per-point parameters) to the log-leakage
    residuals of the live points and must be monotone decreasing per
    point.  Every lane starts from ``[lo_bound, hi_bound]``.

    The iteration is :func:`repro.numerics.bisect_illinois` on the
    negated (monotone-increasing) residual (IEEE negation is exact): a
    few pure-bisection sweeps shrink every bracket into the near-linear
    regime, then the safeguarded Illinois polish finishes superlinearly.
    A lane whose iterate lands on its root, so that the next proposal
    rounds onto that bracket end, takes the core's tolerance step and
    retires on the next sweep instead of bisecting its far end down to
    ``xtol`` while the rest of the stack waits.  Every lane still
    retires on a bracket of width ``<= xtol`` around its sign change.
    """
    perf.bump("scaling.doping_batch_solves")
    perf.bump("scaling.doping_batch_points", n)

    def increasing(log_n: np.ndarray, idx: np.ndarray) -> np.ndarray:
        return -residual(log_n, idx)

    result = bisect_illinois(
        increasing, np.full(n, float(lo_bound)), np.full(n, float(hi_bound)),
        xtol=xtol, warmup_sweeps=_BISECTION_WARMUP_SWEEPS,
        max_sweeps=_MAX_SWEEPS,
        sweep_counter="scaling.doping_bisection_sweeps",
    )
    return DopingSolveResult(root_log10=result.root, feasible=result.feasible,
                             r_lo=-result.r_lo, r_hi=-result.r_hi)


def _stack_for(reqs: Sequence[DopingSolveRequest]) -> ParameterStack:
    return ParameterStack(
        l_poly_nm=np.array([r.l_poly_nm for r in reqs]),
        t_ox_nm=np.array([r.node.t_ox_nm for r in reqs]),
        is_nfet=np.array([r.polarity is Polarity.NFET for r in reqs]),
        width_um=np.array([r.width_um for r in reqs]),
        reference_nm=np.array([r.node.l_poly_nm for r in reqs]),
        calibration=np.array([r.calibration for r in reqs]),
    )


def solve_substrate_stack(reqs: Sequence[DopingSolveRequest]
                          ) -> DopingSolveResult:
    """Batched N_sub solve with ``N_p,halo = halo_ratio * N_sub``."""
    stack = _stack_for(reqs)
    ratios = np.array([r.halo_ratio for r in reqs])
    targets = np.array([r.ioff_target for r in reqs])
    vdds = np.array([r.vdd_leak for r in reqs])

    def residual(log_n: np.ndarray, idx: np.ndarray) -> np.ndarray:
        n_sub = 10.0 ** log_n
        metrics = stack.take(idx).metrics(n_sub, ratios[idx] * n_sub)
        return np.log(metrics.i_off_per_um(vdds[idx]) / targets[idx])

    lo, hi = (math.log10(b) for b in N_SUB_BOUNDS)
    return solve_log_doping(residual, len(reqs), lo, hi)


def _build_device(req: DopingSolveRequest, n_sub: float,
                  n_p_halo: float) -> MOSFET:
    """The scalar device at a converged root, built under the request's
    calibration (a MOSFET reads the constants once, at construction)."""
    build = build_nfet if req.polarity is Polarity.NFET else build_pfet
    with req.calibration.scope():
        return build(
            l_poly_nm=req.l_poly_nm,
            t_ox_nm=req.node.t_ox_nm,
            n_sub_cm3=n_sub,
            n_p_halo_cm3=n_p_halo,
            width_um=req.width_um,
            reference_nm=req.node.l_poly_nm,
        )


# -- sub-V_th: minimum-S_S doping over (length x polarity x ratio) ----------

def optimize_doping_groups(groups: Sequence[DopingSolveRequest],
                           ratios: Sequence[float],
                           ss_tie_tolerance: float) -> list[MOSFET]:
    """Minimum-S_S doping for many candidate groups.

    Each group is a :class:`DopingSolveRequest` — it names its node,
    length, polarity, width, leakage target, bias and calibration — and
    expands into one candidate per halo ratio of ``ratios`` (the
    group's own ``halo_ratio`` is replaced).  One masked root-solve
    covers the whole ``groups x ratios`` stack, one more vectorised
    metrics pass evaluates S_S at every feasible root, and the scalar
    selection rule (minimum S_S, near ties broken toward lower N_sub)
    picks each group's winner — only the winners are materialised as
    scalar devices.  Raises :class:`~repro.errors.OptimizationError`
    for the first group with no feasible candidate, in a per-group
    loop's iteration order.
    """
    reqs = [replace(group, halo_ratio=float(ratio))
            for group in groups for ratio in ratios]
    result = solve_substrate_stack(reqs)
    n_sub = 10.0 ** result.root_log10
    # S_S for every candidate in one vectorised pass (infeasible points
    # evaluate at a bound; their values are never consulted).
    stack = _stack_for(reqs)
    halo = np.array([r.halo_ratio for r in reqs]) * n_sub
    ss_all = stack.metrics(n_sub, halo).ss_v_per_dec

    winners: list[MOSFET] = []
    for g, group in enumerate(groups):
        span = range(g * len(ratios), (g + 1) * len(ratios))
        feasible = [i for i in span if result.feasible[i]]
        if not feasible:
            raise OptimizationError(
                f"{group.node.name}: no doping meets I_off = "
                f"{group.ioff_target:.3g} A/um at L_poly = "
                f"{float(group.l_poly_nm):.1f} nm"
            )
        ss_best = min(ss_all[i] for i in feasible)
        near = [i for i in feasible
                if ss_all[i] <= ss_best * (1.0 + ss_tie_tolerance)]
        win = min(near, key=lambda i: n_sub[i])
        winners.append(_build_device(
            reqs[win], float(n_sub[win]),
            reqs[win].halo_ratio * float(n_sub[win])))
    return winners


# -- super-V_th: the two-step Fig. 1(c) doping selection --------------------

def super_vth_request(node: NodeSpec, polarity: Polarity,
                      width_um: float) -> DopingSolveRequest:
    """One Fig. 1(c) job: the short-channel device's leakage condition.

    The request carries the calibration in force when it is made; step
    1 solves its long-channel twin, step 2 the request itself.
    """
    return DopingSolveRequest(
        node=node, l_poly_nm=node.l_poly_nm, polarity=polarity,
        width_um=width_um, ioff_target=node.ioff_target_a_per_um,
        vdd_leak=node.vdd_nominal,
    )


def _long_channel_request(job: DopingSolveRequest) -> DopingSolveRequest:
    return replace(job, l_poly_nm=LONG_CHANNEL_MULTIPLE * job.node.l_poly_nm)


def _raise_substrate_error(req: DopingSolveRequest, below: bool) -> None:
    if below:
        raise OptimizationError(
            f"{req.node.name}: long-channel leakage below target even "
            "at minimum doping — budget unreachable from above"
        )
    raise OptimizationError(
        f"{req.node.name}: cannot meet leakage budget "
        f"{req.ioff_target:.3g} A/um with N_sub <= {N_SUB_BOUNDS[1]:.3g}"
    )


def super_vth_substrate(node: NodeSpec, polarity: Polarity,
                        width_um: float) -> float:
    """Batched step 1: N_sub from the long-channel leakage condition."""
    req = _long_channel_request(super_vth_request(node, polarity, width_um))
    result = solve_substrate_stack([req])
    if not result.feasible[0]:
        _raise_substrate_error(req, bool(result.r_lo[0] < 0.0))
    return 10.0 ** float(result.root_log10[0])


def _solve_halo_stack(reqs: Sequence[DopingSolveRequest],
                      n_subs: Sequence[float]) -> DopingSolveResult:
    stack = _stack_for(reqs)
    n_sub = np.asarray(n_subs, dtype=float)
    targets = np.array([r.ioff_target for r in reqs])
    vdds = np.array([r.vdd_leak for r in reqs])

    def residual(log_n: np.ndarray, idx: np.ndarray) -> np.ndarray:
        metrics = stack.take(idx).metrics(n_sub[idx], 10.0 ** log_n)
        return np.log(metrics.i_off_per_um(vdds[idx]) / targets[idx])

    lo, hi = (math.log10(b) for b in N_HALO_BOUNDS)
    return solve_log_doping(residual, len(reqs), lo, hi)


def super_vth_halo(node: NodeSpec, polarity: Polarity, width_um: float,
                   n_sub: float) -> float:
    """Batched step 2: N_p,halo from the short-channel condition."""
    result = _solve_halo_stack(
        [super_vth_request(node, polarity, width_um)], [n_sub])
    if result.feasible[0]:
        return 10.0 ** float(result.root_log10[0])
    if result.r_lo[0] <= 0.0:
        # The short device already meets the budget: no halo needed.
        return N_HALO_BOUNDS[0]
    raise OptimizationError(
        f"{node.name}: halo cannot rescue the short-channel "
        "leakage — L_poly too short for this T_ox"
    )


def optimize_super_vth_stack(jobs: Sequence[DopingSolveRequest]
                             ) -> list[MOSFET]:
    """Run the full Fig. 1(c) loop for many jobs in lock-step.

    Each job is a :func:`super_vth_request` (node, polarity, width and
    the calibration it was made under), so one stack may span nodes,
    settings and calibrations.  Both root-solve steps are batched
    across all jobs.  Errors are raised for the job a per-job loop
    would fail first: job ``i`` runs substrate-then-halo entirely
    before job ``i+1``, so an earlier job's halo failure outranks a
    later job's substrate failure.
    """
    sub_reqs = [_long_channel_request(job) for job in jobs]
    sub_result = solve_substrate_stack(sub_reqs)
    n_sub = 10.0 ** sub_result.root_log10
    bad_sub = next((i for i in range(len(jobs))
                    if not sub_result.feasible[i]), None)

    halo_count = len(jobs) if bad_sub is None else bad_sub
    halo_reqs = list(jobs[:halo_count])
    halo_result = (_solve_halo_stack(halo_reqs, n_sub[:halo_count])
                   if halo_reqs else None)
    for i in range(halo_count):
        if (not halo_result.feasible[i]) and halo_result.r_lo[i] > 0.0:
            raise OptimizationError(
                f"{jobs[i].node.name}: halo cannot rescue the short-channel "
                "leakage — L_poly too short for this T_ox"
            )
    if bad_sub is not None:
        _raise_substrate_error(sub_reqs[bad_sub],
                               bool(sub_result.r_lo[bad_sub] < 0.0))

    devices: list[MOSFET] = []
    for i, req in enumerate(halo_reqs):
        n_p_halo = (10.0 ** float(halo_result.root_log10[i])
                    if halo_result.feasible[i] else N_HALO_BOUNDS[0])
        devices.append(_build_device(req, float(n_sub[i]), n_p_halo))
    return devices
