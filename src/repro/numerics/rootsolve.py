"""The masked root-solve core: gathered bisection, Illinois, Newton.

Every solver here shares the same skeleton: a 1-D stack of independent
scalar root problems, an index array of unconverged lanes, and one
residual evaluation per sweep over *only* those lanes.  The residual
callback signature is ``residual(x, idx)`` — ``x`` holds the gathered
abscissae and ``idx`` the lane indices they belong to — so callers
slice their per-lane parameters to match (``targets[idx]``).

Conventions
-----------
* Residuals are monotone **increasing** per lane; a bracket is feasible
  iff ``residual(lo) <= 0 <= residual(hi)``.  (Decreasing residuals
  negate at the call site; IEEE negation is exact, so the iterate
  sequence is bitwise unchanged.)
* Lanes whose initial bracket is already at or below ``xtol`` never
  enter the active set: their root is the bracket midpoint (for
  :func:`newton_safeguarded`, their start where one lies inside).
* Every solve starts from the brackets it is handed; nothing is
  remembered between calls, so a lane's root is a pure function of its
  residual and bounds.
* Equivalence: for lanes present in both, the gathered iteration
  reproduces the retired masked loops bitwise, because all residuals
  are elementwise and gather/scatter only re-indexes them.

Counters: each sweep bumps ``numerics.total_lanes`` by the stack width
and ``numerics.active_lanes`` by the lanes actually evaluated; their
ratio is the measured active-set compression.  ``bisect_illinois``
also counts its tolerance steps in ``numerics.tolerance_steps``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .. import perf
from .backend import array_namespace, as_float_copy, flatnonzero, scatter

__all__ = ["BracketResult", "bisect_masked", "bisect_illinois",
           "newton_safeguarded"]

#: Hard sweep cap of :func:`bisect_illinois` (bisection alone would
#: need ~45 sweeps to cross typical bounds; Illinois converges sooner).
MAX_SWEEPS_DEFAULT: int = 80


@dataclass(frozen=True)
class BracketResult:
    """Outcome of one :func:`bisect_illinois` stack solve.

    ``root`` is meaningful only where ``feasible``.  ``r_lo`` /
    ``r_hi`` are the residuals at the bounds the solve was handed;
    ``sweeps`` counts executed sweeps.
    """

    root: object
    lo: object
    hi: object
    feasible: object
    r_lo: object
    r_hi: object
    sweeps: int


def _lane_count(idx) -> int:
    return int(idx.shape[0])


def bisect_masked(residual, lo, hi, *, xtol: float,
                  max_sweeps: int | None = None, sweep_counter: str | None = None,
                  xp=None):
    """Gathered bisection on monotone-increasing per-lane residuals.

    ``lo`` / ``hi`` are 1-D bracket arrays; each bracket must contain
    its lane's sign change (lanes pinned by the caller arrive with a
    collapsed bracket and never activate).  Returns bracket midpoints.

    ``sweep_counter`` names an optional perf counter bumped once per
    executed sweep, preserving the retired callers' counter semantics.
    """
    xp = array_namespace(lo, hi, xp=xp)
    lo = as_float_copy(xp, lo)
    hi = as_float_copy(xp, hi)
    n = _lane_count(lo)
    if max_sweeps is None:
        max_width = float(xp.max(hi - lo)) if n else 0.0
        max_sweeps = max(int(math.ceil(math.log2(
            max(max_width, xtol) / xtol))) + 2, 1)
    idx = flatnonzero(xp, (hi - lo) > xtol)
    for _ in range(max_sweeps):
        live = _lane_count(idx)
        if not live:
            break
        mid = 0.5 * (lo[idx] + hi[idx])
        neg = residual(mid, idx) < 0.0
        neg_i = flatnonzero(xp, neg)
        pos_i = flatnonzero(xp, ~neg)
        lo = scatter(lo, idx[neg_i], mid[neg_i])
        hi = scatter(hi, idx[pos_i], mid[pos_i])
        idx = idx[flatnonzero(xp, (hi[idx] - lo[idx]) > xtol)]
        perf.bump("numerics.total_lanes", n)
        perf.bump("numerics.active_lanes", live)
        if sweep_counter is not None:
            perf.bump(sweep_counter)  # repro: noqa[RPR006] caller passes a registered name
    return 0.5 * (lo + hi)


def bisect_illinois(residual, lo, hi, *, xtol: float,
                    ends: tuple | None = None,
                    warmup_sweeps: int = 0,
                    max_sweeps: int = MAX_SWEEPS_DEFAULT,
                    sweep_counter: str | None = None, xp=None
                    ) -> BracketResult:
    """Bracketing solve: bisection, then Illinois polish.

    ``lo`` / ``hi`` are the per-lane bounds.  ``ends = (r_lo, r_hi)``
    hands in residuals the caller already holds at those bounds, which
    saves the two residual passes that open the solve; they must be
    the values ``residual`` returns there, and the iteration is then
    bitwise the one without them.  The first ``warmup_sweeps`` sweeps
    are pure bisection — false position is badly skewed while the
    bracket still spans the residual's exponential tails — after which
    the Illinois (modified false position) proposal is used whenever it
    lands strictly inside the bracket.

    A rejected proposal usually means the lane has found its root: the
    proposal rounded onto the bracket end whose residual is already
    ~0, while the far end is still wide.  Such a lane takes a
    *tolerance step* (Dekker's and Brent's endgame): it proposes the
    point ``xtol/2`` inside the bracket from the end with the smaller
    ``|residual|``, so a root within ``xtol/2`` of that end closes the
    bracket on the next sweep instead of after a chain of midpoints.
    The step is taken only where that point lies strictly inside the
    bracket and the lane's previous step was not a tolerance step;
    otherwise the lane falls back to the midpoint, and a lane whose
    previous step was a tolerance step takes the midpoint whatever its
    proposal.  So the bracket shrinks every sweep, a wasted tolerance
    step is always followed by a halving, and lanes whose proposal is
    never rejected iterate bitwise as plain Illinois.  The stopping
    rule is the bracket width, ``hi - lo <= xtol``.  Counter
    ``numerics.tolerance_steps`` counts the lanes that took one.
    """
    xp = array_namespace(lo, hi, xp=xp)
    lo = as_float_copy(xp, lo)
    hi = as_float_copy(xp, hi)
    n = _lane_count(lo)
    if ends is None:
        all_lanes = xp.arange(n)
        r_lo = residual(lo, all_lanes)
        r_hi = residual(hi, all_lanes)
    else:
        r_lo, r_hi = ends
    rl = as_float_copy(xp, r_lo)
    rh = as_float_copy(xp, r_hi)

    feasible = (rl <= 0.0) & (rh >= 0.0)
    # Illinois side memory: +1 / -1 when the last two updates replaced
    # the same bracket end, which triggers the residual-halving trick.
    side = xp.zeros(n, dtype=xp.int8)
    # Lanes whose last step was a tolerance step (never two in a row).
    stepped = xp.zeros(n, dtype=bool)
    idx = flatnonzero(xp, feasible & ((hi - lo) > xtol))
    sweeps = 0
    while _lane_count(idx) and sweeps < max_sweeps:
        live = _lane_count(idx)
        lo_a, hi_a = lo[idx], hi[idx]
        rl_a, rh_a = rl[idx], rh[idx]
        side_a = side[idx]
        mid = 0.5 * (lo_a + hi_a)
        x = mid
        if sweeps >= warmup_sweeps:
            denom = rh_a - rl_a
            falsi = ((lo_a * rh_a - hi_a * rl_a)
                     / xp.where(denom == 0, 1.0, denom))
            use = ((denom != 0) & xp.isfinite(falsi)
                   & (falsi > lo_a) & (falsi < hi_a))
            near = xp.where(xp.abs(rl_a) <= xp.abs(rh_a),
                            lo_a + 0.5 * xtol, hi_a - 0.5 * xtol)
            fresh = ~stepped[idx]  # no tolerance step on the last sweep
            step = fresh & ~use & (near > lo_a) & (near < hi_a)
            x = xp.where(use & fresh, falsi, xp.where(step, near, mid))
            stepped = scatter(stepped, idx, step)
            perf.bump("numerics.tolerance_steps", int(xp.sum(step)))
        r = residual(x, idx)
        move_lo = r < 0.0
        move_hi = ~move_lo
        # Illinois: halve the retained end's residual when the same end
        # survives twice in a row, preventing false-position stagnation.
        rh_a = xp.where(move_lo & (side_a == 1), 0.5 * rh_a, rh_a)
        rl_a = xp.where(move_hi & (side_a == -1), 0.5 * rl_a, rl_a)
        side_a = xp.astype(xp.where(move_lo, 1, -1), xp.int8)
        lo_a = xp.where(move_lo, x, lo_a)
        rl_a = xp.where(move_lo, r, rl_a)
        hi_a = xp.where(move_hi, x, hi_a)
        rh_a = xp.where(move_hi, r, rh_a)
        lo = scatter(lo, idx, lo_a)
        hi = scatter(hi, idx, hi_a)
        rl = scatter(rl, idx, rl_a)
        rh = scatter(rh, idx, rh_a)
        side = scatter(side, idx, side_a)
        idx = idx[flatnonzero(xp, (hi_a - lo_a) > xtol)]
        sweeps += 1
        perf.bump("numerics.total_lanes", n)
        perf.bump("numerics.active_lanes", live)
        if sweep_counter is not None:
            perf.bump(sweep_counter)  # repro: noqa[RPR006] caller passes a registered name
    return BracketResult(root=0.5 * (lo + hi), lo=lo, hi=hi,
                         feasible=feasible, r_lo=r_lo, r_hi=r_hi,
                         sweeps=sweeps)


def newton_safeguarded(residual_jacobian, lo, hi, *, xtol: float,
                       x0=None, max_sweeps: int = MAX_SWEEPS_DEFAULT,
                       sweep_counter: str | None = None, xp=None):
    """Safeguarded Newton (``rtsafe``) over a stack of lanes.

    ``residual_jacobian(x, idx)`` returns ``(r, dr)`` for the gathered
    lanes.  Each lane starts at its bracket midpoint, or at its entry
    of ``x0`` — per-lane starting iterates, data like ``lo`` and
    ``hi`` — where that lies strictly inside the bracket; a start on
    or outside a bracket end falls back to the midpoint, and without
    ``x0`` the solve is bitwise the midpoint start.  A start only sets
    where the iteration begins: the bracket still safeguards every
    step, so a poor start costs sweeps, never the root.  A sweep makes
    one evaluation at the lane's current iterate, shrinks the bracket
    by the residual's sign, and keeps the Newton step only when it
    lands inside the shrunken bracket and is at most half the lane's
    previous step (the first step is measured against the bracket
    width); otherwise the lane moves to the bracket midpoint.  The
    halving rule is what keeps a convex residual — whose bracket
    closes from one side only — from crawling slower than bisection.
    A lane retires once its step or its bracket is at most ``xtol``.
    Returns the final iterates.

    This is the derivative-bearing variant of :func:`bisect_masked`
    for residuals with a cheap analytic Jacobian (the inverter current
    balance of :func:`repro.circuit.solve_vtc_batch`); the bisection
    solvers remain the right tool for derivative-free residuals.
    """
    xp = array_namespace(lo, hi, xp=xp)
    lo = as_float_copy(xp, lo)
    hi = as_float_copy(xp, hi)
    n = _lane_count(lo)
    x = 0.5 * (lo + hi)
    if x0 is not None:
        start = as_float_copy(xp, x0)
        x = xp.where((start > lo) & (start < hi), start, x)
    step = hi - lo
    idx = flatnonzero(xp, (hi - lo) > xtol)
    for _ in range(max_sweeps):
        live = _lane_count(idx)
        if not live:
            break
        x_a = x[idx]
        r, dr = residual_jacobian(x_a, idx)
        move_lo = r < 0.0
        lo_a = xp.where(move_lo, x_a, lo[idx])
        hi_a = xp.where(move_lo, hi[idx], x_a)
        slope_ok = xp.isfinite(dr) & (dr != 0)
        newton = x_a - r / xp.where(slope_ok, dr, 1.0)
        use = (slope_ok & (newton >= lo_a) & (newton <= hi_a)
               & (2.0 * xp.abs(newton - x_a) <= xp.abs(step[idx])))
        x_new = xp.where(use, newton, 0.5 * (lo_a + hi_a))
        step_a = x_new - x_a
        x = scatter(x, idx, x_new)
        step = scatter(step, idx, step_a)
        lo = scatter(lo, idx, lo_a)
        hi = scatter(hi, idx, hi_a)
        idx = idx[flatnonzero(xp, (xp.abs(step_a) > xtol)
                              & ((hi_a - lo_a) > xtol))]
        perf.bump("numerics.total_lanes", n)
        perf.bump("numerics.active_lanes", live)
        if sweep_counter is not None:
            perf.bump(sweep_counter)  # repro: noqa[RPR006] caller passes a registered name
    return x
