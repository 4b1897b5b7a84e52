"""Lightweight performance instrumentation.

A process-global counter table tracks how much numerical work the
library actually performs: Newton iterations, Poisson solves, optimiser
residual evaluations, and cache hits/misses.  The hot paths call
:func:`bump`, which is a dict increment — cheap enough to leave enabled
unconditionally — and the CLI's ``--profile`` flag (plus the benchmark
tooling) renders a snapshot at the end of a run.

Counter names in use
--------------------
``poisson.solves``
    Single-bias Poisson problems solved (batch members count once each).
``poisson.batch_solves``
    Calls to :func:`repro.tcad.poisson1d.solve_mos_poisson_batch`.
``poisson.newton_iterations``
    Total damped-Newton iterations across all solves.
``optimizer.brentq_residual_evals``
    Leakage-residual evaluations inside the scaling root-solves.
``cache.device.hits`` / ``cache.device.misses``
    In-process device-construction memo.
``circuit.vtc_batch_solves`` / ``circuit.vtc_batch_points``
    Batched VTC kernel invocations and the total points they solved.
``circuit.vtc_newton_sweeps``
    Whole-array safeguarded-Newton sweeps inside the batched VTC
    solver (``solve_vtc_batch``).
``circuit.balance_bisection_sweeps``
    Whole-array bisection sweeps inside the batched balance solver
    (``solve_balance_batch``, which the SRAM read VTC uses).
``circuit.vtc_scalar_solves``
    Per-point (sequential-oracle) VTC solves.
``circuit.snm_batch_extractions``
    Noise-margin extractions performed through the batched kernel.
``circuit.delay_batch_points``
    Monte Carlo delay evaluations done as array elements.
``circuit.energy_sweep_points``
    V_dd grid points evaluated by the vectorised energy sweep.
``circuit.butterfly_batch_solves``
    Vectorised largest-square butterfly-SNM solves.
``circuit.dvs_bisection_sweeps``
    Gathered bisection sweeps inside the batched DVS supply solver.
``scaling.doping_batch_solves`` / ``scaling.doping_batch_points``
    Batched doping root-solves and the candidate points they stacked
    (deterministic: fixed by the optimisation grid sizes).
``scaling.doping_bisection_sweeps``
    Whole-stack bisection sweeps inside the batched doping solver.
``scaling.device_eval_points``
    Parameter-axis device evaluations (`repro.device.batch` metrics
    calls, counted per stacked point).
``cache.device.evictions``
    Entries the device memo dropped at its size cap.
``numerics.active_lanes`` / ``numerics.total_lanes``
    Lanes the shared root-solve core actually evaluated vs lanes
    carried, summed per sweep; their ratio is the measured active-set
    compression.
``numerics.tolerance_steps``
    Lanes of :func:`repro.numerics.bisect_illinois` that took a
    tolerance step after a rejected Illinois proposal (the endgame
    that retires a lane sitting on its root).
``service.grid.shards`` / ``service.grid.points``
    Design-space grid precompute: (node, L_poly) shards filled and the
    total (target, V_dd) metric points they produced.
``service.queries``
    Queries answered by the design-space server (errors included).
``service.surrogate_hits`` / ``service.exact_fallbacks``
    Query answers served from the fitted surrogate vs answers that
    fell back to an exact batched root-solve (off-grid point, NaN grid
    cell, shifted corner, or no grid loaded).
``service.errors``
    Queries answered with an error envelope (any taxonomy code).
``cache.grid.hits`` / ``cache.grid.misses`` / ``cache.grid.stores``
    On-disk design-space grid tensors (schema-hash keyed ``.npz``).
``variability.qmc_points`` / ``variability.mc_points``
    Standard-normal trial pairs drawn from the scrambled-Sobol' /
    block-seeded pseudo-random streams of the rare-event engine.
``variability.shift_probes``
    Failure-indicator points spent by the batched minimum-norm
    failure-point search (importance-shift location).
``variability.estimator_trials``
    Trials evaluated by the likelihood-ratio tail estimator (across
    all chunks; early stopping shows up as fewer trials).
``variability.tail_points``
    (V_dd, design) points estimated on failure-rate-vs-supply curves.
``circuit.mna.batch_solves`` / ``circuit.mna.batch_lanes``
    Compiled batched MNA solves (DC or transient calls) and the lanes
    they carried (stimulus points x variation corners).
``circuit.mna.newton_sweeps``
    Batched damped-Newton sweeps executed (one stacked linear solve
    each).
``circuit.mna.active_lanes`` / ``circuit.mna.total_lanes``
    Lanes the batched MNA Newton actually assembled vs lanes carried,
    summed per sweep (active-set compression of the nodal engine).
``circuit.mna.device_evals``
    Vectorised device evaluations (transistor instances x lanes); one
    evaluation yields the current and its closed-form partials
    together.
``circuit.mna.transient_steps``
    Accepted backward-Euler steps of the batched transient engine.
``circuit.mna.rejected_steps``
    Steps the batched transient's shared controller rejected and
    halved (a lane's Newton failed, or ``max_change_v`` tripped) —
    how often one lane cut the grid for every lane.
``circuit.mna.sequential_solves``
    Per-lane scalar NodalSolver solves run by the sequential oracle.

The registry below mirrors this list; ``repro lint`` (rule RPR006)
statically checks every ``perf.bump``/``perf.get`` call site against
it, so adding a counter means adding it here *and* documenting it
above.
"""

from __future__ import annotations

from collections import Counter

#: Every literal counter name a call site may use (lint rule RPR006).
KNOWN_COUNTERS: frozenset[str] = frozenset({
    "poisson.solves",
    "poisson.batch_solves",
    "poisson.newton_iterations",
    "optimizer.brentq_residual_evals",
    "cache.device.hits",
    "cache.device.misses",
    "cache.device.evictions",
    "circuit.vtc_batch_solves",
    "circuit.vtc_batch_points",
    "circuit.vtc_newton_sweeps",
    "circuit.balance_bisection_sweeps",
    "circuit.vtc_scalar_solves",
    "circuit.snm_batch_extractions",
    "circuit.delay_batch_points",
    "circuit.energy_sweep_points",
    "circuit.butterfly_batch_solves",
    "circuit.dvs_bisection_sweeps",
    "scaling.doping_batch_solves",
    "scaling.doping_batch_points",
    "scaling.doping_bisection_sweeps",
    "scaling.device_eval_points",
    "numerics.active_lanes",
    "numerics.total_lanes",
    "numerics.tolerance_steps",
    "service.grid.shards",
    "service.grid.points",
    "service.queries",
    "service.surrogate_hits",
    "service.exact_fallbacks",
    "service.errors",
    "cache.grid.hits",
    "cache.grid.misses",
    "cache.grid.stores",
    "variability.qmc_points",
    "variability.mc_points",
    "variability.shift_probes",
    "variability.estimator_trials",
    "variability.tail_points",
    "circuit.mna.batch_solves",
    "circuit.mna.batch_lanes",
    "circuit.mna.newton_sweeps",
    "circuit.mna.active_lanes",
    "circuit.mna.total_lanes",
    "circuit.mna.device_evals",
    "circuit.mna.transient_steps",
    "circuit.mna.rejected_steps",
    "circuit.mna.sequential_solves",
})

#: Name families that may be built dynamically (f-string/concat call
#: sites): the cache layer parameterises ``cache.<name>.*`` on the memo
#: name.
DYNAMIC_COUNTER_PREFIXES: tuple[str, ...] = ("cache.",)

_COUNTERS: Counter[str] = Counter()


def bump(name: str, n: int = 1) -> None:
    """Increment counter ``name`` by ``n``."""
    _COUNTERS[name] += n


def get(name: str) -> int:
    """Current value of counter ``name`` (0 if never bumped)."""
    return _COUNTERS[name]


def snapshot() -> dict[str, int]:
    """A plain-dict copy of all counters (picklable, for workers)."""
    return dict(_COUNTERS)


def merge(counts: dict[str, int]) -> None:
    """Fold a worker-process snapshot into this process's counters."""
    _COUNTERS.update(counts)


def delta(before: dict[str, int]) -> dict[str, int]:
    """Counter increments since a :func:`snapshot` (zero deltas dropped).

    The provenance manifest brackets each experiment run with a
    snapshot/delta pair so ``results.json`` attributes numerical work
    (solves, iterations, cache traffic) to the experiment that caused
    it rather than to the whole process.
    """
    changes: dict[str, int] = {}
    for name, value in _COUNTERS.items():
        increment = value - before.get(name, 0)
        if increment:
            changes[name] = increment
    return changes


def reset() -> None:
    """Zero every counter."""
    _COUNTERS.clear()


def report() -> str:
    """Human-readable counter table, sorted by name.

    When the shared root-solve core ran, a summary line reports the
    measured active-set compression (evaluated vs carried lanes).
    """
    if not _COUNTERS:
        return "perf counters: (none recorded)"
    width = max(len(name) for name in _COUNTERS)
    lines = ["perf counters:"]
    for name in sorted(_COUNTERS):
        lines.append(f"  {name:<{width}}  {_COUNTERS[name]:>12,}")
    total = _COUNTERS["numerics.total_lanes"]
    if total:
        active = _COUNTERS["numerics.active_lanes"]
        lines.append(f"  active-set compression: {active / total:.1%} "
                     f"of carried lanes evaluated")
    return "\n".join(lines)
