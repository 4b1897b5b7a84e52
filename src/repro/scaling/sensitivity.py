"""Calibration-sensitivity analysis.

Three constants in this reproduction were calibrated against the
paper's simulated trajectories (see DESIGN.md §2): the gate-overlap
fraction, the quasi-2-D characteristic-length multiplier, and the
Eq. 2(b) short-channel slope prefactor.  A fair question is whether
the paper's *conclusions* — the sub-V_th strategy's SNM and energy
advantages at 32nm — depend on those choices.

:func:`headlines_under_calibrations` re-runs both strategy optimisers
and the headline circuit comparisons under a grid of perturbed
constants; the ``ext_sensitivity`` experiment sweeps a grid and asserts
the conclusions are calibration-robust.  :func:`headline_under_calibration`
is its one-calibration case.

Implementation note: the constants live as module globals that the
physics reads (scalar devices and parameter stacks at construction),
so a scoped context manager can swap them safely (and always restores
them, exception or not).  The doping solves do not need the scope,
though: an optimiser records the calibration in force when it is made
(:class:`~repro.scaling.batch.Calibration`) and hands it to its doping
requests, which carry it per lane.  So the grid's optimisers are made
inside their scopes, every calibration's families are optimised in
one lock-step stack per flow (four root-solves for ext_sensitivity's
grid).  The devices carry their calibration too, so the whole grid's
SNMs are one stacked extraction, and only the minimum-energy points
run again inside each scope.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from ..circuit.batch import BatchNoiseMargins, noise_margins_batch
from ..circuit.chain import InverterChain
from ..circuit.snm import lane_noise_margins
from ..errors import OptimizationError, ParameterError
from .batch import Calibration, optimize_super_vth_stack
from .roadmap import roadmap_nodes
from .strategy import DeviceDesign
from .subvth import SubVthOptimizer, optimize_sub_vth_stack
from .supervth import pair_designs, pair_requests


@contextlib.contextmanager
def calibration(overlap_fraction: float | None = None,
                lt_calibration: float | None = None,
                sce_prefactor: float | None = None):
    """Temporarily override the calibrated constants.

    Only the constants passed are changed; everything is restored on
    exit.  Devices built *inside* the context bake the overridden
    values into their cached state, so comparisons must construct all
    devices within one context.
    """
    for name, value in (("overlap", overlap_fraction),
                        ("lt", lt_calibration),
                        ("prefactor", sce_prefactor)):
        if value is not None and value <= 0.0:
            raise ParameterError(f"{name} override must be positive")
    if overlap_fraction is not None and overlap_fraction >= 0.5:
        raise ParameterError("overlap fraction must be < 0.5")

    now = Calibration.current()
    with Calibration(
        now.overlap_fraction if overlap_fraction is None else overlap_fraction,
        now.lt_calibration if lt_calibration is None else lt_calibration,
        now.sce_prefactor if sce_prefactor is None else sce_prefactor,
    ).scope():
        yield


@dataclass(frozen=True)
class HeadlineResult:
    """The paper's two headline advantages under one calibration.

    Attributes
    ----------
    snm_advantage:
        Fractional SNM advantage of the sub-V_th 32nm inverter at
        250 mV (paper: ~0.19).
    energy_advantage:
        Fractional energy saving at each strategy's V_min (paper:
        ~0.23).
    ss_degradation:
        Super-V_th fractional S_S degradation 90nm -> 32nm (paper:
        ~0.11).
    """

    snm_advantage: float
    energy_advantage: float
    ss_degradation: float
    overlap_fraction: float
    lt_calibration: float
    sce_prefactor: float


def headline_under_calibration(overlap_fraction: float | None = None,
                               lt_calibration: float | None = None,
                               sce_prefactor: float | None = None
                               ) -> HeadlineResult:
    """Re-run the headline comparisons under perturbed constants.

    Rebuilds both families from scratch inside the calibration scope
    (the cached families in :mod:`repro.experiments.families` are NOT
    used — they carry the default calibration).  This is
    :func:`headlines_under_calibrations` with one grid point, whose
    doping requests carry the calibration.
    """
    overrides = {"overlap_fraction": overlap_fraction,
                 "lt_calibration": lt_calibration,
                 "sce_prefactor": sce_prefactor}
    return headlines_under_calibrations([overrides])[0]


def headlines_under_calibrations(grid: Sequence[Mapping[str, float | None]]
                                 ) -> list[HeadlineResult]:
    """Headline comparisons for every override set of a grid, in lock-step.

    The result is :func:`headline_under_calibration` per entry of
    ``grid``, with the doping solves stacked.  The overrides of the
    whole grid are validated first; entries that resolve to the same
    constants are solved once and share their result.  Each distinct
    calibration's optimisers are made inside its scope, so they carry
    it.  All their super-V_th jobs then run as one
    :func:`~repro.scaling.batch.optimize_super_vth_stack` and all their
    sub-V_th optimisers as one
    :func:`~repro.scaling.subvth.optimize_sub_vth_stack`: four doping
    root-solves for ext_sensitivity's grid.  Every lane solves cold, so
    every device is bitwise the one a per-calibration rebuild returns.
    The devices carry their calibration, so the SNMs of every
    calibration are one stacked extraction, made before the
    calibrations' circuit work; the minimum-energy points run per
    calibration, inside its scope.  Errors are those of the
    per-calibration loop: calibration ``k``'s lost-regeneration error
    is raised after calibration ``k - 1``'s energy work and before its
    own, and when a stacked solve fails, the calibrations run again
    one at a time, in grid order.
    """
    resolved = []
    for overrides in grid:
        with calibration(**overrides):
            resolved.append(Calibration.current())
    distinct = list(dict.fromkeys(resolved))
    results = dict(zip(distinct, _headlines(distinct)))
    return [results[cal] for cal in resolved]


def _headlines(cals: Sequence[Calibration]) -> list[HeadlineResult]:
    """:func:`headlines_under_calibrations` for distinct calibrations."""
    nodes = roadmap_nodes()
    jobs = []
    optimizers: list[SubVthOptimizer] = []
    for cal in cals:
        with cal.scope():
            jobs += pair_requests(nodes)
            optimizers += [SubVthOptimizer(node) for node in nodes]
    try:
        devices = optimize_super_vth_stack(jobs)
        sub_designs = optimize_sub_vth_stack(optimizers)
    except OptimizationError:
        if len(cals) == 1:
            raise
        # The loop would raise the first failing calibration's error
        # (super-V_th, sub-V_th, then circuits, before the next one).
        for cal in cals:
            _headlines([cal])
        raise

    n = len(nodes)
    sups = [pair_designs(nodes, devices[2 * k * n:2 * (k + 1) * n])
            for k in range(len(cals))]
    subs = [sub_designs[(k + 1) * n - 1] for k in range(len(cals))]
    margins = _snm_extraction(zip(sups, subs))
    results = []
    for k, cal in enumerate(cals):
        with cal.scope():
            results.append(_headline(sups[k], subs[k], margins, k))
    return results


def _snm_extraction(designs: Iterable[tuple[Sequence[DeviceDesign],
                                            DeviceDesign]]
                    ) -> BatchNoiseMargins:
    """One stacked SNM extraction at 250 mV for each calibration's
    (super-V_th designs, sub-V_th 32nm design): lanes ``2k`` and
    ``2k + 1`` hold calibration ``k``'s two 32nm inverters.  The
    devices carry their calibration from construction, so the
    extraction needs no calibration scope."""
    return noise_margins_batch([
        design.inverter(0.25)
        for super_designs, sub32 in designs
        for design in (super_designs[-1], sub32)])


def _headline(super_designs: Sequence[DeviceDesign], sub32: DeviceDesign,
              margins: BatchNoiseMargins, k: int) -> HeadlineResult:
    """The headline comparisons for one calibration's designs (run in
    that calibration's scope; the last super-V_th design is 32nm).
    ``margins`` is the :func:`_snm_extraction` that holds this
    calibration as its ``k``-th; a lost lane raises here, before the
    calibration's energy work, as a per-calibration loop would."""
    sup32 = super_designs[-1]
    snm_sup = lane_noise_margins(margins, 2 * k).snm
    snm_sub = lane_noise_margins(margins, 2 * k + 1).snm
    e_sup = InverterChain(sup32.inverter(0.3)) \
        .minimum_energy_point().energy.total_j
    e_sub = InverterChain(sub32.inverter(0.3)) \
        .minimum_energy_point().energy.total_j
    ss = [d.nfet.ss_v_per_dec for d in super_designs]
    now = Calibration.current()
    return HeadlineResult(
        snm_advantage=snm_sub / snm_sup - 1.0,
        energy_advantage=1.0 - e_sub / e_sup,
        ss_degradation=ss[-1] / ss[0] - 1.0,
        overlap_fraction=now.overlap_fraction,
        lt_calibration=now.lt_calibration,
        sce_prefactor=now.sce_prefactor,
    )
