"""Extension — are the conclusions calibration-robust?

Three constants in this reproduction are calibrated (DESIGN.md §2).
This experiment perturbs each across a generous range, re-runs both
strategy optimisers and the headline comparisons from scratch, and
asserts that the paper's conclusions never flip:

* the sub-V_th SNM advantage at 32nm stays > 8 % (paper: 19 %),
* the energy advantage at V_min stays > 5 % (paper: 23 %),
* super-V_th S_S degradation stays positive everywhere.

Notably, the *textbook* Eq. 2(b) prefactor (11, uncalibrated) lands
closest to the paper's energy number — the calibration moves
magnitudes, never signs.
"""

from __future__ import annotations

import numpy as np

from ..analysis.report import Comparison, ExperimentResult
from ..analysis.series import Series
from ..scaling.sensitivity import headlines_under_calibrations
from .registry import experiment

#: The calibration grid: (label, kwargs) pairs.
CALIBRATION_GRID: tuple[tuple[str, dict], ...] = (
    ("default", {}),
    ("prefactor=6", {"sce_prefactor": 6.0}),
    ("prefactor=11 (textbook)", {"sce_prefactor": 11.0}),
    ("lt=0.35", {"lt_calibration": 0.35}),
    ("lt=0.60", {"lt_calibration": 0.60}),
    ("overlap=0.15", {"overlap_fraction": 0.15}),
)


@experiment("ext_sensitivity", "Extension: calibration robustness")
def run() -> ExperimentResult:
    """Sweep the calibration grid and re-measure the headlines."""
    labels = [label for label, _kwargs in CALIBRATION_GRID]
    results = headlines_under_calibrations(
        [kwargs for _label, kwargs in CALIBRATION_GRID])
    index = np.arange(len(labels), dtype=float)
    snm = np.array([r.snm_advantage for r in results])
    energy = np.array([r.energy_advantage for r in results])
    ss_deg = np.array([r.ss_degradation for r in results])

    series = (
        Series(label="SNM advantage vs calibration", x=index, y=snm,
               x_label="calibration index", y_label="fraction"),
        Series(label="energy advantage vs calibration", x=index, y=energy,
               x_label="calibration index", y_label="fraction"),
        Series(label="super-vth S_S degradation vs calibration", x=index,
               y=ss_deg, x_label="calibration index", y_label="fraction"),
    )

    comparisons = (
        Comparison(
            claim="the 32nm SNM advantage never drops below 8%",
            paper_value=0.19,
            measured_value=float(snm.min()),
            holds=bool(np.all(snm > 0.08)),
            note=f"range {snm.min():.2f}..{snm.max():.2f} over "
                 f"{len(labels)} calibrations",
        ),
        Comparison(
            claim="the 32nm energy advantage never drops below 5%",
            paper_value=0.23,
            measured_value=float(energy.min()),
            holds=bool(np.all(energy > 0.05)),
            note=f"range {energy.min():.2f}..{energy.max():.2f}",
        ),
        Comparison(
            claim="super-V_th S_S degradation is positive at every "
                  "calibration",
            paper_value=0.11,
            measured_value=float(ss_deg.min()),
            holds=bool(np.all(ss_deg > 0.0)),
        ),
        Comparison(
            claim="the uncalibrated textbook prefactor reproduces the "
                  "paper's energy number most closely",
            paper_value=0.23,
            measured_value=float(energy[2]),
            holds=abs(energy[2] - 0.23) < 0.05,
            note="prefactor=11 grid point",
        ),
    )
    return ExperimentResult(
        experiment_id="ext_sensitivity",
        title="Calibration robustness of the headline conclusions",
        series=series,
        comparisons=comparisons,
    )
