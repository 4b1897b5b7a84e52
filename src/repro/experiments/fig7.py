"""Fig. 7 — S_S versus gate length for a 45nm device.

Two curves:

* **fixed doping profile** — the super-V_th 45nm doping with halo
  geometry scaling along with the drawn gate (lengthening the device
  without touching the implants); S_S saturates at a halo-degraded
  value because the heavy channel doping keeps the depletion width
  small, and
* **optimized doping** — the sub-V_th inner loop re-optimises the
  doping at every length under the fixed I_off target; the halo backs
  off as the channel lengthens and S_S keeps improving.

The gap between the curves at long L is the paper's point: "it is not
sufficient to simply lengthen L_poly without considering the doping".
"""

from __future__ import annotations

import numpy as np

from ..analysis.report import Comparison, ExperimentResult
from ..analysis.series import Series
from ..device.mosfet import Polarity, nfet
from ..scaling.roadmap import node_by_name
from ..scaling.subvth import SUB_VTH_EVAL_VDD, optimize_doping_for_lengths
from .registry import experiment

#: Gate-length sweep for the 45nm node [nm].
LENGTH_GRID_NM = np.linspace(32.0, 96.0, 9)


@experiment("fig7", "S_S vs gate length, fixed vs optimized doping (Fig. 7)")
def run() -> ExperimentResult:
    """Reproduce Fig. 7 at the 45nm node."""
    node = node_by_name("45nm")
    # The reference doping and every optimized length in one stacked
    # solve (lane for lane the per-length solves).
    reference, *optimal = optimize_doping_for_lengths(
        node, [node.l_poly_nm, *LENGTH_GRID_NM], polarity=Polarity.NFET,
        vdd_leak=SUB_VTH_EVAL_VDD,
    )
    n_sub = reference.profile.n_sub_cm3
    n_p_halo = reference.profile.n_p_halo_cm3

    # Fixed profile: same dopings, proportional geometry (halo and
    # junctions stretch with the drawn gate).
    fixed = np.array([
        nfet(float(l_poly), node.t_ox_nm, n_sub, n_p_halo).ss_mv_per_dec
        for l_poly in LENGTH_GRID_NM])
    optimized = np.array([dev.ss_mv_per_dec for dev in optimal])

    fixed_series = Series(label="fixed doping profile", x=LENGTH_GRID_NM,
                          y=fixed, x_label="L_poly [nm]",
                          y_label="S_S [mV/dec]")
    opt_series = Series(label="optimized doping", x=LENGTH_GRID_NM,
                        y=optimized, x_label="L_poly [nm]",
                        y_label="S_S [mV/dec]")

    gap_long = float(fixed[-1] - optimized[-1])
    comparisons = (
        Comparison(
            claim="optimized doping beats the fixed profile at long L_poly",
            paper_value=float("nan"),
            measured_value=gap_long,
            unit="mV/dec",
            holds=gap_long > 0.5,
            note="S_S gap at the longest swept gate",
        ),
        Comparison(
            claim="optimized S_S improves monotonically with gate length",
            paper_value=float("nan"),
            measured_value=float(optimized[0] - optimized[-1]),
            unit="mV/dec",
            holds=bool(np.all(np.diff(optimized) < 0.3)),
            note="improvement from the shortest to longest gate",
        ),
        Comparison(
            claim="the fixed profile saturates: lengthening alone stops "
                  "helping",
            paper_value=float("nan"),
            measured_value=float(fixed[-1] - fixed[-2]),
            unit="mV/dec",
            holds=abs(fixed[-1] - fixed[-2]) < abs(fixed[1] - fixed[0]),
        ),
    )
    return ExperimentResult(
        experiment_id="fig7",
        title="S_S vs gate length for a 45nm device",
        series=(fixed_series, opt_series),
        comparisons=comparisons,
    )
