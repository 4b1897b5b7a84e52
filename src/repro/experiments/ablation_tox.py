"""Ablation — how the T_ox scaling rate drives S_S degradation.

The paper's root-cause claim: S_S degrades because T_ox shrinks only
~10 %/generation while L_poly shrinks 30 %.  This ablation re-runs the
super-V_th flow to the 32nm node under alternative T_ox rates
(0-30 %/generation) and shows that faster oxide scaling directly
removes the slope degradation.
"""

from __future__ import annotations

import numpy as np

from ..analysis.report import Comparison, ExperimentResult
from ..analysis.series import Series
from ..device.mosfet import Polarity
from ..scaling.batch import optimize_super_vth_stack, super_vth_request
from ..scaling.roadmap import NodeSpec, node_by_name
from .registry import experiment

#: T_ox shrink rates per generation to ablate.
TOX_RATES = (0.0, 0.10, 0.20, 0.30)
#: Generations from the 90nm reference to the 32nm node.
GENERATIONS = 3


def _node_32nm_with_tox_rate(rate: float) -> NodeSpec:
    base90 = node_by_name("90nm")
    base32 = node_by_name("32nm")
    t_ox = base90.t_ox_nm * (1.0 - rate) ** GENERATIONS
    return NodeSpec(
        name=f"32nm@tox-{int(rate * 100)}pct",
        node_nm=base32.node_nm,
        l_poly_nm=base32.l_poly_nm,
        t_ox_nm=t_ox,
        vdd_nominal=base32.vdd_nominal,
        ioff_target_a_per_um=base32.ioff_target_a_per_um,
        generation=base32.generation,
    )


@experiment("ablation_tox", "Ablation: T_ox scaling rate vs S_S at 32nm")
def run() -> ExperimentResult:
    """Sweep the oxide-thinning rate and optimise the 32nm device."""
    nodes = [node_by_name("90nm")] + [_node_32nm_with_tox_rate(rate)
                                      for rate in TOX_RATES]
    baseline, *devices = optimize_super_vth_stack(
        [super_vth_request(node, Polarity.NFET, 1.0) for node in nodes])
    baseline_ss = baseline.ss_mv_per_dec
    rates = np.array(TOX_RATES)
    ss32 = np.array([device.ss_mv_per_dec for device in devices])

    series = (
        Series(label="S_S at 32nm vs T_ox rate", x=100.0 * rates, y=ss32,
               x_label="T_ox shrink [%/gen]", y_label="S_S [mV/dec]"),
    )
    degradation_slow = float(ss32[1] / baseline_ss - 1.0)   # 10%/gen
    degradation_fast = float(ss32[-1] / baseline_ss - 1.0)  # 30%/gen
    comparisons = (
        Comparison(
            claim="faster T_ox scaling monotonically improves S_S at 32nm",
            paper_value=float("nan"),
            measured_value=float(ss32[0] - ss32[-1]),
            unit="mV/dec",
            holds=bool(np.all(np.diff(ss32) < 0.0)),
            note="S_S recovered between 0%/gen and 30%/gen oxide scaling",
        ),
        Comparison(
            claim="at 30%/gen T_ox scaling (matching L_poly) the slope "
                  "degradation largely disappears",
            paper_value=0.0,
            measured_value=degradation_fast,
            holds=degradation_fast < 0.5 * degradation_slow,
            note="relative S_S degradation vs the 90nm baseline",
        ),
    )
    return ExperimentResult(
        experiment_id="ablation_tox",
        title="T_ox scaling rate vs 32nm subthreshold slope",
        series=series,
        comparisons=comparisons,
    )
