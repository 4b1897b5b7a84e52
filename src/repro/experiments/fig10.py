"""Fig. 10 — inverter SNM under super-V_th vs sub-V_th scaling.

The payoff of the flat S_S: sub-V_th-scaled inverters keep their noise
margins while super-V_th-scaled ones lose them; at the 32nm node the
paper reports a 19 % SNM advantage.
"""

from __future__ import annotations

import numpy as np

from ..analysis.report import Comparison, ExperimentResult
from ..analysis.series import Series
from ..circuit.batch import noise_margins_batch
from ..circuit.snm import lane_noise_margins
from .families import SUB_VTH_SUPPLY, sub_vth_family, super_vth_family
from .registry import experiment

#: The paper's 32nm-node SNM advantage.
PAPER_SNM_ADVANTAGE = 0.19


@experiment("fig10", "Inverter SNM under both strategies (Fig. 10)")
def run() -> ExperimentResult:
    """Reproduce Fig. 10 at V_dd = 250 mV."""
    sup = super_vth_family()
    sub = sub_vth_family()
    nodes = np.array([d.node.node_nm for d in sup.designs])
    inverters = [d.inverter(SUB_VTH_SUPPLY)
                 for d in sup.designs + sub.designs]
    margins = noise_margins_batch(inverters)
    snm = np.array([lane_noise_margins(margins, i).snm
                    for i in range(len(inverters))])
    snm_sup, snm_sub = snm[:len(sup.designs)], snm[len(sup.designs):]

    series = (
        Series(label="SNM super-vth @250mV", x=nodes, y=1000.0 * snm_sup,
               x_label="node [nm]", y_label="SNM [mV]"),
        Series(label="SNM sub-vth @250mV", x=nodes, y=1000.0 * snm_sub,
               x_label="node [nm]", y_label="SNM [mV]"),
    )

    advantage_32 = float(snm_sub[-1] / snm_sup[-1] - 1.0)
    sub_spread = float((snm_sub.max() - snm_sub.min()) / snm_sub.max())
    comparisons = (
        Comparison(
            claim="sub-V_th scaling yields ~19% larger SNM at the 32nm node",
            paper_value=PAPER_SNM_ADVANTAGE,
            measured_value=advantage_32,
            holds=advantage_32 > 0.10,
        ),
        Comparison(
            claim="sub-V_th SNM is at least as good at every node",
            paper_value=float("nan"),
            measured_value=float(np.min(snm_sub - snm_sup)) * 1000.0,
            unit="mV",
            holds=bool(np.all(snm_sub >= snm_sup - 1e-4)),
            note="minimum margin difference across nodes",
        ),
        Comparison(
            claim="sub-V_th SNM remains nearly constant with scaling",
            paper_value=float("nan"),
            measured_value=sub_spread,
            holds=sub_spread < 0.08,
            note="relative spread of the sub-V_th SNM across nodes",
        ),
    )
    return ExperimentResult(
        experiment_id="fig10",
        title="Inverter SNM under super-V_th and sub-V_th scaling",
        series=series,
        comparisons=comparisons,
    )
