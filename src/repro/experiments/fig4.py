"""Fig. 4 — simulated SNM for a scaled inverter (super-V_th).

Gain = -1 noise margins of the inverter at nominal V_dd and at 250 mV.
The S_S degradation of Fig. 2 shows up directly: SNM at 250 mV drops
by more than 10 % between the 90nm and 32nm nodes.
"""

from __future__ import annotations

import numpy as np

from ..analysis.report import Comparison, ExperimentResult
from ..analysis.series import Series
from ..circuit.batch import noise_margins_batch
from ..circuit.snm import lane_noise_margins
from .families import SUB_VTH_SUPPLY, super_vth_family
from .registry import experiment

#: The paper's claim: >10 % SNM degradation 90nm -> 32nm.
PAPER_SNM_DEGRADATION = 0.10


@experiment("fig4", "Inverter SNM vs node (Fig. 4)")
def run() -> ExperimentResult:
    """Reproduce Fig. 4 under the super-V_th strategy."""
    designs = super_vth_family().designs
    nodes = np.array([d.node.node_nm for d in designs])
    inverters = ([d.inverter(d.node.vdd_nominal) for d in designs]
                 + [d.inverter(SUB_VTH_SUPPLY) for d in designs])
    margins = noise_margins_batch(inverters)
    snm = np.array([lane_noise_margins(margins, i).snm
                    for i in range(len(inverters))])
    snm_nominal, snm_sub = snm[:len(designs)], snm[len(designs):]

    nominal_series = Series(label="SNM @nominal Vdd", x=nodes,
                            y=1000.0 * snm_nominal, x_label="node [nm]",
                            y_label="SNM [mV]")
    sub_series = Series(label="SNM @250mV", x=nodes, y=1000.0 * snm_sub,
                        x_label="node [nm]", y_label="SNM [mV]")

    degradation = float(1.0 - snm_sub[-1] / snm_sub[0])
    comparisons = (
        Comparison(
            claim="SNM at 250 mV degrades by more than 10% 90nm -> 32nm",
            paper_value=PAPER_SNM_DEGRADATION,
            measured_value=degradation,
            holds=degradation > PAPER_SNM_DEGRADATION,
        ),
        Comparison(
            claim="absolute sub-V_th noise margins are a small fraction "
                  "of nominal-V_dd margins",
            paper_value=float("nan"),
            measured_value=float(snm_sub[0] / snm_nominal[0]),
            holds=snm_sub[0] < 0.5 * snm_nominal[0],
            note="ratio of 90nm SNM at 250 mV to SNM at nominal",
        ),
        Comparison(
            claim="SNM at 250 mV falls monotonically with scaling",
            paper_value=float("nan"),
            measured_value=float(1000.0 * (snm_sub[0] - snm_sub[-1])),
            unit="mV",
            holds=bool(np.all(np.diff(snm_sub) < 0.0)),
        ),
    )
    return ExperimentResult(
        experiment_id="fig4",
        title="Simulated SNM for a scaled inverter",
        series=(nominal_series, sub_series),
        comparisons=comparisons,
    )
