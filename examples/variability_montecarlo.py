"""Monte-Carlo timing and noise-margin variability at the 32nm node.

The paper's introduction warns that "timing variability grows
dramatically as V_dd reduces, forcing pessimistic design practices and
large timing margins".  This example quantifies that with random-
dopant-fluctuation Monte Carlo on the two 32nm device families, drawn
straight through the batched kernels (every trial is one lane of one
array-native solve):

* sigma(V_th) per device (RDF),
* FO1-delay distribution at 250 mV (sigma/mu and the 95th-percentile
  margin a designer must budget),
* SNM distribution, including the fraction of cells that lose
  regeneration entirely.

Run:  python examples/variability_montecarlo.py   (~20 s)

Set ``REPRO_EXAMPLES_QUICK=1`` (as the CI smoke job does) to shrink
the trial counts to a few-second sanity run; the statistics are then
too noisy to quote but every code path still executes.
"""

import os

import numpy as np

from repro.analysis.tables import render_table
from repro.circuit import analytic_delay_batch, noise_margins_batch
from repro.scaling import build_sub_vth_family, build_super_vth_family
from repro.variability import rdf_sigma_vth

QUICK = os.environ.get("REPRO_EXAMPLES_QUICK", "") == "1"

VDD = 0.25
N_TRIALS_DELAY = 20 if QUICK else 200
N_TRIALS_SNM = 8 if QUICK else 80


def rdf_offsets(inv, n_trials: int, rng: np.random.Generator):
    """Independent (NFET, PFET) V_th offsets with each device's RDF sigma."""
    return (rng.normal(0.0, rdf_sigma_vth(inv.nfet), n_trials),
            rng.normal(0.0, rdf_sigma_vth(inv.pfet), n_trials))


def main() -> None:
    rng = np.random.default_rng(2007)
    designs = {
        "super-vth": build_super_vth_family().design("32nm"),
        "sub-vth": build_sub_vth_family().design("32nm"),
    }
    rows = []
    for label, design in designs.items():
        inv = design.inverter(VDD)
        sigma_n = rdf_sigma_vth(design.nfet)
        dn, dp = rdf_offsets(inv, N_TRIALS_DELAY, rng)
        delays = analytic_delay_batch(inv, dn, dp,
                                      inv.load_capacitance(fanout=1))
        dn, dp = rdf_offsets(inv, N_TRIALS_SNM, rng)
        nm = noise_margins_batch(inv, dn, dp)
        snms = np.where(nm.lost, 0.0, nm.snm)  # lost regeneration: no margin
        p50, p95 = np.percentile(delays, [50, 95])
        rows.append((
            label,
            f"{1000 * sigma_n:.1f}",
            f"{100 * delays.std(ddof=1) / delays.mean():.0f}",
            f"{p95 / p50:.2f}",
            f"{1000 * snms.mean():.1f}",
            f"{100 * np.mean(snms <= 0.0):.1f}",
        ))
    print(render_table(
        ("strategy", "sigma(Vth) mV", "delay sigma/mu %",
         "p95/p50 delay", "mean SNM mV", "SNM failures %"),
        rows,
        title=f"== 32nm RDF Monte Carlo at V_dd = {1000 * VDD:.0f} mV ==",
    ))
    print("\nThe sub-V_th device's longer gate (larger area) and lighter "
          "channel doping buy it a variability margin on top of its "
          "nominal SNM and delay advantages.")


if __name__ == "__main__":
    main()
