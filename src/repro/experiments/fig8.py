"""Fig. 8 — energy and delay factors versus gate length (45nm device).

Sweeps L_poly for the 45nm node with per-length doping optimisation and
plots the Eq. 8 energy factor ``C_L S_S^2`` and Eq. 6 delay factor
``C_L S_S`` (I_off fixed).  Both exhibit interior minima; the energy
minimum sits at a longer gate, and because the delay minimum is
shallow, picking the energy-optimal length costs almost nothing in
speed — the paper's justification for the sub-V_th strategy.
"""

from __future__ import annotations

import numpy as np

from ..analysis.report import Comparison, ExperimentResult
from ..analysis.series import Series
from ..scaling.roadmap import node_by_name
from ..scaling.subvth import SubVthOptimizer
from .registry import experiment

#: Gate-length sweep for the 45nm node [nm].
LENGTH_GRID_NM = np.linspace(32.0, 100.0, 12)


@experiment("fig8", "Energy and delay factors vs gate length (Fig. 8)")
def run() -> ExperimentResult:
    """Reproduce Fig. 8 at the 45nm node."""
    node = node_by_name("45nm")
    optimizer = SubVthOptimizer(node)
    designs = optimizer.designs_for_lengths(LENGTH_GRID_NM)
    energy = np.array([optimizer.energy_factor(d) for d in designs])
    delay = np.array([optimizer.delay_factor(d) for d in designs])

    energy_series = Series(label="energy factor C_L*S_S^2",
                           x=LENGTH_GRID_NM, y=energy / energy[0],
                           x_label="L_poly [nm]", y_label="normalized")
    delay_series = Series(label="delay factor C_L*S_S",
                          x=LENGTH_GRID_NM, y=delay / delay[0],
                          x_label="L_poly [nm]", y_label="normalized")

    e_idx = int(np.argmin(energy))
    d_idx = int(np.argmin(delay))
    e_opt = float(LENGTH_GRID_NM[e_idx])
    d_opt = float(LENGTH_GRID_NM[d_idx])
    # Delay penalty of choosing the energy-optimal length.
    delay_penalty = float(delay[e_idx] / delay[d_idx] - 1.0)

    comparisons = (
        Comparison(
            claim="the energy factor has an interior minimum",
            paper_value=60.0,
            measured_value=e_opt,
            unit="nm",
            holds=0 < e_idx < len(LENGTH_GRID_NM) - 1,
            note="paper's energy-optimal L_poly is 60 nm",
        ),
        Comparison(
            claim="the delay-factor minimum is at a shorter (or equal) gate",
            paper_value=float("nan"),
            measured_value=d_opt,
            unit="nm",
            holds=d_opt <= e_opt,
        ),
        Comparison(
            claim="choosing the energy-optimal length costs little delay "
                  "(shallow delay minimum)",
            paper_value=0.0,
            measured_value=delay_penalty,
            holds=delay_penalty < 0.10,
            note="fractional delay-factor penalty at the energy optimum",
        ),
        Comparison(
            claim="the energy-optimal gate is longer than the roadmap "
                  "L_poly (32 nm)",
            paper_value=60.0 / 32.0,
            measured_value=e_opt / node.l_poly_nm,
            holds=e_opt > node.l_poly_nm,
            note="ratio to the super-V_th gate length",
        ),
    )
    return ExperimentResult(
        experiment_id="fig8",
        title="Energy and delay factors for a 45nm device",
        series=(energy_series, delay_series),
        comparisons=comparisons,
    )
