"""Extension — array-scale characterisation on the batched MNA engine.

The paper sizes single cells; an SRAM macro ships as *columns*.  This
experiment drives the compiled batched MNA engine
(:mod:`repro.circuit.mna_batch`) over full N-row bitline-loaded
columns and transistor-level gates for both 32nm scaling flows:

* **leakage under loading** (Mukhopadhyay et al., PAPERS.md): total
  bitline leakage grows sub-linearly with array height because the
  sagging bitline strips each cell's access device of drain bias and
  DIBL — per-cell leakage falls monotonically as rows are added;
* **read SNM vs height**: the unaccessed '1'-storing rows hold the
  floating bitline near the rail during a read, so loaded read SNM
  degrades monotonically with height toward the pinned-bitline limit;
* **write margins across variation corners**: the quasistatic-ramp
  write trip and the binary-searched minimum wordline pulse both
  worsen monotonically as the access NFET weakens (ΔV_th,n up) —
  every corner one batch lane;
* **the stacking effect** at the gate level: a NAND2 with both inputs
  low leaks less than with either input alone, a second-order effect
  an equivalent-inverter reduction cannot represent.
"""

from __future__ import annotations

import numpy as np

from ..analysis.report import Comparison, ExperimentResult
from ..analysis.series import Series
from ..circuit.gate_netlists import gate_leakage, nand2_netlist
from ..circuit.sram import SramCell
from ..circuit.sram_array import (bitline_leakage_vs_height,
                                  min_write_pulse, read_snm_vs_height,
                                  write_trip_voltage)
from .families import sub_vth_family, super_vth_family
from .registry import experiment

#: Common array supply [V] — the iso-supply point both flows are
#: compared at (the sub-vth examples' operating point).
ARRAY_VDD = 0.30

#: Array heights of the leakage-under-loading sweep.
LEAKAGE_HEIGHTS = (2, 4, 8, 16, 32)

#: Array heights of the read-SNM sweep (each height is two batched
#: butterfly-lobe sweeps, so the grid is shorter).
SNM_HEIGHTS = (2, 4, 8, 16)
SNM_POINTS = 25

#: Write characterisation: access-NFET threshold corners [V] and the
#: column height the write studies run at.
WRITE_CORNERS_V = (-0.02, -0.01, 0.0, 0.01, 0.02)
WRITE_ROWS = 4
WRITE_PROBES = 7


def _cell(design) -> SramCell:
    """The examples' 6T sizing (2/1/1 µm PD/PU/AX) on a flow's pair."""
    return SramCell(pulldown=design.nfet.with_width_um(2.0),
                    pullup=design.pfet.with_width_um(1.0),
                    access=design.nfet.with_width_um(1.0),
                    vdd=ARRAY_VDD)


@experiment("ext_array", "Extension: array-scale batched-MNA characterisation")
def run() -> ExperimentResult:
    """Column leakage/SNM vs height, write corners, gate stacking."""
    sub = sub_vth_family().design("32nm")
    sup = super_vth_family().design("32nm")
    cell_sub = _cell(sub)
    cell_sup = _cell(sup)

    leak_sub = bitline_leakage_vs_height(cell_sub, LEAKAGE_HEIGHTS)
    leak_sup = bitline_leakage_vs_height(cell_sup, LEAKAGE_HEIGHTS)
    heights, snm_sub, pinned_sub = read_snm_vs_height(
        cell_sub, SNM_HEIGHTS, n_points=SNM_POINTS)

    corners = np.array(WRITE_CORNERS_V)
    trip = write_trip_voltage(cell_sub, WRITE_ROWS, dvth_n_v=corners)
    pulse = min_write_pulse(cell_sub, WRITE_ROWS, dvth_n_v=corners,
                            n_probes=WRITE_PROBES)

    nand = nand2_netlist(sub.nfet, sub.pfet, ARRAY_VDD)
    a = np.array([0.0, 0.0, ARRAY_VDD])
    b = np.array([0.0, ARRAY_VDD, 0.0])
    nand_leak = gate_leakage(nand, {"a": a, "b": b})

    series = (
        Series(label="per-cell bitline leakage, sub-vth",
               x=np.array(LEAKAGE_HEIGHTS, dtype=float),
               y=leak_sub.per_cell_a,
               x_label="array height [rows]",
               y_label="leakage per cell [A]"),
        Series(label="per-cell bitline leakage, super-vth",
               x=np.array(LEAKAGE_HEIGHTS, dtype=float),
               y=leak_sup.per_cell_a,
               x_label="array height [rows]",
               y_label="leakage per cell [A]"),
        Series(label="loaded read SNM, sub-vth",
               x=heights.astype(float), y=snm_sub,
               x_label="array height [rows]", y_label="read SNM [V]"),
        Series(label="write trip vs access dVth, sub-vth",
               x=corners, y=trip,
               x_label="access dVth,n [V]", y_label="trip voltage [V]"),
        Series(label="min write pulse vs access dVth, sub-vth",
               x=corners, y=pulse,
               x_label="access dVth,n [V]", y_label="pulse width [s]"),
    )

    sub_ratio = float(leak_sub.per_cell_a[-1] / leak_sub.per_cell_a[0])
    sup_ratio = float(leak_sup.per_cell_a[-1] / leak_sup.per_cell_a[0])
    snm_drop_mv = float((snm_sub[0] - snm_sub[-1]) * 1e3)

    comparisons = (
        Comparison(
            claim="bitline leakage grows sub-linearly with array "
                  "height: per-cell leakage falls monotonically as "
                  "rows are added (loading effect, sub-vth flow)",
            paper_value=float("nan"),
            measured_value=sub_ratio,
            holds=bool(np.all(np.diff(leak_sub.per_cell_a) < 0.0)
                       and sub_ratio < 1.0),
            note=f"per-cell leakage at {LEAKAGE_HEIGHTS[-1]} rows is "
                 f"{sub_ratio:.3f}x the {LEAKAGE_HEIGHTS[0]}-row value",
        ),
        Comparison(
            claim="the loading effect is flow-independent: the "
                  "super-vth column's per-cell leakage also falls "
                  "monotonically with height",
            paper_value=float("nan"),
            measured_value=sup_ratio,
            holds=bool(np.all(np.diff(leak_sup.per_cell_a) < 0.0)
                       and sup_ratio < 1.0),
        ),
        Comparison(
            claim="loaded read SNM degrades monotonically with array "
                  "height ('1'-storing rows stiffen the bitline "
                  "disturb)",
            paper_value=float("nan"),
            measured_value=snm_drop_mv,
            holds=bool(np.all(np.diff(snm_sub) < 0.0)),
            note=f"SNM drop from {SNM_HEIGHTS[0]} to {SNM_HEIGHTS[-1]} "
                 f"rows [mV]",
        ),
        Comparison(
            claim="the loaded read SNM stays above the pinned-bitline "
                  "limit it degrades toward",
            paper_value=float("nan"),
            measured_value=float(np.min(snm_sub) - pinned_sub),
            holds=bool(np.all(snm_sub > pinned_sub)),
            note=f"pinned-bitline read SNM {pinned_sub * 1e3:.1f} mV",
        ),
        Comparison(
            claim="the write trip voltage falls monotonically as the "
                  "access NFET weakens (dVth,n up): slow-NFET corners "
                  "are the write-limited ones",
            paper_value=float("nan"),
            measured_value=float(trip[0] - trip[-1]),
            holds=bool(np.all(np.isfinite(trip))
                       and np.all(np.diff(trip) < 0.0)),
            note="trip spread across +/-20 mV access corners [V]",
        ),
        Comparison(
            claim="the binary-searched minimum write pulse is "
                  "monotonically non-decreasing in the access dVth,n "
                  "corner and finite at every corner",
            paper_value=float("nan"),
            measured_value=float(pulse[-1] / pulse[0]),
            holds=bool(np.all(np.isfinite(pulse))
                       and np.all(np.diff(pulse) >= 0.0)),
            note="slowest/fastest-corner pulse-width ratio",
        ),
        Comparison(
            claim="transistor-level NAND2 shows the stacking effect: "
                  "both-inputs-low leakage is below either "
                  "single-input-low state",
            paper_value=float("nan"),
            measured_value=float(nand_leak[0] / min(nand_leak[1],
                                                    nand_leak[2])),
            holds=bool(nand_leak[0] < nand_leak[1]
                       and nand_leak[0] < nand_leak[2]),
            note="A=B=0 supply current over the best one-low state",
        ),
    )
    return ExperimentResult(
        experiment_id="ext_array",
        title="Array-scale characterisation (compiled batched MNA)",
        series=series,
        comparisons=comparisons,
    )
