"""SPICE-style netlist simulation with the built-in nodal solver.

Two mini-studies on the 32nm sub-V_th devices, both through the
general-purpose netlist/MNA engine (rather than the specialised
inverter solvers):

1. a 5-stage ring oscillator — transient simulation, measured
   frequency vs the analytic estimate;
2. an SRAM latch write — drive the cell to the opposite state through
   an access transistor and watch it regenerate.

Run:  python examples/netlist_simulation.py   (~30 s)
"""

import numpy as np

from repro.circuit import Circuit, NodalSolver, analytic_delay
from repro.scaling import build_sub_vth_family
from repro.units import format_quantity

VDD = 0.30


def ring_oscillator_study(design) -> None:
    print("== 5-stage ring oscillator (32nm sub-V_th) ==")
    n_dev, p_dev = design.nfet, design.pfet
    c = Circuit()
    c.add_vsource("vdd", "vdd", VDD)
    nodes = [f"n{i}" for i in range(5)]
    c_load = 1.5e-15
    for i in range(5):
        c.add_inverter(f"i{i}", nodes[i], nodes[(i + 1) % 5], "vdd",
                       n_dev, p_dev)
        c.add_capacitor(f"cl{i}", nodes[(i + 1) % 5], "0", c_load)

    inv = design.inverter(VDD)
    # 1 / (2 N t_p) with the analytic FO1 stage delay.
    f_est = 1.0 / (2 * 5 * analytic_delay(inv, inv.load_capacitance(fanout=1)))
    t_est = 1.0 / f_est
    seed = {f"n{i}": (0.0 if i % 2 == 0 else VDD) for i in range(5)}
    result = NodalSolver(c).solve_transient(
        6.0 * t_est, t_est / 60.0, initial=seed,
        use_initial_conditions=True)

    wave = result.voltages["n0"]
    above = wave >= VDD / 2.0
    edges = np.flatnonzero(~above[:-1] & above[1:])
    if edges.size >= 2:
        period = float(np.mean(np.diff(result.time_s[edges])))
        print(f"measured frequency : "
              f"{format_quantity(1.0 / period, 'Hz')}")
    print(f"analytic estimate  : "
          f"{format_quantity(f_est, 'Hz')} "
          "(FO1 model; the netlist adds explicit wire load)")
    print()


def sram_write_study(design) -> None:
    print("== SRAM latch write (32nm sub-V_th) ==")
    n_dev, p_dev = design.nfet, design.pfet
    c = Circuit()
    c.add_vsource("vdd", "vdd", VDD)
    c.add_inverter("i1", "q", "qb", "vdd", n_dev, p_dev)
    c.add_inverter("i2", "qb", "q", "vdd", n_dev, p_dev)
    c.add_capacitor("cq", "q", "0", 1e-15)
    c.add_capacitor("cqb", "qb", "0", 1e-15)
    # Access transistor from a grounded bitline, gated by a wordline
    # pulse: writes a 0 into the q node.
    c.add_vsource("bl", "bl_node", 0.001)
    c.add_vsource("wl", "wl_node",
                  lambda t: VDD if 1e-7 < t < 6e-7 else 0.0)
    c.add_mosfet("max", "q", "wl_node", "bl_node",
                 n_dev.with_width_um(2.0))
    c.add_resistor("rbl", "bl_node", "0", 1e3)

    solver = NodalSolver(c)
    result = solver.solve_transient(
        1.2e-6, 5e-9, initial={"q": VDD, "qb": 0.0},
        use_initial_conditions=True)
    q_start = result.voltages["q"][0]
    q_end = result.voltages["q"][-1]
    qb_end = result.voltages["qb"][-1]
    print(f"q before write : {q_start:.3f} V (holding a 1)")
    print(f"q after write  : {q_end:.3f} V, qb = {qb_end:.3f} V "
          f"({'flipped' if q_end < VDD / 2 < qb_end else 'FAILED'})")
    print()


def main() -> None:
    design = build_sub_vth_family().design("32nm")
    ring_oscillator_study(design)
    sram_write_study(design)


if __name__ == "__main__":
    main()
