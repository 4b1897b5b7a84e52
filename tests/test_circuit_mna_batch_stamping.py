"""The batched MNA Jacobian against finite differences of its residual.

``_assemble`` stamps closed-form device partials through the compiled
sparse incidence; every column must match a central difference of
``_residual_full`` in the same unknown, on the same lanes.  States are
random, so devices run in both orientations; the latch adds transistors
declared drain/source-reversed, and the checks cover gmin > 0 and a
transient companion term.
"""

import numpy as np
import pytest

from repro.circuit.compile import compile_circuit
from repro.circuit.mna_batch import _assemble, _residual_full
from repro.circuit.netlist import Circuit
from repro.circuit.sram import SramCell
from repro.circuit.sram_array import build_column

VDD = 0.25
LANES = 6
STEP_V = 1e-6


def _latch(nfet90, pfet90) -> Circuit:
    c = Circuit()
    c.add_vsource("vdd", "vdd", VDD)
    c.add_vsource("vwl", "wl", VDD)
    c.add_inverter("i1", "q", "qb", "vdd", nfet90, pfet90)
    c.add_inverter("i2", "qb", "q", "vdd", nfet90, pfet90)
    c.add_mosfet("max", "bl", "wl", "q", nfet90)
    # Declared with drain and source swapped: they conduct "backwards".
    c.add_mosfet("mrn", "0", "bl", "qb", nfet90)
    c.add_mosfet("mrp", "vdd", "q", "bl", pfet90)
    c.add_resistor("rk", "vdd", "bl", 1e7)
    c.add_capacitor("cq", "q", "0", 1e-15)
    c.add_capacitor("cbl", "bl", "0", 4e-15)
    return c


def _column(nfet90, pfet90) -> Circuit:
    cell = SramCell(pulldown=nfet90.with_width_um(2.0),
                    pullup=pfet90.with_width_um(1.0),
                    access=nfet90.with_width_um(1.0), vdd=VDD)
    return build_column(cell, 4, stored=(0, 1, 1, 0)).circuit


def _random_state(compiled, seed):
    """Random unknowns, wordline drive, previous step and NFET shifts."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-0.05, VDD + 0.05, (compiled.n_unknown, LANES))
    fixed = np.repeat(compiled.fixed_base(0.0)[:, None], LANES, axis=1)
    wordline = next(name for name in compiled.fixed
                    if name.startswith("wl"))
    fixed[compiled.source_position[wordline]] = rng.uniform(0.0, VDD, LANES)
    prev = np.concatenate(
        [rng.uniform(0.0, VDD, (compiled.n_unknown, LANES)), fixed])
    shift_n = rng.uniform(-0.03, 0.03, LANES)
    return x, fixed, prev, shift_n


@pytest.mark.parametrize("builder", [_latch, _column],
                         ids=["latch", "column4"])
@pytest.mark.parametrize("gmin, inv_dt", [(0.0, None), (1e-9, None),
                                          (0.0, 1e10), (1e-12, 1e9)],
                         ids=["dc", "gmin", "transient", "gmin-transient"])
def test_jacobian_matches_residual_differences(nfet90, pfet90, builder,
                                               gmin, inv_dt):
    compiled = compile_circuit(builder(nfet90, pfet90))
    n = compiled.n_unknown
    for seed in range(3):
        x, fixed, prev, shift_n = _random_state(compiled, seed)
        prev_full = prev if inv_dt is not None else None
        args = (fixed, shift_n, 0.01, gmin, prev_full, inv_dt)
        f, jac = _assemble(compiled, x, *args)
        assert jac.shape == (LANES, n, n)
        np.testing.assert_array_equal(
            f, _residual_full(compiled, x, *args))
        fd = np.empty_like(jac)
        for j in range(n):
            up = x.copy()
            up[j] += STEP_V
            down = x.copy()
            down[j] -= STEP_V
            fd[:, :, j] = ((_residual_full(compiled, up, *args)[:n]
                            - _residual_full(compiled, down, *args)[:n])
                           / (2.0 * STEP_V)).T
        row_scale = np.max(np.abs(jac), axis=2, keepdims=True)
        assert np.all(np.abs(jac - fd) <= 1e-5 * np.abs(fd)
                      + 1e-6 * row_scale)


def test_reversed_devices_conduct_backwards(nfet90, pfet90):
    """The swapped-terminal devices really do run reversed at a
    typical state, so the test above exercises that stamp branch."""
    compiled = compile_circuit(_latch(nfet90, pfet90))
    table = compiled.transistors
    volts = dict(zip(compiled.node_names, [0.0] * compiled.n_total))
    volts.update(vdd=VDD, wl=VDD, bl=0.2, q=0.05, qb=0.22)
    for name in ("mrn", "mrp"):
        row = table.names.index(name)
        drain, _gate, source = (compiled.node_names[i]
                                for i in table.terminals[:, row])
        sign = table.sign[row, 0]
        assert sign * (volts[drain] - volts[source]) < 0.0
