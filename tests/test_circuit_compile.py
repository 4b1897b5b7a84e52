"""Tests for the netlist compiler (Circuit -> index arrays)."""

import numpy as np
import pytest

from repro.circuit.compile import compile_circuit
from repro.circuit.mna_batch import solve_dc_batch
from repro.circuit.netlist import Circuit
from repro.errors import ParameterError

VDD = 0.25


def latch(nfet90, pfet90) -> Circuit:
    c = Circuit()
    c.add_vsource("vdd", "vdd", VDD)
    c.add_vsource("vwl", "wl", 0.0)
    c.add_inverter("i1", "q", "qb", "vdd", nfet90, pfet90)
    c.add_inverter("i2", "qb", "q", "vdd", nfet90, pfet90)
    c.add_mosfet("max", "bl", "wl", "q", nfet90)
    c.add_resistor("rk", "vdd", "bl", 1e7)
    c.add_capacitor("cq", "q", "0", 1e-15)
    return c


class TestNodeNumbering:
    def test_unknowns_first_then_ground_then_sources(self, nfet90, pfet90):
        compiled = compile_circuit(latch(nfet90, pfet90))
        assert compiled.unknowns == tuple(
            latch(nfet90, pfet90).unknown_nodes())
        assert compiled.fixed[0] == "0"
        assert set(compiled.fixed[1:]) == {"vdd", "wl"}
        assert compiled.n_total == len(compiled.node_names)
        assert compiled.n_unknown == len(compiled.unknowns)

    def test_source_position_keyed_by_name_and_node(self, nfet90, pfet90):
        compiled = compile_circuit(latch(nfet90, pfet90))
        pos_by_name = compiled.source_position["vwl"]
        pos_by_node = compiled.source_position["wl"]
        assert pos_by_name == pos_by_node
        assert compiled.fixed[pos_by_name] == "wl"
        assert compiled.source_names[pos_by_name] == "vwl"

    def test_fixed_base_evaluates_waveforms(self, nfet90, pfet90):
        compiled = compile_circuit(latch(nfet90, pfet90))
        base = compiled.fixed_base(0.0)
        assert base[0] == 0.0  # ground
        assert base[compiled.source_position["vdd"]] == VDD


class TestLinearStamps:
    def test_resistor_stamp_is_symmetric_conductance(self):
        c = Circuit()
        c.add_vsource("vs", "a", 1.0)
        c.add_resistor("r1", "a", "b", 2e3)
        c.add_resistor("r2", "b", "0", 2e3)
        compiled = compile_circuit(c)
        g = compiled.g_linear
        b = compiled.unknowns.index("b")
        assert g[b, b] == pytest.approx(1e-3)
        assert np.allclose(g, g.T)
        # Row sums vanish: conductance stamps are pure KCL.
        assert np.allclose(g.sum(axis=1), 0.0)

    def test_capacitor_stamp(self):
        c = Circuit()
        c.add_vsource("vs", "a", 1.0)
        c.add_resistor("r1", "a", "b", 1e3)
        c.add_capacitor("c1", "b", "0", 3e-15)
        compiled = compile_circuit(c)
        b = compiled.unknowns.index("b")
        assert compiled.c_linear[b, b] == pytest.approx(3e-15)


class TestTransistorTable:
    def test_one_row_per_transistor(self, nfet90, pfet90):
        circuit = latch(nfet90, pfet90)
        devices = {t.name: t.device for t in circuit.transistors}
        table = compile_circuit(circuit).transistors
        assert table.size == 5
        assert table.terminals.shape == (3, 5)
        assert table.sign.shape == (5, 1)
        assert table.params.vth_v.shape == (5, 1)
        # Polarity is a sign; the parameter columns are the devices'.
        for row, name in enumerate(table.names):
            device = devices[name]
            assert table.sign[row, 0] == (1.0 if device is nfet90 else -1.0)
            assert table.params.vth_v[row, 0] == device.iv.params.vth_v
            assert table.params.i_spec_a[row, 0] == (
                device.iv.params.i_spec_a)

    def test_fixed_terminals_map_to_discard_row_and_column(self, nfet90,
                                                            pfet90):
        compiled = compile_circuit(latch(nfet90, pfet90))
        n = compiled.n_unknown
        table = compiled.transistors
        fixed_terminal = table.terminals >= n
        assert fixed_terminal.any()
        assert np.all(table.jacobian_index[fixed_terminal] == n)
        assert np.array_equal(table.jacobian_index[~fixed_terminal],
                              table.terminals[~fixed_terminal])
        # The flat-Jacobian incidence never touches a discard cell: a
        # conductance column for a fixed terminal stamps nothing.
        jac = compiled.jacobian_incidence.tocsc()
        for k in range(3):
            for row in np.flatnonzero(fixed_terminal[k]):
                column = jac[:, k * table.size + row]
                assert column.nnz == 0

    def test_residual_incidence_is_kcl(self, nfet90, pfet90):
        compiled = compile_circuit(latch(nfet90, pfet90))
        table = compiled.transistors
        dense = compiled.residual_incidence.toarray()
        assert dense.shape == (compiled.n_total, table.size)
        for row in range(table.size):
            drain, _gate, source = table.terminals[:, row]
            assert dense[drain, row] == 1.0
            assert dense[source, row] == -1.0
            assert dense[:, row].sum() == 0.0

    def test_transistors_in_name_sorted_order(self, nfet90, pfet90):
        compiled = compile_circuit(latch(nfet90, pfet90))
        names = list(compiled.transistors.names)
        assert names == sorted(names)

    def test_rc_only_circuit_compiles_and_solves(self):
        c = Circuit()
        c.add_vsource("vs", "a", 1.0)
        c.add_resistor("r1", "a", "b", 1e3)
        c.add_resistor("r2", "b", "0", 3e3)
        c.add_capacitor("c1", "b", "0", 1e-15)
        compiled = compile_circuit(c)
        assert compiled.transistors.size == 0
        assert compiled.residual_incidence.shape == (compiled.n_total, 0)
        assert compiled.jacobian_incidence.shape == (1, 0)
        result = solve_dc_batch(c, stimulus={"vs": np.array([1.0, 2.0])},
                                compiled=compiled)
        assert result["b"] == pytest.approx([0.75, 1.5], rel=1e-12)
        assert result.source_currents_a["vs"] == pytest.approx(
            [2.5e-4, 5e-4], rel=1e-12)


class TestValidation:
    def test_rejects_invalid_topology(self, nfet90):
        c = Circuit()
        c.add_vsource("vs", "a", 1.0)
        c.add_resistor("r1", "a", "b", 1e3)
        # "g" is gate-only and undriven: no KCL equation exists for it.
        c.add_mosfet("m1", "b", "g", "0", nfet90)
        with pytest.raises(ParameterError):
            compile_circuit(c)

    def test_compilation_does_not_mutate(self, nfet90, pfet90):
        c = latch(nfet90, pfet90)
        before = (len(c.sources), len(c.resistors), len(c.capacitors),
                  len(c.transistors))
        compile_circuit(c)
        after = (len(c.sources), len(c.resistors), len(c.capacitors),
                 len(c.transistors))
        assert before == after
        # Still extensible after compilation; recompiling picks it up.
        c.add_resistor("rx", "q", "0", 1e9)
        assert "rx" in [r.name for r in c.resistors]
