"""Flow-level entry points against their scalar oracles.

The kernel suites hold the batched *kernels* against their scalar
oracles; this suite does the same for the flows built on them: the
SRAM butterfly SNMs, the chain minimum-energy point, the per-length
and per-flavour doping solves, the two super-V_th root solves, and the
calibration-perturbed headline rebuild.  The oracles live in
``tests/oracles/``.
"""

import pytest

from repro.circuit.chain import InverterChain
from repro.circuit.inverter import Inverter
from repro.circuit.sram import SramCell, hold_snm, read_snm
from repro.device.mosfet import Polarity
from repro.scaling.multivth import derive_flavours
from repro.scaling.roadmap import node_by_name
from repro.scaling.sensitivity import headline_under_calibration
from repro.scaling.subvth import SubVthOptimizer
from repro.scaling.supervth import SuperVthOptimizer, build_super_vth_design
from tests.oracles import circuit as circuit_oracle
from tests.oracles import scaling as scaling_oracle

RTOL = 1e-9


def _assert_devices_match(batch_dev, seq_dev):
    assert batch_dev.geometry.l_poly_nm == pytest.approx(
        seq_dev.geometry.l_poly_nm, rel=RTOL)
    assert batch_dev.profile.n_sub_cm3 == pytest.approx(
        seq_dev.profile.n_sub_cm3, rel=RTOL)
    assert batch_dev.profile.n_p_halo_cm3 == pytest.approx(
        seq_dev.profile.n_p_halo_cm3, rel=RTOL, abs=0.0)
    assert batch_dev.ss_v_per_dec == pytest.approx(
        seq_dev.ss_v_per_dec, rel=RTOL)


class TestCircuitFlowParity:
    def test_hold_snm(self, nfet90, pfet90):
        cell = SramCell(pulldown=nfet90.with_width_um(2.0),
                        pullup=pfet90.with_width_um(1.0),
                        access=nfet90.with_width_um(1.0),
                        vdd=0.30)
        batch = hold_snm(cell, n_points=121)
        seq = circuit_oracle.butterfly_snm(
            circuit_oracle.vtc(cell.inverter(), 121))
        assert batch == pytest.approx(seq, rel=1e-6, abs=1e-9)

    def test_read_snm(self, nfet90, pfet90):
        cell = SramCell(pulldown=nfet90.with_width_um(2.0),
                        pullup=pfet90.with_width_um(1.0),
                        access=nfet90.with_width_um(1.0),
                        vdd=0.30)
        batch = read_snm(cell, n_points=121)
        seq = circuit_oracle.butterfly_snm(
            circuit_oracle.read_vtc(cell, 121))
        assert batch == pytest.approx(seq, rel=1e-6, abs=1e-9)

    def test_minimum_energy_point(self, nfet90, pfet90):
        chain = InverterChain(Inverter(nfet=nfet90, pfet=pfet90, vdd=0.3))
        batch = chain.minimum_energy_point()
        seq = circuit_oracle.find_vmin(chain.stage, chain.n_stages,
                                       chain.activity)
        assert batch.vmin == pytest.approx(seq.vmin, rel=RTOL)
        assert batch.energy.total_j == pytest.approx(
            seq.energy.total_j, rel=RTOL)


class TestScalingFlowParity:
    def test_solve_substrate_and_halo(self):
        node = node_by_name("45nm")
        opt = SuperVthOptimizer(node, Polarity.NFET, width_um=1.0)
        n_sub_b = opt.solve_substrate()
        n_sub_s = scaling_oracle.solve_substrate(opt)
        assert n_sub_b == pytest.approx(n_sub_s, rel=RTOL)
        halo_b = opt.solve_halo(n_sub_b)
        halo_s = scaling_oracle.solve_halo(opt, n_sub_b)
        assert halo_b == pytest.approx(halo_s, rel=RTOL)

    def test_build_super_vth_design(self):
        node = node_by_name("65nm")
        des_b = build_super_vth_design(node)
        des_s = scaling_oracle.build_super_vth_design(node)
        _assert_devices_match(des_b.nfet, des_s.nfet)
        _assert_devices_match(des_b.pfet, des_s.pfet)

    def test_design_for_length(self):
        node = node_by_name("45nm")
        opt = SubVthOptimizer(node)
        l_poly = 1.6 * node.l_poly_nm
        des_b = opt.design_for_length(l_poly)
        des_s = scaling_oracle.sub_vth_rows(opt, [l_poly])[0][1]
        _assert_devices_match(des_b.nfet, des_s.nfet)
        _assert_devices_match(des_b.pfet, des_s.pfet)

    def test_derive_flavours(self):
        node = node_by_name("45nm")
        menu_b = derive_flavours(node, 47.0)
        menu_s = scaling_oracle.derive_flavours(node, 47.0)
        assert menu_b.keys() == menu_s.keys()
        for name in menu_b:
            _assert_devices_match(menu_b[name].design.nfet,
                                  menu_s[name].design.nfet)
            _assert_devices_match(menu_b[name].design.pfet,
                                  menu_s[name].design.pfet)
            assert menu_b[name].vth_mv() == pytest.approx(
                menu_s[name].vth_mv(), rel=1e-6)

    def test_headline_under_calibration(self):
        batch = headline_under_calibration(overlap_fraction=0.32)
        seq = scaling_oracle.headline_under_calibration(
            overlap_fraction=0.32)
        assert batch.snm_advantage == pytest.approx(
            seq.snm_advantage, rel=1e-6, abs=1e-9)
        assert batch.energy_advantage == pytest.approx(
            seq.energy_advantage, rel=1e-6, abs=1e-9)
        assert batch.ss_degradation == pytest.approx(
            seq.ss_degradation, rel=1e-6, abs=1e-9)
