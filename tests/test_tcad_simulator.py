"""Tests for the DeviceSimulator (MEDICI substitute)."""

import numpy as np
import pytest

from repro.device import nfet
from repro.errors import ParameterError
from repro.tcad.simulator import DeviceSimulator


@pytest.fixture(scope="module")
def dev():
    return nfet(l_poly_nm=65, t_ox_nm=2.1, n_sub_cm3=1.2e18,
                n_p_halo_cm3=1.5e18)


@pytest.fixture(scope="module")
def sim(dev):
    return DeviceSimulator(dev)


class TestSweeps:
    def test_surface_potential_monotone(self, sim, dev):
        vgs = np.linspace(0.0, 1.2, 13)
        psi = sim.surface_potential_sweep(vgs)
        assert np.all(np.diff(psi) > 0.0)

    def test_inversion_charge_monotone(self, sim):
        vgs = np.linspace(0.2, 1.2, 11)
        q = sim.inversion_charge_sweep(vgs)
        assert np.all(np.diff(q) > 0.0)

    def test_drain_charge_below_source_charge(self, sim):
        vgs = np.linspace(0.3, 1.0, 8)
        q_s = sim.inversion_charge_sweep(vgs, 0.0)
        q_d = sim.inversion_charge_sweep(vgs, 0.5)
        assert np.all(q_d < q_s)


class TestIdVg:
    def test_curve_monotone(self, sim, dev):
        vgs = np.linspace(-0.1, 1.2, 27)
        curve = sim.id_vg(1.2, vgs)
        assert np.all(np.diff(np.log(curve.ids)) > 0.0)

    def test_dibl_direction(self, sim):
        vgs = np.linspace(0.0, 1.0, 21)
        lin = sim.id_vg(0.05, vgs)
        sat = sim.id_vg(1.0, vgs)
        # At fixed sub-threshold vgs, more drain bias -> more current.
        assert sat.current_at(0.2) > lin.current_at(0.2)

    def test_rejects_negative_vds(self, sim):
        with pytest.raises(ParameterError):
            sim.id_vg(-0.5, np.linspace(0, 1, 11))


class TestExtractedMetrics:
    def test_numeric_ss_close_to_analytic(self, sim, dev):
        numeric = sim.numeric_ss()
        assert numeric == pytest.approx(dev.ss_v_per_dec, rel=0.10)

    def test_numeric_vth_close_to_compact(self, sim, dev):
        numeric = sim.numeric_vth(1.2)
        compact = dev.vth_sat_cc(1.2)
        assert numeric == pytest.approx(compact, abs=0.06)

    def test_numeric_ioff_within_order_of_compact(self, sim, dev):
        vgs = np.linspace(-0.1, 1.2, 27)
        curve = sim.id_vg(1.2, vgs)
        numeric = curve.current_at(0.0)
        compact = dev.i_off(1.2)
        assert 0.1 < numeric / compact < 10.0


class TestConfiguration:
    def test_rejects_tiny_mesh(self, dev):
        with pytest.raises(ParameterError):
            DeviceSimulator(dev, n_nodes=5)

    def test_finer_mesh_consistent(self, dev):
        coarse = DeviceSimulator(dev, n_nodes=81).numeric_ss()
        fine = DeviceSimulator(dev, n_nodes=241).numeric_ss()
        assert coarse == pytest.approx(fine, rel=0.03)
