"""Tests for the quasi-static C-V simulation (the numeric oracle in
``tests/oracles/moscap.py``) and the compact C_g it checks."""

import numpy as np
import pytest

from repro.device import nfet
from repro.errors import ParameterError
from repro.tcad.simulator import DeviceSimulator
from tests.oracles.moscap import (
    compare_with_compact,
    simulate_cv,
    weak_inversion_capacitance_ratio,
)


@pytest.fixture(scope="module")
def sim():
    return DeviceSimulator(nfet(65, 2.1, 1.2e18, 1.5e18))


@pytest.fixture(scope="module")
def curve(sim):
    vth0 = sim.device.threshold.vth0()
    return simulate_cv(sim, vth0 - 0.9, vth0 + 0.6, n_points=61)


class TestCvShape:
    def test_bounded_by_cox(self, curve):
        assert np.all(curve.c_gg_per_area <= curve.c_ox_per_area * 1.02)

    def test_depletion_minimum_interior(self, curve):
        v_min, c_min = curve.minimum()
        assert curve.vg[0] < v_min < curve.vg[-1]
        assert c_min < 0.5 * curve.c_ox_per_area

    def test_strong_inversion_recovers_toward_cox(self, curve, sim):
        vth0 = sim.device.threshold.vth0()
        c_strong = curve.at(vth0 + 0.55)
        assert c_strong > 0.85 * curve.c_ox_per_area

    def test_weak_inversion_far_below_cox(self, curve, sim):
        vth0 = sim.device.threshold.vth0()
        c_weak = curve.at(vth0 - 0.15)
        assert c_weak < 0.45 * curve.c_ox_per_area

    def test_interpolation(self, curve):
        inside = 0.5 * (curve.vg[3] + curve.vg[4])
        value = curve.at(inside)
        assert min(curve.c_gg_per_area[3], curve.c_gg_per_area[4]) <= value \
            <= max(curve.c_gg_per_area[3], curve.c_gg_per_area[4])


class TestValidation:
    def test_rejects_bad_range(self, sim):
        with pytest.raises(ParameterError):
            simulate_cv(sim, 1.0, 0.5)

    def test_rejects_few_points(self, sim):
        with pytest.raises(ParameterError):
            simulate_cv(sim, 0.0, 1.0, n_points=4)


class TestCompactAgreement:
    def test_weak_inversion_ratio_matches_m_model(self, sim):
        report = compare_with_compact(sim)
        # The (m-1)/m compact approximation holds to ~15%.
        assert report["relative_difference"] < 0.15

    def test_ratio_in_physical_band(self, sim):
        ratio = weak_inversion_capacitance_ratio(sim)
        assert 0.1 < ratio < 0.5

    def test_heavier_doping_larger_weak_ratio(self):
        light = DeviceSimulator(nfet(65, 2.1, 8e17, 1e18))
        heavy = DeviceSimulator(nfet(65, 2.1, 4e18, 5e18))
        assert (weak_inversion_capacitance_ratio(heavy)
                > weak_inversion_capacitance_ratio(light))
