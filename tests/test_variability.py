"""Tests for the RDF threshold-variability model."""

import pytest

from repro.device import nfet
from repro.variability import rdf_sigma_vth
from repro.variability.rdf import avt_coefficient, avt_mv_um


class TestRdf:
    def test_sigma_plausible(self, nfet90):
        sigma = rdf_sigma_vth(nfet90)
        assert 0.002 < sigma < 0.08

    def test_smaller_device_more_sigma(self, nfet90):
        narrow = nfet90.with_width_um(0.25)
        assert rdf_sigma_vth(narrow) == pytest.approx(
            2.0 * rdf_sigma_vth(nfet90), rel=1e-6)

    def test_short_device_more_sigma(self):
        long_dev = nfet(65, 2.1, 1.2e18, 1.5e18)
        short_dev = nfet(22, 1.53, 2.1e18, 9e18)
        assert rdf_sigma_vth(short_dev) > rdf_sigma_vth(long_dev)

    def test_avt_area_independent(self, nfet90):
        narrow = nfet90.with_width_um(0.5)
        assert avt_coefficient(narrow) == pytest.approx(
            avt_coefficient(nfet90), rel=1e-6)

    def test_avt_conventional_units(self, nfet90):
        # Bulk technologies: a few mV*um.
        assert 0.5 < avt_mv_um(nfet90) < 15.0
