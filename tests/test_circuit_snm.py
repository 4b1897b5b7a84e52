"""Tests for static noise margins."""

import numpy as np
import pytest

from repro.circuit import Inverter, butterfly_snm, noise_margins
from repro.errors import ParameterError


class TestNoiseMargins:
    def test_snm_positive_at_250mv(self, inverter_sub):
        nm = noise_margins(inverter_sub)
        assert nm.snm > 0.0

    def test_snm_is_min_of_margins(self, inverter_sub):
        nm = noise_margins(inverter_sub)
        assert nm.snm == pytest.approx(min(nm.nm_low, nm.nm_high))

    def test_unity_gain_points_ordered(self, inverter_sub):
        nm = noise_margins(inverter_sub)
        assert 0.0 < nm.v_il < nm.v_ih < inverter_sub.vdd

    def test_output_levels_ordered(self, inverter_sub):
        nm = noise_margins(inverter_sub)
        assert nm.v_ol < nm.v_oh

    def test_gain_is_minus_one_at_points(self, inverter_sub):
        nm = noise_margins(inverter_sub)
        assert inverter_sub.gain(nm.v_il) == pytest.approx(-1.0, abs=0.02)
        assert inverter_sub.gain(nm.v_ih) == pytest.approx(-1.0, abs=0.02)

    def test_snm_grows_with_vdd(self, nfet90, pfet90):
        snm_250 = noise_margins(Inverter(nfet90, pfet90, 0.25)).snm
        snm_400 = noise_margins(Inverter(nfet90, pfet90, 0.40)).snm
        assert snm_400 > snm_250

    def test_degenerate_supply_raises(self, nfet90, pfet90):
        # Far below the regeneration limit there are no gain=-1 points.
        with pytest.raises(ParameterError):
            noise_margins(Inverter(nfet90, pfet90, 0.02))

    def test_refine_reuses_the_scan_gains_at_bracket_ends(
            self, inverter_sub, monkeypatch):
        """The scan already solved the gain at both ends of each
        crossing's bracket, so the Illinois refine takes them as its
        end residuals: every residual abscissa lies strictly inside
        its bracket, none on an end."""
        import repro.circuit.batch as batch_mod
        solve = batch_mod.bisect_illinois
        calls = []

        def spy(residual, lo, hi, **kwargs):
            def watched(x, idx):
                calls.append((x.copy(), lo[idx], hi[idx]))
                return residual(x, idx)
            return solve(watched, lo, hi, **kwargs)

        monkeypatch.setattr(batch_mod, "bisect_illinois", spy)
        margins = batch_mod.noise_margins_batch(inverter_sub)
        assert not margins.lost.any()
        assert calls
        for x, lo, hi in calls:
            assert np.all((lo < x) & (x < hi))


class TestButterflySnm:
    def test_steep_vtc_near_half_vdd(self):
        # A near-ideal regenerative VTC (gain -25 through the
        # transition): the butterfly SNM approaches V_dd/2 from below.
        vin = np.linspace(0.0, 1.0, 401)
        vout = np.clip(25.0 * (0.5 - vin) + 0.5, 0.0, 1.0)
        snm = butterfly_snm((vin, vout))
        assert snm == pytest.approx(0.48, abs=0.02)

    def test_diagonal_vtc_zero(self):
        # A gainless inverter (vout = 1 - vin) holds no state.
        vin = np.linspace(0.0, 1.0, 101)
        snm = butterfly_snm((vin, 1.0 - vin))
        assert snm == pytest.approx(0.0, abs=1e-6)

    def test_real_inverter_butterfly(self, inverter_sub):
        vtc = inverter_sub.vtc(161)
        snm = butterfly_snm(vtc)
        assert 0.0 < snm < inverter_sub.vdd / 2.0

    def test_butterfly_close_to_gain_margins(self, inverter_sub):
        # Both definitions should be the same order of magnitude.
        vtc = inverter_sub.vtc(161)
        bf = butterfly_snm(vtc)
        gm = noise_margins(inverter_sub).snm
        assert 0.4 < bf / gm < 2.0

    def test_too_few_samples_rejected(self):
        with pytest.raises(ParameterError):
            butterfly_snm((np.linspace(0, 1, 4), np.linspace(1, 0, 4)))
