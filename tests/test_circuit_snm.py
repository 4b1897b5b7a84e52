"""Tests for static noise margins."""

import numpy as np
import pytest

from repro.circuit import Inverter, butterfly_snm, noise_margins
from repro.errors import ParameterError
from repro.experiments.families import sub_vth_family, super_vth_family


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


def _starved(inv):
    """No gain = -1 point left at 40 mV (lost_code 1)."""
    return inv.with_vdd(0.04)


def _boundary(inv):
    """V_th offsets of +-0.1 V push the 32nm super-V_th inverter's
    crossing at 250 mV onto the scan boundary (lost_code 2)."""
    from repro.variability.montecarlo import _perturbed
    return _perturbed(inv, 0.1, -0.1)


#: Spoiler name -> (spoiler, the lost_code it produces).
SPOILERS = {"starved": (_starved, 1), "boundary": (_boundary, 2)}


class TestStackedExperimentErrors:
    """fig4, fig10, headlines and ``headlines_under_calibrations`` each
    extract their SNMs in one stacked call; a lost lane still raises the
    error of the per-design loop, at the point where the loop raised it.
    Lost lanes are injected through ``DeviceDesign.inverter``."""

    @staticmethod
    def _spoil(monkeypatch, lost):
        """Route the inverters of ``lost``'s (strategy, node, V_dd)
        keys through their spoilers, checking each spoiler's code."""
        from repro.errors import LostRegenerationError
        from repro.scaling.strategy import DeviceDesign

        original = DeviceDesign.inverter
        for (strategy, node, vdd), name in lost.items():
            family = (super_vth_family() if strategy == "super-vth"
                      else sub_vth_family())
            spoil, code = SPOILERS[name]
            with pytest.raises(LostRegenerationError) as err:
                noise_margins(spoil(original(family.design(node), vdd)))
            assert err.value.code == code

        def inverter(design, vdd=None):
            inv = original(design, vdd)
            name = lost.get((design.strategy, design.node.name, inv.vdd))
            return inv if name is None else SPOILERS[name][0](inv)

        monkeypatch.setattr(DeviceDesign, "inverter", inverter)

    @pytest.mark.parametrize("experiment, lost, code", [
        # The loop's first lost lane is the earlier one in its order.
        ("fig4", {("super-vth", "90nm", 0.25): "starved",
                  ("super-vth", "32nm", 0.25): "boundary"}, 1),
        ("fig10", {("super-vth", "32nm", 0.25): "boundary",
                   ("sub-vth", "90nm", 0.25): "starved"}, 2),
        ("headlines", {("super-vth", "32nm", 0.25): "boundary",
                       ("sub-vth", "32nm", 0.25): "starved"}, 2),
    ])
    def test_experiments_raise_the_loop_error(self, monkeypatch,
                                              experiment, lost, code):
        from repro.errors import LostRegenerationError
        from repro.experiments import run_experiment

        self._spoil(monkeypatch, lost)
        with pytest.raises(LostRegenerationError) as err:
            run_experiment(experiment)
        assert err.value.code == code

    def test_calibration_error_after_the_previous_energy_work(
            self, monkeypatch):
        """Calibration 1's SNM error comes after calibration 0's two
        minimum-energy points and before its own."""
        from repro.circuit.chain import InverterChain
        from repro.errors import LostRegenerationError
        from repro.scaling.sensitivity import headlines_under_calibrations
        from repro.scaling.strategy import DeviceDesign

        original = DeviceDesign.inverter
        snm_lanes = []

        def inverter(design, vdd=None):
            inv = original(design, vdd)
            if vdd == 0.25:
                snm_lanes.append(design)
                if len(snm_lanes) == 3:  # calibration 1's super-V_th
                    return _starved(inv)
            return inv

        energy_points = []
        mep = InverterChain.minimum_energy_point

        def counted(chain, *args, **kwargs):
            energy_points.append(chain)
            return mep(chain, *args, **kwargs)

        monkeypatch.setattr(DeviceDesign, "inverter", inverter)
        monkeypatch.setattr(InverterChain, "minimum_energy_point", counted)
        with pytest.raises(LostRegenerationError) as err:
            headlines_under_calibrations([{}, {"sce_prefactor": 6.0}])
        assert err.value.code == 1
        assert len(energy_points) == 2
