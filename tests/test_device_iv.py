"""Tests for the unified EKV-style I-V model."""

import numpy as np
import pytest

from repro.constants import thermal_voltage
from repro.device import nfet
from repro.device.iv import IVParams, drain_current, ids_with_partials
from repro.errors import ParameterError


@pytest.fixture(scope="module")
def dev():
    return nfet(l_poly_nm=65, t_ox_nm=2.1, n_sub_cm3=1.2e18,
                n_p_halo_cm3=1.5e18)


class TestCurrentBasics:
    def test_positive_current(self, dev):
        assert dev.ids(0.5, 0.5) > 0.0

    def test_zero_vds_zero_current(self, dev):
        assert dev.ids(0.5, 0.0) == pytest.approx(0.0, abs=1e-18)

    def test_monotone_in_vgs(self, dev):
        vgs = np.linspace(0.0, 1.2, 40)
        currents = dev.iv.ids(vgs, np.full_like(vgs, 1.0))
        assert np.all(np.diff(currents) > 0.0)

    def test_monotone_in_vds(self, dev):
        # The velocity-saturation interpolation can produce a tiny
        # (<3%) negative-differential-resistance artifact near V_dsat,
        # as many compact models do; require monotonicity within that.
        vds = np.linspace(0.0, 1.2, 40)
        currents = dev.iv.ids(np.full_like(vds, 0.6), vds)
        floor = -0.03 * currents[:-1]
        assert np.all(np.diff(currents) > floor)

    def test_rejects_negative_vds(self, dev):
        with pytest.raises(ParameterError):
            dev.ids(0.5, -0.1)

    def test_scalar_in_scalar_out(self, dev):
        assert isinstance(dev.ids(0.3, 0.3), float)

    def test_array_broadcast(self, dev):
        vgs = np.linspace(0, 1, 11)
        out = dev.iv.ids(vgs, np.full_like(vgs, 0.5))
        assert out.shape == vgs.shape


class TestSubthresholdRegion:
    def test_exponential_slope_matches_ss(self, dev):
        # Extract the log-slope deep below threshold (where the EKV
        # interpolation is purely exponential); must match the analytic
        # S_S within a few percent.
        vth = dev.vth(0.1)
        vgs = np.linspace(vth - 0.50, vth - 0.30, 21)
        currents = dev.iv.ids(vgs, np.full_like(vgs, 0.1))
        slope = np.polyfit(np.log10(currents), vgs, 1)[0]
        assert slope == pytest.approx(dev.ss_v_per_dec, rel=0.05)

    def test_drain_factor_in_weak_inversion(self, dev):
        vth = dev.vth(0.05)
        vt = thermal_voltage()
        i1 = dev.ids(vth - 0.2, 0.5 * vt)
        i2 = dev.ids(vth - 0.2, 10.0 * vt)
        expected = (1 - np.exp(-0.5)) / (1 - np.exp(-10.0))
        assert i1 / i2 == pytest.approx(expected, rel=0.15)

    def test_width_proportionality(self, dev):
        wide = dev.with_width_um(2.0)
        assert wide.i_off(1.2) == pytest.approx(2.0 * dev.i_off(1.2),
                                                rel=1e-6)


class TestStrongInversion:
    def test_saturation(self, dev):
        # Beyond V_dsat the current stops growing quickly with vds.
        i1 = dev.ids(1.2, 0.9)
        i2 = dev.ids(1.2, 1.2)
        assert i2 / i1 < 1.25

    def test_on_current_magnitude(self, dev):
        # A 90nm-class LSTP-like device: tens to hundreds of uA/um.
        ion = dev.i_on_per_um(1.2)
        assert 3e-5 < ion < 1e-3


class TestDibl:
    def test_vth_falls_with_vds(self, dev):
        assert dev.vth(1.2) < dev.vth(0.05)

    def test_ioff_grows_with_vdd(self, dev):
        assert dev.i_off(1.2) > dev.i_off(0.6)


class TestVthOffset:
    def test_offset_shifts_vth(self, dev):
        shifted = dev.with_vth_offset(0.05)
        assert shifted.vth(0.1) == pytest.approx(dev.vth(0.1) + 0.05)

    def test_offset_reduces_current(self, dev):
        shifted = dev.with_vth_offset(0.05)
        assert shifted.ids(0.3, 0.3) < dev.ids(0.3, 0.3)

    def test_negative_offset_increases_leakage(self, dev):
        shifted = dev.with_vth_offset(-0.05)
        assert shifted.i_off(1.0) > dev.i_off(1.0)


class TestIdsWithPartials:
    """The closed-form kernel the batched MNA engine stamps from.

    Its current must be :meth:`IVModel.ids` bit for bit (one
    expression), and its partials must match central differences of
    ``ids`` away from the model's kinks (V_p = 2 v_T, V_gs = -V_th0,
    V_ds = 0).
    """

    STEP_V = 1e-6

    @pytest.fixture(scope="class", params=[
        ("sub", "90nm"), ("sub", "32nm"), ("super", "90nm"),
        ("super", "32nm")], ids=lambda p: "-".join(p))
    def design(self, request, sub_family, super_family):
        family = sub_family if request.param[0] == "sub" else super_family
        return family.design(request.param[1])

    @pytest.mark.parametrize("polarity", ["nfet", "pfet"])
    def test_current_and_partials_match_ids(self, design, polarity):
        iv = getattr(design, polarity).iv
        params = iv.params
        rng = np.random.default_rng(2007)
        vgs = rng.uniform(-0.3, 1.3, 3000)
        vds = rng.uniform(0.0, 1.3, 3000)
        shift = rng.uniform(-0.05, 0.05, 3000)
        vp = (vgs - (iv.vth(vds) + shift)) / params.slope_factor
        h = self.STEP_V
        away = ((vds > h) & (np.abs(vgs + params.vth0_v) > h)
                & (np.abs(vp - 2.0 * params.vt_v) > h))
        vgs, vds, shift = vgs[away], vds[away], shift[away]
        current, d_gs, d_ds = ids_with_partials(params, vgs, vds, shift)
        reference = iv.ids(vgs, vds, shift)
        # One expression: the current is bitwise what ids returns.
        assert np.array_equal(current, reference)
        fd_gs = (iv.ids(vgs + h, vds, shift)
                 - iv.ids(vgs - h, vds, shift)) / (2.0 * h)
        fd_ds = (iv.ids(vgs, vds + h, shift)
                 - iv.ids(vgs, vds - h, shift)) / (2.0 * h)
        # Absolute floor: 1e-8 of the current per volt, far above the
        # difference quotient's rounding noise (~2e-10 |I| / V).
        floor = 1e-8 * np.abs(reference)
        assert np.all(np.abs(d_gs - fd_gs) <= 1e-5 * np.abs(fd_gs) + floor)
        assert np.all(np.abs(d_ds - fd_ds) <= 1e-5 * np.abs(fd_ds) + floor)

    @pytest.mark.parametrize("polarity", ["nfet", "pfet"])
    def test_scalar_call_is_the_array_kernel_bitwise(self, design,
                                                     polarity):
        """A float ``ids`` call runs the same ufunc loops as an array
        ``drain_current`` call; numpy-scalar ``**`` (C ``pow``) once
        made ~2 % of these points differ in the last bit."""
        iv = getattr(design, polarity).iv
        rng = np.random.default_rng(2026)
        vgs = rng.uniform(0.0, 1.2, 400)
        vds = rng.uniform(0.0, 1.2, 400)
        scalar = np.array([iv.ids(float(g), float(d))
                           for g, d in zip(vgs, vds)])
        assert np.array_equal(scalar, drain_current(iv.params, vgs, vds))

    def test_stacked_columns_match_single_records(self, dev, nfet90,
                                                  pfet90):
        devices = [dev.with_vth_offset(0.02), pfet90.with_width_um(1.0),
                   nfet90]
        stacked = IVParams.stack([d.iv.params for d in devices])
        vgs = np.array([[0.1, 0.3], [0.2, 0.25], [0.0, 1.0]])
        vds = np.array([[0.25, 0.05], [0.3, 0.1], [0.6, 0.2]])
        together = ids_with_partials(stacked, vgs, vds, 0.01)
        for row, d in enumerate(devices):
            alone = ids_with_partials(d.iv.params, vgs[row], vds[row], 0.01)
            for got, want in zip(together, alone):
                assert got[row] == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_offset_enters_through_vth_only(self, dev):
        shifted = dev.with_vth_offset(0.03)
        vgs = np.linspace(0.0, 1.0, 7)
        vds = np.full_like(vgs, 0.4)
        via_record = ids_with_partials(shifted.iv.params, vgs, vds)
        via_shift = ids_with_partials(dev.iv.params, vgs, vds, 0.03)
        for got, want in zip(via_record, via_shift):
            assert got == pytest.approx(want, rel=1e-12)

    def test_rejects_negative_vds(self, dev):
        with pytest.raises(ParameterError):
            ids_with_partials(dev.iv.params, 0.5, -0.1)
