"""Scalar-oracle vs batched circuit-kernel equivalence.

The vectorised kernels of :mod:`repro.circuit.batch` must reproduce
the sequential implementations to <= 1e-9 relative when both run at a
tight tolerance, across the Table 2 devices and supplies from deep
sub-V_th to moderate inversion — including the near-loss-of-
regeneration corner, where the batch path must flag exactly the trials
the scalar path raises on, with the same message.
"""

import numpy as np
import pytest

from repro import perf
from repro.circuit import (
    Inverter,
    LOST_REGENERATION_MESSAGES,
    analytic_delay,
    analytic_delay_batch,
    butterfly_snm,
    find_vmin,
    gain_batch,
    lost_regeneration_error,
    noise_margins,
    noise_margins_batch,
    solve_vtc_batch,
)
from repro.circuit.energy import chain_energy_per_cycle, chain_energy_sweep
from repro.circuit.sram import SramCell
from repro.errors import LostRegenerationError, ParameterError
from repro.variability import sample_vth_offsets, snm_distribution
from repro.variability.montecarlo import _perturbed
from repro.variability.rdf import rdf_sigma_vth

#: Tight solve tolerance for the <= 1e-9 relative equivalence checks.
TIGHT = 1e-13
SUPPLIES = (0.15, 0.25, 0.40)


def _rel(a, b, floor=1e-30):
    return np.max(np.abs(np.asarray(a) - np.asarray(b))
                  / np.maximum(np.abs(np.asarray(b)), floor))


@pytest.mark.parametrize("vdd", SUPPLIES)
class TestVtcEquivalence:
    def test_vtc_grid(self, nfet90, pfet90, vdd):
        inv = Inverter(nfet=nfet90, pfet=pfet90, vdd=vdd)
        vins = np.linspace(0.0, vdd, 41)
        batch = solve_vtc_batch(inv, vins, xtol=TIGHT)
        seq = np.array([inv.vtc_point(float(v), xtol=TIGHT) for v in vins])
        assert np.max(np.abs(batch - seq)) <= 1e-9 * vdd

    def test_gain(self, nfet90, pfet90, vdd):
        inv = Inverter(nfet=nfet90, pfet=pfet90, vdd=vdd)
        vins = np.linspace(0.1 * vdd, 0.9 * vdd, 9)
        batch = gain_batch(inv, vins, xtol=TIGHT)
        seq = np.array([inv.gain(float(v), xtol=TIGHT) for v in vins])
        assert _rel(batch, seq) <= 1e-9


@pytest.mark.parametrize("case", ["inverter_sub", "inverter_nominal",
                                  "sub_vth_32nm"])
def test_gain_is_the_vtc_slope(case, request, sub_family):
    """The partials gain -(g_m,N + g_m,P)/(g_ds,N + g_ds,P) is the
    derivative of the solved VTC: a central difference of a tightly
    solved VTC (h = 1e-5 V_dd) matches it to 1e-5 relative, with a
    1e-3 floor on |gain| near the rails.  The difference is the
    fourth-order five-point one: the three-point difference's own h^2
    truncation reaches 1.1e-5 at the 1.2 V inverter's peak gain."""
    if case == "sub_vth_32nm":
        inv = sub_family.design("32nm").inverter(0.25)
    else:
        inv = request.getfixturevalue(case)
    vdd = inv.vdd
    vins = np.linspace(0.02 * vdd, 0.98 * vdd, 49)
    h = 1e-5 * vdd

    def step(k):
        return (solve_vtc_batch(inv, vins + k * h, xtol=1e-14)
                - solve_vtc_batch(inv, vins - k * h, xtol=1e-14))

    slope = (8.0 * step(1) - step(2)) / (12.0 * h)
    gain = gain_batch(inv, vins, xtol=1e-14)
    assert np.all(np.abs(gain - slope)
                  <= 1e-5 * np.maximum(np.abs(slope), 1e-3))


class TestNoiseMarginEquivalence:
    FIELDS = ("v_il", "v_ih", "v_ol", "v_oh", "nm_low", "nm_high")

    @pytest.mark.parametrize("vdd", SUPPLIES)
    def test_table2_devices(self, super_family, vdd):
        for design in super_family.designs:
            inv = design.inverter(vdd)
            try:
                seq = noise_margins(inv, solver="sequential", xtol=TIGHT)
            except LostRegenerationError as err:
                assert str(err) == LOST_REGENERATION_MESSAGES[err.code - 1]
                with pytest.raises(LostRegenerationError) as batch_err:
                    noise_margins(inv, solver="batch", xtol=TIGHT)
                assert batch_err.value.code == err.code
                continue
            batch = noise_margins(inv, solver="batch", xtol=TIGHT)
            # All fields live on the supply scale, so 1e-9 relative
            # carries an absolute floor of 1e-9 vdd.
            for field in self.FIELDS:
                assert np.allclose(getattr(batch, field),
                                   getattr(seq, field),
                                   rtol=1e-9, atol=1e-9 * vdd), field
            assert np.allclose(batch.snm, seq.snm,
                               rtol=1e-9, atol=1e-9 * vdd)

    def test_default_tolerance_matches_tight_oracle(self, sub_family):
        """At its default xtol the batch extraction is already converged
        to the scalar oracle run at TIGHT."""
        inv = sub_family.design("32nm").inverter(0.25)
        batch = noise_margins(inv)
        seq = noise_margins(inv, solver="sequential", xtol=TIGHT)
        for field in self.FIELDS:
            assert abs(getattr(batch, field) - getattr(seq, field)) \
                <= 1e-9 * inv.vdd, field

    def test_scan_count_invariant_once_converged(self, super_family):
        """Scan density only brackets the crossings: at xtol 1e-10 a
        21-point and a 101-point scan extract the same margins."""
        inv = super_family.design("32nm").inverter(0.115)
        sigma = 2.0 * rdf_sigma_vth(inv.nfet)
        rng = np.random.default_rng(7)
        dn, dp = sigma * rng.standard_normal((2, 48))
        coarse = noise_margins_batch(inv, dn, dp, n_scan=21, xtol=1e-10)
        fine = noise_margins_batch(inv, dn, dp, n_scan=101, xtol=1e-10)
        kept = ~coarse.lost & ~fine.lost
        assert kept.sum() > 40
        for field in self.FIELDS:
            assert np.max(np.abs(getattr(coarse, field)[kept]
                                 - getattr(fine, field)[kept])) <= 1e-9, \
                field

    def test_near_loss_corner_flags_match(self, inverter_sub):
        """Deep perturbations: batch lost flags == scalar raises."""
        spread = np.linspace(-0.12, 0.12, 5)
        dn, dp = np.meshgrid(spread, -spread)
        dn, dp = dn.ravel(), dp.ravel()
        batch = noise_margins_batch(inverter_sub, dn, dp, xtol=TIGHT)
        assert batch.lost.any() and not batch.lost.all()
        for i in range(dn.size):
            pert = _perturbed(inverter_sub, dn[i], dp[i])
            if batch.lost[i]:
                code = int(batch.lost_code[i])
                with pytest.raises(LostRegenerationError) as err:
                    noise_margins(pert, solver="sequential", xtol=TIGHT)
                assert err.value.code == code
                assert str(err.value) == LOST_REGENERATION_MESSAGES[code - 1]
            else:
                seq = noise_margins(pert, solver="sequential", xtol=TIGHT)
                assert np.allclose(float(batch.snm[i]), seq.snm,
                                   rtol=1e-9, atol=1e-9 * inverter_sub.vdd)


class TestMonteCarloEquivalence:
    def test_delay_batch_matches_perturbed_scalar(self, inverter_sub):
        dn, dp = sample_vth_offsets(inverter_sub, 64)
        c_load = inverter_sub.load_capacitance(fanout=1)
        batch = analytic_delay_batch(inverter_sub, dn, dp, c_load)
        seq = np.array([
            analytic_delay(_perturbed(inverter_sub, a, b), c_load)
            for a, b in zip(dn, dp)
        ])
        assert _rel(batch, seq) <= 1e-9

    def test_snm_distribution_solvers_agree(self, inverter_sub):
        batch = snm_distribution(inverter_sub, n_trials=24)
        seq = snm_distribution(inverter_sub, n_trials=24,
                               solver="sequential")
        # Default (loose) tolerances: the paths agree to solver noise.
        assert np.allclose(batch.samples, seq.samples,
                           rtol=1e-5, atol=1e-8)


class TestEnergyEquivalence:
    def test_chain_energy_sweep(self, inverter_sub):
        grid = np.geomspace(0.1, 0.6, 17)
        batch = chain_energy_sweep(inverter_sub, grid)
        seq = np.array([
            chain_energy_per_cycle(inverter_sub.with_vdd(float(v))).total_j
            for v in grid
        ])
        assert _rel(batch, seq) <= 1e-9

    def test_find_vmin_solvers_agree(self, nfet90, pfet90):
        inv = Inverter(nfet=nfet90, pfet=pfet90, vdd=0.3)
        batch = find_vmin(inv)
        seq = find_vmin(inv, solver="sequential")
        assert batch.vmin == pytest.approx(seq.vmin, rel=1e-9)
        assert _rel(batch.energy_grid_j, seq.energy_grid_j) <= 1e-9


class TestSramEquivalence:
    def test_read_vtc(self, nfet90, pfet90):
        cell = SramCell(pulldown=nfet90.with_width_um(2.0),
                        pullup=pfet90.with_width_um(1.0),
                        access=nfet90.with_width_um(1.0),
                        vdd=0.30)
        vins_b, vouts_b = cell.read_vtc(61, xtol=TIGHT)
        vins_s, vouts_s = cell.read_vtc(61, solver="sequential", xtol=TIGHT)
        assert np.array_equal(vins_b, vins_s)
        assert np.max(np.abs(vouts_b - vouts_s)) <= 1e-9 * cell.vdd


class TestButterflyEquivalence:
    def test_lobe_square_solvers_identical(self, inverter_sub):
        vtc = inverter_sub.vtc(161)
        batch = butterfly_snm(vtc, solver="batch")
        seq = butterfly_snm(vtc, solver="sequential")
        assert batch == pytest.approx(seq, rel=1e-12, abs=1e-15)


class TestLostRegenerationNarrowing:
    """Satellite: only the structured error maps to SNM = 0."""

    @pytest.mark.parametrize("code", (1, 2))
    def test_structured_error_becomes_zero(self, inverter_sub, monkeypatch,
                                           code):
        import repro.variability.montecarlo as mc

        def fake_noise_margins(inverter, solver="batch"):
            raise lost_regeneration_error(code)

        monkeypatch.setattr(mc, "noise_margins", fake_noise_margins)
        result = mc.snm_distribution(inverter_sub, n_trials=5,
                                     solver="sequential")
        assert np.all(result.samples == 0.0)

    def test_genuine_bug_propagates(self, inverter_sub, monkeypatch):
        import repro.variability.montecarlo as mc

        def fake_noise_margins(inverter, solver="batch"):
            raise ParameterError("boom: not a regeneration loss")

        monkeypatch.setattr(mc, "noise_margins", fake_noise_margins)
        with pytest.raises(ParameterError, match="boom"):
            mc.snm_distribution(inverter_sub, n_trials=5,
                                solver="sequential")

    def test_same_message_plain_error_still_propagates(self, inverter_sub,
                                                       monkeypatch):
        """The old string-matching contract is gone: a plain
        ParameterError no longer silences as SNM = 0 even when its
        message happens to equal a canonical lost message."""
        import repro.variability.montecarlo as mc

        def fake_noise_margins(inverter, solver="batch"):
            raise ParameterError(LOST_REGENERATION_MESSAGES[0])

        monkeypatch.setattr(mc, "noise_margins", fake_noise_margins)
        with pytest.raises(ParameterError, match="never reaches"):
            mc.snm_distribution(inverter_sub, n_trials=5,
                                solver="sequential")

    def test_factory_rejects_unknown_code(self):
        with pytest.raises(ParameterError, match="must be 1 or 2"):
            lost_regeneration_error(3)


class TestSeedStreamSplit:
    """Satellite: NFET/PFET offsets come from independent child streams."""

    def test_pfet_draws_stable_under_trial_count(self, inverter_sub):
        short = sample_vth_offsets(inverter_sub, 50)
        long = sample_vth_offsets(inverter_sub, 100)
        assert np.array_equal(short[0], long[0][:50])
        assert np.array_equal(short[1], long[1][:50])

    def test_streams_independent(self, inverter_sub):
        offs_n, offs_p = sample_vth_offsets(inverter_sub, 200)
        # A shared stream would interleave: correlation of sorted halves
        # is not a concern, but identical normalised sequences would be.
        assert not np.allclose(offs_n / offs_n.std(),
                               offs_p / offs_p.std())


class TestStackedNoiseMargins:
    """One extraction over a sequence of inverters is, lane for lane,
    bitwise the one-inverter extraction of each."""

    FIELDS = ("v_il", "v_ih", "v_ol", "v_oh", "lost_code")

    @staticmethod
    def _assert_lanes_match(stacked, ones):
        for lane, one in enumerate(ones):
            for field in TestStackedNoiseMargins.FIELDS:
                assert np.array_equal(getattr(stacked, field)[lane],
                                      getattr(one, field)[0],
                                      equal_nan=field != "lost_code"), \
                    (lane, field)

    def test_lanes_match_one_inverter_calls(self, super_family, sub_family,
                                            inverter_sub):
        """Mixed supplies, V_th-offset lanes and, mid-stack, a lane too
        low in supply to regenerate."""
        sup, sub = super_family.designs, sub_family.designs
        inverters = ([d.inverter(d.node.vdd_nominal) for d in sup]
                     + [d.inverter(0.25) for d in sup + sub]
                     + [inverter_sub])
        inverters.insert(6, sub[1].inverter(0.04))
        rng = np.random.default_rng(26)
        dn, dp = 0.02 * rng.standard_normal((2, len(inverters)))
        dn[:4] = dp[:4] = 0.0
        stacked = noise_margins_batch(inverters, dn, dp)
        assert int(stacked.lost_code[6]) == 1
        assert not stacked.lost[:6].any() and not stacked.lost[7:].any()
        self._assert_lanes_match(stacked, [
            noise_margins_batch(inv, dn[i], dp[i])
            for i, inv in enumerate(inverters)])

    def test_supply_and_offsets_broadcast_against_the_lanes(
            self, super_family):
        """``vdd`` overrides each lane's own supply, and a 2-D offset
        array puts the inverters on its last axis."""
        inverters = [d.inverter(0.25) for d in super_family.designs[:3]]
        vdd = np.array([0.2, 0.3, 0.25])
        stacked = noise_margins_batch(inverters, vdd=vdd)
        self._assert_lanes_match(stacked, [
            noise_margins_batch(inv, vdd=v)
            for inv, v in zip(inverters, vdd)])
        dn = np.array([[0.0, 0.01, -0.02], [0.03, 0.0, 0.01]])
        grid = noise_margins_batch(inverters, dn, -dn)
        assert grid.v_il.shape == (2, 3)
        for row in range(2):
            for col, inv in enumerate(inverters):
                one = noise_margins_batch(inv, dn[row, col], -dn[row, col])
                for field in self.FIELDS:
                    assert np.array_equal(getattr(grid, field)[row, col],
                                          getattr(one, field)[0]), field

    def test_vtc_and_gain_take_a_sequence(self, super_family, sub_family):
        inverters = [super_family.design("32nm").inverter(0.25),
                     sub_family.design("45nm").inverter(0.3)]
        vin = np.array([0.11, 0.14])
        vouts = solve_vtc_batch(inverters, vin)
        gains = gain_batch(inverters, vin)
        for lane, inv in enumerate(inverters):
            assert vouts[lane] == solve_vtc_batch(inv, vin[lane])
            assert gains[lane] == gain_batch(inv, vin[lane])


class TestSeededRefinement:
    def test_eq3_extraction_takes_at_most_35_sweeps(self, super_family):
        """eq3's extraction: the super-V_th 90nm inverter at 250 mV, 101
        scan points.  Every refinement solve and the V_OL/V_OH solve
        start from an output interpolated between outputs already
        solved, so the extraction takes at most 35 Newton sweeps in
        all (65 when each of them started at mid-supply)."""
        inv = super_family.design("90nm").inverter(0.25)
        before = perf.get("circuit.vtc_newton_sweeps")
        margins = noise_margins_batch(inv, n_scan=101)
        assert perf.get("circuit.vtc_newton_sweeps") - before <= 35
        assert not margins.lost.any()
