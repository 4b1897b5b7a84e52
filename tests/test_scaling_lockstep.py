"""Lock-step doping flows equal their per-problem calls, bit for bit.

The flows stack independent problems — nodes, lengths, settings and
calibrations — on the lane axis of one cold masked root-solve.  Lanes
of such a solve are independent and every lane starts from the full
doping bounds, so each lock-step result must be bitwise the result of
solving its problem alone.  Errors follow the per-problem loop's
order.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro import perf
from repro.device import subthreshold as subthreshold_mod
from repro.device.mosfet import Polarity
from repro.errors import OptimizationError
from repro.experiments.ext_sensitivity import CALIBRATION_GRID
from repro.scaling import batch as batch_mod
from repro.scaling import sensitivity as sensitivity_mod
from repro.scaling import subvth as subvth_mod
from repro.scaling.batch import (
    Calibration,
    DopingSolveRequest,
    solve_substrate_stack,
)
from repro.scaling.roadmap import roadmap_nodes, sub_vth_ioff_target
from repro.scaling.sensitivity import (
    calibration,
    headline_under_calibration,
    headlines_under_calibrations,
)
from repro.scaling.subvth import (
    HALO_RATIO_GRID,
    SUB_VTH_EVAL_VDD,
    SubVthOptimizer,
    build_sub_vth_family,
    optimize_doping_for_length,
    optimize_doping_for_lengths,
    optimize_sub_vth_stack,
)
from repro.service.exact import DOMAIN_LOG10_IOFF

NODES = roadmap_nodes()


def _device_bits(dev):
    return tuple(float(x).hex() for x in (
        dev.geometry.l_poly_nm, dev.geometry.width_um,
        dev.geometry.overlap_cm, dev.profile.n_sub_cm3,
        dev.profile.n_p_halo_cm3, dev.ss_v_per_dec))


def _design_bits(design):
    return _device_bits(design.nfet) + _device_bits(design.pfet)


class TestSubVthLockStep:
    def test_family_equals_one_node_optimizers(self):
        family = build_sub_vth_family()
        for node, design in zip(NODES, family.designs):
            alone = SubVthOptimizer(node).optimize()
            assert _design_bits(design) == _design_bits(alone), node.name

    def test_mixed_calibration_stack(self):
        """One stack holding a calibrated and a default optimiser: each
        lane keeps its own calibration."""
        node = NODES[2]
        with calibration(sce_prefactor=11.0):
            harsh = SubVthOptimizer(node)
            harsh_alone = harsh.optimize()
        plain = SubVthOptimizer(node)
        stacked = optimize_sub_vth_stack([harsh, plain])
        assert _design_bits(stacked[0]) == _design_bits(harsh_alone)
        assert _design_bits(stacked[1]) == _design_bits(plain.optimize())
        assert (stacked[0].nfet.ss_v_per_dec
                != stacked[1].nfet.ss_v_per_dec)

    def test_fig7_rows_equal_one_length_calls(self):
        from repro.experiments.fig7 import LENGTH_GRID_NM
        node = NODES[2]
        lengths = [node.l_poly_nm, *LENGTH_GRID_NM]
        stacked = optimize_doping_for_lengths(node, lengths,
                                              vdd_leak=SUB_VTH_EVAL_VDD)
        for l_poly, dev in zip(lengths, stacked):
            alone = optimize_doping_for_length(node, float(l_poly),
                                               vdd_leak=SUB_VTH_EVAL_VDD)
            assert _device_bits(dev) == _device_bits(alone), l_poly

    def test_fig8_rows_equal_one_length_calls(self):
        from repro.experiments.fig8 import LENGTH_GRID_NM
        optimizer = SubVthOptimizer(NODES[2])
        stacked = optimizer.designs_for_lengths(LENGTH_GRID_NM)
        for l_poly, design in zip(LENGTH_GRID_NM, stacked):
            alone = optimizer.design_for_length(float(l_poly))
            assert _design_bits(design) == _design_bits(alone), l_poly

    def test_repeated_problem_is_accepted(self):
        """A stack may repeat an optimiser: no lane shares state with
        another, so both entries are its one-problem result."""
        opt = SubVthOptimizer(NODES[0], n_length_points=5)
        stacked = optimize_sub_vth_stack([opt, opt])
        want = _design_bits(opt.optimize())
        assert [_design_bits(d) for d in stacked] == [want, want]

    def test_optimizer_takes_the_calibration_in_force_when_made(self):
        plain = SubVthOptimizer(NODES[0])
        with calibration(sce_prefactor=11.0):
            harsh = SubVthOptimizer(NODES[0])
            assert plain.calibration != Calibration.current()
        assert harsh.calibration.sce_prefactor == 11.0
        with pytest.raises(TypeError):
            SubVthOptimizer(NODES[0], calibration=harsh.calibration)


class TestErrorOrder:
    def test_earlier_refinement_outranks_later_sweep(self, monkeypatch):
        """Problem 0 fails in its refinement, problem 1 in its sweep:
        the per-problem loop meets problem 0's error first."""
        real = batch_mod.optimize_doping_groups
        refinements = []

        def first_refinement_fails(groups, ratios, tol):
            # Problem 0's refinement alone: 7 lengths x 2 polarities.
            if len(groups) == 14 and groups[0].node is NODES[0]:
                refinements.append(groups)
                raise OptimizationError(f"{NODES[0].name}: refinement")
            return real(groups, ratios, tol)

        monkeypatch.setattr(batch_mod, "optimize_doping_groups",
                            first_refinement_fails)
        first = SubVthOptimizer(NODES[0])
        later = SubVthOptimizer(NODES[1], ioff_target=1e-30)
        with pytest.raises(OptimizationError,
                           match=f"^{NODES[0].name}: refinement"):
            optimize_sub_vth_stack([first, later])
        assert len(refinements) == 1

    def test_later_sweep_failure_without_earlier_error(self):
        first = SubVthOptimizer(NODES[0])
        later = SubVthOptimizer(NODES[1], ioff_target=1e-30)
        with pytest.raises(OptimizationError,
                           match=f"^{NODES[1].name}: no doping meets"):
            optimize_sub_vth_stack([first, later])

    def test_edge_design_error_is_per_problem(self, monkeypatch):
        monkeypatch.setattr(subvth_mod, "LENGTH_RANGE", (1.0, 1.08))
        stack = [SubVthOptimizer(NODES[2], n_length_points=4),
                 SubVthOptimizer(NODES[1], ioff_target=1e-30,
                                 n_length_points=4)]
        with pytest.raises(OptimizationError, match="still flat/falling"):
            optimize_sub_vth_stack(stack)

    def test_grid_error_follows_the_per_calibration_loop(self, monkeypatch):
        """Calibration 0 fails in its sub-V_th flow, calibration 1 in its
        super-V_th flow: the per-calibration loop meets calibration 0's
        error first, though the stacked super-V_th solve runs first."""
        with calibration(sce_prefactor=6.0):
            first = Calibration.current()
        with calibration(sce_prefactor=11.0):
            later = Calibration.current()
        real_super = sensitivity_mod.optimize_super_vth_stack

        def later_super_fails(jobs):
            if any(job.calibration == later for job in jobs):
                raise OptimizationError("later: super-V_th")
            return real_super(jobs)

        def first_sub_fails(groups, ratios, tol):
            if any(group.calibration == first for group in groups):
                raise OptimizationError("first: sub-V_th")
            raise AssertionError("no sub-V_th solve runs after the error")

        monkeypatch.setattr(sensitivity_mod, "optimize_super_vth_stack",
                            later_super_fails)
        monkeypatch.setattr(batch_mod, "optimize_doping_groups",
                            first_sub_fails)
        with pytest.raises(OptimizationError, match="^first: sub-V_th"):
            headlines_under_calibrations([{"sce_prefactor": 6.0},
                                          {"sce_prefactor": 11.0}])


class TestSensitivityLockStep:
    def test_grid_equals_per_calibration_calls(self):
        # The last entry repeats the default calibration explicitly: it
        # is solved once and shares the first entry's result.
        repeat = {"sce_prefactor": subthreshold_mod.SCE_PREFACTOR_DEFAULT}
        perf.reset()
        stacked = headlines_under_calibrations(
            [kwargs for _label, kwargs in CALIBRATION_GRID] + [repeat])
        assert perf.get("scaling.doping_batch_solves") == 4
        assert stacked[-1] == stacked[0]
        for (label, kwargs), result in zip(CALIBRATION_GRID, stacked):
            alone = headline_under_calibration(**kwargs)
            for f in dataclasses.fields(result):
                assert (float(getattr(result, f.name)).hex()
                        == float(getattr(alone, f.name)).hex()), \
                    (label, f.name)


_CALIBRATIONS = [kwargs for _label, kwargs in CALIBRATION_GRID]


@st.composite
def _requests(draw):
    """A few exact-tier-domain candidates under one calibration."""
    cal = draw(st.sampled_from(_CALIBRATIONS))
    specs = draw(st.lists(st.tuples(
        st.sampled_from(NODES),
        st.floats(1.0, 3.2),
        st.sampled_from((Polarity.NFET, Polarity.PFET)),
        st.sampled_from(HALO_RATIO_GRID),
        st.floats(*DOMAIN_LOG10_IOFF),
    ), min_size=1, max_size=4))
    with calibration(**cal):
        return [DopingSolveRequest(
            node=node, l_poly_nm=ratio * node.l_poly_nm, polarity=pol,
            width_um=1.0 if pol is Polarity.NFET else 2.0,
            ioff_target=10.0 ** log_ioff, vdd_leak=SUB_VTH_EVAL_VDD,
            halo_ratio=halo) for node, ratio, pol, halo, log_ioff in specs]


@settings(max_examples=12, deadline=None, derandomize=True)
@given(parts=st.lists(_requests(), min_size=2, max_size=3))
def test_concatenated_cold_solve_equals_parts(parts):
    """A cold stack over several parts (each under its own calibration)
    equals each part solved cold alone, lane for lane — infeasible
    lanes included."""
    whole = solve_substrate_stack([req for part in parts for req in part])
    start = 0
    for part in parts:
        alone = solve_substrate_stack(part)
        lanes = slice(start, start + len(part))
        for name in ("root_log10", "feasible", "r_lo", "r_hi"):
            got = getattr(whole, name)[lanes]
            want = getattr(alone, name)
            assert [float(x).hex() for x in got] == \
                [float(x).hex() for x in want], name
        start += len(part)


def test_default_target_is_the_sub_vth_budget():
    optimizer = SubVthOptimizer(NODES[0])
    groups = optimizer._pair_groups(NODES[0].l_poly_nm)
    assert {g.ioff_target for g in groups} == {sub_vth_ioff_target(NODES[0])}
    assert all(g.calibration == optimizer.calibration for g in groups)
