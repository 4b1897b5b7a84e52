"""Failure-path coverage for both scaling flows, batched and scalar.

Every ``OptimizationError`` branch the optimizers can take — leakage
budget unreachable from above or below, halo-cannot-rescue, and the
energy factor still falling at the end of ``LENGTH_RANGE`` — on the
production flow (``batch``) and on its scalar oracle in
``tests/oracles/scaling.py`` (``sequential``), plus the root-device
reuse guarantee of the scalar substrate solve (no rebuild after the
root solve).
"""

import pytest

from repro import perf
from repro.device.mosfet import Polarity
from repro.errors import OptimizationError
from repro.scaling import subvth as subvth_mod
from repro.scaling.roadmap import NodeSpec, roadmap_nodes
from repro.scaling.subvth import SubVthOptimizer, optimize_doping_for_length
from repro.scaling.supervth import SuperVthOptimizer
from tests.oracles import scaling as oracle

#: Parameter ids of the two implementations: production, then oracle.
SOLVERS = ("batch", "sequential")


def _flows(production, scalar):
    """Parametrize a test over ``production`` and its scalar oracle."""
    return pytest.mark.parametrize("flow", [production, scalar],
                                   ids=SOLVERS)


SOLVE_SUBSTRATE = _flows(SuperVthOptimizer.solve_substrate,
                         oracle.solve_substrate)

#: A 90nm-like node whose leakage budget is absurdly loose: even the
#: minimum doping leaks less than the target, so the budget binds from
#: the wrong side.
LOOSE_NODE = NodeSpec("loose", 90.0, 65.0, 2.10, 1.2, 1.0, 0)
#: The same node with an unreachably tight budget.
TIGHT_NODE = NodeSpec("tight", 90.0, 65.0, 2.10, 1.2, 1e-30, 0)
#: Very short gate under thick oxide: the long-channel substrate solve
#: succeeds but no halo peak can plug the short-channel leak.
HALO_HOPELESS_NODE = NodeSpec("hopeless", 32.0, 8.0, 2.5, 0.9, 1e-12, 3)


class TestSuperVthFailures:
    @SOLVE_SUBSTRATE
    def test_budget_unreachable_from_above(self, flow):
        with pytest.raises(OptimizationError,
                           match="budget unreachable from above"):
            flow(SuperVthOptimizer(LOOSE_NODE))

    @SOLVE_SUBSTRATE
    def test_budget_unreachable_from_below(self, flow):
        with pytest.raises(OptimizationError,
                           match="cannot meet leakage budget"):
            flow(SuperVthOptimizer(TIGHT_NODE))

    @pytest.mark.parametrize("flows", [
        (SuperVthOptimizer.solve_substrate, SuperVthOptimizer.solve_halo),
        (oracle.solve_substrate, oracle.solve_halo)], ids=SOLVERS)
    def test_halo_cannot_rescue(self, flows):
        solve_substrate, solve_halo = flows
        opt = SuperVthOptimizer(HALO_HOPELESS_NODE)
        n_sub = solve_substrate(opt)
        with pytest.raises(OptimizationError,
                           match="halo cannot rescue"):
            solve_halo(opt, n_sub)

    @_flows(SuperVthOptimizer.optimize, oracle.optimize_super_vth)
    def test_optimize_propagates_halo_failure(self, flow):
        with pytest.raises(OptimizationError,
                           match="halo cannot rescue"):
            flow(SuperVthOptimizer(HALO_HOPELESS_NODE))


class TestSubVthFailures:
    @_flows(optimize_doping_for_length, oracle.optimize_doping_for_length)
    @pytest.mark.parametrize("target", [1.0, 1e-30],
                             ids=["too-loose", "too-tight"])
    def test_no_doping_meets_target(self, flow, target):
        node = roadmap_nodes()[0]
        with pytest.raises(OptimizationError, match="no doping meets"):
            flow(node, node.l_poly_nm, ioff_target=target)

    @_flows(SubVthOptimizer.optimize, oracle.optimize_sub_vth)
    def test_energy_factor_still_falling_at_range_end(self, flow,
                                                      monkeypatch):
        # Truncate the length search so the energy factor is still
        # decreasing at the top of the grid: the optimiser must refuse
        # rather than silently return an edge design.
        monkeypatch.setattr(subvth_mod, "LENGTH_RANGE", (1.0, 1.08))
        opt = SubVthOptimizer(roadmap_nodes()[2], n_length_points=4)
        with pytest.raises(OptimizationError,
                           match="still flat/falling"):
            flow(opt)


class TestRootDeviceReuse:
    """After a scalar root solve, the converged device is not rebuilt."""

    def _count_builds(self, module, monkeypatch):
        built = []
        orig = module.build_nfet

        def counting(*args, **kwargs):
            dev = orig(*args, **kwargs)
            built.append(dev)
            return dev

        monkeypatch.setattr(module, "build_nfet", counting)
        return built

    def test_subvth_substrate_solve(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEVICE_CACHE", "0")
        built = self._count_builds(subvth_mod, monkeypatch)
        node = roadmap_nodes()[1]
        perf.reset()
        dev = subvth_mod._solve_substrate_for_ioff(
            node, 1.5 * node.l_poly_nm, 0.5, 1e-10, Polarity.NFET,
            1.0, 0.30)
        evals = perf.get("optimizer.brentq_residual_evals")
        assert evals > 2
        # One construction per residual evaluation and none beyond: the
        # returned device is the root evaluation itself.
        assert len(built) == evals
        assert any(dev is b for b in built)
