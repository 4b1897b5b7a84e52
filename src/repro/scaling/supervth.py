"""The super-V_th (performance-driven) scaling flow — paper Fig. 1(c).

Per node, with ``L_poly``, ``T_ox`` and ``V_dd`` fixed by the roadmap,
the remaining knobs ``N_sub`` and ``N_p,halo`` are selected by the
paper's iterative heuristic:

1. ``N_sub`` is set by the **long-channel** device (where halo doping
   is largely unnecessary): find the substrate doping at which a long
   version of the device just meets the leakage budget.
2. ``N_p,halo`` is set by the **short-channel** device: find the halo
   peak at which the actual (short) device meets the same budget —
   i.e. the halo exactly cancels the short-channel V_th roll-off the
   long-channel doping cannot.

Delay is the objective and leakage the constraint; since sub- and
super-V_th drive both increase monotonically as V_th falls, the
delay-minimal design under an I_off budget is the one where the budget
binds — which is precisely what the two root-solves enforce.  The
result reproduces the paper's Table 2 trends: doping and V_th,sat grow
each generation while S_S degrades.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from scipy.optimize import brentq

from .. import perf
from ..circuit.batch import validate_solver
from ..device.mosfet import MOSFET, Polarity, nfet as build_nfet, pfet as build_pfet
from ..errors import OptimizationError
from .roadmap import NodeSpec, roadmap_nodes
from .strategy import DeviceDesign, DeviceFamily

#: Gate-length multiple used for the "long channel" reference device.
LONG_CHANNEL_MULTIPLE: float = 8.0
#: Substrate-doping search bounds [cm^-3].
N_SUB_BOUNDS: tuple[float, float] = (5e16, 1.5e19)
#: Halo-peak search bounds [cm^-3].
N_HALO_BOUNDS: tuple[float, float] = (1e15, 8e19)
#: Default PFET width multiple (mobility compensation).
PFET_WIDTH_RATIO: float = 2.0


def _builder(polarity: Polarity):
    return build_nfet if polarity is Polarity.NFET else build_pfet


@dataclass(frozen=True)
class SuperVthOptimizer:
    """Solves the Fig. 1(c) doping selection for one node and polarity.

    Parameters
    ----------
    node:
        Roadmap inputs (L_poly, T_ox, V_dd, I_off budget).
    polarity:
        Device type to optimise.
    width_um:
        Device width; the leakage budget is per µm so the width only
        affects absolute currents.
    """

    node: NodeSpec
    polarity: Polarity = Polarity.NFET
    width_um: float = 1.0

    def _device(self, n_sub: float, n_p_halo: float,
                l_poly_nm: float | None = None) -> MOSFET:
        build = _builder(self.polarity)
        return build(
            l_poly_nm=self.node.l_poly_nm if l_poly_nm is None else l_poly_nm,
            t_ox_nm=self.node.t_ox_nm,
            n_sub_cm3=n_sub,
            n_p_halo_cm3=n_p_halo,
            width_um=self.width_um,
            # Parasitics (junction depth, overlap, halo geometry) follow
            # the *short* device's L_poly — the super-V_th proportional
            # convention — even for the long-channel reference.
            reference_nm=self.node.l_poly_nm,
        )

    def _ioff_per_um(self, device: MOSFET) -> float:
        return device.i_off_per_um(self.node.vdd_nominal)

    # -- the two root solves -------------------------------------------------

    def solve_substrate(self, solver: str = "batch") -> float:
        """Step 1: N_sub from the long-channel leakage condition."""
        validate_solver(solver)
        if solver == "batch":
            from . import batch as batch_mod
            return batch_mod.super_vth_substrate(
                self.node, self.polarity, self.width_um)
        target = self.node.ioff_target_a_per_um
        long_l = LONG_CHANNEL_MULTIPLE * self.node.l_poly_nm

        def residual(log_n: float) -> float:
            perf.bump("optimizer.brentq_residual_evals")
            dev = self._device(10.0 ** log_n, 0.0, l_poly_nm=long_l)
            return math.log(self._ioff_per_um(dev) / target)

        lo, hi = (math.log10(b) for b in N_SUB_BOUNDS)
        r_lo, r_hi = residual(lo), residual(hi)
        if r_lo < 0.0:
            raise OptimizationError(
                f"{self.node.name}: long-channel leakage below target even "
                "at minimum doping — budget unreachable from above"
            )
        if r_hi > 0.0:
            raise OptimizationError(
                f"{self.node.name}: cannot meet leakage budget "
                f"{target:.3g} A/um with N_sub <= {N_SUB_BOUNDS[1]:.3g}"
            )
        return 10.0 ** brentq(residual, lo, hi, xtol=1e-12)

    def solve_halo(self, n_sub: float, solver: str = "batch") -> float:
        """Step 2: N_p,halo from the short-channel leakage condition."""
        return self._solve_halo(n_sub, solver)[0]

    def _solve_halo(self, n_sub: float,
                    solver: str) -> tuple[float, MOSFET | None]:
        """Halo solve returning the device built at the root, if any.

        The scalar path's final residual evaluation already constructed
        the converged device; handing it back lets :meth:`optimize`
        skip one halo/depletion self-consistency solve.
        """
        validate_solver(solver)
        if solver == "batch":
            from . import batch as batch_mod
            return batch_mod.super_vth_halo(
                self.node, self.polarity, self.width_um, n_sub), None
        target = self.node.ioff_target_a_per_um
        evaluated: dict[float, MOSFET] = {}

        def residual(log_n: float) -> float:
            perf.bump("optimizer.brentq_residual_evals")
            dev = self._device(n_sub, 10.0 ** log_n)
            evaluated[log_n] = dev
            return math.log(self._ioff_per_um(dev) / target)

        lo, hi = (math.log10(b) for b in N_HALO_BOUNDS)
        if residual(lo) <= 0.0:
            # The short device already meets the budget: no halo needed.
            dev = evaluated[lo]
            if dev.profile.n_p_halo_cm3 != N_HALO_BOUNDS[0]:
                dev = None  # 10**log10 round trip missed the bound
            return N_HALO_BOUNDS[0], dev
        if residual(hi) > 0.0:
            raise OptimizationError(
                f"{self.node.name}: halo cannot rescue the short-channel "
                "leakage — L_poly too short for this T_ox"
            )
        log_root = brentq(residual, lo, hi, xtol=1e-12)
        return 10.0 ** log_root, evaluated.get(log_root)

    def optimize(self, solver: str = "batch") -> MOSFET:
        """Run the full Fig. 1(c) loop and return the optimised device."""
        validate_solver(solver)
        if solver == "batch":
            from . import batch as batch_mod
            return batch_mod.optimize_super_vth_stack([
                batch_mod.super_vth_request(
                    self.node, self.polarity, self.width_um)])[0]
        n_sub = self.solve_substrate(solver=solver)
        n_p_halo, dev = self._solve_halo(n_sub, solver)
        if dev is not None and dev.profile.n_p_halo_cm3 == n_p_halo:
            return dev
        return self._device(n_sub, n_p_halo)


def pair_requests(nodes: Sequence[NodeSpec],
                  pfet_width_um: float = PFET_WIDTH_RATIO) -> list:
    """The batched Fig. 1(c) jobs for ``nodes``: an NFET and a PFET
    :func:`~repro.scaling.batch.super_vth_request` per node, in order,
    each carrying the calibration in force now."""
    from . import batch as batch_mod
    return [batch_mod.super_vth_request(node, polarity, width)
            for node in nodes
            for polarity, width in ((Polarity.NFET, 1.0),
                                    (Polarity.PFET, pfet_width_um))]


def pair_designs(nodes: Sequence[NodeSpec],
                 devices: Sequence[MOSFET]) -> tuple[DeviceDesign, ...]:
    """One design per node from :func:`pair_requests`' solved devices."""
    return tuple(DeviceDesign(node=node, nfet=devices[2 * i],
                              pfet=devices[2 * i + 1], strategy="super-vth",
                              vdd=node.vdd_nominal)
                 for i, node in enumerate(nodes))


def build_super_vth_design(node: NodeSpec,
                           pfet_width_um: float = PFET_WIDTH_RATIO,
                           solver: str = "batch") -> DeviceDesign:
    """Optimise the NFET/PFET pair for one node."""
    validate_solver(solver)
    if solver == "batch":
        from . import batch as batch_mod
        devices = batch_mod.optimize_super_vth_stack(
            pair_requests([node], pfet_width_um))
    else:
        devices = [SuperVthOptimizer(node, polarity, width_um=width)
                   .optimize(solver=solver)
                   for polarity, width in ((Polarity.NFET, 1.0),
                                           (Polarity.PFET, pfet_width_um))]
    return pair_designs([node], devices)[0]


def build_super_vth_family(include_130nm: bool = False,
                           solver: str = "batch") -> DeviceFamily:
    """The paper's Table 2 device family (one design per node).

    >>> family = build_super_vth_family()
    >>> family.node_names()
    ('90nm', '65nm', '45nm', '32nm')
    """
    validate_solver(solver)
    nodes = tuple(roadmap_nodes(include_130nm))
    if solver == "batch":
        from . import batch as batch_mod
        designs = pair_designs(nodes, batch_mod.optimize_super_vth_stack(
            pair_requests(nodes)))
    else:
        designs = tuple(build_super_vth_design(node, solver=solver)
                        for node in nodes)
    return DeviceFamily(strategy="super-vth", designs=designs)
