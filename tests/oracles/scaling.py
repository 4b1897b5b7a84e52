"""Scalar scaling-flow oracles: one brentq doping solve per candidate.

The flows :mod:`repro.scaling.batch` replaced, each a plain function of
the production inputs.  The device builder
(``SuperVthOptimizer._device``) and the selection rules
(``SubVthOptimizer._select``, ``_edge_error``, ``_refine_lengths``,
``_row``) are the production ones, so a test pins the root solves and
nothing else."""

from __future__ import annotations

import math

from scipy.optimize import brentq

from repro.device.mosfet import MOSFET, Polarity
from repro.errors import OptimizationError, ParameterError
from repro.scaling import sensitivity
from repro.scaling.multivth import FLAVOURS, VthFlavour
from repro.scaling.roadmap import NodeSpec, roadmap_nodes, sub_vth_ioff_target
from repro.scaling.strategy import DeviceDesign, DeviceFamily
from repro.scaling.subvth import (HALO_RATIO_GRID, SS_TIE_TOLERANCE,
                                  SUB_VTH_EVAL_VDD, Row, SubVthOptimizer,
                                  _solve_substrate_for_ioff)
from repro.scaling.supervth import (LONG_CHANNEL_MULTIPLE, N_HALO_BOUNDS,
                                    N_SUB_BOUNDS, PFET_WIDTH_RATIO,
                                    SuperVthOptimizer, pair_designs)

# -- super-V_th (Fig. 1(c)) --------------------------------------------------


def _log_ioff_error(opt: SuperVthOptimizer, device: MOSFET) -> float:
    target = opt.node.ioff_target_a_per_um
    return math.log(device.i_off_per_um(opt.node.vdd_nominal) / target)


def solve_substrate(opt: SuperVthOptimizer) -> float:
    """Step 1: N_sub [cm^-3] from the long-channel leakage condition."""
    long_l = LONG_CHANNEL_MULTIPLE * opt.node.l_poly_nm

    def residual(log_n: float) -> float:
        return _log_ioff_error(opt, opt._device(10.0 ** log_n, 0.0,
                                                l_poly_nm=long_l))

    lo, hi = (math.log10(b) for b in N_SUB_BOUNDS)
    if residual(lo) < 0.0:
        raise OptimizationError(
            f"{opt.node.name}: long-channel leakage below target even "
            "at minimum doping — budget unreachable from above")
    if residual(hi) > 0.0:
        raise OptimizationError(
            f"{opt.node.name}: cannot meet leakage budget "
            f"{opt.node.ioff_target_a_per_um:.3g} A/um with "
            f"N_sub <= {N_SUB_BOUNDS[1]:.3g}")
    return 10.0 ** brentq(residual, lo, hi, xtol=1e-12)


def solve_halo(opt: SuperVthOptimizer, n_sub: float) -> float:
    """Step 2: N_p,halo [cm^-3] from the short-channel leakage condition."""

    def residual(log_n: float) -> float:
        return _log_ioff_error(opt, opt._device(n_sub, 10.0 ** log_n))

    lo, hi = (math.log10(b) for b in N_HALO_BOUNDS)
    if residual(lo) <= 0.0:
        return N_HALO_BOUNDS[0]  # the short device needs no halo
    if residual(hi) > 0.0:
        raise OptimizationError(
            f"{opt.node.name}: halo cannot rescue the short-channel "
            "leakage — L_poly too short for this T_ox")
    return 10.0 ** brentq(residual, lo, hi, xtol=1e-12)


def optimize_super_vth(opt: SuperVthOptimizer) -> MOSFET:
    """The full Fig. 1(c) loop: substrate, then halo, then the device."""
    n_sub = solve_substrate(opt)
    return opt._device(n_sub, solve_halo(opt, n_sub))


def build_super_vth_design(node: NodeSpec,
                           pfet_width_um: float = PFET_WIDTH_RATIO
                           ) -> DeviceDesign:
    """The NFET/PFET pair for one node, one optimiser at a time."""
    devices = [optimize_super_vth(SuperVthOptimizer(node, polarity,
                                                    width_um=width))
               for polarity, width in ((Polarity.NFET, 1.0),
                                       (Polarity.PFET, pfet_width_um))]
    return pair_designs([node], devices)[0]


def build_super_vth_family(include_130nm: bool = False) -> DeviceFamily:
    """The Table 2 family, one node at a time."""
    return DeviceFamily(strategy="super-vth", designs=tuple(
        build_super_vth_design(node)
        for node in roadmap_nodes(include_130nm)))


# -- sub-V_th (Section 3) ----------------------------------------------------


def optimize_doping_for_length(node: NodeSpec, l_poly_nm: float,
                               ioff_target: float | None = None,
                               polarity: Polarity = Polarity.NFET,
                               width_um: float = 1.0,
                               vdd_leak: float | None = None) -> MOSFET:
    """Minimum-S_S doping meeting the I_off target at one length: one
    brentq substrate solve per halo ratio, then the S_S selection."""
    target = sub_vth_ioff_target(node) if ioff_target is None else ioff_target
    bias = node.vdd_nominal if vdd_leak is None else vdd_leak
    candidates = [
        c for c in (_solve_substrate_for_ioff(node, l_poly_nm, ratio,
                                              target, polarity, width_um,
                                              bias)
                    for ratio in HALO_RATIO_GRID)
        if c is not None]
    if not candidates:
        raise OptimizationError(
            f"{node.name}: no doping meets I_off = {target:.3g} A/um at "
            f"L_poly = {l_poly_nm:.1f} nm")
    ss_best = min(c.ss_v_per_dec for c in candidates)
    near = [c for c in candidates
            if c.ss_v_per_dec <= ss_best * (1.0 + SS_TIE_TOLERANCE)]
    return min(near, key=lambda c: c.profile.n_sub_cm3)


def sub_vth_rows(opt: SubVthOptimizer, lengths_nm) -> list[Row]:
    """``(l_poly_nm, design, energy_factor)`` rows for a length grid, one
    candidate pair at a time, under the optimiser's calibration."""
    rows = []
    with opt.calibration.scope():
        for l_poly in lengths_nm:
            l_poly = float(l_poly)
            n_dev = optimize_doping_for_length(
                opt.node, l_poly, opt.ioff_target, Polarity.NFET, 1.0,
                vdd_leak=SUB_VTH_EVAL_VDD)
            p_dev = optimize_doping_for_length(
                opt.node, l_poly, opt.ioff_target, Polarity.PFET,
                opt.pfet_width_um, vdd_leak=SUB_VTH_EVAL_VDD)
            rows.append(opt._row(l_poly, n_dev, p_dev))
    return rows


def optimize_sub_vth(opt: SubVthOptimizer) -> DeviceDesign:
    """:meth:`SubVthOptimizer.optimize`: sweep, edge check, refinement."""
    rows = sub_vth_rows(opt, opt._sweep_lengths())
    chosen = opt._select(rows)
    error = opt._edge_error(rows, chosen)
    if error is not None:
        raise error
    local = opt._refine_lengths(rows, chosen)
    if local is not None:
        chosen = opt._select(sub_vth_rows(opt, local), rows)
    return chosen[1]


def build_sub_vth_family(include_130nm: bool = False,
                         ioff_target: float | None = None) -> DeviceFamily:
    """The Table 3 family, one node at a time."""
    return DeviceFamily(strategy="sub-vth", designs=tuple(
        optimize_sub_vth(SubVthOptimizer(node, ioff_target=ioff_target))
        for node in roadmap_nodes(include_130nm)))


# -- extensions --------------------------------------------------------------


def derive_flavours(node: NodeSpec, l_poly_nm: float,
                    base_ioff_a_per_um: float = 100e-12,
                    vdd_leak: float = SUB_VTH_EVAL_VDD,
                    pfet_width_um: float = PFET_WIDTH_RATIO,
                    flavours: dict[str, float] | None = None
                    ) -> dict[str, VthFlavour]:
    """The LVT/RVT/HVT menu, one flavour and polarity at a time."""
    if base_ioff_a_per_um <= 0.0:
        raise ParameterError("base leakage target must be positive")
    menu = flavours or FLAVOURS
    result: dict[str, VthFlavour] = {}
    for name, multiplier in menu.items():
        target = base_ioff_a_per_um * multiplier
        n_dev = optimize_doping_for_length(
            node, l_poly_nm, ioff_target=target, polarity=Polarity.NFET,
            width_um=1.0, vdd_leak=vdd_leak)
        p_dev = optimize_doping_for_length(
            node, l_poly_nm, ioff_target=target, polarity=Polarity.PFET,
            width_um=pfet_width_um, vdd_leak=vdd_leak)
        design = DeviceDesign(node=node, nfet=n_dev, pfet=p_dev,
                              strategy=f"multi-vth/{name}", vdd=vdd_leak)
        result[name] = VthFlavour(name=name, design=design,
                                  ioff_target_a_per_um=target)
    return result


def headline_under_calibration(overlap_fraction: float | None = None,
                               lt_calibration: float | None = None,
                               sce_prefactor: float | None = None
                               ) -> sensitivity.HeadlineResult:
    """Both families rebuilt by the scalar flows inside the calibration
    scope, then the production headline arithmetic."""
    with sensitivity.calibration(overlap_fraction=overlap_fraction,
                                 lt_calibration=lt_calibration,
                                 sce_prefactor=sce_prefactor):
        sup = build_super_vth_family()
        sub32 = build_sub_vth_family().design("32nm")
        return sensitivity._headline(
            sup.designs, sub32,
            sensitivity._snm_extraction([(sup.designs, sub32)]), 0)
