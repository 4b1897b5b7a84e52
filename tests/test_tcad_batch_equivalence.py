"""Batched vs sequential DeviceSimulator: extracted metrics must agree.

The acceptance bar for the batch kernel: on real (Table 2-optimised)
devices, the metrics the experiments actually consume — S_S, V_th,
I_on, I_off — match the warm-started sequential path
(``tests/oracles/tcad.py``) to <= 1e-9 relative.  Both paths converge
each bias to the same fixed point, so any disagreement beyond solver
tolerance is an indexing or assembly bug in the batch kernel.
"""

import numpy as np
import pytest

from repro.tcad.extract import extract_ss, extract_vth_constant_current
from repro.tcad.simulator import DeviceSimulator
from tests.oracles.tcad import SequentialDeviceSimulator

REL_TOL = 1e-9


def _metrics(sim: DeviceSimulator, vdd: float) -> dict[str, float]:
    vgs = np.linspace(-0.1, vdd, 41)
    curve = sim.id_vg(vdd, vgs)
    criterion = 1.0e-7 * sim.device.geometry.aspect_ratio
    return {
        "S_S": extract_ss(curve, decade_low=4.0, decade_high=1.5),
        "V_th": extract_vth_constant_current(curve, criterion),
        "I_on": float(curve.ids[-1]),
        "I_off": float(curve.current_at(0.0)),
    }


@pytest.mark.parametrize("node", ["90nm", "32nm"])
def test_batched_id_vg_matches_sequential(node, super_family):
    design = super_family.design(node)
    vdd = design.node.vdd_nominal
    batch = _metrics(DeviceSimulator(design.nfet), vdd)
    seq = _metrics(SequentialDeviceSimulator(design.nfet), vdd)
    for name in ("S_S", "V_th", "I_on", "I_off"):
        assert batch[name] == pytest.approx(seq[name], rel=REL_TOL), name


def test_batched_sweeps_match_sequential(super_family):
    dev = super_family.design("90nm").nfet
    vgs = np.linspace(-0.2, 1.2, 23)
    batched = DeviceSimulator(dev)
    sequential = SequentialDeviceSimulator(dev)
    assert batched.surface_potential_sweep(vgs) == pytest.approx(
        sequential.surface_potential_sweep(vgs), rel=REL_TOL, abs=1e-12)
    assert batched.inversion_charge_sweep(vgs, 0.3) == pytest.approx(
        sequential.inversion_charge_sweep(vgs, 0.3), rel=REL_TOL)


def test_batched_id_vd_matches_sequential(super_family):
    dev = super_family.design("90nm").nfet
    vds = np.linspace(0.0, 1.2, 13)
    batched = DeviceSimulator(dev).id_vd(0.9, vds)
    sequential = SequentialDeviceSimulator(dev).id_vd(0.9, vds)
    assert batched == pytest.approx(sequential, rel=REL_TOL)
