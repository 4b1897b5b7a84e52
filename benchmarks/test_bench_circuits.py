"""Benches: the vectorised circuit-evaluation layer.

Batched VTC/SNM extraction (one inverter, and a stack of designs), the
tail-heavy DVS supply solve and the skewed-corner device stack, each
paired with its sequential counterpart (the scalar oracles of
``tests/oracles/circuit.py`` or a per-design loop) so
``BENCH_circuits.json`` records the before/after of the vectorisation.
"""

import numpy as np
from conftest import run_once

from repro import perf
from repro.circuit import (Inverter, butterfly_snm, find_vmin, noise_margins,
                           noise_margins_batch)
from repro.circuit.chain import InverterChain
from repro.circuit.dvs import (chain_rate_hz, vdd_for_throughput,
                               vdd_for_throughput_batch)
from repro.device import nfet, pfet
from repro.device.corners import Corner, at_corner, corner_grid
from repro.experiments.families import SUB_VTH_SUPPLY, super_vth_family
from tests.oracles import circuit as oracle


def _build_inverter(vdd=0.25):
    return Inverter(
        nfet=nfet(l_poly_nm=65, t_ox_nm=2.1, n_sub_cm3=1.2e18,
                  n_p_halo_cm3=1.5e18),
        pfet=pfet(l_poly_nm=65, t_ox_nm=2.1, n_sub_cm3=1.2e18,
                  n_p_halo_cm3=1.5e18, width_um=2.0),
        vdd=vdd,
    )


def test_bench_vtc_batch(benchmark):
    inv = _build_inverter()
    vins, vouts = run_once(benchmark, inv.vtc, 121)
    assert vouts[0] > vouts[-1]


def test_bench_vtc_sequential(benchmark):
    inv = _build_inverter()
    vins, vouts = run_once(benchmark, oracle.vtc, inv, 121)
    assert vouts[0] > vouts[-1]


def test_bench_snm_batch(benchmark):
    inv = _build_inverter()
    nm = run_once(benchmark, noise_margins, inv)
    assert nm.snm > 0.0


def test_bench_snm_sequential(benchmark):
    inv = _build_inverter()
    nm = run_once(benchmark, oracle.noise_margins, inv)
    assert nm.snm > 0.0


# -- stacked SNM extraction --------------------------------------------------
#
# fig4's eight inverters (the four super-V_th designs at nominal V_dd and
# at 250 mV) in one stacked extraction, against the per-design loop it
# replaced; every lane is bitwise the loop's.


def _fig4_inverters():
    designs = super_vth_family().designs
    return ([d.inverter(d.node.vdd_nominal) for d in designs]
            + [d.inverter(SUB_VTH_SUPPLY) for d in designs])


def test_bench_snm_stacked_designs(benchmark):
    inverters = _fig4_inverters()
    margins = run_once(benchmark, noise_margins_batch, inverters)
    assert not margins.lost.any()


def test_bench_snm_per_design_loop(benchmark):
    inverters = _fig4_inverters()

    def loop():
        return [noise_margins(inv).snm for inv in inverters]

    snm = run_once(benchmark, loop)
    assert np.array_equal(noise_margins_batch(inverters).snm, snm)


# -- tail-heavy DVS supply solve --------------------------------------------
#
# A skewed throughput grid: most lanes are already met at the bottom of
# the supply range and retire before the first sweep, while a geometric
# tail climbs towards the chain's maximum rate and bisects to full
# depth.  The gathered solver only ever evaluates the live tail; the
# paired sequential oracle records the before/after, and the batched
# result is bitwise-identical to the scalar one (both walk the same
# bracket sequence and return its hi end).


def _dvs_chain():
    return InverterChain(_build_inverter(vdd=0.3))


def _tail_targets(chain):
    f_lo = chain_rate_hz(chain, 0.10)
    f_hi = chain_rate_hz(chain, 1.2)
    return np.concatenate([
        np.full(96, 0.5 * f_lo),
        f_lo * np.geomspace(1.5, 0.9 * f_hi / f_lo, 32),
    ])


def test_bench_dvs_tail_batch(benchmark):
    chain = _dvs_chain()
    targets = _tail_targets(chain)
    before = perf.snapshot()
    vdds = run_once(benchmark, vdd_for_throughput_batch, chain, targets)
    assert vdds.shape == targets.shape
    moved = perf.delta(before)
    total = moved.get("numerics.total_lanes", 0)
    assert total > 0
    benchmark.extra_info["active_lane_fraction"] = round(
        moved.get("numerics.active_lanes", 0) / total, 4)


def test_bench_dvs_tail_sequential(benchmark):
    chain = _dvs_chain()
    targets = _tail_targets(chain)

    def sweep():
        return np.array([vdd_for_throughput(chain, float(f))
                         for f in targets])

    seq = run_once(benchmark, sweep)
    batch = vdd_for_throughput_batch(chain, targets)
    assert np.array_equal(batch, seq)
    benchmark.extra_info["max_abs_diff_vs_batch"] = float(
        np.max(np.abs(batch - seq)))


# -- skewed-corner device stack ---------------------------------------------
#
# One ParameterStack metrics pass over a gate-length sweep crossed with
# the FF/TT/SS corner set, against the per-device ``at_corner`` loop it
# replaced in the corner experiments.

CORNER_LENGTHS_NM = np.linspace(38.0, 60.0, 12)
ALL_CORNERS = (Corner.FF, Corner.TT, Corner.SS)


def _corner_devices():
    return [nfet(l_poly_nm=float(l), t_ox_nm=1.7, n_sub_cm3=2.4e18,
                 n_p_halo_cm3=1.4e18) for l in CORNER_LENGTHS_NM]


def test_bench_corner_stack_batch(benchmark):
    devices = _corner_devices()

    def sweep():
        return corner_grid(devices, ALL_CORNERS).i_on_per_um(0.25)

    ion = run_once(benchmark, sweep)
    assert ion.shape == (len(devices) * len(ALL_CORNERS),)


def test_bench_corner_stack_sequential(benchmark):
    devices = _corner_devices()

    def sweep():
        return np.array([at_corner(d, c).i_on_per_um(0.25)
                         for d in devices for c in ALL_CORNERS])

    seq = run_once(benchmark, sweep)
    batch = corner_grid(devices, ALL_CORNERS).i_on_per_um(0.25)
    rel = float(np.max(np.abs(batch / seq - 1.0)))
    assert rel <= 1e-9
    benchmark.extra_info["max_rel_diff_vs_batch"] = rel


def test_bench_butterfly_batch(benchmark):
    inv = _build_inverter()
    vtc = inv.vtc(161)
    snm = run_once(benchmark, butterfly_snm, vtc)
    assert snm > 0.0


def test_bench_vmin_batch(benchmark):
    inv = _build_inverter(vdd=0.3)
    result = run_once(benchmark, find_vmin, inv)
    assert 0.08 < result.vmin < 0.7
