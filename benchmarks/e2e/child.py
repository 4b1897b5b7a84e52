"""Child process of the end-to-end benchmark: one measured round.

``run.py`` starts a fresh interpreter per round and times it from
outside, by when this process's output lines arrive.  Modes::

    python child.py round '<ops json>' [SPANS]  # run ops, one line per op
    python child.py import                      # set-up sample only
    python child.py serve SPANS SUMMARY         # traced 'repro serve --quick'

``round`` and ``import`` print ``{"ready": true}`` once ``repro`` is
imported; that line ends the set-up interval (the server prints its
own ready line).  A round then prints one JSON line per finished op
and a final ``{"done": true, ...}`` line with the ``repro.perf``
counters and, when traced, the per-layer summary.  The ops carry every
input the round needs; this process draws nothing at random.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import time
import traceback

import repro.experiments
from repro import perf


def _emit(payload: dict) -> None:
    print(json.dumps(payload), flush=True)


def _design(strategy: str, node: str):
    from repro.experiments.families import sub_vth_family, super_vth_family
    family = sub_vth_family() if strategy == "sub-vth" else super_vth_family()
    return family.design(node)


class _CurveLog:
    """Records the failure-rate curves an experiment computes, so the
    seeded yield point can be checked against the same round's
    ``ext_yield`` estimate without solving it twice."""

    def __init__(self) -> None:
        self.curves = []

    def install(self) -> None:
        module = sys.modules["repro.experiments.ext_yield"]
        inner = module.failure_rate_curve

        def logged(*args, **kwargs):
            curve = inner(*args, **kwargs)
            self.curves.append(curve)
            return curve

        module.failure_rate_curve = logged

    def ci_at(self, label: str, mode: str, vdd_v: float):
        for curve in self.curves:
            if curve.label == label and curve.mode == mode:
                for vdd, est in zip(curve.vdd_v, curve.estimates):
                    if math.isclose(float(vdd), vdd_v):
                        return [est.ci_lo, est.ci_hi]
        return None


def _experiment(op: dict) -> dict:
    result = repro.experiments.run_experiment(op["id"])
    return {"claims": len(result.comparisons),
            "held": sum(bool(c.holds) for c in result.comparisons),
            "digest": hashlib.sha256(result.render().encode()).hexdigest()}


def _yield_point(op: dict, curves: _CurveLog) -> dict:
    from repro.variability import failure_rate_curve
    design = _design(op["strategy"], op["node"])
    curve = failure_rate_curve(
        design.inverter, [op["vdd_v"]], label=f"{op['strategy']} {op['node']}",
        mode=op["mode"], method=op["method"], n_trials=op["n_trials"],
        seed=op["seed"], r_max_sigma=op["r_max_sigma"])
    est = curve.estimates[0]
    return {"p_fail": est.p_fail, "ci": [est.ci_lo, est.ci_hi],
            "ref_ci": curves.ci_at(curve.label, op["mode"], op["vdd_v"])}


def _write_study(op: dict) -> dict:
    import numpy as np
    from repro.circuit.sram import SramCell
    from repro.circuit.sram_array import min_write_pulse, write_trip_voltage
    design = _design(op["strategy"], op["node"])
    # The 6T sizing of 'repro array' and ext_array (2/1/1 um PD/PU/AX).
    cell = SramCell(pulldown=design.nfet.with_width_um(2.0),
                    pullup=design.pfet.with_width_um(1.0),
                    access=design.nfet.with_width_um(1.0), vdd=op["vdd_v"])
    shifts = np.array(op["dvth_n_v"])
    trip = write_trip_voltage(cell, op["rows"], dvth_n_v=shifts)
    pulse = min_write_pulse(cell, op["rows"], dvth_n_v=shifts)
    return {"dvth_n_v": op["dvth_n_v"], "trip_v": trip.tolist(),
            "pulse_s": pulse.tolist()}


def _round(ops: list[dict], spans_path: str | None) -> None:
    tracer = None
    if spans_path:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    curves = _CurveLog()
    curves.install()
    _emit({"ready": True})
    start = time.perf_counter()
    for op in ops:
        try:
            if op["kind"] == "experiment":
                out = _experiment(op)
            elif op["kind"] == "yield_point":
                out = _yield_point(op, curves)
            else:
                out = _write_study(op)
        except Exception as err:  # a failed op is counted, not fatal
            traceback.print_exc()
            out = {"error": f"{type(err).__name__}: {err}"}
        _emit({"op": op.get("id", op["kind"]), **out})
    wall_s = time.perf_counter() - start
    summary = tracer.summary(wall_s) if tracer else None
    _emit({"done": True, "perf": perf.snapshot(), "trace": summary})
    if tracer:
        tracer.write(spans_path)


def _serve(spans_path: str, summary_path: str) -> int:
    """``repro serve --quick`` with the tracer installed; the server
    prints its own ready line on stderr, so this mode prints none."""
    import repro.service
    from repro.cli import main
    from tracing import Tracer
    tracer = Tracer()
    tracer.install()
    start = time.perf_counter()
    code = main(["serve", "--quick"])
    summary = tracer.summary(time.perf_counter() - start)
    summary["perf"] = perf.snapshot()
    summary["handle_ms"] = tracer.handle_times_ms()
    with open(summary_path, "w") as out:
        json.dump(summary, out)
    tracer.write(spans_path)
    return code


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "import":
        _emit({"ready": True})
        return 0
    if mode == "round":
        _round(json.loads(argv[1]), argv[2] if len(argv) > 2 else None)
        return 0
    if mode == "serve":
        return _serve(argv[1], argv[2])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
