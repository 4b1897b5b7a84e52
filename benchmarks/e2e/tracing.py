"""Outside-in per-layer tracing for the end-to-end benchmark.

The program carries no spans of its own yet, so this module wraps the
public boundary function of each ``repro`` layer from outside.  Every
alias of a wrapped function found by identity across the loaded
``repro.*`` modules is rebound, so ``from x import f`` call sites are
caught too; methods are patched on their class.  Each call records one
span (layer, name, start, end, parent, request id) in memory; spans are
written out when the traced process ends.

A layer's self time is its spans' durations minus the time covered by
their child spans.  One limit follows from wrapping at the boundary:
residual callbacks that callers hand to ``numerics`` run inside the
root-solver's span, so the numerics self time includes them unless the
callback itself crosses another wrapped boundary.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

#: Layer -> boundary functions, as ``module:qualname``.  Order is the
#: call stack from the bottom (TCAD) to the top (service dispatch).
BOUNDARIES: dict[str, tuple[str, ...]] = {
    "tcad": (
        "repro.tcad.poisson1d:solve_mos_poisson",
        "repro.tcad.poisson1d:solve_mos_poisson_batch",
        "repro.tcad.simulator:DeviceSimulator.id_vg",
    ),
    "device": (
        "repro.device.mosfet:MOSFET.ids",
        "repro.device.iv:IVModel.ids",
        "repro.device.batch:ParameterStack.metrics",
        "repro.device.batch:BatchDeviceMetrics.ids",
        "repro.device.batch:device_metrics",
    ),
    "numerics": (
        "repro.numerics.rootsolve:bisect_masked",
        "repro.numerics.rootsolve:bisect_illinois",
        "repro.numerics.rootsolve:newton_safeguarded",
    ),
    "circuit": (
        "repro.circuit.batch:solve_vtc_batch",
        "repro.circuit.batch:noise_margins_batch",
        "repro.circuit.batch:gain_batch",
        "repro.circuit.batch:solve_balance_batch",
        "repro.circuit.delay:analytic_delay_batch",
        "repro.circuit.transient:propagation_delay",
        "repro.circuit.transient:switch_event",
        "repro.circuit.mna:NodalSolver.solve_dc",
        "repro.circuit.mna:NodalSolver.solve_transient",
    ),
    "circuit.mna_batch": (
        "repro.circuit.compile:compile_circuit",
        "repro.circuit.mna_batch:solve_dc_batch",
        "repro.circuit.mna_batch:solve_transient_batch",
    ),
    "scaling": (
        "repro.scaling.batch:solve_log_doping",
        "repro.scaling.batch:optimize_doping_groups",
        "repro.scaling.batch:optimize_super_vth_stack",
        "repro.scaling.subvth:build_sub_vth_family",
        "repro.scaling.supervth:build_super_vth_family",
    ),
    "variability": (
        "repro.variability.importance:find_failure_shift",
        "repro.variability.importance:estimate_failure_probability",
        "repro.variability.tails:failure_rate_curve",
    ),
    "service.server": (
        "repro.service.server:DesignSpaceService.handle",
    ),
    # The grid fill builds the surrogate's tensors, so it is charged to
    # the surrogate tier; its solves show up under their own layers.
    "service.surrogate": (
        "repro.service.surrogate:Surrogate.query",
        "repro.service.surrogate:fit_surrogate",
        "repro.service.grid:build_grid",
    ),
    "service.exact": (
        "repro.service.exact:exact_point",
        "repro.service.exact:exact_design",
        "repro.service.exact:corner_snm_vmin",
    ),
}

LAYERS: tuple[str, ...] = tuple(BOUNDARIES)

#: The layer whose wrapped call carries the request id of its spans.
_REQUEST_LAYER = "service.server"


class Tracer:
    """In-memory span recorder over the wrapped boundary functions.

    A span is ``[layer, name, start, end, parent, request]``: indices
    into :data:`LAYERS` and :attr:`names`, ``perf_counter`` seconds,
    the index of the enclosing span (-1 at the root) and the request
    id of the service query being answered (None outside the server).
    The traced code is single-threaded, so one stack tracks nesting.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._request = None

    def install(self) -> None:
        """Wrap every boundary function, in every loaded ``repro``
        module that holds it."""
        traced_for = {}  # id of an original function -> its wrapper
        for layer_idx, layer in enumerate(LAYERS):
            for target in BOUNDARIES[layer]:
                module_name, qualname = target.split(":")
                module = importlib.import_module(module_name)
                self.names.append(qualname)
                decorate = self._wrap(layer_idx, len(self.names) - 1,
                                      layer == _REQUEST_LAYER)
                owner_name, _dot, attr = qualname.rpartition(".")
                if owner_name:
                    owner = getattr(module, owner_name)
                    setattr(owner, attr, decorate(vars(owner)[attr]))
                else:
                    original = getattr(module, attr)
                    traced_for[id(original)] = decorate(original)
        for module_name, module in list(sys.modules.items()):
            if module_name == "repro" or module_name.startswith("repro."):
                for attr, value in list(vars(module).items()):
                    traced = traced_for.get(id(value))
                    if traced is not None:
                        setattr(module, attr, traced)

    def _wrap(self, layer_idx: int, name_idx: int, carries_request: bool):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def decorate(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                outer_request = self._request
                if (carries_request and len(args) > 1
                        and isinstance(args[1], dict)):
                    self._request = args[1].get("id")
                span = [layer_idx, name_idx, clock(), 0.0,
                        stack[-1] if stack else -1, self._request]
                stack.append(len(spans))
                spans.append(span)
                try:
                    return fn(*args, **kwargs)
                finally:
                    span[3] = clock()
                    stack.pop()
                    self._request = outer_request
            return traced
        return decorate

    def summary(self, wall_s: float) -> dict:
        """Per-layer calls and self time over a traced interval.

        ``wall_s`` is the interval's wall time; what no root span
        covers is reported as ``unattributed_s``, so the layer self
        times plus that remainder add up to ``wall_s``.
        """
        child_s = [0.0] * len(self.spans)
        covered = 0.0
        for _layer, _name, start, end, parent, _req in self.spans:
            if parent < 0:
                covered += end - start
            else:
                child_s[parent] += end - start
        calls = dict.fromkeys(LAYERS, 0)
        self_s = dict.fromkeys(LAYERS, 0.0)
        for span, inner in zip(self.spans, child_s):
            layer = LAYERS[span[0]]
            calls[layer] += 1
            self_s[layer] += span[3] - span[2] - inner
        return {"wall_s": wall_s, "unattributed_s": wall_s - covered,
                "calls": calls, "self_s": self_s}

    def handle_times_ms(self) -> dict[str, float]:
        """Server ``handle`` span duration [ms] per request id."""
        handle = LAYERS.index(_REQUEST_LAYER)
        return {str(span[5]): 1e3 * (span[3] - span[2])
                for span in self.spans
                if span[0] == handle and span[4] < 0 and span[5] is not None}

    def write(self, path) -> None:
        """Write the spans as JSON lines (one span per line)."""
        with open(path, "w") as out:
            for layer_idx, name_idx, start, end, parent, req in self.spans:
                out.write(json.dumps([LAYERS[layer_idx], self.names[name_idx],
                                      start, end, parent, req]) + "\n")
