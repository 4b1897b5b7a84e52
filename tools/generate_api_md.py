"""Generate docs/API.md — a one-line-per-symbol index of the public API.

Walks the package, imports each module, and lists every public (non-
underscore) class and function with its docstring's summary (the first
paragraph, joined onto one line).
Run from the repository root:

    python tools/generate_api_md.py             # rewrite docs/API.md
    python tools/generate_api_md.py --check     # exit 2 if it is stale

CI runs the ``--check`` form so a new or renamed public symbol cannot
land without its API.md entry.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import pathlib
import pkgutil
import sys

import repro

HEADER = """# API index

Auto-generated by ``tools/generate_api_md.py``.  One line per public
symbol; see the module docstrings and DESIGN.md for the architecture.

## Performance & caching

The numerical hot paths are batched and cached at three layers:

- **Batched Poisson kernel.** `repro.tcad.solve_mos_poisson_batch`
  damped-Newton-iterates *all* gate biases of a sweep at once: the
  per-bias tridiagonal Jacobians are stacked into one block-diagonal
  banded system and factorised by a single LAPACK call per iteration,
  with a convergence mask retiring finished biases.
  `DeviceSimulator` sweeps through it; the warm-started scalar path
  is the correctness oracle in `tests/oracles/tcad.py` (see
  `tests/test_tcad_batch_equivalence.py`).
- **Batched circuit kernels.** `repro.circuit.solve_vtc_batch` solves
  the inverter current-balance equation for whole arrays of input
  voltages *and* (ΔV_th,n, ΔV_th,p) perturbation pairs by safeguarded
  Newton on the closed-form device kernel (`ids_with_partials`);
  `repro.circuit.noise_margins_batch` extracts every trial's
  gain = −1 noise margins with one Illinois root-solve per crossing
  inside its scan bracket (each gain read off the same kernel's
  partials at the solved point, one VTC solve per gain), and
  `repro.circuit.analytic_delay_batch` /
  `repro.circuit.chain_energy_sweep` vectorise the Eq. 4/7 paths.
  Every consumer (`noise_margins`, `butterfly_snm`, `Inverter.vtc`,
  `SramCell.read_vtc`, `find_vmin`) runs on these kernels; the scalar
  implementations are the correctness oracles in
  `tests/oracles/circuit.py` (see
  `tests/test_circuit_batch_equivalence.py`).
- **Batched design-space engine.** `repro.scaling.batch` replaces the
  per-(length, halo-ratio, polarity) scalar `brentq` loops of the
  scaling flows with one masked vectorised bracketing solve in
  log10(N_sub) over a `repro.device.batch.ParameterStack` (device
  physics evaluated along a parameter axis, no per-candidate `MOSFET`
  construction).  Every lane starts cold from the full doping bounds
  and nothing is remembered between solves, so a solved device is a
  pure function of its request, independent of run order.  The flows
  run independent problems in lock-step —
  every node of a family, every length of a Fig. 7/8 curve, every
  setting of an ablation, every calibration of `ext_sensitivity` —
  so each flow phase is one root-solve; a
  `repro.scaling.batch.DopingSolveRequest` carries the calibration it
  was made under, per lane.  `SuperVthOptimizer`,
  `SubVthOptimizer`, `optimize_doping_for_length`,
  `derive_flavours`, and the family builders run on it; the scalar
  `brentq` flows are the correctness oracles in
  `tests/oracles/scaling.py`
  (see `tests/test_scaling_batch_equivalence.py`).
- **Device construction memo.** `repro.device.nfet` / `pfet` memoise
  construction on the full parameter tuple (including the calibration
  constants, so `repro.scaling.sensitivity.calibration` overrides
  never see stale devices).  Disable with ``REPRO_DEVICE_CACHE=0``.
- **On-disk grid tensors.** The design-space service's precomputed
  metric grids (`repro grid build`) are persisted as ``.npz`` when
  ``REPRO_CACHE_DIR`` is set (or ``REPRO_CACHE=1`` for the default
  ``~/.cache/repro``).  Entries are keyed by a hash over the physics
  model sources (`repro.cache.model_schema_hash`), so any model change
  invalidates them automatically; `repro.cache.clear_disk_cache` wipes
  them by hand.

`python -m repro run` accepts ``--jobs N`` to fan experiments out over
a process pool and ``--profile`` to print the `repro.perf` counters
(Newton iterations, Poisson solves, brentq residual evaluations,
circuit batch-kernel work, scaling-engine solves, cache hits/misses)
after the run.
`tools/bench_record.py` records the kernel bench suite into
``BENCH_kernels.json`` (``--suite circuits`` / ``--suite flows``
record the circuit-layer and scaling-flow suites into
``BENCH_circuits.json`` / ``BENCH_flows.json``; ``--compare`` gates CI
on >2x mean regressions against the committed summary; ``--history``
appends a per-suite trajectory record to ``BENCH_history.jsonl``).

## Static invariants (`repro lint`)

`python -m repro lint` machine-checks the conventions the engines
above rely on, purely from the AST (nothing is imported).  The rule
catalogue (`repro.lint.rule_catalogue`):

| Rule   | Invariant |
| ------ | --------- |
| RPR001 | no float-literal `==`/`!=` — int sentinel `0` or `isclose` |
| RPR002 | no bare/broad `except` without re-raise in library code |
| RPR003 | no wall-clock/global-RNG nondeterminism hazards; only seeded `np.random.Generator`/`SeedSequence` flows |
| RPR005 | float params/fields in `device`/`tcad`/`circuit` carry SI-unit suffixes cross-checked against `repro.units` |
| RPR006 | perf-counter names come from `repro.perf.KNOWN_COUNTERS` (or a registered dynamic prefix) |
| RPR007 | every registered experiment is referenced by a `benchmarks/test_bench_*.py` module |
| RPR008 | no mutable default args; module-level mutable state in engine code is constant-style or justified |
| RPR009 | no hand-rolled masked root-solve loops outside `repro/numerics` — use the shared core |
| RPR010 | public `service`/`variability`/`circuit`/`device`/`tcad` docstrings declare every unit-suffixed parameter's bracketed unit (`[nm]`, `[a/um]`) |
| RPR011 | unit-dataflow: no mixed-unit arithmetic/comparisons, no rebinding or returning a value whose inferred unit conflicts with the name's suffix |
| RPR012 | unit-dataflow, cross-file: call-site argument units match the parameter's declared unit (suffix or docstring bracket) |

RPR011/RPR012 infer units on a dimension lattice seeded from the
RPR005 suffix vocabulary (`repro.lint.units_dataflow`); `repro lint
--explain RPR011 [FINGERPRINT|PATH[:LINE]]` prints the derivation
chain behind any finding.  Findings are suppressed inline with
``# repro: noqa[RPR00n] reason`` or grandfathered in
``lint-baseline.json`` (schema 2: every justification must cite a
reviewable artefact — file path, docstring, paper anchor, or test);
``repro lint --update-baseline`` rewrites the baseline, ``--format
json`` emits the machine-readable report CI archives and ``--format
sarif`` a SARIF 2.1.0 log for code-scanning upload.  Exit codes: 0
clean, 1 active findings or stale baseline entries, 2 usage errors.

"""


def first_line(obj) -> str:
    """The docstring's first paragraph, its line breaks joined by
    single spaces, or ``(undocumented)``."""
    doc = inspect.getdoc(obj) or ""
    lines = []
    for line in doc.splitlines():
        if not line.strip():
            break
        lines.append(line.strip())
    return " ".join(lines) if lines else "(undocumented)"


def module_entries(module) -> list[str]:
    lines = []
    for name, obj in sorted(vars(module).items()):
        if name.startswith("_"):
            continue
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        if getattr(obj, "__module__", "") != module.__name__:
            continue
        kind = "class" if inspect.isclass(obj) else "def"
        lines.append(f"- `{kind} {name}` — {first_line(obj)}")
    return lines


def build() -> str:
    """Render the full API.md text from the live package."""
    sections: list[str] = [HEADER]
    package_path = repro.__path__
    names = sorted(
        info.name for info in pkgutil.walk_packages(package_path, "repro.")
        if not info.name.rsplit(".", 1)[-1].startswith("_")
    )
    for name in names:
        module = importlib.import_module(name)
        entries = module_entries(module)
        if not entries:
            continue
        summary = first_line(module)
        sections.append(f"## `{name}`\n\n{summary}\n")
        sections.extend(entries)
        sections.append("")
    return "\n".join(sections)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--check", action="store_true",
                        help="don't write; exit 2 if docs/API.md is stale")
    args = parser.parse_args(argv)
    text = build()
    count = sum(1 for line in text.splitlines() if line.startswith("- `"))
    out = (pathlib.Path(__file__).resolve().parent.parent
           / "docs" / "API.md")
    if args.check:
        if not out.exists() or out.read_text() != text:
            print(f"stale: {out} does not match the live API "
                  f"({count} symbols); run python tools/generate_api_md.py "
                  f"and commit the result", file=sys.stderr)
            return 2
        print(f"{out} up to date ({count} symbols)")
        return 0
    out.write_text(text)
    print(f"wrote {out} ({count} symbols)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
