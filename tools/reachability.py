"""Fail when a module under ``src/repro`` runs no function.

Runs every entry point that computes, in this one process, under
``sys.settrace`` and ``threading.settrace``, recording call events
only:

* ``repro run all`` and ``repro report --check``;
* ``repro yield`` in delay and SNM modes;
* ``repro array --study all``;
* ``repro cards`` for both strategies and ``repro save-family``;
* ``repro lint``;
* ``repro grid build --quick``, into a scratch ``REPRO_CACHE_DIR``;
* ``DesignSpaceService.handle`` — the call both ``repro serve``
  transports make — on that quick grid, with ``service_smoke.QUERIES``
  plus ``info``, an off-grid exact ``metrics``, a ``flavour_menu`` and
  an unknown query.

Every entry point must exit 0 and every query must get the answer
listed here: a command that errors early reaches less code, and that
would hide a dead module.

A module counts as reached when one of its ``def`` functions ran.
Module and class bodies (code objects without ``CO_OPTIMIZED``) and
the anonymous code objects (``<lambda>``, ``<genexpr>``,
``<listcomp>``) do not count: they run on import, so counting them
would call every imported module reached.  ``__init__.py``,
``__main__.py`` and modules that define no function are not checked.

Exit status 1 on an unreached module that ``ALLOWED`` does not name,
on an ``ALLOWED`` entry whose module ran or no longer exists, or on an
entry point that failed.  The public functions that never ran inside
reached modules are printed too, largest first; that list is
information, not a gate.

Run from the repository root (~20 s)::

    PYTHONPATH=src python tools/reachability.py
"""

from __future__ import annotations

import ast
import contextlib
import inspect
import io
import os
import pathlib
import sys
import tempfile
import threading
import time
from unittest import mock

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = REPO_ROOT / "src" / "repro"

#: Modules allowed to run no function, each with its reason (paths
#: relative to ``src/repro``).
ALLOWED: dict[str, str] = {
    "circuit/mna.py": "the scalar NodalSolver, reached only by "
                      "tests/oracles/mna.py, "
                      "examples/netlist_simulation.py and the e2e "
                      "tracer's by-name wrap in "
                      "benchmarks/e2e/tracing.py",
    "errors.py": "its exception methods run only when an error is "
                 "raised",
    "units.py": "SI_PREFIXES is read by 'repro lint'; the parse/format "
                "helpers serve the examples",
}

_SKIPPED_NAMES = ("__init__.py", "__main__.py")


def counts(code) -> bool:
    """Whether a code object is the body of a ``def`` function."""
    return (bool(code.co_flags & inspect.CO_OPTIMIZED)
            and not code.co_name.startswith("<"))


class CallRecorder:
    """Records the code object of every Python call while installed.

    The global trace function returns ``None``, so no frame is traced
    line by line: only call events cost anything.
    """

    def __init__(self) -> None:
        self.codes: set = set()
        self._saved: tuple = (None, None)

    def _on_call(self, frame, event, arg):
        if event == "call":
            self.codes.add(frame.f_code)

    def __enter__(self) -> "CallRecorder":
        self._saved = (sys.gettrace(), threading.gettrace())
        threading.settrace(self._on_call)
        sys.settrace(self._on_call)
        return self

    def __exit__(self, *exc) -> None:
        sys.settrace(self._saved[0])
        threading.settrace(self._saved[1])


def _defines_function(path: pathlib.Path) -> bool:
    tree = ast.parse(path.read_text(), filename=str(path))
    return any(isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               for node in ast.walk(tree))


def function_modules(package: pathlib.Path = PACKAGE
                     ) -> dict[str, pathlib.Path]:
    """``{path relative to package: resolved path}`` of every checked
    module: each ``.py`` file that defines a function, other than
    ``__init__.py`` and ``__main__.py``."""
    return {path.relative_to(package).as_posix(): path.resolve()
            for path in sorted(package.rglob("*.py"))
            if path.name not in _SKIPPED_NAMES and _defines_function(path)}


def ran_files(codes) -> set[pathlib.Path]:
    """Resolved paths of the files whose ``def`` functions ran."""
    names = {code.co_filename for code in codes if counts(code)}
    return {pathlib.Path(name).resolve() for name in names
            if not name.startswith("<")}


def classify(codes, modules: dict[str, pathlib.Path],
             allowed: dict[str, str]) -> tuple[list[str], list[str]]:
    """``(unreached, stale)``: the modules whose functions never ran and
    that ``allowed`` does not name, and the ``allowed`` entries whose
    module ran or is not among ``modules``."""
    ran = ran_files(codes)
    unreached = sorted(rel for rel, path in modules.items()
                       if path not in ran and rel not in allowed)
    stale = sorted(rel for rel in allowed
                   if rel not in modules or modules[rel] in ran)
    return unreached, stale


def _public_defs(path: pathlib.Path):
    """``(first line, line count, qualified name)`` of each public
    function and method of a module (decorators count as its lines,
    as they do in ``co_firstlineno``)."""
    found = []

    def visit(body, prefix: str) -> None:
        for node in body:
            if getattr(node, "name", "_").startswith("_"):
                continue
            if isinstance(node, ast.ClassDef):
                visit(node.body, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno] + [d.lineno
                                             for d in node.decorator_list])
                found.append((first, node.end_lineno - first + 1,
                              prefix + node.name))

    visit(ast.parse(path.read_text(), filename=str(path)).body, "")
    return found


def unran_public_functions(codes, modules: dict[str, pathlib.Path]
                           ) -> list[tuple[int, str]]:
    """``(lines, "module:qualname")`` of every public function that
    never ran inside a reached module, largest first."""
    ran = {(pathlib.Path(code.co_filename).resolve(), code.co_firstlineno)
           for code in codes
           if counts(code) and not code.co_filename.startswith("<")}
    reached = {path for path, _line in ran}
    missing = [(lines, f"{rel}:{name}")
               for rel, path in modules.items() if path in reached
               for first, lines, name in _public_defs(path)
               if (path, first) not in ran]
    return sorted(missing, key=lambda item: (-item[0], item[1]))


def _outcome(response: dict) -> str:
    """An answer as one word: its error code, or where it came from."""
    if not response.get("ok"):
        return str(response.get("error"))
    return response.get("provenance", {}).get("source", "ok")


def service_queries() -> list[tuple[dict, str]]:
    """``(request, expected outcome)`` for every query type."""
    sys.path.insert(0, str(REPO_ROOT / "tools"))
    try:
        from service_smoke import QUERIES
    finally:
        sys.path.pop(0)
    # The smoke queries' in-hull point; its x10 and x0.1 flavours
    # leave the quick grid's target axis, so the menu is "mixed".
    point = {key: QUERIES[0][key] for key in
             ("node", "l_poly_nm", "ioff_target_a_per_um", "vdd_v")}
    return [
        (QUERIES[0], "surrogate"),
        (QUERIES[1], "exact"),
        (QUERIES[2], "unknown_metric"),
        ({"query": "info"}, "ok"),
        ({"query": "metrics", **point, "vdd_v": 0.45}, "exact"),
        ({"query": "flavour_menu", **point}, "mixed"),
        ({"query": "exact_design", **point}, "unknown_query"),
    ]


def trace_entry_points(scratch: pathlib.Path) -> tuple[set, list[str]]:
    """Run every entry point under a :class:`CallRecorder`; returns the
    recorded code objects and the failures."""
    root = str(REPO_ROOT)
    commands = [
        ["run", "all"],
        ["report", "--check", "--root", root],
        ["yield", "--vdd", "0.25", "--trials", "512"],
        ["yield", "--mode", "snm", "--strategy", "super-vth",
         "--vdd", "0.115", "--trials", "256"],
        ["array", "--study", "all"],
        ["cards", "super-vth"],
        ["cards", "sub-vth"],
        ["save-family", "sub-vth", str(scratch / "family.json")],
        ["lint", "--root", root],
        ["grid", "build", "--quick"],
    ]
    failures = []
    cache = {"REPRO_CACHE_DIR": str(scratch / "cache")}
    with mock.patch.dict(os.environ, cache), CallRecorder() as recorder:
        from repro.cli import main
        for argv in commands:
            sink = io.StringIO()
            with (contextlib.redirect_stdout(sink),
                  contextlib.redirect_stderr(sink)):
                code = main(argv)
            if code != 0:
                failures.append(f"'repro {' '.join(argv)}' exited "
                                f"{code}:\n{sink.getvalue()[-2000:]}")
        from repro.service import (DesignSpaceService, GridSpec,
                                   fit_surrogate, load_grid)
        grid = load_grid(GridSpec.quick())
        service = DesignSpaceService(
            None if grid is None else fit_surrogate(grid))
        for request, expected in service_queries():
            response = service.handle(request)
            if _outcome(response) != expected:
                failures.append(f"query {request} answered {response}, "
                                f"expected {expected}")
    return recorder.codes, failures


def main() -> int:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="repro-reach-") as scratch:
        codes, failures = trace_entry_points(pathlib.Path(scratch))
    elapsed = time.perf_counter() - start
    modules = function_modules()
    unreached, stale = classify(codes, modules, ALLOWED)
    reached = ran_files(codes) & set(modules.values())
    print(f"traced the entry points in {elapsed:.1f} s: {len(reached)} "
          f"of {len(modules)} function-bearing modules under src/repro "
          f"ran a function")
    missing = unran_public_functions(codes, modules)
    print(f"public functions that never ran in reached modules "
          f"({len(missing)}, largest first):")
    for lines, name in missing:
        print(f"  {lines:5d}  {name}")
    for rel in unreached:
        print(f"unreached module: src/repro/{rel}")
    for rel in stale:
        state = "ran" if rel in modules else "no longer exists"
        print(f"stale allow-list entry: src/repro/{rel} ({state})")
    for failure in failures:
        print(f"entry point failed: {failure}")
    return 1 if unreached or stale or failures else 0


if __name__ == "__main__":
    sys.exit(main())
