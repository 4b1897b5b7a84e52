"""RPR008 — no mutable defaults, no loose module-level mutable state.

Mutable default arguments alias across calls — in a library whose
optimisers are memoised and forked into worker processes, that is a
correctness bug waiting for its second caller.  Flagged everywhere
under ``src/repro``.

Module-level mutable containers in *engine* code (``device``,
``tcad``, ``circuit``, ``scaling``, ``materials``, ``variability``)
are flagged too: process-level state in the numerics lets a result
depend on what ran earlier in the process, so any such table must
either be spelled ALL_CAPS (a frozen constant table) or carry an
inline noqa naming its reset discipline.  The doping solver's
warm-start memo, which needed a reset at every flow entry, is the
case that motivated the rule; it has since been removed.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..context import ENGINE_PACKAGES, ModuleUnit, ProjectContext
from ..engine import Rule, register
from ..findings import Finding

#: Calls that construct a mutable container.
_MUTABLE_CALLS = {"list", "dict", "set", "bytearray", "deque",
                  "Counter", "OrderedDict", "defaultdict", "LRUMemo"}


def _is_mutable_literal(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        name = (func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute)
                else "")
        return name in _MUTABLE_CALLS
    return False


def _is_constant_style(name: str) -> bool:
    """ALL_CAPS (optionally underscore-prefixed) names are constants."""
    stripped = name.lstrip("_")
    return stripped.isupper() if stripped else False


@register
class MutableStateRule(Rule):
    rule_id = "RPR008"
    title = "mutable default argument / loose module-level mutable state"
    rationale = ("shared state in engine code lets a result depend on "
                 "what ran before it in the process, which silently "
                 "breaks `repro report --jobs N` byte-determinism (the "
                 "doping solver's warm-start memo needed a reset at "
                 "every flow entry until it was removed)")

    def check_module(self, module: ModuleUnit,
                     context: ProjectContext) -> Iterator[Finding]:
        if not module.package_rel:
            return
        yield from self._check_defaults(module)
        if module.top_package in ENGINE_PACKAGES:
            yield from self._check_module_state(module)

    def _check_defaults(self, module: ModuleUnit) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                continue
            defaults = [*node.args.defaults,
                        *(d for d in node.args.kw_defaults
                          if d is not None)]
            for default in defaults:
                if _is_mutable_literal(default):
                    yield self.finding(
                        module, default.lineno, default.col_offset,
                        f"mutable default argument in {node.name}(); "
                        f"default to None and create the container "
                        f"inside the function")

    def _check_module_state(self, module: ModuleUnit) -> Iterator[Finding]:
        for node in module.tree.body:
            target: ast.expr | None = None
            value: ast.expr | None = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign):
                target, value = node.target, node.value
            if (not isinstance(target, ast.Name) or value is None
                    or not _is_mutable_literal(value)):
                continue
            if _is_constant_style(target.id):
                continue
            if target.id.startswith("__") and target.id.endswith("__"):
                continue  # __all__ and friends are interpreter contracts

            yield self.finding(
                module, node.lineno, node.col_offset,
                f"module-level mutable state {target.id!r} in engine "
                f"code; make it an ALL_CAPS frozen table, or document "
                f"its reset discipline with an inline noqa")
