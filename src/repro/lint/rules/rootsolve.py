"""RPR009 — no hand-rolled masked root-solve loops outside the core.

Before PR 6 the library carried three independent copies of the same
masked-iteration idiom — ``while np.any(active): ... active &= ...`` —
in the device, circuit and scaling engines.  They agreed only
approximately: warm-start handling, counter semantics and termination
rules drifted per copy, and every fix had to be applied three times.
The shared core in :mod:`repro.numerics` is now the single sanctioned
implementation (gathered active set, compression counters); engine
code states its problem as a ``residual(x, idx)`` callback instead of
iterating masks by hand.

The rule flags ``while`` loops whose test consumes a mask derived from
a comparison in the same scope — ``while np.any(active)``,
``while active.any()``, or a bool-op containing either — anywhere
under ``src/repro`` except the :mod:`repro.numerics` package itself.
Genuinely novel iteration patterns belong in the core next to the
existing solvers (or carry an inline noqa naming why they cannot).
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..context import ModuleUnit, ProjectContext
from ..engine import Rule, register
from ..findings import Finding


def _contains_compare(node: ast.expr) -> bool:
    return any(isinstance(sub, ast.Compare) for sub in ast.walk(node))


def _mask_names_in_test(test: ast.expr) -> set[str]:
    """Names consumed as ``<ns>.any(NAME)`` / ``NAME.any()`` in a test."""
    names: set[str] = set()
    for node in ast.walk(test):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not isinstance(func, ast.Attribute) or func.attr != "any":
            continue
        first = node.args[0] if node.args else None
        if isinstance(first, ast.Name):
            names.add(first.id)                # np.any(mask)
        elif first is None and isinstance(func.value, ast.Name):
            names.add(func.value.id)           # mask.any()
    return names


def _comparison_assigned(scope: ast.AST) -> set[str]:
    """Names bound to comparison-bearing expressions within ``scope``."""
    names: set[str] = set()
    for node in ast.walk(scope):
        if isinstance(node, ast.Assign) and _contains_compare(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(node, ast.AugAssign):
            target = node.target
            if isinstance(target, ast.Name) and _contains_compare(node.value):
                names.add(target.id)
    return names


@register
class MaskedRootSolveLoopRule(Rule):
    rule_id = "RPR009"
    title = "hand-rolled masked iteration loop outside repro/numerics"
    rationale = ("PR 6: the device/circuit/scaling engines each carried "
                 "their own `while np.any(active)` bisection loop and "
                 "the copies drifted; masked iteration now lives once in "
                 "repro/numerics behind the residual(x, idx) contract")

    def check_module(self, module: ModuleUnit,
                     context: ProjectContext) -> Iterator[Finding]:
        if not module.package_rel or module.top_package == "numerics":
            return
        scopes: list[ast.AST] = [module.tree]
        scopes.extend(node for node in ast.walk(module.tree)
                      if isinstance(node, (ast.FunctionDef,
                                           ast.AsyncFunctionDef)))
        # Scopes nest (module ⊃ function ⊃ closure) and ast.walk sees
        # through them, so the same loop is visited once per enclosing
        # scope; report each site once.
        seen: set[tuple[int, int]] = set()
        for scope in scopes:
            mask_names = _comparison_assigned(scope)
            if not mask_names:
                continue
            for node in ast.walk(scope):
                if not isinstance(node, ast.While):
                    continue
                site = (node.lineno, node.col_offset)
                if site in seen:
                    continue
                if _mask_names_in_test(node.test) & mask_names:
                    seen.add(site)
                    yield self.finding(
                        module, node.lineno, node.col_offset,
                        "masked while-loop iterates a comparison-derived "
                        "mask by hand; state the problem as a "
                        "residual(x, idx) and call the shared solvers in "
                        "repro/numerics (bisect_masked / bisect_illinois "
                        "/ newton_safeguarded)")
