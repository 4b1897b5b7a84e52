"""RPR005 — SI-unit suffix convention in the physics packages.

The device/TCAD/circuit layers pass raw floats around; the *name* is
the only place the unit lives (``c_load_f``, ``l_poly_nm``,
``ss_v_per_dec``, ``n_sub_cm3``).  A dimensioned parameter without a
unit suffix invites the classic cm-vs-um slip the paper's own Eq. 3
calibration is sensitive to.

The rule checks float-annotated parameters and dataclass fields of
public callables/classes in ``repro.device`` / ``repro.tcad`` /
``repro.circuit``:

* the name must end in a unit suffix validated against
  :mod:`repro.units` (SI prefix x base unit, or an ``X_per_Y``
  compound), or
* be a recognised dimensionless quantity: a canonical terminal
  voltage (``vdd``, ``vgs``, ... — volts by repo-wide convention), a
  model coefficient (``k_*``, ``n_*``), a ``*_factor`` / ``*_ratio`` /
  ``*_fraction`` / ``rel_*`` name, or a solver knob (``xtol`` ...).

Functions whose own name carries a unit suffix must also annotate a
float-typed return — a unit-suffixed name returning a non-float is a
contract violation.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from ..context import (ModuleUnit, ProjectContext, UNIT_SUFFIX_PACKAGES,
                       VOLTAGE_NAME_RE, is_unit_suffixed)
from ..engine import Rule, register
from ..findings import Finding

#: Shared with the RPR011/RPR012 dataflow seeds — see context.py.
_VOLTAGE_RE = VOLTAGE_NAME_RE

#: Bare names that are genuinely dimensionless or solver plumbing.
#: ``margin`` is dimensionless at its call site (a current ratio in
#: sram); ``m`` is the paper's body-effect/slope coefficient.
DIMENSIONLESS = frozenset({
    "activity", "fanout", "fanin", "gain", "xtol", "rtol", "atol", "tol",
    "alpha", "beta", "gamma", "eta", "weight", "q", "u",
    "margin", "prefactor", "duty_cycle", "decade_low", "decade_high",
})

#: Name shapes that are dimensionless by construction.
_DIMENSIONLESS_RE = re.compile(
    r"(?:^(?:k|n|num|m)_)"                  # coefficients and counts
    r"|(?:^m$)"                             # slope factor m
    r"|(?:^(?:rel|normalized)_)"            # relative / normalised
    r"|(?:(?:^|_)(?:factor|ratio|fraction|pct|exponent|sigmas|effort"
    r"|efforts|sizes|taus)$)"
)


def _is_float_annotation(node: ast.expr | None) -> bool:
    """True for ``float`` and optional/union spellings containing it."""
    if node is None:
        return False
    if isinstance(node, ast.Name):
        return node.id == "float"
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return "float" in node.value
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return (_is_float_annotation(node.left)
                or _is_float_annotation(node.right))
    if isinstance(node, ast.Subscript):
        # Only optional/union wrappers count; dict[str, float] or
        # Callable[[float], float] are not "a float parameter".
        if (isinstance(node.value, ast.Name)
                and node.value.id in ("Optional", "Union")):
            return any(_is_float_annotation(child)
                       for child in ast.walk(node.slice)
                       if isinstance(child, (ast.Name, ast.BinOp)))
    return False


def name_is_compliant(name: str) -> bool:
    """Whether a float-valued identifier satisfies the convention."""
    lowered = name.lower()
    if is_unit_suffixed(lowered):
        return True
    if lowered in DIMENSIONLESS or _VOLTAGE_RE.match(lowered):
        return True
    return _DIMENSIONLESS_RE.search(lowered) is not None


@register
class UnitSuffixRule(Rule):
    rule_id = "RPR005"
    title = "float parameter/field without SI-unit suffix"
    rationale = ("repo-wide convention since PR 0: units live in the "
                 "identifier (cross-checked against repro.units), so a "
                 "cm-vs-um slip is visible at the call site")

    def check_module(self, module: ModuleUnit,
                     context: ProjectContext) -> Iterator[Finding]:
        if module.top_package not in UNIT_SUFFIX_PACKAGES:
            return
        # Only module-level callables and classes form the public
        # surface; nested closures (integrator right-hand sides, local
        # residual lambdas) name their variables after the maths.
        for node in module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.startswith("_"):
                    continue
                yield from self._check_signature(module, node)
            elif isinstance(node, ast.ClassDef):
                if node.name.startswith("_"):
                    continue
                yield from self._check_fields(module, node)
                for stmt in node.body:
                    if (isinstance(stmt, (ast.FunctionDef,
                                          ast.AsyncFunctionDef))
                            and not stmt.name.startswith("_")):
                        yield from self._check_signature(module, stmt)

    def _check_signature(self, module: ModuleUnit,
                         func: ast.FunctionDef | ast.AsyncFunctionDef
                         ) -> Iterator[Finding]:
        args = func.args
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            if arg.arg in ("self", "cls") or arg.arg.startswith("_"):
                continue
            if not _is_float_annotation(arg.annotation):
                continue
            if name_is_compliant(arg.arg):
                continue
            yield self.finding(
                module, arg.lineno, arg.col_offset,
                f"float parameter {arg.arg!r} of {func.name}() has no "
                f"recognised unit suffix (e.g. _v, _nm, _a_per_um) and "
                f"is not a known dimensionless name")
        if (is_unit_suffixed(func.name.lower())
                and not func.name.startswith(("from_", "with_"))
                and func.returns is not None
                and not _is_float_annotation(func.returns)
                and "ndarray" not in ast.unparse(func.returns)):
            # from_*/with_* are alternate constructors named after their
            # *input* unit; ndarray returns are unit-suffixed element-wise.
            yield self.finding(
                module, func.lineno, func.col_offset,
                f"{func.name}() carries a unit suffix but is not "
                f"annotated to return a float")

    def _check_fields(self, module: ModuleUnit,
                      cls: ast.ClassDef) -> Iterator[Finding]:
        for stmt in cls.body:
            if not isinstance(stmt, ast.AnnAssign):
                continue
            if not isinstance(stmt.target, ast.Name):
                continue
            name = stmt.target.id
            if name.startswith("_"):
                continue
            if not _is_float_annotation(stmt.annotation):
                continue
            if name_is_compliant(name):
                continue
            yield self.finding(
                module, stmt.lineno, stmt.col_offset,
                f"float field {name!r} of {cls.name} has no recognised "
                f"unit suffix (e.g. _v, _nm, _a_per_um) and is not a "
                f"known dimensionless name")
