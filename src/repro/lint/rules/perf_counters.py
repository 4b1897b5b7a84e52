"""RPR006 — perf-counter names must come from the documented registry.

:mod:`repro.perf` documents every counter the ``--profile`` flag and
the provenance footers can render.  A ``perf.bump("tyop.name")`` would
silently create a new counter nobody reports on; this rule pins every
name passed to ``perf.bump`` / ``perf.get`` to
:data:`repro.perf.KNOWN_COUNTERS` (parsed statically out of perf.py,
so the registry, its docstring, and the check cannot drift apart).

Dynamically built names (f-strings, ``"prefix" + tail``) are allowed
only when their literal head matches one of the registered
:data:`repro.perf.DYNAMIC_COUNTER_PREFIXES` families (``cache.*``); a
fully dynamic name needs an inline noqa with its reason.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..context import ModuleUnit, ProjectContext
from ..engine import Rule, register
from ..findings import Finding


def _is_perf_call(node: ast.Call) -> bool:
    func = node.func
    return (isinstance(func, ast.Attribute)
            and func.attr in ("bump", "get")
            and isinstance(func.value, ast.Name)
            and func.value.id == "perf")


def _literal_head(node: ast.expr) -> str | None:
    """Leading literal text of a counter-name expression, if any."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr) and node.values:
        first = node.values[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            return first.value
        return None
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return _literal_head(node.left)
    return None


@register
class PerfCounterRegistryRule(Rule):
    rule_id = "RPR006"
    title = "perf counter name outside the documented registry"
    rationale = ("PRs 1-4 wired the counters into --profile and the "
                 "docs/RESULTS.md provenance footers; an unregistered "
                 "name is invisible to both and usually a typo")

    def check_module(self, module: ModuleUnit,
                     context: ProjectContext) -> Iterator[Finding]:
        if module.package_rel in ("perf", "lint") \
                or module.top_package == "lint":
            return
        known, prefixes = context.perf_registry
        for node in ast.walk(module.tree):
            if not (isinstance(node, ast.Call) and _is_perf_call(node)
                    and node.args):
                continue
            name_node = node.args[0]
            if (isinstance(name_node, ast.Constant)
                    and isinstance(name_node.value, str)):
                if name_node.value not in known:
                    yield self.finding(
                        module, name_node.lineno, name_node.col_offset,
                        f"perf counter {name_node.value!r} is not in "
                        f"repro.perf.KNOWN_COUNTERS; register and "
                        f"document it there")
                continue
            head = _literal_head(name_node)
            if head is not None and any(
                    head.startswith(p) or p.startswith(head)
                    for p in prefixes):
                continue
            yield self.finding(
                module, name_node.lineno, name_node.col_offset,
                "dynamically built perf counter name does not start "
                "with a registered DYNAMIC_COUNTER_PREFIXES family; "
                "use a literal registered name or a known prefix")
