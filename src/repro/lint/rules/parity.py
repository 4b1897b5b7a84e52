"""RPR007 — benchmark coverage contract.

Every id registered with ``@experiment(...)`` must be referenced by a
``benchmarks/test_bench_*.py`` module (the bench suites double as the
perf-regression gate), or carry an explicit waiver in
:data:`BENCH_WAIVERS` naming the reason.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..context import ModuleUnit, ProjectContext
from ..engine import Rule, register
from ..findings import Finding

#: Experiment ids exempt from benchmark coverage, with the reason.
#: Additions need the same review a baseline entry gets.
BENCH_WAIVERS: dict[str, str] = {}


def _iter_functions(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


@register
class BenchCoverageRule(Rule):
    rule_id = "RPR007"
    title = "experiment without benchmark coverage"
    rationale = ("PRs 1, 3, 4: the bench suites are the perf-regression "
                 "gate; an experiment outside them can silently regress "
                 "the flows the paper's tables time")

    def check_module(self, module: ModuleUnit,
                     context: ProjectContext) -> Iterator[Finding]:
        if module.top_package != "experiments":
            return
        for func in _iter_functions(module.tree):
            for deco in func.decorator_list:
                if not (isinstance(deco, ast.Call)
                        and isinstance(deco.func, ast.Name)
                        and deco.func.id == "experiment"
                        and deco.args
                        and isinstance(deco.args[0], ast.Constant)
                        and isinstance(deco.args[0].value, str)):
                    continue
                experiment_id = deco.args[0].value
                if experiment_id in BENCH_WAIVERS:
                    continue
                if experiment_id in context.benchmark_string_literals:
                    continue
                yield self.finding(
                    module, deco.lineno, deco.col_offset,
                    f"experiment {experiment_id!r} is not referenced by "
                    f"any benchmarks/test_bench_*.py module; add a bench "
                    f"or a BENCH_WAIVERS entry with a reason")
