"""RPR003 — no nondeterminism hazards in library code.

``repro report --jobs N`` must be byte-deterministic, and Monte
Carlo results must be a pure function of their ``seed`` argument.  Wall-clock reads and global RNG state break both.

Flagged: ``time.time`` / ``time.time_ns``, ``datetime.now`` /
``datetime.utcnow``, the ``random`` stdlib module, ``os.urandom``,
``uuid.uuid1``/``uuid4``, ``secrets``, and the *global* legacy
``np.random.*`` API (``np.random.seed``, ``np.random.normal``, ...).

Allowed: the explicitly seeded generator flow —
``np.random.SeedSequence`` / ``default_rng`` / ``Generator`` and the
bit generators — plus monotonic timing (``time.perf_counter``) which
measures duration without entering any result.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..context import ModuleUnit, ProjectContext
from ..engine import Rule, register
from ..findings import Finding

#: np.random attributes that are part of the seeded-Generator flow.
_NP_RANDOM_ALLOWED = {
    "Generator", "SeedSequence", "default_rng", "BitGenerator",
    "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937",
}

#: (module, attribute) pairs that read wall clocks or entropy pools.
_BANNED_ATTRS = {
    ("time", "time"), ("time", "time_ns"),
    ("datetime", "now"), ("datetime", "utcnow"), ("datetime", "today"),
    ("os", "urandom"),
    ("uuid", "uuid1"), ("uuid", "uuid4"),
}

#: Whole modules whose use is a hazard in library code.
_BANNED_MODULES = {"random", "secrets"}


@register
class NondeterminismRule(Rule):
    rule_id = "RPR003"
    title = "nondeterminism hazard (wall clock / global RNG)"
    rationale = ("PR 4: byte-deterministic `repro report --jobs N` "
                 "requires results independent of run order, wall "
                 "clock, and hidden RNG state; only seeded "
                 "numpy.random.Generator/SeedSequence flows are allowed")

    def check_module(self, module: ModuleUnit,
                     context: ProjectContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Attribute):
                yield from self._check_attribute(module, node)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                yield from self._check_import(module, node)

    def _check_attribute(self, module: ModuleUnit,
                         node: ast.Attribute) -> Iterator[Finding]:
        # np.random.<attr> / numpy.random.<attr> outside the allowed set.
        value = node.value
        if (isinstance(value, ast.Attribute) and value.attr == "random"
                and isinstance(value.value, ast.Name)
                and value.value.id in ("np", "numpy")):
            if node.attr not in _NP_RANDOM_ALLOWED:
                yield self.finding(
                    module, node.lineno, node.col_offset,
                    f"legacy global-RNG call np.random.{node.attr}; use "
                    f"a seeded np.random.Generator "
                    f"(default_rng/SeedSequence)")
            return
        if isinstance(value, ast.Name):
            if (value.id, node.attr) in _BANNED_ATTRS:
                yield self.finding(
                    module, node.lineno, node.col_offset,
                    f"{value.id}.{node.attr} is wall-clock/entropy "
                    f"nondeterminism; library results must be pure "
                    f"functions of their inputs (time.perf_counter is "
                    f"fine for durations)")
            elif value.id in _BANNED_MODULES:
                yield self.finding(
                    module, node.lineno, node.col_offset,
                    f"stdlib {value.id}.{node.attr} uses hidden global "
                    f"RNG state; use a seeded np.random.Generator")

    def _check_import(self, module: ModuleUnit,
                      node: ast.Import | ast.ImportFrom) -> Iterator[Finding]:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in _BANNED_MODULES:
                    yield self.finding(
                        module, node.lineno, node.col_offset,
                        f"import of stdlib {alias.name!r} (hidden global "
                        f"RNG state); use seeded np.random.Generator "
                        f"flows instead")
        elif node.module in _BANNED_MODULES:
            yield self.finding(
                module, node.lineno, node.col_offset,
                f"import from stdlib {node.module!r} (hidden global RNG "
                f"state); use seeded np.random.Generator flows instead")
