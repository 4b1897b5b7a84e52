"""Repository-level context shared by all lint rules.

Per-file AST visitors can enforce purely local invariants, but some of
this repo's conventions are *cross-file*: a perf-counter name is only
valid if :data:`repro.perf.KNOWN_COUNTERS` documents it, an experiment
id is only covered if a benchmark references it.
:class:`ProjectContext` computes those repo-level facts once (lazily)
and hands them to every rule.

Everything is derived *statically* from the working tree — the context
never imports the modules it checks, so the linter cannot be fooled by
import-time side effects and runs on code that does not import.
"""

from __future__ import annotations

import ast
import functools
import pathlib
import re

from ..units import SI_PREFIXES

#: Sub-packages whose numerics are "engine code" for RPR008 purposes.
ENGINE_PACKAGES = ("device", "tcad", "circuit", "scaling", "materials",
                  "variability")

#: Sub-packages whose float parameters must carry unit suffixes (RPR005).
UNIT_SUFFIX_PACKAGES = ("device", "tcad", "circuit")

#: Sub-packages the unit-dataflow rules (RPR011/RPR012) check.
DATAFLOW_PACKAGES = ("device", "tcad", "circuit", "scaling",
                     "variability", "service")

#: Voltage names in the paper's notation (volts by repo convention):
#: a ``v``-rooted base (``vdd``, ``vgs``, ``v_il``, ``vfb`` ...) with an
#: optional polarity/range/regime modifier (``vth_n``, ``vdd_lo``,
#: ``vds_lin``), plus the surface-potential symbols.  Shared by RPR005
#: (naming compliance) and the RPR011/RPR012 dataflow seeds.
VOLTAGE_NAME_RE = re.compile(
    r"^v_?(dd|in|out|gs|ds|bs|sb|gb|th|fb|g|d|s|b|min|max|il|ih|ol|oh)?"
    r"(_(n|p|lo|hi|low|high|lin|sat|il|ih|ol|oh))?$"
)


class ModuleUnit:
    """One parsed source file handed to the rules.

    Attributes
    ----------
    path:
        Absolute path of the file.
    rel_path:
        POSIX path relative to the repository root
        (``src/repro/device/mosfet.py``).
    package_rel:
        Dotted path relative to the ``repro`` package
        (``device.mosfet``), or ``""`` for files outside it.
    source / lines / tree:
        Raw text, split lines, and the parsed :mod:`ast` tree.
    """

    def __init__(self, path: pathlib.Path, root: pathlib.Path) -> None:
        self.path = path
        self.rel_path = path.relative_to(root).as_posix()
        self.source = path.read_text()
        self.lines = self.source.splitlines()
        self.tree = ast.parse(self.source, filename=str(path))
        prefix = "src/repro/"
        if self.rel_path.startswith(prefix):
            dotted = self.rel_path[len(prefix):]
            dotted = dotted.removesuffix(".py").removesuffix("/__init__")
            self.package_rel = dotted.replace("/", ".")
        else:
            self.package_rel = ""

    def line_text(self, lineno: int) -> str:
        """Source text of 1-based ``lineno`` (empty when out of range)."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    @property
    def top_package(self) -> str:
        """First dotted component (``"device"`` for ``device.mosfet``)."""
        return self.package_rel.split(".", 1)[0] if self.package_rel else ""


def _base_unit_tokens() -> frozenset[str]:
    """Unprefixed unit tokens as they appear in identifier suffixes."""
    return frozenset({
        # electrical
        "v", "a", "f", "ohm", "s", "hz", "j", "w", "c",
        "ohms", "farads", "volts", "amps",
        # lengths / areas / volumes (the cgs-flavoured device set)
        "m", "cm", "um", "nm", "cm2", "um2", "nm2", "cm3",
        # misc physics; "sq" is the per-square width normalisation,
        # "dec"/"decade" the subthreshold-slope decade
        "k", "ev", "dec", "decade", "pct", "x", "sq",
    })


@functools.lru_cache(maxsize=1)
def unit_suffix_vocabulary() -> frozenset[str]:
    """Legal identifier unit suffixes, cross-checked against repro.units.

    The vocabulary is the cartesian product of the lower-case SI
    prefixes from :data:`repro.units.SI_PREFIXES` with the base unit
    tokens (``mv``, ``na``, ``ff``, ``ps`` ...), plus the unprefixed
    tokens themselves.  Length tokens like ``nm``/``um``/``cm`` arise
    naturally as prefix+``m``.
    """
    prefixes = {p for p in SI_PREFIXES if p == p.lower() and p.isascii()}
    vocab: set[str] = set()
    for base in _base_unit_tokens():
        vocab.add(base)
        # Prefixes only compose with the simple one-letter electrical
        # units; "mcm2" or "upct" are not things anyone writes.
        if base in {"v", "a", "f", "s", "j", "w", "m", "hz", "ev", "ohm"}:
            for prefix in prefixes:
                if prefix:
                    vocab.add(prefix + base)
    return frozenset(vocab)


def is_unit_suffixed(name: str) -> bool:
    """Whether identifier ``name`` ends in a recognised unit suffix.

    Accepts plain suffixes (``c_load_f``, ``l_poly_nm``) and ``per``
    compounds (``ss_v_per_dec``, ``i_off_a_per_um``,
    ``c_ox_f_per_cm2``) whose numerator and denominator are both in
    the vocabulary.
    """
    tokens = name.lower().split("_")
    vocab = unit_suffix_vocabulary()
    if len(tokens) >= 3 and tokens[-2] == "per":
        return tokens[-3] in vocab and tokens[-1] in vocab
    return tokens[-1] in vocab


class ProjectContext:
    """Lazily computed repo-level facts for the cross-file rules."""

    def __init__(self, root: pathlib.Path) -> None:
        self.root = pathlib.Path(root)

    # -- file discovery ------------------------------------------------

    def source_files(self) -> list[pathlib.Path]:
        """All library sources under ``src/repro`` (sorted, no eggs)."""
        src = self.root / "src" / "repro"
        return sorted(p for p in src.rglob("*.py")
                      if "egg-info" not in p.parts)

    # -- cross-file facts ----------------------------------------------

    @functools.cached_property
    def benchmark_string_literals(self) -> frozenset[str]:
        """Every string literal in ``benchmarks/test_bench_*.py``."""
        bench_dir = self.root / "benchmarks"
        literals: set[str] = set()
        for path in sorted(bench_dir.glob("test_bench_*.py")):
            try:
                tree = ast.parse(path.read_text(), filename=str(path))
            except SyntaxError:
                continue
            for node in ast.walk(tree):
                if isinstance(node, ast.Constant) and isinstance(node.value,
                                                                 str):
                    literals.add(node.value)
        return frozenset(literals)

    @functools.cached_property
    def perf_registry(self) -> tuple[frozenset[str], tuple[str, ...]]:
        """``(KNOWN_COUNTERS, DYNAMIC_COUNTER_PREFIXES)`` from perf.py.

        Parsed statically out of ``src/repro/perf.py`` so the linter
        checks the same registry the docs document, without importing
        the package under test.  Missing registry assignments yield an
        empty set — RPR006 then flags every counter, which is the
        loud-failure mode we want if the registry is deleted.
        """
        perf_path = self.root / "src" / "repro" / "perf.py"
        known: frozenset[str] = frozenset()
        prefixes: tuple[str, ...] = ()
        if not perf_path.exists():
            return known, prefixes
        tree = ast.parse(perf_path.read_text(), filename=str(perf_path))
        for node in tree.body:
            target = None
            value: ast.expr | None = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                target, value = node.target, node.value
            if not isinstance(target, ast.Name) or value is None:
                continue
            if target.id == "KNOWN_COUNTERS":
                known = frozenset(self._string_elements(value))
            elif target.id == "DYNAMIC_COUNTER_PREFIXES":
                prefixes = tuple(self._string_elements(value))
        return known, prefixes

    @functools.cached_property
    def function_unit_facts(self) -> dict[str, object]:
        """Merged cross-file unit facts for every repro callable.

        Maps bare callable names to
        :class:`repro.lint.units_dataflow.FunctionFact` records holding
        parameter and return units harvested from signatures and
        docstring ``[unit]`` brackets.  Same-named callables that
        disagree are merged conservatively (agreeing params only, no
        positional mapping), so RPR012 never checks a guess.
        """
        from .units_dataflow import harvest_module_facts, merge_facts
        facts = []
        for path in self.source_files():
            try:
                tree = ast.parse(path.read_text(), filename=str(path))
            except SyntaxError:
                continue
            rel = path.relative_to(self.root).as_posix()
            dotted = rel.removeprefix("src/").removesuffix(".py")
            dotted = dotted.removesuffix("/__init__").replace("/", ".")
            facts.extend(harvest_module_facts(tree, dotted))
        return dict(merge_facts(facts))

    @staticmethod
    def _string_elements(node: ast.expr) -> list[str]:
        """String literals inside a (possibly wrapped) set/tuple/list."""
        if (isinstance(node, ast.Call) and node.args
                and isinstance(node.func, ast.Name)
                and node.func.id == "frozenset"):
            node = node.args[0]
        if isinstance(node, (ast.Set, ast.Tuple, ast.List)):
            return [elt.value for elt in node.elts
                    if isinstance(elt, ast.Constant)
                    and isinstance(elt.value, str)]
        return []
