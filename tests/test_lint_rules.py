"""Fixture tests for ``repro lint``: every rule, both polarities.

Each test builds a miniature repository layout in ``tmp_path`` (the
rules resolve cross-file facts — equivalence suites, the perf
registry, benchmark literals — relative to a root) and asserts the
rule fires on the offending snippet and stays quiet on the sanctioned
one.  The suppression and baseline layers, the CLI exit codes, and the
real repository's own cleanliness are covered at the end.
"""

import json
import pathlib
import textwrap

import pytest

from repro.cli import main
from repro.errors import ParameterError
from repro.lint import (Baseline, ProjectContext, lint_paths,
                        lint_repository, rule_catalogue)
from repro.lint.cli import run_lint_command

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

#: A perf.py with a one-entry registry for the RPR006 fixtures.
FAKE_PERF = '''
KNOWN_COUNTERS = frozenset({"poisson.solves"})
DYNAMIC_COUNTER_PREFIXES = ("cache.",)
'''


def make_repo(tmp_path, files):
    """Write ``files`` (rel path -> source) into a mini repo layout."""
    for rel, text in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(text))
    for required in ("src/repro", "tests", "benchmarks"):
        (tmp_path / required).mkdir(parents=True, exist_ok=True)
    return tmp_path


def lint_fixture(tmp_path, files, baseline=None):
    """Lint the ``src/repro`` members of a fixture repo."""
    root = make_repo(tmp_path, files)
    context = ProjectContext(root)
    targets = [root / rel for rel in sorted(files)
               if rel.startswith("src/repro/")]
    return lint_paths(targets, context, baseline)


def active_ids(report):
    return sorted(f.rule_id for f in report.active)


class TestRpr001FloatEquality:
    def test_flags_float_literal_comparison(self, tmp_path):
        report = lint_fixture(tmp_path, {"src/repro/analysis/x.py": """
            def f(x: float) -> bool:
                return x == 1.5
        """})
        assert active_ids(report) == ["RPR001"]

    def test_int_sentinel_and_isclose_pass(self, tmp_path):
        report = lint_fixture(tmp_path, {"src/repro/analysis/x.py": """
            import math

            def f(x: float) -> bool:
                return x == 0 or math.isclose(x, 1.5)
        """})
        assert active_ids(report) == []


class TestRpr002BroadExcept:
    def test_flags_swallowing_handler(self, tmp_path):
        report = lint_fixture(tmp_path, {"src/repro/analysis/x.py": """
            def f():
                try:
                    return 1
                except Exception:
                    return None
        """})
        assert active_ids(report) == ["RPR002"]

    def test_narrow_and_reraising_handlers_pass(self, tmp_path):
        report = lint_fixture(tmp_path, {"src/repro/analysis/x.py": """
            def f():
                try:
                    return 1
                except ValueError:
                    return None

            def firewall():
                try:
                    return 1
                except Exception as err:
                    if str(err) == "known":
                        return None
                    raise
        """})
        assert active_ids(report) == []


class TestRpr003Nondeterminism:
    def test_flags_wall_clock_and_global_rng(self, tmp_path):
        report = lint_fixture(tmp_path, {"src/repro/analysis/x.py": """
            import time
            import numpy as np

            def f():
                return time.time() + np.random.normal()
        """})
        assert active_ids(report) == ["RPR003", "RPR003"]

    def test_flags_random_import(self, tmp_path):
        report = lint_fixture(tmp_path, {"src/repro/analysis/x.py": """
            import random
        """})
        assert active_ids(report) == ["RPR003"]

    def test_seeded_generator_and_perf_counter_pass(self, tmp_path):
        report = lint_fixture(tmp_path, {"src/repro/analysis/x.py": """
            import time
            import numpy as np

            def f(seed: int):
                rng = np.random.default_rng(np.random.SeedSequence(seed))
                start = time.perf_counter()
                return rng.normal(), time.perf_counter() - start
        """})
        assert active_ids(report) == []


class TestRpr005UnitSuffix:
    def test_flags_unsuffixed_float_param_and_field(self, tmp_path):
        report = lint_fixture(tmp_path, {"src/repro/device/x.py": """
            from dataclasses import dataclass

            def drive(width: float) -> float:
                return width

            @dataclass
            class Record:
                charge: float
        """})
        assert active_ids(report) == ["RPR005", "RPR005"]

    def test_suffixed_voltage_and_dimensionless_names_pass(self, tmp_path):
        report = lint_fixture(tmp_path, {"src/repro/device/x.py": """
            def drive(width_um: float, vdd: float, vth_n: float,
                      ss_v_per_dec: float, k_gamma: float,
                      body_factor: float, xtol: float) -> float:
                '''Drive at ``width_um`` [um] for threshold ``vth_n``
                [v] and slope ``ss_v_per_dec`` [v/dec] (RPR010 surface:
                the brackets keep this an RPR005-only fixture).'''
                return width_um
        """})
        assert active_ids(report) == []

    def test_only_unit_suffix_packages_are_checked(self, tmp_path):
        report = lint_fixture(tmp_path, {"src/repro/analysis/x.py": """
            def f(width: float) -> float:
                return width
        """})
        assert active_ids(report) == []


class TestRpr006PerfRegistry:
    def test_flags_unregistered_counter(self, tmp_path):
        report = lint_fixture(tmp_path, {
            "src/repro/perf.py": FAKE_PERF,
            "src/repro/analysis/x.py": """
                from repro import perf

                def f():
                    perf.bump("poisson.sloves")
            """})
        assert active_ids(report) == ["RPR006"]

    def test_registered_literal_and_dynamic_prefix_pass(self, tmp_path):
        report = lint_fixture(tmp_path, {
            "src/repro/perf.py": FAKE_PERF,
            "src/repro/analysis/x.py": """
                from repro import perf

                def f(name: str):
                    perf.bump("poisson.solves")
                    perf.bump(f"cache.{name}.hits")
                    perf.bump("cache." + name + ".misses")
            """})
        assert active_ids(report) == []


class TestRpr007BenchCoverage:
    EXPERIMENT = """
        def experiment(eid, title=""):
            def deco(func):
                return func
            return deco

        @experiment("fig99")
        def run_fig99():
            return None
    """

    def test_flags_unbenchmarked_experiment(self, tmp_path):
        report = lint_fixture(tmp_path, {
            "src/repro/experiments/x.py": self.EXPERIMENT})
        assert active_ids(report) == ["RPR007"]

    def test_bench_reference_satisfies(self, tmp_path):
        report = lint_fixture(tmp_path, {
            "src/repro/experiments/x.py": self.EXPERIMENT,
            "benchmarks/test_bench_x.py": """
                def test_bench_fig99(benchmark):
                    benchmark(lambda: "fig99")
            """})
        assert active_ids(report) == []


class TestRpr008MutableState:
    def test_flags_mutable_default_and_module_state(self, tmp_path):
        report = lint_fixture(tmp_path, {"src/repro/scaling/x.py": """
            memo = {}

            def f(values=[]):
                return values
        """})
        assert active_ids(report) == ["RPR008", "RPR008"]

    def test_constant_style_none_default_and_dunder_pass(self, tmp_path):
        report = lint_fixture(tmp_path, {"src/repro/scaling/x.py": """
            __all__ = ["f"]
            TABLE = {"a": 1}

            def f(values=None):
                return values or []
        """})
        assert active_ids(report) == []


class TestRpr009MaskedSolveLoop:
    MASKED_LOOP = """
        import numpy as np

        def solve(lo, hi, xtol):
            active = (hi - lo) > xtol
            while np.any(active):
                mid = 0.5 * (lo + hi)
                lo = np.where(active, mid, lo)
                active = (hi - lo) > xtol
            return lo
    """

    def test_flags_engine_package_loop(self, tmp_path):
        report = lint_fixture(tmp_path, {
            "src/repro/scaling/x.py": self.MASKED_LOOP})
        assert active_ids(report) == ["RPR009"]
        assert "repro/numerics" in report.active[0].message

    def test_method_any_spelling_flagged(self, tmp_path):
        report = lint_fixture(tmp_path, {"src/repro/circuit/x.py": """
            def solve(err, tol, step):
                live = err > tol
                while live.any() and step < 80:
                    err = err - 1.0
                    live = err > tol
                    step = step + 1
                return err
        """})
        assert active_ids(report) == ["RPR009"]

    def test_numerics_core_is_exempt(self, tmp_path):
        report = lint_fixture(tmp_path, {
            "src/repro/numerics/x.py": self.MASKED_LOOP})
        assert active_ids(report) == []

    def test_non_mask_while_loops_pass(self, tmp_path):
        report = lint_fixture(tmp_path, {"src/repro/scaling/x.py": """
            import numpy as np

            def countdown(n, flags):
                ready = bool(np.any(flags))
                while n > 0:
                    n = n - 1
                return n, ready
        """})
        assert active_ids(report) == []


class TestRpr010ServiceDocstringUnits:
    def test_flags_missing_docstring(self, tmp_path):
        report = lint_fixture(tmp_path, {"src/repro/service/x.py": """
            def leakage(vdd_v: float) -> float:
                return 2.0 * vdd_v
        """})
        assert active_ids(report) == ["RPR010"]
        assert "[v]" in report.active[0].message

    def test_flags_docstring_without_bracketed_unit(self, tmp_path):
        report = lint_fixture(tmp_path, {"src/repro/service/x.py": """
            def leakage(ioff_target_a_per_um: float) -> float:
                '''Leakage at the ioff_target_a_per_um the doping met.'''
                return ioff_target_a_per_um
        """})
        assert active_ids(report) == ["RPR010"]
        assert "[a/um]" in report.active[0].message

    def test_documented_units_pass(self, tmp_path):
        report = lint_fixture(tmp_path, {"src/repro/service/x.py": """
            class Tier:
                def leakage(self, l_poly_nm: float, vdd_v: float) -> float:
                    '''Leakage at gate length ``l_poly_nm`` [nm] and
                    supply ``vdd_v`` [V].'''
                    return l_poly_nm * vdd_v
        """})
        assert active_ids(report) == []

    def test_variability_package_is_a_served_surface(self, tmp_path):
        # The rare-event yield engine joined the RPR010 surface: its
        # unit-suffixed parameters must be documented like service's.
        report = lint_fixture(tmp_path, {
            "src/repro/variability/x.py": """
                def tail(vdd_v: float, t_max_s: float) -> float:
                    '''Failure rate at supply ``vdd_v`` [V].'''
                    return vdd_v * t_max_s
            """})
        assert active_ids(report) == ["RPR010"]
        assert "[s]" in report.active[0].message

    def test_circuit_package_is_a_served_surface(self, tmp_path):
        # The netlist/solver layer joined the RPR010 surface with the
        # batched array characterisations.
        report = lint_fixture(tmp_path, {
            "src/repro/circuit/x.py": """
                def leak(r_keeper_ohms: float) -> float:
                    '''Bitline current through the keeper.'''
                    return 0.3 / r_keeper_ohms
            """})
        assert active_ids(report) == ["RPR010"]
        assert "[ohms]" in report.active[0].message

    def test_other_packages_and_private_names_exempt(self, tmp_path):
        report = lint_fixture(tmp_path, {
            "src/repro/analysis/x.py": """
                def tabulate(vdd_v: float) -> float:
                    return vdd_v
            """,
            "src/repro/service/y.py": """
                def _helper(vdd_v: float) -> float:
                    return vdd_v

                def info(count: int) -> int:
                    return count
            """})
        assert active_ids(report) == []


class TestRpr011UnitDataflow:
    """Intraprocedural unit inference: mixed arithmetic, rebinds,
    returns.  Fixtures live in ``scaling`` (a dataflow package that is
    neither an RPR005 nor an RPR010 surface, so only the unit-flow
    rules speak)."""

    def test_flags_mixed_dimension_addition(self, tmp_path):
        report = lint_fixture(tmp_path, {"src/repro/scaling/x.py": """
            def f(vdd_v: float, t_stop_s: float) -> float:
                return vdd_v + t_stop_s
        """})
        assert active_ids(report) == ["RPR011"]
        assert "[v]" in report.active[0].message
        assert "[s]" in report.active[0].message
        assert any("parameter suffix" in step
                   for step in report.active[0].explanation)

    def test_flags_scale_mismatch_between_suffixes(self, tmp_path):
        # Both operands are lengths, but nm vs um differ in scale —
        # the forgotten-conversion bug RPR005 cannot see.
        report = lint_fixture(tmp_path, {"src/repro/scaling/x.py": """
            def f(l_poly_nm: float, l_ov_um: float) -> float:
                return l_poly_nm - l_ov_um
        """})
        assert active_ids(report) == ["RPR011"]

    def test_flags_mixed_unit_comparison(self, tmp_path):
        report = lint_fixture(tmp_path, {"src/repro/scaling/x.py": """
            def f(l_eff_nm: float, w_um: float) -> bool:
                return l_eff_nm < w_um
        """})
        assert active_ids(report) == ["RPR011"]

    def test_flags_conflicting_rebind(self, tmp_path):
        # volts * amps is watts; binding it to an _ohm name conflicts.
        report = lint_fixture(tmp_path, {"src/repro/scaling/x.py": """
            def f(vdd_v: float, i_on_a: float) -> float:
                r_load_ohm = vdd_v * i_on_a
                return r_load_ohm
        """})
        assert active_ids(report) == ["RPR011"]
        assert "[w]" in report.active[0].message

    def test_flags_return_unit_conflict(self, tmp_path):
        # C_load * V_dd is charge [c], not the energy [j] the function
        # name promises (the missing 0.5*C*V^2 square).
        report = lint_fixture(tmp_path, {"src/repro/scaling/x.py": """
            def switching_energy_j(c_load_f: float, vdd_v: float) -> float:
                return c_load_f * vdd_v
        """})
        assert active_ids(report) == ["RPR011"]
        assert "[j]" in report.active[0].message

    def test_dimensionally_consistent_code_passes(self, tmp_path):
        report = lint_fixture(tmp_path, {"src/repro/scaling/x.py": """
            def rc_delay_s(r_drive_ohm: float, c_load_f: float) -> float:
                tau_s = r_drive_ohm * c_load_f
                return 0.69 * tau_s

            def energy_j(c_load_f: float, vdd_v: float) -> float:
                return 0.5 * c_load_f * vdd_v * vdd_v
        """})
        assert active_ids(report) == []

    def test_pow10_conversion_idiom_passes(self, tmp_path):
        # Scaling by a power-of-ten literal is the unit-conversion
        # idiom: the scale shift is tracked, not flagged.
        report = lint_fixture(tmp_path, {"src/repro/scaling/x.py": """
            def f(t_ox_nm: float) -> float:
                t_ox_cm = t_ox_nm * 1e-7
                return t_ox_cm
        """})
        assert active_ids(report) == []

    def test_small_step_and_margin_idioms_pass(self, tmp_path):
        # 1e-6 * vdd is a perturbation step, not a microvolt bug: a
        # flex (literal-rescaled) value may re-join its dimension at
        # any scale.
        report = lint_fixture(tmp_path, {"src/repro/scaling/x.py": """
            def f(vdd_v: float) -> float:
                h = 1e-6 * vdd_v
                margin = vdd_v * 1e-3
                return (vdd_v + h) - margin
        """})
        assert active_ids(report) == []

    def test_symbol_subscripts_are_not_units(self, tmp_path):
        # phi_f / psi_s are the paper's Greek-letter subscripts
        # (Fermi/surface potential), not farads/seconds.
        report = lint_fixture(tmp_path, {"src/repro/scaling/x.py": """
            def f(phi_f: float, psi_s: float) -> float:
                return phi_f + psi_s
        """})
        assert active_ids(report) == []

    def test_conversion_helpers_are_exempt(self, tmp_path):
        # X_to_Y helpers return scale factors; their suffix names the
        # target unit, so they never seed return-unit inference.
        report = lint_fixture(tmp_path, {"src/repro/scaling/x.py": """
            def nm_to_cm(value: float) -> float:
                return value * 1e-7

            def f(l_poly_nm: float) -> float:
                l_poly_cm = l_poly_nm * nm_to_cm(1.0)
                return l_poly_cm
        """})
        assert active_ids(report) == []

    def test_unknown_units_silence_checks(self, tmp_path):
        # Gradual analysis: a name with no unit seed never triggers.
        report = lint_fixture(tmp_path, {"src/repro/scaling/x.py": """
            def f(alpha: float, vdd_v: float) -> float:
                return alpha + vdd_v
        """})
        assert active_ids(report) == []

    def test_non_dataflow_packages_exempt(self, tmp_path):
        report = lint_fixture(tmp_path, {"src/repro/analysis/x.py": """
            def f(vdd_v: float, t_stop_s: float) -> float:
                return vdd_v + t_stop_s
        """})
        assert active_ids(report) == []


class TestRpr012CallSiteUnits:
    """Cross-file call-site checks against harvested function facts."""

    LIB = """
        def loaded(r_ohm_per_um: float) -> float:
            return 2.0 * r_ohm_per_um
    """

    def test_flags_positional_suffix_conflict(self, tmp_path):
        report = lint_fixture(tmp_path, {
            "src/repro/scaling/lib.py": self.LIB,
            "src/repro/scaling/use.py": """
                from .lib import loaded

                def f(c_wire_f_per_um: float) -> float:
                    return loaded(c_wire_f_per_um)
            """})
        assert active_ids(report) == ["RPR012"]
        assert "r_ohm_per_um" in report.active[0].message

    def test_flags_keyword_suffix_conflict(self, tmp_path):
        report = lint_fixture(tmp_path, {
            "src/repro/scaling/lib.py": self.LIB,
            "src/repro/scaling/use.py": """
                from .lib import loaded

                def f(t_stop_s: float) -> float:
                    return loaded(r_ohm_per_um=t_stop_s)
            """})
        assert active_ids(report) == ["RPR012"]

    def test_docstring_bracket_declares_the_unit(self, tmp_path):
        # The parameter has no suffix; its unit comes from the RPR010
        # docstring bracket, harvested as a cross-file fact.
        report = lint_fixture(tmp_path, {
            "src/repro/scaling/lib.py": """
                def widened(width: float) -> float:
                    '''Scale up the transistor ``width`` [um].'''
                    return 2.0 * width
            """,
            "src/repro/scaling/use.py": """
                from .lib import widened

                def f(t_stop_s: float) -> float:
                    return widened(t_stop_s)
            """})
        assert active_ids(report) == ["RPR012"]
        assert "[um]" in report.active[0].message

    def test_matching_argument_passes(self, tmp_path):
        report = lint_fixture(tmp_path, {
            "src/repro/scaling/lib.py": self.LIB,
            "src/repro/scaling/use.py": """
                from .lib import loaded

                def f(r_wire_ohm_per_um: float) -> float:
                    return loaded(r_wire_ohm_per_um)
            """})
        assert active_ids(report) == []

    def test_unknown_argument_is_silent(self, tmp_path):
        report = lint_fixture(tmp_path, {
            "src/repro/scaling/lib.py": self.LIB,
            "src/repro/scaling/use.py": """
                from .lib import loaded

                def f(resistance: float) -> float:
                    return loaded(resistance)
            """})
        assert active_ids(report) == []


class TestUnitLattice:
    """Algebra of the dimension lattice behind RPR011/RPR012."""

    def test_product_volts_times_amps_is_watts(self):
        from repro.lint.units_dataflow import (parse_name_unit,
                                               render_unit, token_units)
        watts = parse_name_unit("vdd_v").mul(parse_name_unit("i_on_a"))
        assert watts == token_units()["w"]
        assert render_unit(watts) == "[w]"

    def test_quotient_chain_f_v_over_a_is_seconds(self):
        from repro.lint.units_dataflow import token_units
        t = token_units()
        assert t["f"].mul(t["v"]).div(t["a"]) == t["s"]
        assert t["ohm"].mul(t["f"]) == t["s"]

    def test_per_compound_parses_as_quotient(self):
        from repro.lint.units_dataflow import (parse_name_unit,
                                               render_unit, token_units)
        t = token_units()
        unit = parse_name_unit("i_off_a_per_um")
        assert unit == t["a"].div(t["um"])
        assert render_unit(unit) == "[a/um]"

    def test_scale_distinguishes_nm_from_um(self):
        from repro.lint.units_dataflow import token_units
        t = token_units()
        assert t["nm"].dims == t["um"].dims
        assert t["nm"] != t["um"]

    def test_shift_scale_models_pow10_literals(self):
        # value_nm * 1e-7 stores centimetres: 100 nm -> 1e-5 cm.
        from repro.lint.units_dataflow import token_units
        t = token_units()
        assert t["nm"].shift_scale(-7) == t["cm"]

    def test_integer_powers_and_roots(self):
        from repro.lint.units_dataflow import token_units
        t = token_units()
        assert t["cm"].pow_int(2) == t["cm2"]
        assert t["cm2"].root(2) == t["cm"]
        assert t["nm"].root(2) is None  # 10^-9 has no exact sqrt

    def test_name_parsing_polarity(self):
        from repro.lint.units_dataflow import parse_name_unit, token_units
        t = token_units()
        assert parse_name_unit("vth_n") == t["v"]  # voltage convention
        assert parse_name_unit("c_load_f") == t["f"]
        assert parse_name_unit("m") is None        # bare paper symbol
        assert parse_name_unit("_m") is None       # private name
        assert parse_name_unit("phi_f") is None    # Greek subscript
        assert parse_name_unit("xtol") is None     # no suffix

    def test_bracket_parsing(self):
        from repro.lint.units_dataflow import parse_bracket_unit, token_units
        t = token_units()
        assert parse_bracket_unit("V") == t["v"]
        assert parse_bracket_unit("a/um") == t["a"].div(t["um"])
        assert parse_bracket_unit("furlong") is None


class TestBaselineSchema2:
    def test_artefact_reference_polarity(self):
        from repro.lint.baseline import artefact_reference
        assert artefact_reference(
            "netlist convention; see src/repro/circuit/netlist.py")
        assert artefact_reference("per Eq. 9 of the paper")
        assert artefact_reference("documented in the add_vsource docstring")
        assert artefact_reference("covered by test_circuit_netlist")
        assert artefact_reference("TODO: justify") is None
        assert artefact_reference("intentional") is None
        assert artefact_reference("") is None

    def test_load_rejects_placeholder_justification(self, tmp_path):
        path = tmp_path / "lint-baseline.json"
        path.write_text(json.dumps({
            "schema": 2,
            "findings": [{"fingerprint": "abc", "rule": "RPR001",
                          "path": "x.py", "line_text": "x == 1.5",
                          "justification": "TODO: justify"}],
        }))
        with pytest.raises(ParameterError, match="artefact"):
            Baseline.load(path)

    def test_load_rejects_schema_one(self, tmp_path):
        path = tmp_path / "lint-baseline.json"
        path.write_text(json.dumps({"schema": 1, "findings": []}))
        with pytest.raises(ParameterError, match="schema"):
            Baseline.load(path)


class TestExplainCli:
    FIXTURE = {"src/repro/scaling/x.py": """
        def f(vdd_v: float, t_stop_s: float) -> float:
            return vdd_v + t_stop_s
    """}

    def test_unknown_rule_exits_2(self, tmp_path, capsys):
        make_repo(tmp_path, self.FIXTURE)
        code = run_lint_command(root=str(tmp_path), explain="RPR999")
        assert code == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_explain_prints_chain(self, tmp_path, capsys):
        make_repo(tmp_path, self.FIXTURE)
        code = run_lint_command(root=str(tmp_path), explain="RPR011")
        out = capsys.readouterr().out
        assert code == 0
        assert "RPR011: mixed-unit arithmetic" in out
        assert "mixed-unit arithmetic" in out
        assert "fingerprint:" in out
        assert "parameter suffix" in out

    def test_selector_filters_findings(self, tmp_path, capsys):
        make_repo(tmp_path, self.FIXTURE)
        code = run_lint_command(root=str(tmp_path), explain="RPR011",
                                paths=["no/such/file.py:99"])
        out = capsys.readouterr().out
        assert code == 1
        assert "no RPR011 findings" in out

    def test_rule_without_findings_exits_1(self, tmp_path, capsys):
        make_repo(tmp_path, self.FIXTURE)
        code = run_lint_command(root=str(tmp_path), explain="RPR001")
        assert code == 1
        capsys.readouterr()


class TestSarifOutput:
    def test_sarif_log_shape_and_suppressions(self, tmp_path, capsys):
        make_repo(tmp_path, {"src/repro/analysis/x.py": """
            def f(x: float) -> bool:
                return x == 1.5

            def g(x: float) -> bool:
                return x == 2.5  # repro: noqa[RPR001] fixture
        """})
        code = run_lint_command(root=str(tmp_path),
                                output_format="sarif")
        log = json.loads(capsys.readouterr().out)
        assert code == 1
        assert log["version"] == "2.1.0"
        run = log["runs"][0]
        rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
        assert "RPR000" in rule_ids and "RPR012" in rule_ids
        results = run["results"]
        assert len(results) == 2
        active = [r for r in results if "suppressions" not in r]
        noqa = [r for r in results if "suppressions" in r]
        assert len(active) == len(noqa) == 1
        assert active[0]["ruleId"] == "RPR001"
        location = active[0]["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"].endswith(
            "src/repro/analysis/x.py")
        assert location["region"]["startLine"] == 3
        assert noqa[0]["suppressions"][0]["kind"] == "inSource"
        assert active[0]["partialFingerprints"][
            "reproLintFingerprint/v1"]

    def test_baselined_findings_marked_external(self, tmp_path, capsys):
        make_repo(tmp_path, {"src/repro/analysis/x.py": """
            def f(x: float) -> bool:
                return x == 1.5
        """})
        run_lint_command(root=str(tmp_path), update_baseline=True)
        capsys.readouterr()
        baseline_file = tmp_path / "lint-baseline.json"
        payload = json.loads(baseline_file.read_text())
        for entry in payload["findings"]:
            entry["justification"] = ("fixture equality; see "
                                      "test_lint_rules.py")
        baseline_file.write_text(json.dumps(payload))
        code = run_lint_command(root=str(tmp_path),
                                output_format="sarif")
        log = json.loads(capsys.readouterr().out)
        assert code == 0
        result = log["runs"][0]["results"][0]
        assert result["suppressions"][0]["kind"] == "external"


class TestSuppressionLayer:
    OFFENDING = """
        def f(x: float) -> bool:
            return x == 1.5  # repro: noqa[RPR001] intentional fixture
    """

    def test_noqa_suppresses_named_rule(self, tmp_path):
        report = lint_fixture(tmp_path, {
            "src/repro/analysis/x.py": self.OFFENDING})
        assert active_ids(report) == []
        assert [f.rule_id for f in report.findings
                if f.suppressed] == ["RPR001"]

    def test_bare_noqa_is_not_honoured(self, tmp_path):
        report = lint_fixture(tmp_path, {"src/repro/analysis/x.py": """
            def f(x: float) -> bool:
                return x == 1.5  # repro: noqa
        """})
        assert active_ids(report) == ["RPR001"]

    def test_noqa_covers_unit_flow_rules(self, tmp_path):
        report = lint_fixture(tmp_path, {"src/repro/scaling/x.py": """
            def f(vdd_v: float, t_stop_s: float) -> float:
                return vdd_v + t_stop_s  # repro: noqa[RPR011] fixture
        """})
        assert active_ids(report) == []
        assert [f.rule_id for f in report.findings
                if f.suppressed] == ["RPR011"]

    def test_noqa_for_other_rule_does_not_apply(self, tmp_path):
        report = lint_fixture(tmp_path, {"src/repro/analysis/x.py": """
            def f(x: float) -> bool:
                return x == 1.5  # repro: noqa[RPR008] wrong rule
        """})
        assert active_ids(report) == ["RPR001"]


class TestBaselineLayer:
    FILES = {"src/repro/analysis/x.py": """
        def f(x: float) -> bool:
            return x == 1.5
    """}

    def test_round_trip_silences_then_goes_stale(self, tmp_path):
        first = lint_fixture(tmp_path, self.FILES)
        assert active_ids(first) == ["RPR001"]

        baseline = Baseline.from_findings(first.findings)
        for entry in baseline.entries.values():
            # Schema 2: load() rejects the TODO placeholder, so the
            # reviewer step is simulated with an artefact citation.
            entry["justification"] = ("intentional fixture equality; "
                                      "see test_lint_rules.py")
        path = tmp_path / "lint-baseline.json"
        baseline.save(path)
        reloaded = Baseline.load(path)

        second = lint_fixture(tmp_path, self.FILES, baseline=reloaded)
        assert active_ids(second) == []
        assert [f.rule_id for f in second.findings
                if f.baselined] == ["RPR001"]

        # Fix the code: the entry stops matching and is reported stale.
        fixed = lint_fixture(tmp_path, {"src/repro/analysis/x.py": """
            def f(x: float) -> bool:
                return x == 0
        """}, baseline=reloaded)
        assert active_ids(fixed) == []
        assert len(fixed.stale_baseline) == 1
        assert not fixed.clean

    def test_baseline_grandfathers_unit_flow_findings(self, tmp_path):
        files = {"src/repro/scaling/x.py": """
            def f(vdd_v: float, t_stop_s: float) -> float:
                return vdd_v + t_stop_s
        """}
        first = lint_fixture(tmp_path, files)
        assert active_ids(first) == ["RPR011"]
        baseline = Baseline.from_findings(first.findings)
        for entry in baseline.entries.values():
            entry["justification"] = ("fixture mix; see "
                                      "test_lint_rules.py")
        path = tmp_path / "lint-baseline.json"
        baseline.save(path)
        second = lint_fixture(tmp_path, files,
                              baseline=Baseline.load(path))
        assert active_ids(second) == []
        assert [f.rule_id for f in second.findings
                if f.baselined] == ["RPR011"]

    def test_fingerprint_survives_line_drift(self, tmp_path):
        plain = lint_fixture(tmp_path, self.FILES)
        shifted = lint_fixture(tmp_path, {"src/repro/analysis/x.py": """
            GAP = 1


            def f(x: float) -> bool:
                return x == 1.5
        """})
        assert (plain.findings[0].fingerprint
                == shifted.findings[0].fingerprint)
        assert plain.findings[0].line != shifted.findings[0].line

    def test_missing_justification_rejected(self, tmp_path):
        path = tmp_path / "lint-baseline.json"
        path.write_text(json.dumps({
            "schema": 2,
            "findings": [{"fingerprint": "abc", "rule": "RPR001",
                          "path": "x.py", "line_text": "x == 1.5",
                          "justification": ""}],
        }))
        with pytest.raises(ParameterError, match="justification"):
            Baseline.load(path)


class TestCliAndRepo:
    def test_repository_is_lint_clean(self):
        report = lint_repository(REPO_ROOT)
        assert report.clean, report.render_text()

    def test_cli_exit_codes_and_json(self, tmp_path, capsys):
        make_repo(tmp_path, {"src/repro/analysis/x.py": """
            def f(x: float) -> bool:
                return x == 1.5
        """})
        code = run_lint_command(root=str(tmp_path), output_format="json")
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["schema"] == 1
        assert payload["active"] == 1
        assert payload["findings"][0]["rule"] == "RPR001"

        code = run_lint_command(root=str(tmp_path),
                                update_baseline=True)
        capsys.readouterr()
        assert code == 0
        baseline_file = tmp_path / "lint-baseline.json"
        assert baseline_file.exists()

        # The fresh baseline carries the 'TODO: justify' placeholder,
        # which schema 2 refuses to load — the unreviewed entry fails
        # the next run with a usage error.
        code = run_lint_command(root=str(tmp_path))
        err = capsys.readouterr().err
        assert code == 2
        assert "artefact" in err

        # Filling in an artefact-citing justification (the reviewer
        # step) makes the baseline effective.
        payload = json.loads(baseline_file.read_text())
        for entry in payload["findings"]:
            entry["justification"] = ("fixture equality; covered by "
                                      "test_lint_rules.py")
        baseline_file.write_text(json.dumps(payload))
        code = run_lint_command(root=str(tmp_path))
        out = capsys.readouterr().out
        assert code == 0
        assert "1 baselined" in out

    def test_usage_errors_exit_2(self, tmp_path, capsys):
        code = run_lint_command(root=str(tmp_path))  # no src/repro
        assert code == 2
        make_repo(tmp_path, {})
        code = run_lint_command(paths=["no/such/file.py"],
                                root=str(tmp_path))
        assert code == 2
        capsys.readouterr()

    def test_lint_subcommand_wired_into_main(self, capsys):
        code = main(["lint", "--root", str(REPO_ROOT)])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 finding(s)" in out

    def test_syntax_error_reported_as_rpr000(self, tmp_path):
        report = lint_fixture(tmp_path, {
            "src/repro/analysis/x.py": "def broken(:\n"})
        assert [f.rule_id for f in report.active] == ["RPR000"]

    def test_rule_catalogue_covers_all_eleven(self):
        ids = [row[0] for row in rule_catalogue()]
        assert ids == (["RPR001", "RPR002", "RPR003"]
                       + [f"RPR00{i}" for i in range(5, 10)]
                       + ["RPR010", "RPR011", "RPR012"])
