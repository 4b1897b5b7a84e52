"""``tools/generate_api_md.py`` summaries: a docstring's first
paragraph on one line, never cut mid-sentence."""

import importlib.util
import pathlib

import pytest

TOOL = (pathlib.Path(__file__).resolve().parent.parent / "tools"
        / "generate_api_md.py")


@pytest.fixture(scope="module")
def generate_api_md():
    spec = importlib.util.spec_from_file_location("generate_api_md", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_wrapped_summary_is_joined(generate_api_md):
    def render():
        """Render docs/SERVICE.md from the contract tables (pure function
        of the contract).

        The body is not part of the summary.
        """

    assert generate_api_md.first_line(render) == (
        "Render docs/SERVICE.md from the contract tables (pure function "
        "of the contract).")


def test_one_line_summary_is_unchanged(generate_api_md):
    def solve():
        """Solve one point.

        Details follow.
        """

    assert generate_api_md.first_line(solve) == "Solve one point."


def test_missing_docstring_is_undocumented(generate_api_md):
    def bare():
        pass

    assert generate_api_md.first_line(bare) == "(undocumented)"
