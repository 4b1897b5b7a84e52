"""``tools/reachability.py``'s classifier on synthetic modules: only a
``def`` function that ran makes a module reached, and an allow-list
entry for a module that ran is stale."""

import importlib.util
import pathlib

import pytest

TOOL = (pathlib.Path(__file__).resolve().parent.parent / "tools"
        / "reachability.py")

#: Runs only a dataclass body, a list comprehension and a generator
#: expression on import; its one method is never called.
CLASS_BODIES = """\
from dataclasses import dataclass


@dataclass
class Point:
    x: float = 0.0

    def norm(self):
        return abs(self.x)


ORIGIN = Point()
SQUARES = [i * i for i in range(4)]
TOTAL = sum(i for i in range(4))
"""

#: Calls its one function on import.
ONE_CALL = """\
def area(r):
    return 3.0 * r * r


AREA = area(2.0)
"""


@pytest.fixture(scope="module")
def reach():
    spec = importlib.util.spec_from_file_location("reachability", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def traced(reach, tmp_path):
    """``(modules, codes)`` after importing both synthetic modules under
    the tool's recorder."""
    sources = {"bodies.py": CLASS_BODIES, "called.py": ONE_CALL}
    for name, text in sources.items():
        (tmp_path / name).write_text(text)
    with reach.CallRecorder() as recorder:
        for name in sources:
            path = tmp_path / name
            exec(compile(path.read_text(), str(path), "exec"),
                 {"__name__": path.stem})
    return reach.function_modules(tmp_path), recorder.codes


def test_class_and_comprehension_bodies_leave_a_module_unreached(
        reach, traced):
    modules, codes = traced
    unreached, stale = reach.classify(codes, modules, {})
    assert unreached == ["bodies.py"]
    assert stale == []


def test_one_called_function_reaches_a_module(reach, traced):
    modules, codes = traced
    assert reach.ran_files(codes) & set(modules.values()) == {
        modules["called.py"]}


def test_allow_list_entry_for_a_module_that_ran_is_stale(reach, traced):
    modules, codes = traced
    allowed = {"bodies.py": "never runs", "called.py": "never runs",
               "gone.py": "never runs"}
    unreached, stale = reach.classify(codes, modules, allowed)
    assert unreached == []
    assert stale == ["called.py", "gone.py"]
