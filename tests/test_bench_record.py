"""``tools/bench_record.py`` history stamps: bare SHA on a clean tree,
a digest of the working-tree changes on a dirty one."""

import importlib.util
import pathlib
import shutil
import subprocess

import pytest

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"

pytestmark = pytest.mark.skipif(shutil.which("git") is None,
                                reason="needs the git binary")


@pytest.fixture(scope="module")
def bench_record():
    spec = importlib.util.spec_from_file_location("bench_record", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture()
def repo(tmp_path):
    def git(*args):
        subprocess.run(["git", *args], cwd=tmp_path, check=True,
                       capture_output=True)
    git("init", "-q")
    git("config", "user.email", "bench@example.com")
    git("config", "user.name", "bench")
    (tmp_path / "bench.py").write_text("x = 1\n")
    git("add", "bench.py")
    git("commit", "-q", "-m", "seed")
    return tmp_path


def test_clean_tree_keeps_the_bare_sha(bench_record, repo):
    head = subprocess.run(["git", "rev-parse", "--short=7", "HEAD"],
                          cwd=repo, check=True, capture_output=True,
                          text=True).stdout.strip()
    assert bench_record.git_sha(repo) == head


def test_dirty_stamp_tells_different_edits_apart(bench_record, repo):
    clean = bench_record.git_sha(repo)
    (repo / "bench.py").write_text("x = 2\n")
    edited = bench_record.git_sha(repo)
    assert edited.startswith(f"{clean}-dirty-")
    assert bench_record.git_sha(repo) == edited          # stable
    (repo / "bench.py").write_text("x = 3\n")
    assert bench_record.git_sha(repo) not in (clean, edited)
    (repo / "bench.py").write_text("x = 1\n")
    assert bench_record.git_sha(repo) == clean


def test_untracked_files_count(bench_record, repo):
    clean = bench_record.git_sha(repo)
    (repo / "new_bench.py").write_text("y = 1\n")
    first = bench_record.git_sha(repo)
    assert first.startswith(f"{clean}-dirty-")
    (repo / "new_bench.py").write_text("y = 2\n")
    assert bench_record.git_sha(repo) != first


def test_recorder_outputs_are_not_dirt(bench_record, repo):
    def git(*args):
        subprocess.run(["git", *args], cwd=repo, check=True,
                       capture_output=True)
    (repo / "BENCH_kernels.json").write_text("{}\n")
    (repo / "BENCH_history.jsonl").write_text("{}\n")
    git("add", "BENCH_kernels.json", "BENCH_history.jsonl")
    git("commit", "-q", "-m", "record")
    clean = bench_record.git_sha(repo)
    assert "-dirty-" not in clean
    # A recording run rewrites its summary, appends to the history and
    # may write a new suite's summary: the stamp stays the bare SHA.
    (repo / "BENCH_kernels.json").write_text('{"mean_s": 1}\n')
    (repo / "BENCH_history.jsonl").write_text("{}\n{}\n")
    (repo / "BENCH_arrays.json").write_text("{}\n")
    assert bench_record.git_sha(repo) == clean
    # Any other edit still stamps dirty, with a digest the recorder's
    # outputs do not enter.
    (repo / "bench.py").write_text("x = 2\n")
    edited = bench_record.git_sha(repo)
    assert edited.startswith(f"{clean}-dirty-")
    (repo / "BENCH_kernels.json").write_text("{}\n")
    (repo / "BENCH_arrays.json").unlink()
    assert bench_record.git_sha(repo) == edited


def test_outside_a_checkout_is_none(bench_record, tmp_path):
    assert bench_record.git_sha(tmp_path) is None
