"""Record the benchmark suites into ``BENCH_*.json`` summaries.

Runs a bench suite under pytest-benchmark and distils the
machine-readable results into a small summary at the repository root.
The suites:

* ``kernels`` — the hot device/TCAD kernels
  (``benchmarks/test_bench_kernels.py`` plus the raw super-V_th
  optimiser bench) -> ``BENCH_kernels.json``;
* ``circuits`` — the vectorised circuit-evaluation layer
  (``benchmarks/test_bench_circuits.py``: batched VTC/SNM, array-native
  Monte Carlo, and their sequential oracles) -> ``BENCH_circuits.json``;
* ``flows`` — the batched design-space engine
  (``benchmarks/test_bench_flows.py``: cold-cache super/sub-V_th family
  builds, the multi-V_th menu, the calibration-sensitivity rebuild, and
  their sequential oracles) -> ``BENCH_flows.json``;
* ``service`` — the design-space query server tiers
  (``benchmarks/test_bench_service.py``) -> ``BENCH_service.json``;
* ``variability`` — the rare-event yield engine
  (``benchmarks/test_bench_variability.py``: QMC-IS pipeline, shift
  search, the >= 100x equal-accuracy speedup gate vs brute force, and
  the ``ext_yield`` experiment) -> ``BENCH_variability.json``;
* ``arrays`` — the compiled batched MNA engine
  (``benchmarks/test_bench_arrays.py``: the 512-lane SRAM-column DC
  workload, its >= 10x per-lane speedup gate vs the looped
  NodalSolver oracle, the binary-searched write pulse, and the
  ``ext_array`` experiment) -> ``BENCH_arrays.json``.

Committing the summary after perf-relevant PRs builds up the
performance trajectory of the project; CI runs the same script with
``--compare`` to fail on >2x mean regressions against the committed
summary.  Set ``REPRO_BENCH_QUICK=1`` to skip the slow sequential-oracle
benches (the CI quick mode).

Beyond the per-suite snapshots, ``--history`` appends one compact
JSONL record (suite, timestamp, git SHA, per-bench means) to
``BENCH_history.jsonl``; committed over time, the file is the
machine-readable performance trajectory the snapshots only sample.
CI uploads it as the ``bench-trajectory`` artifact.

Usage (from the repository root)::

    python tools/bench_record.py                      # BENCH_kernels.json
    python tools/bench_record.py --suite circuits     # BENCH_circuits.json
    python tools/bench_record.py --check              # run, don't write
    python tools/bench_record.py --suite circuits --compare
    python tools/bench_record.py --suite flows --history
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import pathlib
import platform
import subprocess
import sys
import tempfile

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Per-suite bench selection and summary file.
SUITES = {
    "kernels": {
        "targets": (
            "benchmarks/test_bench_kernels.py",
            "benchmarks/test_bench_table2.py::test_bench_supervth_optimizer",
        ),
        "output": "BENCH_kernels.json",
    },
    "circuits": {
        "targets": ("benchmarks/test_bench_circuits.py",),
        "output": "BENCH_circuits.json",
    },
    "flows": {
        "targets": ("benchmarks/test_bench_flows.py",),
        "output": "BENCH_flows.json",
    },
    "service": {
        "targets": ("benchmarks/test_bench_service.py",),
        "output": "BENCH_service.json",
    },
    "variability": {
        "targets": ("benchmarks/test_bench_variability.py",),
        "output": "BENCH_variability.json",
    },
    "arrays": {
        "targets": ("benchmarks/test_bench_arrays.py",),
        "output": "BENCH_arrays.json",
    },
}

#: --compare fails when a bench's fresh mean exceeds committed mean * this.
REGRESSION_FACTOR = 2.0

#: Rolling trajectory log appended to by ``--history``.
HISTORY_FILE = "BENCH_history.jsonl"

#: git pathspecs leaving out the recorder's own outputs, which every
#: recording run rewrites: they are not edits to the code it measured.
OWN_OUTPUTS = (":(exclude)BENCH_*.json", f":(exclude){HISTORY_FILE}")


def run_benches(json_path: pathlib.Path, targets: tuple[str, ...]) -> None:
    """Run the bench selection, writing pytest-benchmark JSON."""
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{src}:{existing}" if existing else src
    cmd = [
        sys.executable, "-m", "pytest", *targets,
        "-q", "--benchmark-only", f"--benchmark-json={json_path}",
    ]
    subprocess.run(cmd, cwd=REPO_ROOT, check=True, env=env)


def summarise(raw: dict) -> dict:
    """Distil pytest-benchmark output to one stats record per bench."""
    benches = {}
    for bench in raw.get("benchmarks", []):
        stats = bench["stats"]
        benches[bench["name"]] = {
            "mean_s": stats["mean"],
            "min_s": stats["min"],
            "stddev_s": stats["stddev"],
            "rounds": stats["rounds"],
        }
        # Benches may attach quality facts (equivalence vs the paired
        # oracle, measured active-lane fraction) via benchmark.extra_info;
        # keep them next to the timings they qualify.
        if bench.get("extra_info"):
            benches[bench["name"]]["extra_info"] = bench["extra_info"]
    return {
        "schema": 1,
        "generated_by": "tools/bench_record.py",
        "recorded_utc": datetime.datetime.now(
            datetime.timezone.utc).isoformat(timespec="seconds"),
        "machine": {
            "node": platform.node(),
            "machine": platform.machine(),
            "python": platform.python_version(),
        },
        "benchmarks": benches,
    }


def compare(summary: dict, committed_path: pathlib.Path) -> int:
    """Fail (non-zero) on >2x mean regressions vs the committed summary.

    Only benches present in both summaries are compared, so quick-mode
    runs (which skip the slow sequential oracles) and newly added
    benches don't trip the gate.
    """
    if not committed_path.exists():
        print(f"compare: no committed {committed_path.name}; skipping "
              "regression gate")
        return 0
    committed = json.loads(committed_path.read_text())["benchmarks"]
    regressions = []
    compared = 0
    for name, stats in summary["benchmarks"].items():
        base = committed.get(name)
        if base is None:
            continue
        compared += 1
        if stats["mean_s"] > REGRESSION_FACTOR * base["mean_s"]:
            regressions.append(
                f"  {name}: {1e3 * stats['mean_s']:.1f} ms vs committed "
                f"{1e3 * base['mean_s']:.1f} ms "
                f"(> {REGRESSION_FACTOR:g}x)")
    if regressions:
        print(f"compare: {len(regressions)} regression(s) vs "
              f"{committed_path.name}:", file=sys.stderr)
        print("\n".join(regressions), file=sys.stderr)
        return 1
    print(f"compare: {compared} benches within {REGRESSION_FACTOR:g}x of "
          f"{committed_path.name}")
    return 0


def git_sha(root: pathlib.Path = REPO_ROOT) -> str | None:
    """Current commit SHA, or None outside a git checkout.

    A run on uncommitted changes reads ``<sha>-dirty-<digest>``: the
    numbers then belong to that commit plus the working-tree edits, and
    the digest (of ``git diff HEAD`` plus the untracked files' names
    and contents) tells runs on different edits of one commit apart.
    A clean tree keeps the bare SHA.  The recorder's own outputs
    (``BENCH_*.json``, ``BENCH_history.jsonl``) count as neither dirt
    nor digest, so suites recorded back to back on one clean checkout
    all stamp the bare SHA.
    """
    def git(*args: str) -> bytes:
        return subprocess.run(["git", *args], cwd=root, check=True,
                              capture_output=True).stdout

    try:
        sha = git("describe", "--always", "--abbrev=7").decode().strip()
        diff = git("diff", "HEAD", "--binary", "--", ".", *OWN_OUTPUTS)
        untracked = git("ls-files", "--others", "--exclude-standard", "-z",
                        "--", ".", *OWN_OUTPUTS)
    except (OSError, subprocess.CalledProcessError):
        return None
    if not sha or not (diff or untracked):
        return sha or None
    digest = hashlib.sha256(diff)
    for name in untracked.split(b"\0"):
        if name:
            digest.update(name + b"\0")
            try:
                digest.update((root / os.fsdecode(name)).read_bytes())
            except OSError:  # e.g. a dangling symlink: its name counts
                pass
    return f"{sha}-dirty-{digest.hexdigest()[:8]}"


def append_history(summary: dict, suite_name: str,
                   path: pathlib.Path) -> dict:
    """Append one trajectory record to ``BENCH_history.jsonl``.

    The record is a flat, diff-friendly line — suite, timestamp, git
    SHA, and the per-bench mean — so the file stays greppable and a
    plotting script can reconstruct the trajectory without touching
    the full snapshots.
    """
    record = {
        "schema": 1,
        "suite": suite_name,
        "recorded_utc": summary["recorded_utc"],
        "git_sha": git_sha(),
        "machine": summary["machine"]["node"],
        "mean_s": {name: stats["mean_s"]
                   for name, stats in sorted(summary["benchmarks"].items())},
    }
    with path.open("a") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="run a bench suite and record its BENCH_*.json summary")
    parser.add_argument("--suite", choices=sorted(SUITES),
                        default="kernels",
                        help="bench suite to run (default: kernels)")
    parser.add_argument("--check", action="store_true",
                        help="run the benches without writing the summary")
    parser.add_argument("--compare", action="store_true",
                        help="fail on >2x mean regression vs the committed "
                             "summary (implies --check)")
    parser.add_argument("--history", action="store_true",
                        help=f"also append a trajectory record to "
                             f"{HISTORY_FILE}")
    args = parser.parse_args(argv)
    suite = SUITES[args.suite]
    output = REPO_ROOT / suite["output"]

    with tempfile.TemporaryDirectory() as tmp:
        json_path = pathlib.Path(tmp) / "bench.json"
        run_benches(json_path, suite["targets"])
        summary = summarise(json.loads(json_path.read_text()))

    if not summary["benchmarks"]:
        print("error: no benchmarks were collected", file=sys.stderr)
        return 1
    if args.history:
        history_path = REPO_ROOT / HISTORY_FILE
        record = append_history(summary, args.suite, history_path)
        print(f"appended {args.suite} trajectory record "
              f"({len(record['mean_s'])} benches) to {history_path.name}")
    if args.compare:
        return compare(summary, output)
    if args.check:
        print(f"ok: {len(summary['benchmarks'])} benches ran "
              "(summary not written)")
        return 0
    output.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    slowest = max(summary["benchmarks"].items(),
                  key=lambda kv: kv[1]["mean_s"])
    print(f"wrote {output.name}: {len(summary['benchmarks'])} benches, "
          f"slowest {slowest[0]} at {1e3 * slowest[1]['mean_s']:.1f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
