"""End-to-end smoke test for the design-space service (CI gate).

Builds the quick serving grid into a scratch cache, starts
``repro serve`` as a real stdio subprocess, drives three canned
queries and two malformed lines through it, and diffs the
**normalised** responses against the committed goldens in
``tests/data/service_goldens.json``.

Normalisation keeps what the contract promises — response structure,
provenance source, error codes, null-vs-number distinctions — and
masks what legitimately drifts: every float becomes ``"<num>"`` (the
physics values move whenever the model is recalibrated; their
accuracy is covered by the surrogate bound tests, not by goldens) and
the schema hash becomes ``"<schema>"`` (it changes with any model
source edit by design).

Usage::

    python tools/service_smoke.py            # run + diff vs goldens
    python tools/service_smoke.py --update   # regenerate the goldens
    python tools/service_smoke.py --jobs 4   # parallel grid fill
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys
import tempfile

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDENS = REPO_ROOT / "tests" / "data" / "service_goldens.json"

#: The canned conversation: a warm surrogate answer, a shifted-corner
#: exact answer, and a contract violation.
QUERIES = [
    {"query": "metrics", "node": "65nm", "l_poly_nm": 80.5,
     "ioff_target_a_per_um": 5e-11, "vdd_v": 0.28,
     "id": "smoke-1"},
    {"query": "snm_vmin", "node": "65nm", "l_poly_nm": 80.5,
     "ioff_target_a_per_um": 5e-11, "vdd_v": 0.28,
     "corner": "ss", "id": "smoke-2"},
    {"query": "metrics", "node": "65nm", "l_poly_nm": 80.5,
     "ioff_target_a_per_um": 5e-11, "vdd_v": 0.28,
     "metrics": ["iddq"], "id": "smoke-3"},
]

#: Lines the server must answer with one ``bad_request`` each and keep
#: serving: bytes that are not UTF-8, and a request longer than the
#: 64 KiB stdio line limit.  One goes after each of the first two
#: canned queries.
MALFORMED = [
    b"\xff\xfe",
    json.dumps({"query": "info", "id": "x" * 70_000}).encode(),
]


def conversation() -> list[bytes]:
    """The input lines, canned queries and malformed lines interleaved."""
    canned = [json.dumps(q).encode() for q in QUERIES]
    return [canned[0], MALFORMED[0], canned[1], MALFORMED[1], canned[2]]


def normalise(value):
    """Mask run-varying content, keep the contract-visible structure."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, float):
        return "<num>"
    if isinstance(value, list):
        return [normalise(v) for v in value]
    if isinstance(value, dict):
        return {k: ("<schema>" if k == "schema_hash" and
                    isinstance(v, str) else normalise(v))
                for k, v in value.items()}
    return value


def run_conversation(jobs: int) -> list[dict]:
    """Grid build + server round trip inside a scratch cache."""
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{src}:{existing}" if existing else src
    with tempfile.TemporaryDirectory(prefix="repro-smoke-") as scratch:
        env["REPRO_CACHE_DIR"] = scratch
        subprocess.run(
            [sys.executable, "-m", "repro", "grid", "build", "--quick",
             "--jobs", str(jobs)],
            cwd=REPO_ROOT, env=env, check=True)
        lines = conversation()
        served = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--quick"],
            cwd=REPO_ROOT, env=env, input=b"".join(l + b"\n" for l in lines),
            capture_output=True, check=True, timeout=600)
    stdout = served.stdout.decode()
    responses = [json.loads(line) for line in stdout.strip().splitlines()]
    if len(responses) != len(lines):
        raise SystemExit(f"expected {len(lines)} responses, got "
                         f"{len(responses)}: {stdout!r}")
    return responses


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true",
                        help="rewrite the committed goldens")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the grid fill")
    args = parser.parse_args(argv)

    responses = run_conversation(args.jobs)

    # Un-normalised sanity: the canned conversation must exercise both
    # tiers and the error taxonomy, whatever the physics says.
    assert responses[0]["ok"] and \
        responses[0]["provenance"]["source"] == "surrogate", responses[0]
    assert responses[2]["ok"] and \
        responses[2]["provenance"]["source"] == "exact", responses[2]
    assert responses[4] == dict(responses[4], ok=False,
                                error="unknown_metric"), responses[4]
    for bad in (responses[1], responses[3]):
        assert bad == dict(bad, ok=False, error="bad_request"), bad

    normalised = [normalise(r) for r in responses]
    if args.update:
        GOLDENS.parent.mkdir(parents=True, exist_ok=True)
        GOLDENS.write_text(json.dumps(normalised, indent=2,
                                      sort_keys=True) + "\n")
        print(f"wrote {GOLDENS}")
        return 0
    expected = json.loads(GOLDENS.read_text())
    if normalised != expected:
        print("service responses drifted from tests/data/"
              "service_goldens.json:", file=sys.stderr)
        print(json.dumps(normalised, indent=2, sort_keys=True),
              file=sys.stderr)
        print("regenerate with: python tools/service_smoke.py --update",
              file=sys.stderr)
        return 1
    print(f"service smoke OK: {len(responses)} canned lines match "
          "the goldens")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
