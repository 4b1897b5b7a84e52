"""Provenance-tracked experiment runs.

Every reproduced artefact in this project is a claim ("the sub-V_th
strategy wins ~23 % energy at 32nm") backed by a live computation.  The
manifest layer records *how* each number was produced so the generated
documentation (EXPERIMENTS.md, docs/RESULTS.md) and the machine-readable
``results.json`` are auditable instead of hand-maintained prose:

* :class:`RunRecord` — one experiment run's structured trace: wall time,
  :mod:`repro.perf` counter deltas (Newton iterations, Poisson solves,
  cache hits/misses), the git commit, the physics model schema hash
  (:func:`repro.cache.model_schema_hash`), and the paper-vs-measured
  comparison outcomes.
* :class:`RunManifest` — wraps :func:`repro.experiments.run_experiment`
  to capture records, appends them to a JSONL trace log, and distils
  them into the ``results.json`` payload that ``repro report`` commits.

Records round-trip through JSONL (:meth:`RunManifest.write_jsonl` /
:meth:`RunManifest.read_jsonl`), so external tooling can consume the
trace without importing this library.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import time
from dataclasses import dataclass

from .. import perf
from ..errors import ParameterError
from .report import Comparison, ExperimentResult

#: Version stamp for the manifest/results.json payloads.
MANIFEST_SCHEMA = 1


def current_git_sha(root: str | pathlib.Path | None = None) -> str:
    """The checkout's commit SHA, or ``"unknown"`` outside a git repo.

    Provenance only — never used as a cache key (the model schema hash
    plays that role), so a missing git binary degrades gracefully.
    """
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=None if root is None else str(root),
            capture_output=True, text=True, timeout=10.0,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    if proc.returncode != 0:
        return "unknown"
    return proc.stdout.strip() or "unknown"


@dataclass(frozen=True)
class RunRecord:
    """The provenance trace of one experiment run.

    Attributes
    ----------
    experiment_id / title:
        Registry identity of the experiment.
    wall_time_s:
        Wall-clock duration of the run.
    perf_counters:
        :mod:`repro.perf` counter increments attributable to this run
        (empty when the run did no counted numerical work).
    git_sha / schema_hash:
        The code identity: commit of the checkout and digest of the
        physics model sources.
    comparisons:
        The paper-vs-measured records the run produced.
    n_series / n_rows:
        Payload shape summary (figure series / table rows).
    """

    experiment_id: str
    title: str
    wall_time_s: float
    perf_counters: dict[str, int]
    git_sha: str
    schema_hash: str
    comparisons: tuple[Comparison, ...] = ()
    n_series: int = 0
    n_rows: int = 0

    def __post_init__(self) -> None:
        if not self.experiment_id:
            raise ParameterError("run record needs an experiment id")
        if self.wall_time_s < 0.0:
            raise ParameterError("wall time cannot be negative")

    @property
    def claims_total(self) -> int:
        """Number of paper claims this run checked."""
        return len(self.comparisons)

    @property
    def claims_held(self) -> int:
        """Number of claims that held."""
        return sum(1 for c in self.comparisons if c.holds)

    def all_hold(self) -> bool:
        """True when every recorded claim holds."""
        return self.claims_held == self.claims_total

    def to_dict(self) -> dict:
        """Plain-dict form (JSONL / results.json payload)."""
        from ..io.serialize import comparison_to_dict
        return {
            "schema": MANIFEST_SCHEMA,
            "kind": "run_record",
            "experiment_id": self.experiment_id,
            "title": self.title,
            "wall_time_s": self.wall_time_s,
            "perf_counters": dict(sorted(self.perf_counters.items())),
            "git_sha": self.git_sha,
            "schema_hash": self.schema_hash,
            "comparisons": [comparison_to_dict(c) for c in self.comparisons],
            "n_series": self.n_series,
            "n_rows": self.n_rows,
            "claims_total": self.claims_total,
            "claims_held": self.claims_held,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RunRecord":
        """Rebuild a record from :meth:`to_dict` output."""
        from ..io.serialize import comparison_from_dict
        if payload.get("kind") != "run_record":
            raise ParameterError(
                f"expected a 'run_record' payload, got {payload.get('kind')!r}"
            )
        if payload.get("schema") != MANIFEST_SCHEMA:
            raise ParameterError(
                f"unsupported manifest schema {payload.get('schema')!r}"
            )
        return cls(
            experiment_id=payload["experiment_id"],
            title=payload["title"],
            wall_time_s=payload["wall_time_s"],
            perf_counters={k: int(v)
                           for k, v in payload["perf_counters"].items()},
            git_sha=payload["git_sha"],
            schema_hash=payload["schema_hash"],
            comparisons=tuple(comparison_from_dict(c)
                              for c in payload["comparisons"]),
            n_series=payload.get("n_series", 0),
            n_rows=payload.get("n_rows", 0),
        )


class RunManifest:
    """Collects provenance-stamped experiment runs.

    Parameters
    ----------
    git_sha / schema_hash:
        Code-identity stamps applied to every record.  Default to the
        live checkout / model sources; injectable for tests.
    """

    def __init__(self, git_sha: str | None = None,
                 schema_hash: str | None = None) -> None:
        if schema_hash is None:
            from ..cache import model_schema_hash
            schema_hash = model_schema_hash()
        self.git_sha = current_git_sha() if git_sha is None else git_sha
        self.schema_hash = schema_hash
        self._pairs: list[tuple[ExperimentResult, RunRecord]] = []

    # -- capture -------------------------------------------------------------

    def record(self, experiment_id: str) -> tuple[ExperimentResult, RunRecord]:
        """Run one experiment, capturing its provenance trace.

        The process is first put in the state every recorded experiment
        starts from (:func:`~repro.experiments.families.prepare_experiment`),
        so the captured counters do not depend on what ran before.
        """
        from ..experiments import run_experiment
        from ..experiments.families import prepare_experiment
        prepare_experiment()
        before = perf.snapshot()
        start = time.perf_counter()
        result = run_experiment(experiment_id)
        wall_time_s = time.perf_counter() - start
        return result, self.add(result, wall_time_s=wall_time_s,
                                perf_counters=perf.delta(before))

    def add(self, result: ExperimentResult, *, wall_time_s: float,
            perf_counters: dict[str, int]) -> RunRecord:
        """Attach an already-computed result (e.g. from a worker process)."""
        from ..experiments import experiment_title
        record = RunRecord(
            experiment_id=result.experiment_id,
            title=experiment_title(result.experiment_id),
            wall_time_s=wall_time_s,
            perf_counters=dict(perf_counters),
            git_sha=self.git_sha,
            schema_hash=self.schema_hash,
            comparisons=result.comparisons,
            n_series=len(result.series),
            n_rows=len(result.rows),
        )
        self._pairs.append((result, record))
        return record

    # -- access --------------------------------------------------------------

    @property
    def pairs(self) -> list[tuple[ExperimentResult, RunRecord]]:
        """(result, record) pairs in capture order."""
        return list(self._pairs)

    @property
    def records(self) -> list[RunRecord]:
        """Captured records in capture order."""
        return [record for _result, record in self._pairs]

    def __len__(self) -> int:
        return len(self._pairs)

    # -- JSONL trace log -----------------------------------------------------

    def write_jsonl(self, path: str | pathlib.Path,
                    append: bool = True) -> None:
        """Write the captured records as one JSON object per line."""
        target = pathlib.Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        lines = "".join(json.dumps(record.to_dict(), sort_keys=True) + "\n"
                        for record in self.records)
        with target.open("a" if append else "w") as handle:
            handle.write(lines)

    @staticmethod
    def read_jsonl(path: str | pathlib.Path) -> list[RunRecord]:
        """Read records back from a :meth:`write_jsonl` trace log."""
        records: list[RunRecord] = []
        for line in pathlib.Path(path).read_text().splitlines():
            if line.strip():
                records.append(RunRecord.from_dict(json.loads(line)))
        return records

    # -- results.json --------------------------------------------------------

    def results_payload(self) -> dict:
        """The machine-readable ``results.json`` payload.

        One entry per captured experiment, keyed by id, each carrying
        the perf counters, wall time, schema hash and claim outcomes —
        the auditable companion to the generated markdown.
        """
        experiments: dict[str, dict] = {}
        for record in sorted(self.records, key=lambda r: r.experiment_id):
            entry = record.to_dict()
            entry.pop("schema")
            entry.pop("kind")
            entry.pop("experiment_id")
            experiments[record.experiment_id] = entry
        return {
            "schema": MANIFEST_SCHEMA,
            "kind": "results",
            "git_sha": self.git_sha,
            "schema_hash": self.schema_hash,
            "claims_total": sum(r.claims_total for r in self.records),
            "claims_held": sum(r.claims_held for r in self.records),
            "experiments": experiments,
        }

    def save_results_json(self, path: str | pathlib.Path) -> None:
        """Write :meth:`results_payload` as pretty-printed JSON."""
        target = pathlib.Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(self.results_payload(), indent=2,
                                     sort_keys=True) + "\n")
