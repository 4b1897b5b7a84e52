"""Tests for the ``repro report`` provenance/docs pipeline."""

import json

import pytest

from repro.cli import main

IDS = ["table1", "eq3"]


@pytest.fixture()
def generated(tmp_path):
    """A tmp repo root with freshly generated docs for two experiments."""
    assert main(["report", "--root", str(tmp_path), "--only", *IDS]) == 0
    return tmp_path


class TestReportWrite:
    def test_writes_all_artifacts(self, generated):
        assert (generated / "EXPERIMENTS.md").exists()
        assert (generated / "docs" / "RESULTS.md").exists()
        assert (generated / "results.json").exists()
        assert (generated / ".repro" / "manifest.jsonl").exists()

    def test_experiments_md_contents(self, generated):
        text = (generated / "EXPERIMENTS.md").read_text()
        assert "## table1 — Generalized scaling rules (Table 1)" in text
        assert "| claim | paper | measured | status | note |" in text
        assert "claims hold" in text

    def test_results_md_has_figures_and_provenance(self, generated):
        text = (generated / "docs" / "RESULTS.md").read_text()
        assert "```text" in text                      # ASCII figure fence
        assert "*Provenance: model schema `" in text
        assert "## eq3" in text

    def test_results_json_records_provenance(self, generated):
        payload = json.loads((generated / "results.json").read_text())
        assert sorted(payload["experiments"]) == sorted(IDS)
        for entry in payload["experiments"].values():
            assert "perf_counters" in entry
            assert entry["wall_time_s"] >= 0.0
        assert payload["schema_hash"]
        from repro.cache import model_schema_hash
        assert payload["schema_hash"] == model_schema_hash()

    def test_deterministic_output(self, generated):
        first = (generated / "EXPERIMENTS.md").read_text()
        first_results = (generated / "docs" / "RESULTS.md").read_text()
        assert main(["report", "--root", str(generated),
                     "--only", *IDS]) == 0
        assert (generated / "EXPERIMENTS.md").read_text() == first
        assert (generated / "docs" / "RESULTS.md").read_text() \
            == first_results

    def test_manifest_jsonl_round_trip(self, generated):
        from repro.analysis.manifest import RunManifest
        records = RunManifest.read_jsonl(
            generated / ".repro" / "manifest.jsonl")
        assert [r.experiment_id for r in records] == IDS
        assert all(r.schema_hash for r in records)

    def test_unknown_id_exits_2(self, tmp_path, capsys):
        assert main(["report", "--root", str(tmp_path),
                     "--only", "fig99"]) == 2
        assert "unknown experiment 'fig99'" in capsys.readouterr().err

    def test_bad_jobs_exits_2(self, tmp_path, capsys):
        assert main(["report", "--root", str(tmp_path),
                     "--only", "table1", "--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_custom_manifest_path(self, tmp_path):
        trace = tmp_path / "custom" / "trace.jsonl"
        assert main(["report", "--root", str(tmp_path),
                     "--only", "table1",
                     "--manifest", str(trace)]) == 0
        assert trace.exists()


class TestReportCheck:
    def test_fresh_docs_pass(self, generated, capsys):
        assert main(["report", "--root", str(generated),
                     "--only", *IDS, "--check"]) == 0
        assert "up to date" in capsys.readouterr().out

    def test_stale_experiments_md_fails(self, generated, capsys):
        target = generated / "EXPERIMENTS.md"
        target.write_text(target.read_text() + "\nhand edit\n")
        assert main(["report", "--root", str(generated),
                     "--only", *IDS, "--check"]) == 2
        assert "stale: EXPERIMENTS.md" in capsys.readouterr().err

    def test_missing_results_md_fails(self, generated, capsys):
        (generated / "docs" / "RESULTS.md").unlink()
        assert main(["report", "--root", str(generated),
                     "--only", *IDS, "--check"]) == 2
        assert "stale: docs/RESULTS.md" in capsys.readouterr().err

    def test_missing_results_json_fails(self, generated, capsys):
        (generated / "results.json").unlink()
        assert main(["report", "--root", str(generated),
                     "--only", *IDS, "--check"]) == 2
        assert "results.json: missing" in capsys.readouterr().err

    def test_results_json_missing_id_fails(self, generated, capsys):
        path = generated / "results.json"
        payload = json.loads(path.read_text())
        del payload["experiments"]["eq3"]
        path.write_text(json.dumps(payload))
        assert main(["report", "--root", str(generated),
                     "--only", *IDS, "--check"]) == 2
        assert "no entry for 'eq3'" in capsys.readouterr().err

    def test_results_json_stale_schema_hash_fails(self, generated, capsys):
        path = generated / "results.json"
        payload = json.loads(path.read_text())
        payload["schema_hash"] = "0000000000000000"
        path.write_text(json.dumps(payload))
        assert main(["report", "--root", str(generated),
                     "--only", *IDS, "--check"]) == 2
        assert "schema hash" in capsys.readouterr().err

    def test_results_json_tampered_counter_fails(self, generated, capsys):
        path = generated / "results.json"
        payload = json.loads(path.read_text())
        counters = payload["experiments"]["eq3"]["perf_counters"]
        counters["circuit.vtc_batch_points"] += 1
        path.write_text(json.dumps(payload))
        assert main(["report", "--root", str(generated),
                     "--only", *IDS, "--check"]) == 2
        err = capsys.readouterr().err
        assert ("perf counters of 'eq3' differ from the re-run: "
                "circuit.vtc_batch_points") in err
        assert "'table1'" not in err

    def test_check_does_not_write(self, tmp_path):
        assert main(["report", "--root", str(tmp_path),
                     "--only", "table1", "--check"]) == 2
        assert not (tmp_path / "EXPERIMENTS.md").exists()
        assert not (tmp_path / "results.json").exists()


class TestReportParallel:
    def test_jobs_output_matches_sequential(self, generated, tmp_path_factory):
        other = tmp_path_factory.mktemp("parallel")
        assert main(["report", "--root", str(other),
                     "--only", *IDS, "--jobs", "2"]) == 0
        assert (other / "EXPERIMENTS.md").read_text() \
            == (generated / "EXPERIMENTS.md").read_text()
        assert (other / "docs" / "RESULTS.md").read_text() \
            == (generated / "docs" / "RESULTS.md").read_text()
