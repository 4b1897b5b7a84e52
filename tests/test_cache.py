"""Tests for the caching layers (in-process memo + on-disk family cache)."""

import json

import numpy as np
import pytest

from repro import perf
from repro.cache import (
    LRUMemo,
    cache_dir,
    clear_disk_cache,
    device_cache_enabled,
    device_memo,
    load_brackets,
    load_family,
    model_schema_hash,
    store_brackets,
    store_family,
)
from repro.device import nfet


class TestLRUMemo:
    def test_hit_and_miss_counters(self):
        memo = LRUMemo("testmemo", maxsize=4)
        perf.reset()
        assert memo.get("a") is None
        memo.put("a", 1)
        assert memo.get("a") == 1
        assert perf.get("cache.testmemo.misses") == 1
        assert perf.get("cache.testmemo.hits") == 1

    def test_eviction_is_lru(self):
        memo = LRUMemo("testmemo", maxsize=2)
        memo.put("a", 1)
        memo.put("b", 2)
        assert memo.get("a") == 1          # touch 'a' so 'b' is LRU
        memo.put("c", 3)
        assert memo.get("b") is None
        assert memo.get("a") == 1
        assert len(memo) == 2

    def test_clear(self):
        memo = LRUMemo("testmemo")
        memo.put("a", 1)
        memo.clear()
        assert memo.get("a") is None


class TestDeviceMemo:
    PARAMS = dict(l_poly_nm=63, t_ox_nm=2.1, n_sub_cm3=1.31e18,
                  n_p_halo_cm3=1.7e18)

    def test_identical_builds_share_one_object(self):
        assert nfet(**self.PARAMS) is nfet(**self.PARAMS)

    def test_different_parameters_differ(self):
        other = dict(self.PARAMS, n_sub_cm3=1.32e18)
        assert nfet(**self.PARAMS) is not nfet(**other)

    def test_opt_out_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEVICE_CACHE", "0")
        assert not device_cache_enabled()
        assert nfet(**self.PARAMS) is not nfet(**self.PARAMS)

    def test_calibration_override_bypasses_stale_entries(self):
        from repro.scaling.sensitivity import calibration
        base = nfet(**self.PARAMS)
        with calibration(sce_prefactor=11.0):
            harsher = nfet(**self.PARAMS)
        assert harsher is not base
        assert harsher.ss_v_per_dec > base.ss_v_per_dec


class TestDiskCache:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        assert cache_dir() is None
        assert load_family("family-super-vth") is None

    def test_round_trip(self, monkeypatch, tmp_path, super_family):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        perf.reset()
        assert load_family("family-test") is None        # cold: miss
        store_family("family-test", super_family)
        reloaded = load_family("family-test")            # warm: hit
        assert reloaded is not None
        assert reloaded.node_names() == super_family.node_names()
        original = super_family.design("32nm").nfet
        round_tripped = reloaded.design("32nm").nfet
        assert round_tripped.profile.n_sub_cm3 == original.profile.n_sub_cm3
        assert perf.get("cache.family.misses") == 1
        assert perf.get("cache.family.hits") == 1

    def test_schema_hash_versions_entries(self, monkeypatch, tmp_path,
                                          super_family):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        store_family("family-test", super_family)
        # A model change re-hashes the sources and misses the old entry.
        import repro.cache as cache_mod
        monkeypatch.setattr(cache_mod, "_SCHEMA_HASH", "deadbeefdeadbeef")
        assert load_family("family-test") is None

    def test_clear_disk_cache(self, monkeypatch, tmp_path, super_family):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        store_family("family-test", super_family)
        assert clear_disk_cache() == 1
        assert load_family("family-test") is None

    def test_schema_hash_is_stable(self):
        assert model_schema_hash() == model_schema_hash()
        assert len(model_schema_hash()) == 16


class TestBracketSpill:
    """On-disk warm-start brackets of the batched doping solver."""

    @staticmethod
    def _reqs():
        from repro.device.mosfet import Polarity
        from repro.scaling.batch import DopingSolveRequest
        from repro.scaling.roadmap import node_by_name
        node = node_by_name("90nm")
        return [
            DopingSolveRequest(node=node, l_poly_nm=l, halo_ratio=1.2,
                               polarity=Polarity.NFET, width_um=1.0,
                               ioff_target=100e-12, vdd_leak=0.25)
            for l in (65.0, 58.0)
        ]

    def test_replay_is_byte_deterministic(self, monkeypatch, tmp_path):
        import repro.cache as cache_mod
        from repro.scaling.batch import (
            reset_warm_starts,
            solve_substrate_stack,
        )
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        reqs = self._reqs()

        reset_warm_starts()
        perf.reset()
        cold = solve_substrate_stack(reqs)
        assert np.all(cold.feasible)
        assert perf.get("scaling.bracket_cold_misses") == len(reqs)
        assert perf.get("scaling.bracket_warm_hits") == 0
        table = load_brackets()
        assert table is not None and len(table) == len(reqs)

        # Simulate a fresh process: drop the in-process memo *and* the
        # cached table so the brackets really come back off disk.
        reset_warm_starts()
        with cache_mod._BRACKET_LOCK:
            cache_mod._BRACKET_TABLES.clear()
        perf.reset()
        replay = solve_substrate_stack(reqs)
        assert np.array_equal(replay.root_log10, cold.root_log10)
        assert np.array_equal(replay.feasible, cold.feasible)
        assert perf.get("scaling.bracket_warm_hits") == len(reqs)
        assert perf.get("scaling.bracket_cold_misses") == 0
        # Replayed brackets are below xtol: no bisection sweeps run.
        assert perf.get("scaling.doping_bisection_sweeps") == 0
        reset_warm_starts()

    def test_disk_layer_silent_when_disabled(self, monkeypatch):
        from repro.scaling.batch import (
            reset_warm_starts,
            solve_substrate_stack,
        )
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        assert load_brackets() is None
        store_brackets({"ignored": (1.0, 2.0)})
        reset_warm_starts()
        perf.reset()
        result = solve_substrate_stack(self._reqs())
        assert np.all(result.feasible)
        assert perf.get("scaling.bracket_warm_hits") == 0
        assert perf.get("scaling.bracket_cold_misses") == 0
        reset_warm_starts()

    def test_clear_disk_cache_drops_brackets(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        store_brackets({"key": (1.25, 1.25)})
        assert load_brackets() == {"key": [1.25, 1.25]}
        assert clear_disk_cache() == 1
        assert load_brackets() == {}

    @staticmethod
    def _reload():
        """Drop the in-process table so the next load reads the file."""
        import repro.cache as cache_mod
        with cache_mod._BRACKET_LOCK:
            cache_mod._BRACKET_TABLES.clear()
        return load_brackets()

    @staticmethod
    def _spill_lines(tmp_path):
        (path,) = tmp_path.glob("brackets-*.json")
        return [json.loads(line)
                for line in path.read_text().splitlines() if line]

    def test_store_appends_one_line_of_new_entries(self, monkeypatch,
                                                   tmp_path):
        """A store costs O(new entries): one appended line holding only
        them, however large the table already is."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        self._reload()
        big = {f"k{i}": (i * 0.5, i * 0.5 + 1e-13) for i in range(2000)}
        store_brackets(big)
        store_brackets({"new-a": (1.0, 1.0), "new-b": (-2.5, -2.5),
                        "k7": big["k7"]})
        lines = self._spill_lines(tmp_path)
        assert len(lines) == 2
        assert len(lines[0]["entries"]) == 2000
        assert lines[1] == {"schema": 1, "entries": {
            "new-a": [1.0, 1.0], "new-b": [-2.5, -2.5]}}
        table = self._reload()
        assert len(table) == 2002
        assert table["k1999"] == [999.5, 999.5 + 1e-13]
        store_brackets({"k7": big["k7"]})   # nothing new: no line
        assert len(self._spill_lines(tmp_path)) == 2
        self._reload()

    def test_torn_last_line_is_skipped(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        self._reload()
        store_brackets({"kept": (1.0, 1.0)})
        store_brackets({"later": (2.0, 2.0), "kept": (3.0, 3.0)})
        (path,) = tmp_path.glob("brackets-*.json")
        with path.open("ab") as handle:          # a torn third record
            handle.write(b'\n{"entries": {"kept": [5.0, 5.0], "torn": [6')
        assert self._reload() == {"kept": [3.0, 3.0],
                                  "later": [2.0, 2.0]}
        store_brackets({"after": (4.0, 4.0)})    # not swallowed
        assert self._reload()["after"] == [4.0, 4.0]
        self._reload()

    def test_single_object_file_still_loads(self, monkeypatch, tmp_path):
        """A spill written as one JSON object without a trailing
        newline is a one-line log: it loads, and appends follow it."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        path = tmp_path / f"brackets-{model_schema_hash()}.json"
        path.write_text(json.dumps(
            {"schema": 1, "entries": {"old": [0.5, 0.5]}},
            sort_keys=True))
        assert self._reload() == {"old": [0.5, 0.5]}
        store_brackets({"new": (0.75, 0.75)})
        assert self._reload() == {"old": [0.5, 0.5], "new": [0.75, 0.75]}
        self._reload()


class TestMemoDefaultOn:
    def test_default_enabled(self, monkeypatch):
        monkeypatch.delenv("REPRO_DEVICE_CACHE", raising=False)
        assert device_cache_enabled()

    def test_memo_is_bounded(self):
        assert device_memo.maxsize >= 1024
