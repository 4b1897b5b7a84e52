"""Tests for the caching layers (in-process memo + on-disk grid store)."""

from repro import perf
from repro.cache import (
    LRUMemo,
    cache_dir,
    clear_disk_cache,
    device_cache_enabled,
    device_memo,
    grid_path,
    model_schema_hash,
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
        assert grid_path("abc") is None

    def test_schema_hash_versions_entries(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        before = grid_path("abc")
        # A model change re-hashes the sources and names a new entry.
        import repro.cache as cache_mod
        monkeypatch.setattr(cache_mod, "_SCHEMA_HASH", "deadbeefdeadbeef")
        after = grid_path("abc")
        assert after != before
        assert after == tmp_path / "grid-abc-deadbeefdeadbeef.npz"

    def test_clear_disk_cache(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        path = grid_path("abc")
        path.write_bytes(b"tensor")
        assert clear_disk_cache() == 1
        assert not path.exists()

    def test_schema_hash_is_stable(self):
        assert model_schema_hash() == model_schema_hash()
        assert len(model_schema_hash()) == 16


class TestMemoDefaultOn:
    def test_default_enabled(self, monkeypatch):
        monkeypatch.delenv("REPRO_DEVICE_CACHE", raising=False)
        assert device_cache_enabled()

    def test_memo_is_bounded(self):
        assert device_memo.maxsize >= 1024
