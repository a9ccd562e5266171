"""Disk-cache graceful degradation: unusable directories, ENOSPC
mid-write, corrupt-entry storms — the cache must demote itself to
memory-only instead of ever failing a lookup or a job."""

import json
import os

import pytest

from repro.service import CachedResult, CompilationCache
from repro.service.cli import main as batch_main
from repro.testing.faults import FaultPlan, FaultSite

from .test_engine import PAYLOAD, UNROLL


def _result(tag="out"):
    return CachedResult("success", f"module-{tag}", "", f"digest-{tag}")


class TestUnusableDirectory:
    def test_file_as_parent_degrades_at_construction(self, tmp_path):
        # makedirs cannot create a directory under a regular file —
        # robust even when running as root, unlike permission bits.
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        with pytest.warns(RuntimeWarning, match="degraded to memory-only"):
            cache = CompilationCache(disk_path=str(blocker / "cache"))
        assert cache.degraded
        assert cache.stats.disk_errors == 1
        # Memory tier still fully functional.
        cache.put("k", _result())
        assert cache.get("k").output == "module-out"
        assert cache.stats.disk_puts == 0


class TestWriteErrors:
    def test_enospc_storm_demotes_to_memory_only(self, tmp_path):
        plan = FaultPlan(seed=0,
                         rates={FaultSite.DISK_WRITE_ERROR: 1.0})
        cache = CompilationCache(disk_path=str(tmp_path / "cache"),
                                 max_disk_errors=2, faults=plan)
        with pytest.warns(RuntimeWarning, match="memory-only"):
            cache.put("a", _result("a"))
            cache.put("b", _result("b"))
        assert cache.degraded
        assert cache.stats.disk_errors == 2
        assert cache.stats.disk_puts == 0
        # Degraded puts skip the disk entirely: no third error.
        cache.put("c", _result("c"))
        assert cache.stats.disk_errors == 2
        # All three entries remain served from memory.
        for tag in ("a", "b", "c"):
            assert cache.get(tag).output == f"module-{tag}"
        # Nothing leaked onto disk (no entry files, no orphan temps).
        assert os.listdir(tmp_path / "cache") == []

    def test_single_error_below_budget_keeps_disk_tier(self, tmp_path):
        plan = FaultPlan(seed=0,
                         rates={FaultSite.DISK_WRITE_ERROR: 1.0},
                         max_fires=1)
        cache = CompilationCache(disk_path=str(tmp_path / "cache"),
                                 max_disk_errors=8, faults=plan)
        cache.put("a", _result("a"))
        cache.put("b", _result("b"))
        assert not cache.degraded
        assert cache.stats.disk_errors == 1
        assert cache.stats.disk_puts == 1


class TestCorruptEntries:
    def _seed_disk(self, path, keys):
        writer = CompilationCache(disk_path=path)
        for key in keys:
            writer.put(key, _result(key))

    def test_corrupt_entry_is_evicted_once(self, tmp_path):
        path = str(tmp_path / "cache")
        self._seed_disk(path, ["a"])
        plan = FaultPlan(seed=0,
                         rates={FaultSite.DISK_READ_CORRUPT: 1.0},
                         max_fires=1)
        reader = CompilationCache(disk_path=path, faults=plan)
        assert reader.get("a") is None
        assert reader.stats.disk_corrupt == 1
        # The corrupt file was unlinked: the next lookup is a clean
        # miss, not a second decode of garbage.
        assert reader.get("a") is None
        assert reader.stats.disk_corrupt == 1
        assert not os.path.exists(os.path.join(path, "a.json"))

    def test_corrupt_storm_demotes_tier(self, tmp_path):
        path = str(tmp_path / "cache")
        keys = ["a", "b", "c"]
        self._seed_disk(path, keys)
        plan = FaultPlan(seed=0,
                         rates={FaultSite.DISK_READ_CORRUPT: 1.0})
        reader = CompilationCache(disk_path=path, max_disk_errors=3,
                                  faults=plan)
        with pytest.warns(RuntimeWarning, match="corrupt-entry storm"):
            for key in keys:
                assert reader.get(key) is None
        assert reader.degraded
        assert reader.stats.disk_corrupt == 3

    def test_real_corrupt_files_without_injection(self, tmp_path):
        # Truncated/garbage bytes on disk (no FaultPlan) take the same
        # path: eviction, counting, degradation.
        path = tmp_path / "cache"
        path.mkdir()
        (path / "bad.json").write_text("{truncated")
        cache = CompilationCache(disk_path=str(path), max_disk_errors=1)
        with pytest.warns(RuntimeWarning):
            assert cache.get("bad") is None
        assert cache.degraded
        assert cache.stats.disk_corrupt == 1


class TestBatchJsonCounters:
    @pytest.fixture()
    def tree(self, tmp_path):
        (tmp_path / "payloads").mkdir()
        (tmp_path / "payloads" / "p.mlir").write_text(PAYLOAD)
        (tmp_path / "schedules").mkdir()
        (tmp_path / "schedules" / "s.mlir").write_text(UNROLL)
        return tmp_path

    def test_disk_counters_surface_in_metrics(self, tree, capsys):
        metrics_file = tree / "metrics.json"
        code = batch_main([
            str(tree / "payloads"),
            "--schedule", str(tree / "schedules"),
            "--jobs", "0",
            "--cache-dir", str(tree / "cache"),
            "--json", str(metrics_file),
        ])
        assert code == 0
        snapshot = json.loads(metrics_file.read_text())["metrics"]
        counters = snapshot["counters"]
        assert counters["cache.disk_errors"] == 0
        assert counters["cache.disk_corrupt"] == 0
        assert snapshot["gauges"]["cache.degraded"] == 0.0
        assert counters["engine.retries"] == 0

    def test_injected_disk_faults_counted_in_metrics(self, tree,
                                                     capsys, recwarn):
        metrics_file = tree / "metrics.json"
        code = batch_main([
            str(tree / "payloads"),
            "--schedule", str(tree / "schedules"),
            "--jobs", "0",
            "--cache-dir", str(tree / "cache"),
            "--fault", "disk_write_error=1.0",
            "--fault-seed", "0",
            "--json", str(metrics_file),
        ])
        # Disk faults never fail jobs.
        assert code == 0
        metrics = json.loads(metrics_file.read_text())
        assert metrics["metrics"]["counters"]["cache.disk_errors"] >= 1
        assert metrics["faults"]["injected"]["disk_write_error"] >= 1
        assert metrics["faults"]["schedule"]
