"""Cache-key framing, disk-tier races/corruption, and the function tier."""

import json
import os
import threading

from repro.service import CachedResult, CompilationCache, cache_key
from repro.service.cache import function_key


def _result(tag="out"):
    return CachedResult("success", tag)


class TestKeyFraming:
    def test_separator_spanning_pairs_distinct(self):
        # With bare \x00 separators these two framed identically:
        # ("a\x00b", "c") and ("a", "b\x00c") both hashed a\0b\0c...
        assert cache_key("a\x00b", "c") != cache_key("a", "b\x00c")

    def test_field_boundary_cannot_shift(self):
        assert cache_key("ab", "") != cache_key("a", "b")
        assert cache_key("", "ab") != cache_key("a", "b")

    def test_params_typed_int_vs_bool(self):
        assert cache_key("p", "s", {"n": 1}) != \
            cache_key("p", "s", {"n": True})

    def test_params_cannot_span_into_entry_point(self):
        assert cache_key("p", "s", None, "x") != \
            cache_key("p", "s" + "x", None, None)

    def test_empty_params_equals_none(self):
        assert cache_key("p", "s", {}) == cache_key("p", "s", None)

    def test_function_key_sensitive_to_every_component(self):
        base = function_key("fd", "sd")
        assert function_key("fe", "sd") != base
        assert function_key("fd", "se") != base
        assert function_key("fd", "sd", {"n": 2}) != base
        assert function_key("fd", "sd") == base

    def test_function_key_distinct_namespace_from_cache_key(self):
        # Same raw fields through either key function must never
        # produce the same address (domain separation).
        assert function_key("p", "s") != cache_key("p", "s")


class TestDiskTmpRace:
    def test_tmp_suffix_unique_per_call(self, tmp_path, monkeypatch):
        cache = CompilationCache(capacity=4, disk_path=str(tmp_path))
        seen = []
        real_replace = os.replace

        def recording_replace(src, dst):
            seen.append(src)
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", recording_replace)
        cache.put("k", _result("one"))
        cache.put("k", _result("two"))
        assert len(seen) == 2 and seen[0] != seen[1]

    def test_concurrent_same_key_puts_never_corrupt(self, tmp_path):
        cache = CompilationCache(capacity=64, disk_path=str(tmp_path))
        # One short and one long payload: with a shared temp file,
        # interleaved writes leave a truncated/garbled JSON behind.
        payloads = ["x" * 10, "y" * 100_000]

        def hammer(index):
            for round_ in range(20):
                cache.put("hot", _result(payloads[index % 2]))

        threads = [threading.Thread(target=hammer, args=(i,))
                   for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        with open(os.path.join(str(tmp_path), "hot.json")) as handle:
            decoded = json.loads(handle.read())
        assert decoded["output"] in payloads
        # No temp files left behind either.
        leftovers = [name for name in os.listdir(str(tmp_path))
                     if ".tmp." in name]
        assert leftovers == []


class TestDiskIoOutsideTheLock:
    """The cache lock guards the LRU and the counters, not the files:
    while one thread sits inside a disk read or write, another
    thread's — the event loop's — memory lookups go on."""

    @staticmethod
    def _while_parked_in_open(monkeypatch, parks, slow, fast):
        """Run ``slow`` on a thread until it parks inside an ``open``
        that ``parks(path, mode)`` selects, run ``fast`` on another,
        release; returns (slow's result, fast's result — None if it
        got stuck behind the parked call)."""
        import builtins

        parked, release = threading.Event(), threading.Event()
        real_open = builtins.open

        def parking_open(path, mode="r", *args, **kwargs):
            if parks(str(path), mode):
                parked.set()
                assert release.wait(30.0)
            return real_open(path, mode, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", parking_open)
        results = {}
        threads = {name: threading.Thread(
            target=lambda name=name, call=call:
            results.__setitem__(name, call()))
            for name, call in (("slow", slow), ("fast", fast))}
        threads["slow"].start()
        try:
            assert parked.wait(30.0)
            threads["fast"].start()
            threads["fast"].join(5.0)
            stuck = threads["fast"].is_alive()
        finally:
            release.set()
            for thread in threads.values():
                if thread.ident is not None:
                    thread.join(30.0)
        assert not stuck, "a memory lookup waited for another thread's disk"
        return results["slow"], results["fast"]

    def test_a_parked_disk_write_does_not_delay_a_memory_get(
            self, tmp_path, monkeypatch):
        cache = CompilationCache(capacity=8, disk_path=str(tmp_path))
        cache.put("resident", _result("warm"))
        _, found = self._while_parked_in_open(
            monkeypatch,
            lambda path, mode: "w" in mode and ".json.tmp." in path,
            lambda: cache.put("slow", _result("slow")),
            lambda: (cache.get("resident"), cache.get("slow", disk=False),
                     cache.get("absent", disk=False), len(cache)))
        # The parked put's entry was already in the memory tier.
        assert [r and r.output for r in found[:3]] == ["warm", "slow", None]
        assert found[3] == 2
        assert cache.stats.disk_puts == 2 and cache.stats.puts == 2

    def test_a_disk_read_does_not_hold_the_lock(self, tmp_path,
                                                monkeypatch):
        CompilationCache(disk_path=str(tmp_path)).put("k", _result("cold"))
        cache = CompilationCache(capacity=8, disk_path=str(tmp_path))
        cache.put("resident", _result("warm"))
        cold, warm = self._while_parked_in_open(
            monkeypatch,
            lambda path, mode: mode == "r" and path.endswith("k.json"),
            lambda: cache.get("k"), lambda: cache.get("resident"))
        assert (cold.output, warm.output) == ("cold", "warm")
        assert cache.stats.disk_hits == 1 and cache.stats.hits == 2


class TestDiskCorruption:
    def test_corrupt_entry_unlinked_and_counted(self, tmp_path):
        path = str(tmp_path)
        writer = CompilationCache(capacity=4, disk_path=path)
        key = cache_key("p", "s")
        writer.put(key, _result())
        with open(os.path.join(path, f"{key}.json"), "w") as handle:
            handle.write('{"status": "success", "outp')  # truncated
        reader = CompilationCache(capacity=4, disk_path=path)
        assert reader.get(key) is None
        assert reader.stats.disk_corrupt == 1
        assert not os.path.exists(os.path.join(path, f"{key}.json"))
        # Second lookup is a clean miss: the poison is gone.
        assert reader.get(key) is None
        assert reader.stats.disk_corrupt == 1

    def test_missing_entry_is_not_corruption(self, tmp_path):
        cache = CompilationCache(capacity=4, disk_path=str(tmp_path))
        assert cache.get("absent") is None
        assert cache.stats.disk_corrupt == 0

    def test_clear_removes_orphaned_tmp_files(self, tmp_path):
        path = str(tmp_path)
        cache = CompilationCache(capacity=4, disk_path=path)
        cache.put("k", _result())
        orphan = os.path.join(path, "k.json.tmp.999.888.7")
        with open(orphan, "w") as handle:
            handle.write("{partial")
        cache.clear(disk=True)
        assert os.listdir(path) == []


class TestFunctionTierStore:
    def test_roundtrip_and_stats(self):
        cache = CompilationCache(capacity=8)
        key = function_key("fd", "sd")
        assert cache.get_function(key) is None
        cache.put_function(key, _result("fn-out"))
        hit = cache.get_function(key)
        assert hit is not None and hit.output == "fn-out"
        assert cache.stats.function_misses == 1
        assert cache.stats.function_hits == 1
        assert cache.stats.function_puts == 1

    def test_namespaced_from_whole_job_tier(self):
        cache = CompilationCache(capacity=8)
        cache.put_function("shared", _result("fn"))
        assert cache.get("shared") is None
        cache.put("shared", _result("job"))
        assert cache.get_function("shared").output == "fn"
        assert cache.get("shared").output == "job"

    def test_function_entries_spill_to_disk(self, tmp_path):
        path = str(tmp_path)
        writer = CompilationCache(capacity=8, disk_path=path)
        writer.put_function("abc", _result("fn-out"))
        reader = CompilationCache(capacity=8, disk_path=path)
        hit = reader.get_function("abc")
        assert hit is not None and hit.output == "fn-out"
        assert reader.stats.disk_hits == 1
        # A tier entry's names survive the JSON round trip as the
        # tuple they were (the engine refuses anything else).
        entry = CachedResult("success", "fn-out", "", "d" * 64, (7, 3, 2, 1))
        assert CachedResult.from_json(entry.to_json()) == entry
        writer.put_function("named", entry)
        assert CompilationCache(capacity=8, disk_path=path) \
            .get_function("named") == entry
        # A whole-job entry has none, and neither has a file written
        # before there were any.
        assert hit.names is None
        assert CachedResult.from_json(
            '{"status": "success", "output": "o"}').names is None
        assert CachedResult.from_json(
            '{"status": "success", "output": "o", "names": 4}').names is None

    def test_output_digest_survives_disk_roundtrip(self, tmp_path):
        path = str(tmp_path)
        writer = CompilationCache(capacity=8, disk_path=path)
        writer.put("k", CachedResult("success", "out", "", "d" * 64))
        reader = CompilationCache(capacity=8, disk_path=path)
        assert reader.get("k").output_digest == "d" * 64
