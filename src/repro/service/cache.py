"""Content-addressed compilation cache.

A compilation is a pure function of (payload, script, parameter
bindings, entry point); the cache keys on the SHA-256 of that tuple
and stores the *printed* result module plus its outcome
classification. Storage is a thread-safe in-memory LRU with an
optional on-disk spill directory so warm results survive process
restarts; disk hits are promoted back into memory.

Two granularities share the store:

* the **whole-job tier** — one entry per (payload, script, params,
  entry point) tuple, looked up by :func:`cache_key`;
* the **function tier** — one entry per (``func.func`` digest, script
  digest, params) tuple, looked up by :func:`function_key`. Two
  payloads sharing 9 of 10 functions share 9 entries here, because
  the key is the *digest* of the function
  (:func:`repro.ir.hashing.op_digest`, the hash of its standalone
  print), not the module it arrived in.

The two tiers share one LRU, and **residency** is the LRU's policy: a
whole-job entry remembers the function keys of its job
(``CachedResult.uses``) and a hit on it refreshes those entries too, so
a hot job keeps the function entries a near-repeat of it will splice.
File I/O of the disk tier happens outside the cache lock: a memory
lookup never waits for another thread's disk.

Only successful (or silenceable-with-output) compilations are cached —
definite failures are cheap to reproduce and usually transient in a
development loop, and caching them would mask fixes to transform code.

The disk tier **degrades gracefully**: an unusable cache directory,
ENOSPC/EACCES mid-write, or a storm of corrupt entries demotes the
cache to memory-only (``stats.degraded``, with a counted
``disk_errors`` warning) instead of ever failing a lookup or a job —
a sick disk slows the service down, it does not take it down.
"""

from __future__ import annotations

import errno
import hashlib
import itertools
import json
import os
import struct
import threading
import warnings
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from ..testing.faults import FaultPlan, FaultSite
from .worker import ParamBindings

_LEN = struct.Struct(">Q").pack


def _frame(hasher, data: bytes) -> None:
    """Length-prefix ``data`` so adjacent fields can never be re-split.

    A bare separator byte lets ``("a\\x00b", "c")`` and ``("a",
    "b\\x00c")`` collide onto one digest; an 8-byte big-endian length
    prefix on every field makes the framing injective.
    """
    hasher.update(_LEN(len(data)))
    hasher.update(data)


def _params_blob(params: Optional[ParamBindings]) -> bytes:
    """Canonical, *typed* serialization of parameter bindings.

    ``json.dumps`` with ``sort_keys=True`` over the native values keeps
    ``{"n": 1}`` and ``{"n": true}`` distinct (``1`` vs ``true``) and
    makes binding order irrelevant. Scalars normalize to singleton
    lists because ``bind_parameters`` treats ``4`` and ``[4]``
    identically — the key must too.
    """
    if not params:
        return b""
    canonical = {
        key: list(value) if isinstance(value, (list, tuple)) else [value]
        for key, value in params.items()
    }
    return json.dumps(canonical, sort_keys=True,
                      separators=(",", ":")).encode()


def cache_key(payload_digest: str, script_digest: str,
              params: Optional[ParamBindings] = None,
              entry_point: Optional[str] = None) -> str:
    """SHA-256 content address of one whole compilation job.

    ``payload_digest`` and ``script_digest`` are digests of the job's
    two inputs, not their text: the engine passes
    :func:`repro.ir.hashing.op_digest` values. Each is framed whole
    into the key, so any digest spelling keys consistently. The key
    domain need not move with the digest's: a digest from another
    ``hashing._DOMAIN`` is another string, so a key framing it can
    never recur."""
    hasher = hashlib.sha256(b"repro-cache-key-v2")
    _frame(hasher, payload_digest.encode())
    _frame(hasher, script_digest.encode())
    _frame(hasher, _params_blob(params))
    _frame(hasher, entry_point.encode() if entry_point else b"")
    return hasher.hexdigest()


def function_key(func_digest: str, script_digest: str,
                 params: Optional[ParamBindings] = None) -> str:
    """SHA-256 address of one function's compilation under one script.

    ``func_digest`` is the digest of a standalone ``func.func``
    (:func:`repro.ir.hashing.op_digest`, the hash of its print from
    ``%0``), so the key is independent of which module the function
    appeared in and of its printed-name numbering. The entry stored
    under it holds the *transformed* function: its text under the
    names it was printed with, where those sit (``names``) and, as
    ``output_digest``, the digest of that ``func.func``. Like
    :func:`cache_key`'s, the key domain stays when the digest's moves:
    the framed digests change, so no old key recurs.
    """
    # v3: an entry keeps the names it was printed with and records
    # them (a v2 entry is numbered from %0 and says nothing; v1
    # entries carry their wrapper module's digest).
    hasher = hashlib.sha256(b"repro-fn-key-v3")
    _frame(hasher, func_digest.encode())
    _frame(hasher, script_digest.encode())
    _frame(hasher, _params_blob(params))
    return hasher.hexdigest()


@dataclass
class CacheStats:
    """Hit/miss/eviction accounting, memory and disk tiers separately.

    ``function_*`` count the per-function digest tier;
    ``disk_corrupt`` counts undecodable disk entries that were evicted
    on read (a corrupt file is unlinked the first time it is seen, so
    it can never poison more than one lookup).
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    puts: int = 0
    disk_hits: int = 0
    disk_puts: int = 0
    disk_corrupt: int = 0
    #: I/O failures (ENOSPC, EACCES, unusable directory, ...) on the
    #: disk tier; every one is survived, and enough of them demote the
    #: cache to memory-only (``degraded``).
    disk_errors: int = 0
    #: Stale ``*.tmp.*`` files swept at cache startup — writers killed
    #: between creating a temp file and renaming it into place (the
    #: chaos driver's worker kills do exactly this) leave them behind,
    #: and a long-lived server would otherwise accumulate them forever.
    disk_orphans_swept: int = 0
    #: True once the disk tier was demoted to memory-only.
    degraded: bool = False
    function_hits: int = 0
    function_misses: int = 0
    function_puts: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> Dict[str, float]:
        return dict(self.__dict__, hit_rate=self.hit_rate)


@dataclass
class CachedResult:
    """The cache value: a finished compilation.

    ``status`` is the job classification string ("success" or
    "silenceable"); ``output`` the printed result module;
    ``diagnostics`` whatever warnings the run produced;
    ``output_digest`` the digest of the output module when
    the producer computed one (lets consumers compare identity without
    reparsing the text); ``names``, on a function-tier entry only,
    where the names of ``output`` sit — ``(value_base, values,
    block_base, blocks)``, see
    :func:`repro.service.sharding.function_entries`; ``uses``, on a
    whole-job entry only, the function-tier keys of the job's
    functions (see :meth:`CompilationCache.get`).
    """

    status: str
    output: str
    diagnostics: str = ""
    output_digest: Optional[str] = None
    names: Optional[Tuple[int, int, int, int]] = None
    uses: Sequence[str] = ()

    @property
    def splices(self) -> bool:
        """True for a function-tier entry the engine can splice: a
        clean success that knows its function's digest and where its
        names sit (four counts — a hand-made, older or damaged entry
        without them is a miss, and the execution that miss causes
        replaces it)."""
        return (self.status == "success" and not self.diagnostics
                and self.output_digest is not None
                and isinstance(self.names, tuple) and len(self.names) == 4
                and all(type(n) is int and n >= 0 for n in self.names))

    def to_json(self) -> str:
        return json.dumps(self.__dict__)

    @staticmethod
    def from_json(text: str) -> "CachedResult":
        data = json.loads(text)
        names = data.get("names")
        return CachedResult(data["status"], data["output"],
                            data.get("diagnostics", ""),
                            data.get("output_digest"),
                            tuple(names) if isinstance(names, list) else None,
                            tuple(data.get("uses") or ()))


#: Namespace prefix separating function-tier entries from whole-job
#: entries inside the shared LRU / disk directory.
_FN_PREFIX = "fn-"

_tmp_counter = itertools.count()


class CompilationCache:
    """Thread-safe LRU over content-addressed compilation results.

    ``capacity`` bounds the in-memory tier (entries, not bytes — result
    modules are comparable in size for a given workload). ``disk_path``
    enables the on-disk tier: one JSON file per key, written on every
    put, consulted on memory misses. Whole-job and function-tier
    entries share both tiers (function keys are namespaced), so one
    capacity bound governs total footprint.
    """

    def __init__(self, capacity: int = 256,
                 disk_path: Optional[str] = None,
                 max_disk_errors: int = 8,
                 faults: Optional[FaultPlan] = None):
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        if max_disk_errors < 1:
            raise ValueError("max_disk_errors must be >= 1")
        self.capacity = capacity
        self.disk_path = disk_path
        #: Disk I/O errors + corrupt entries tolerated before the disk
        #: tier is demoted to memory-only.
        self.max_disk_errors = max_disk_errors
        #: Deterministic fault schedule (testing only; None in prod).
        self.faults = faults
        self.stats = CacheStats()
        self._entries: "OrderedDict[str, CachedResult]" = OrderedDict()
        self._lock = threading.Lock()
        if disk_path is not None:
            try:
                os.makedirs(disk_path, exist_ok=True)
            except OSError as error:
                # An unusable cache directory must not fail the
                # service — run memory-only from the start.
                self.stats.disk_errors += 1
                self._degrade_disk(f"cache directory unusable: {error}")
            else:
                self._sweep_tmp_orphans()

    def _sweep_tmp_orphans(self) -> None:
        """Remove stale ``*.json.tmp.*`` files left by writers that
        died between creating a temp file and ``os.replace``-ing it
        into place. ``clear(disk=True)`` also sweeps them, but a
        long-lived server never calls ``clear`` — init is the one
        point every cache lifetime passes through. Counted in
        ``stats.disk_orphans_swept`` (adjacent to ``disk_errors`` in
        the stats surface) so operators can see crashed writers."""
        try:
            names = os.listdir(self.disk_path)
        except OSError as error:
            self._record_disk_trouble(f"orphan sweep failed: {error}")
            return
        for name in names:
            if ".json.tmp." not in name:
                continue
            try:
                os.unlink(os.path.join(self.disk_path, name))
            except OSError:
                continue
            self.stats.disk_orphans_swept += 1

    @property
    def degraded(self) -> bool:
        """True once the disk tier was demoted to memory-only."""
        return self.stats.degraded

    def _degrade_disk(self, reason: str) -> None:
        """Demote to memory-only (idempotent); under the cache lock."""
        if self.stats.degraded:
            return
        self.stats.degraded = True
        warnings.warn(
            f"repro compilation cache: disk tier degraded to "
            f"memory-only after {self.stats.disk_errors} I/O error(s) "
            f"and {self.stats.disk_corrupt} corrupt entrie(s): {reason}",
            RuntimeWarning,
            stacklevel=3,
        )

    def _record_disk_trouble(self, reason: str,
                             counter: str = "disk_errors") -> None:
        """Count one disk error (or ``disk_corrupt`` entry) and demote
        once the budget is spent. File I/O happens outside the cache
        lock; what it finds is counted here, under it."""
        with self._lock:
            setattr(self.stats, counter, getattr(self.stats, counter) + 1)
            if (self.stats.disk_errors + self.stats.disk_corrupt
                    >= self.max_disk_errors):
                self._degrade_disk(reason)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # -- lookup / insert -----------------------------------------------------

    def get(self, key: str, count_miss: bool = True,
            disk: bool = True) -> Optional[CachedResult]:
        """Look ``key`` up in memory, then (``disk``) on disk.

        ``count_miss=False`` suppresses the miss counter for
        re-lookups that already counted one (the engine's
        single-flight leader double-checks the cache after winning
        the in-flight slot) or that will be repeated if they miss
        (admission, which also stays off the ``disk``); hits always
        count. A hit is also a use of the function entries the result
        says it is made of (``CachedResult.uses``): they are refreshed
        with it — else a hot job's function entries age out under
        novel puts while the job itself stays, and a near-repeat of it
        finds nothing to splice.

        The file of a disk entry is read and decoded outside the lock:
        a memory lookup never waits for another thread's disk.
        """
        with self._lock:
            result = self._entries.get(key)
            if result is not None:
                for used in result.uses:
                    used = _FN_PREFIX + used
                    if used in self._entries:
                        self._entries.move_to_end(used)
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return result
        result = self._disk_get(key) if disk else None
        with self._lock:
            if result is not None:
                # Promote: a disk hit is still a hit, and hot keys
                # should not pay the file read twice.
                self.stats.hits += 1
                self.stats.disk_hits += 1
                self._insert(key, result)
            elif count_miss:
                self.stats.misses += 1
        return result

    def put(self, key: str, result: CachedResult) -> None:
        with self._lock:
            self.stats.puts += 1
            self._insert(key, result)
        self._disk_put(key, result)

    def get_function(self, key: str,
                     count: bool = True) -> Optional[CachedResult]:
        """Function-tier lookup (key from :func:`function_key`).

        ``count=False`` is the engine reading back, from memory, the
        entry a sub-job of the asking job has just published: that is
        no lookup of its own — the one that missed is already counted —
        and moves no counter."""
        if not count:
            with self._lock:
                return self._entries.get(_FN_PREFIX + key)
        result = self.get(_FN_PREFIX + key)
        with self._lock:
            # get() above already counted the whole-cache hit/miss;
            # mirror it into the per-tier counters.
            if result is not None:
                self.stats.function_hits += 1
            else:
                self.stats.function_misses += 1
        return result

    def put_function(self, key: str, result: CachedResult) -> None:
        """Function-tier insert (key from :func:`function_key`)."""
        self.put(_FN_PREFIX + key, result)
        with self._lock:
            self.stats.function_puts += 1

    def clear(self, disk: bool = False) -> None:
        """Drop the memory tier (and the disk tier with ``disk=True``).

        The disk sweep also removes orphaned ``*.tmp.*`` files left by
        writers that died between creating a temp file and renaming it
        into place.
        """
        with self._lock:
            self._entries.clear()
            if disk and self.disk_path is not None:
                try:
                    names = os.listdir(self.disk_path)
                except OSError:
                    names = []
                for name in names:
                    if name.endswith(".json") or ".json.tmp." in name:
                        try:
                            os.unlink(os.path.join(self.disk_path, name))
                        except OSError:
                            pass

    # -- internals -----------------------------------------------------------

    def _insert(self, key: str, result: CachedResult) -> None:
        self._entries[key] = result
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def _disk_file(self, key: str) -> str:
        return os.path.join(self.disk_path, f"{key}.json")

    def _disk_get(self, key: str) -> Optional[CachedResult]:
        if self.disk_path is None or self.stats.degraded:
            return None
        path = self._disk_file(key)
        try:
            with open(path) as handle:
                text = handle.read()
        except FileNotFoundError:
            # A normal miss, not a sick disk.
            return None
        except OSError as error:
            self._record_disk_trouble(f"read failed: {error}")
            return None
        if self.faults is not None and self.faults.fire(
                FaultSite.DISK_READ_CORRUPT, key):
            # Injected bit rot: hand the decoder garbage.
            text = text[: len(text) // 2] + "\x00corrupt"
        try:
            return CachedResult.from_json(text)
        except (ValueError, KeyError):
            # The file exists but does not decode: truncated write,
            # bit rot, or a foreign format. Evict it so subsequent
            # lookups miss cleanly instead of re-parsing garbage
            # forever; a storm of these demotes the tier entirely.
            try:
                os.unlink(path)
            except OSError:
                pass
            self._record_disk_trouble("corrupt-entry storm", "disk_corrupt")
            return None

    def _disk_put(self, key: str, result: CachedResult) -> None:
        if self.disk_path is None or self.stats.degraded:
            return
        path = self._disk_file(key)
        # Unique per call, not just per process: two threads writing
        # the same key with a pid-only suffix race on one temp file and
        # can os.replace() a partially rewritten one.
        tmp = (f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
               f".{next(_tmp_counter)}")
        try:
            if self.faults is not None and self.faults.fire(
                    FaultSite.DISK_WRITE_ERROR, key):
                raise OSError(errno.ENOSPC,
                              "injected: no space left on device")
            with open(tmp, "w") as handle:
                handle.write(result.to_json())
            os.replace(tmp, path)
            with self._lock:
                self.stats.disk_puts += 1
        except OSError as error:
            # Disk tier is best-effort; memory tier already holds it.
            try:
                os.unlink(tmp)
            except OSError:
                pass
            self._record_disk_trouble(f"write failed: {error}")
