"""Resilience policies for the compile service.

The engine's original failure handling was a collection of hardcoded
reflexes: crash containment was a single immediate retry, a hung
worker was killed but its job simply reported TIMEOUT, and a job that
killed its worker every time it ran would be retried forever. This
module replaces those reflexes with three explicit mechanisms, all
deterministic so the fault-injection harness
(:mod:`repro.testing.faults`) can replay any recovery decision. Each
takes exactly the settings ``repro-batch``/``repro-serve`` expose:

* :class:`RetryPolicy` (``--max-attempts``, ``--retry-timeouts``,
  ``--backoff``) — how many attempts a job gets, whether a timeout is
  retry-eligible besides a crash, and the exponential backoff (with
  *deterministic* jitter derived from the job's content key, never
  from a global RNG) between attempts;
* :class:`JobQuarantine` (``--quarantine-after N``) — a circuit
  breaker keyed on the job's content address: a job that crashes or
  times out its worker ``threshold`` times is quarantined and reports
  ``POISONED`` immediately instead of killing workers forever;
* :class:`PoolHealthMonitor` (``--crash-loop-limit N``) — crash-loop
  detection: ``max_restarts`` worker replacements inside a sliding
  ``CRASH_LOOP_WINDOW`` degrade the engine to in-process
  (``workers=0``) execution with a diagnostic, trading throughput for
  liveness instead of thrashing the pool.

Every mechanism is cheap when idle — the engine only pays a dictionary
lookup or a deque scan on the failure paths, never on the hot path of
a healthy job.
"""

from __future__ import annotations

import hashlib
import struct
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Optional

#: The failures that damage the pool — the string values of
#: :class:`repro.service.engine.JobStatus` (strings, not the enum, so
#: this module stays import-light and picklable). A crash is always
#: retry-eligible, a timeout only with ``retry_timeouts``; both count
#: toward quarantine.
_POOL_FAILURES = frozenset({"crashed", "timeout"})

#: Backoff growth per attempt, its cap in seconds, and the jitter
#: fraction (see :meth:`RetryPolicy.backoff_seconds`).
BACKOFF_MULTIPLIER = 2.0
MAX_BACKOFF = 1.0
JITTER = 0.1

#: The sliding window, in seconds, of crash-loop detection.
CRASH_LOOP_WINDOW = 30.0


def _unit_interval(*fields: object) -> float:
    """Deterministic value in ``[0, 1)`` derived from ``fields``.

    SHA-256 based (not ``hash()``, which is salted per process) so the
    same (key, attempt) pair yields the same jitter in every process,
    every run — a recovery schedule is replayable from its inputs.
    """
    hasher = hashlib.sha256()
    for item in fields:
        data = str(item).encode()
        hasher.update(struct.pack(">Q", len(data)))
        hasher.update(data)
    return int.from_bytes(hasher.digest()[:8], "big") / 2**64


def _at_least(name: str, value: int, least: int) -> int:
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return value


@dataclass(frozen=True)
class RetryPolicy:
    """When and how to re-attempt a failed pool execution.

    ``max_attempts`` bounds total executions (1 = never retry). A
    crash is retry-eligible; a timeout is too with ``retry_timeouts``,
    so a transiently hung job gets another worker. Backoff before
    attempt *n+1* is::

        min(MAX_BACKOFF, base_backoff * BACKOFF_MULTIPLIER**(n-1))
            * (1 + JITTER * u(key, n))

    with ``u`` the deterministic unit-interval hash of the job key and
    attempt number — concurrent retries of different jobs decorrelate
    without any shared RNG state.
    """

    max_attempts: int = 2
    retry_timeouts: bool = False
    base_backoff: float = 0.0

    def __post_init__(self) -> None:
        _at_least("max_attempts", self.max_attempts, 1)
        if self.base_backoff < 0:
            raise ValueError("backoff seconds must be >= 0")

    def should_retry(self, status: str, attempts: int) -> bool:
        """True when a job that just failed with ``status`` after
        ``attempts`` executions deserves another one."""
        return attempts < self.max_attempts and (
            status == "crashed"
            or (status == "timeout" and self.retry_timeouts))

    def backoff_seconds(self, key: str, attempts: int) -> float:
        """Delay before the attempt following ``attempts`` failures."""
        if self.base_backoff <= 0:
            return 0.0
        raw = self.base_backoff * (
            BACKOFF_MULTIPLIER ** max(attempts - 1, 0))
        capped = min(MAX_BACKOFF, raw)
        return capped * (1.0 + JITTER * _unit_interval(key, attempts))


class JobQuarantine:
    """Thread-safe circuit breaker for poison jobs.

    A job whose content key accumulates ``threshold`` pool failures
    (crashes or timeouts — the failures that *damage the pool*; a
    definite compile error is cheap and deterministic and needs no
    breaker) is quarantined: subsequent executions (and
    re-submissions of the same content) short-circuit to ``POISONED``
    without touching the pool. A ``threshold`` of 0 disables the
    breaker: nothing is ever poisoned.

    Keys are job content addresses (:func:`repro.service.cache.cache_key`),
    so a poison job is recognized across re-submissions, coalesced
    duplicates, and — with a disk cache — across engines sharing one
    process. The ledger is bounded only by distinct failing keys;
    healthy jobs never appear in it.
    """

    def __init__(self, threshold: int):
        self.threshold = _at_least("quarantine_after", threshold, 0)
        self._failures: Dict[str, int] = {}
        self._poisoned: Dict[str, str] = {}
        self._lock = threading.Lock()

    def record_failure(self, key: str, status: str) -> bool:
        """Count one failure; True when ``key`` just became poisoned."""
        if not self.threshold or status not in _POOL_FAILURES:
            return False
        with self._lock:
            count = self._failures.get(key, 0) + 1
            self._failures[key] = count
            if count >= self.threshold and key not in self._poisoned:
                self._poisoned[key] = status
                return True
            return False

    def is_poisoned(self, key: str) -> bool:
        with self._lock:
            return key in self._poisoned

    def diagnose(self, key: str) -> str:
        """Human-readable reason for a poisoned key."""
        with self._lock:
            status = self._poisoned.get(key, "failure")
            count = self._failures.get(key, self.threshold)
        return (
            f"error: job quarantined as poisoned after {count} pool "
            f"{status} failure(s) (circuit breaker threshold "
            f"{self.threshold}); it will not be retried by "
            f"this engine"
        )


class PoolHealthMonitor:
    """Crash-loop detection: ``max_restarts`` worker replacements
    within any ``CRASH_LOOP_WINDOW`` span means the pool is doing more
    dying than working, and the engine degrades to in-process execution
    (``max_restarts=0`` never does). Thread-safe; ``record_restart``
    returns True exactly once, at the moment the crash loop is
    detected."""

    def __init__(self, max_restarts: int):
        self.max_restarts = _at_least("crash_loop_limit", max_restarts, 0)
        self._restarts: Deque[float] = deque()
        self._lock = threading.Lock()
        self._tripped = False

    def record_restart(self, now: Optional[float] = None) -> bool:
        """Record one worker replacement; True when it tips the window
        over ``max_restarts`` (the caller should degrade)."""
        if now is None:
            now = time.monotonic()
        with self._lock:
            if self._tripped or not self.max_restarts:
                return False
            self._restarts.append(now)
            horizon = now - CRASH_LOOP_WINDOW
            while self._restarts and self._restarts[0] < horizon:
                self._restarts.popleft()
            if len(self._restarts) >= self.max_restarts:
                self._tripped = True
                return True
            return False

    def diagnose(self) -> str:
        """Human-readable reason for a degradation."""
        return (
            f"warning: worker pool degraded to in-process execution "
            f"after {self.max_restarts} worker replacements within "
            f"{CRASH_LOOP_WINDOW:g}s (crash-loop detection); "
            "throughput is reduced but the service stays live"
        )
