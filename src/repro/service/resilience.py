"""Resilience policies for the compile service.

The engine's original failure handling was a collection of hardcoded
reflexes: crash containment was a single immediate retry, a hung
worker was killed but its job simply reported TIMEOUT, and a job that
killed the pool every time it ran would restart the pool forever. This
module replaces those reflexes with explicit, configurable policy
objects, all deterministic so the fault-injection harness
(:mod:`repro.testing.faults`) can replay any recovery decision:

* :class:`RetryPolicy` — how many attempts a job gets, which terminal
  statuses are retry-eligible, and the exponential backoff (with
  *deterministic* jitter derived from the job's content key, never
  from a global RNG) between attempts;
* :class:`QuarantinePolicy` / :class:`JobQuarantine` — a circuit
  breaker keyed on the job's content address: a job that crashes or
  times out the pool ``threshold`` times is quarantined and reports
  ``POISONED`` immediately instead of restarting the pool forever;
* :class:`PoolHealthPolicy` / :class:`PoolHealthMonitor` — crash-loop
  detection: ``max_restarts`` pool restarts inside a sliding
  ``window_seconds`` degrades the engine to in-process (``workers=0``)
  execution with a diagnostic, trading throughput for liveness
  instead of thrashing the pool.

Every policy is cheap when idle — the engine only pays a dictionary
lookup or a deque scan on the failure paths, never on the hot path of
a healthy job.
"""

from __future__ import annotations

import hashlib
import struct
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, FrozenSet, Optional

#: Statuses a retry/quarantine policy may be asked about. These are the
#: string values of :class:`repro.service.engine.JobStatus` — strings,
#: not the enum, so this module stays import-light and picklable.
_POOL_FAILURES = frozenset({"crashed", "timeout"})


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


@dataclass(frozen=True)
class RetryPolicy:
    """When and how to re-attempt a failed pool execution.

    ``max_attempts`` bounds total executions (1 = never retry).
    ``retry_statuses`` names the status strings eligible for retry —
    ``{"crashed"}`` reproduces the historical retry-once-on-crash
    behaviour; adding ``"timeout"`` lets a transiently hung job get
    another worker. Backoff before attempt *n+1* is::

        min(max_backoff, base_backoff * multiplier**(n-1))
            * (1 + jitter * u(key, n))

    with ``u`` the deterministic unit-interval hash of the job key and
    attempt number — concurrent retries of different jobs decorrelate
    without any shared RNG state.
    """

    max_attempts: int = 2
    retry_statuses: FrozenSet[str] = frozenset({"crashed"})
    base_backoff: float = 0.0
    backoff_multiplier: float = 2.0
    max_backoff: float = 1.0
    jitter: float = 0.1

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_backoff < 0 or self.max_backoff < 0:
            raise ValueError("backoff seconds must be >= 0")
        unknown = frozenset(self.retry_statuses) - _POOL_FAILURES
        if unknown:
            raise ValueError(
                f"retry_statuses may only name pool failures "
                f"{sorted(_POOL_FAILURES)}, got {sorted(unknown)}"
            )

    @staticmethod
    def none() -> "RetryPolicy":
        """No retries at all (every failure is terminal)."""
        return RetryPolicy(max_attempts=1, retry_statuses=frozenset())

    def should_retry(self, status: str, attempts: int) -> bool:
        """True when a job that just failed with ``status`` after
        ``attempts`` executions deserves another one."""
        return (attempts < self.max_attempts
                and status in self.retry_statuses)

    def backoff_seconds(self, key: str, attempts: int) -> float:
        """Delay before the attempt following ``attempts`` failures."""
        if self.base_backoff <= 0:
            return 0.0
        raw = self.base_backoff * (
            self.backoff_multiplier ** max(attempts - 1, 0)
        )
        capped = min(self.max_backoff, raw)
        return capped * (1.0 + self.jitter * _unit_interval(key, attempts))


@dataclass(frozen=True)
class QuarantinePolicy:
    """Circuit-breaker configuration for poison jobs.

    A job whose content key accumulates ``threshold`` failures with a
    status in ``statuses`` is quarantined: subsequent executions (and
    re-submissions of the same content) short-circuit to ``POISONED``
    without touching the pool. Crashes and timeouts are the default
    because those are the failure modes that *damage the pool* — a
    definite compile error is cheap and deterministic and needs no
    breaker.
    """

    threshold: int = 3
    statuses: FrozenSet[str] = _POOL_FAILURES

    def __post_init__(self) -> None:
        if self.threshold < 1:
            raise ValueError("quarantine threshold must be >= 1")


class JobQuarantine:
    """Thread-safe failure ledger implementing a :class:`QuarantinePolicy`.

    Keys are job content addresses (:func:`repro.service.cache.cache_key`),
    so a poison job is recognized across re-submissions, coalesced
    duplicates, and — with a disk cache — across engines sharing one
    process. The ledger is bounded only by distinct failing keys;
    healthy jobs never appear in it.
    """

    def __init__(self, policy: Optional[QuarantinePolicy] = None):
        self.policy = policy or QuarantinePolicy()
        self._failures: Dict[str, int] = {}
        self._poisoned: Dict[str, str] = {}
        self._lock = threading.Lock()

    def record_failure(self, key: str, status: str) -> bool:
        """Count one failure; True when ``key`` just became poisoned."""
        if status not in self.policy.statuses:
            return False
        with self._lock:
            count = self._failures.get(key, 0) + 1
            self._failures[key] = count
            if count >= self.policy.threshold and key not in self._poisoned:
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
            count = self._failures.get(key, self.policy.threshold)
        return (
            f"error: job quarantined as poisoned after {count} pool "
            f"{status} failure(s) (circuit breaker threshold "
            f"{self.policy.threshold}); it will not be retried by "
            f"this engine"
        )


@dataclass(frozen=True)
class PoolHealthPolicy:
    """Crash-loop detection: ``max_restarts`` pool restarts within any
    ``window_seconds`` span means the pool is doing more dying than
    working, and the engine degrades to in-process execution."""

    max_restarts: int = 6
    window_seconds: float = 30.0

    def __post_init__(self) -> None:
        if self.max_restarts < 1:
            raise ValueError("max_restarts must be >= 1")
        if self.window_seconds <= 0:
            raise ValueError("window_seconds must be > 0")


@dataclass
class PoolHealthMonitor:
    """Sliding-window restart counter implementing
    :class:`PoolHealthPolicy`. Thread-safe; ``record_restart`` returns
    True exactly once, at the moment the crash loop is detected."""

    policy: PoolHealthPolicy = field(default_factory=PoolHealthPolicy)
    _restarts: Deque[float] = field(default_factory=deque)
    _lock: threading.Lock = field(default_factory=threading.Lock)
    _tripped: bool = False

    def record_restart(self, now: Optional[float] = None) -> bool:
        """Record one pool restart; True when this restart tips the
        window over ``max_restarts`` (the caller should degrade)."""
        if now is None:
            now = time.monotonic()
        with self._lock:
            if self._tripped:
                return False
            self._restarts.append(now)
            horizon = now - self.policy.window_seconds
            while self._restarts and self._restarts[0] < horizon:
                self._restarts.popleft()
            if len(self._restarts) >= self.policy.max_restarts:
                self._tripped = True
                return True
            return False
