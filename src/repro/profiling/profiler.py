"""The profiler: counters and timers behind the `-mlir-timing` report.

A single :class:`Profiler` instance is threaded through the hot paths —
the transform interpreter (per-transform-op timing), the greedy pattern
driver (per-pattern match/apply counts and wall time, worklist depth),
the pass manager (per-pass timing) and the transform state (handle
invalidation fan-out). Every recording entry point is a no-op-cheap
method call; callers only pay the ``perf_counter`` cost when a profiler
is actually attached.

The textual report mirrors MLIR's ``-mlir-timing`` output: one section
per instrument, rows sorted by total wall time.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional

from ..observability.metrics import DEPTH_BUCKETS, MetricsRegistry


@dataclass
class PatternStat:
    """Match/apply accounting for one rewrite pattern."""

    attempts: int = 0
    applies: int = 0
    seconds: float = 0.0

    @property
    def hit_rate(self) -> float:
        return self.applies / self.attempts if self.attempts else 0.0


@dataclass
class TimedStat:
    """Count + wall time for a named unit (transform op or pass)."""

    count: int = 0
    seconds: float = 0.0


@dataclass
class WorklistStats:
    """Greedy-driver worklist traffic."""

    pushes: int = 0
    pops: int = 0
    max_depth: int = 0
    #: Number of driver runs these counters aggregate over.
    runs: int = 0


@dataclass
class InvalidationStats:
    """Handle-invalidation fan-out (consume events vs handles killed)."""

    events: int = 0
    handles_invalidated: int = 0

    @property
    def mean_fanout(self) -> float:
        return self.handles_invalidated / self.events if self.events else 0.0


@dataclass
class ServiceStats:
    """Compile-service traffic (queue depth, jobs, cache, restarts).

    Fed by :class:`repro.service.engine.CompileEngine` and the asyncio
    frontier; ``jobs_by_status`` buckets finished jobs by their
    :class:`~repro.service.engine.JobStatus` value.
    ``worker_restarts`` is a read-only view of the registry counter
    the engine's accounting point records.
    """

    jobs: int = 0
    job_seconds: float = 0.0
    max_job_seconds: float = 0.0
    jobs_by_status: Dict[str, int] = field(default_factory=dict)
    cache_hits: int = 0
    cache_misses: int = 0
    queue_samples: int = 0
    queue_depth_sum: int = 0
    max_queue_depth: int = 0
    registry: MetricsRegistry = field(default_factory=MetricsRegistry,
                                      repr=False)

    @property
    def worker_restarts(self) -> int:
        return int(self.registry.value("service.worker_restarts"))

    @property
    def hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def mean_job_seconds(self) -> float:
        return self.job_seconds / self.jobs if self.jobs else 0.0

    @property
    def mean_queue_depth(self) -> float:
        if not self.queue_samples:
            return 0.0
        return self.queue_depth_sum / self.queue_samples


class ResilienceStats:
    """Fault-recovery accounting for the compile service: a read-only
    view of the ``resilience.*`` registry counters.

    :class:`repro.service.engine.CompileEngine` records them (its
    ``EngineStats`` is the store) whenever a resilience policy acts:
    a retry is granted (with its backoff), a job digest is quarantined
    (:data:`JobStatus.POISONED`), or the pool-health monitor trips and
    degrades the engine to in-process execution. All zeros unless
    faults (real or injected via :mod:`repro.testing.faults`) actually
    occurred.
    """

    FIELDS = ("retries", "backoff_seconds", "quarantined",
              "pool_degradations")

    def __init__(self, registry: MetricsRegistry) -> None:
        self._registry = registry

    def __getattr__(self, name: str) -> float:
        if name not in self.FIELDS:
            raise AttributeError(name)
        value = self._registry.value(f"resilience.{name}")
        return value if name == "backoff_seconds" else int(value)


class Profiler:
    """Collects timing/counter data from the transform hot paths.

    The hot-path instruments are cheap dataclass sections (the
    ``-mlir-timing`` report) synced onto a unified
    :class:`~repro.observability.metrics.MetricsRegistry` by
    :meth:`registry_snapshot`, which returns the one versioned JSON
    schema consumers (``repro-batch --json``, ``repro-serve`` stats)
    read. Service-level distributions (job wall time, queue depth,
    per-transform-op seconds) are recorded into registry histograms
    *live*; the engine's restart and resilience counters live only in
    the registry (the engine's accounting point records them) and
    ``service.worker_restarts`` / ``resilience`` are views of it.
    """

    #: Version of the :meth:`to_json` report shape.
    SCHEMA_VERSION = 2

    def __init__(self) -> None:
        self.patterns: Dict[str, PatternStat] = {}
        self.transforms: Dict[str, TimedStat] = {}
        self.passes: Dict[str, TimedStat] = {}
        self.worklist = WorklistStats()
        self.invalidation = InvalidationStats()
        #: The unified metrics registry this profiler feeds.
        self.registry = MetricsRegistry()
        self.service = ServiceStats(registry=self.registry)
        self.resilience = ResilienceStats(self.registry)
        # Hot-path instruments, resolved once (observe() is then one
        # bisect + a few adds under the instrument's own lock).
        self._h_transform_seconds = self.registry.histogram(
            "interpreter.transform_seconds"
        )
        self._h_job_seconds = self.registry.histogram(
            "service.job_seconds"
        )
        self._h_queue_depth = self.registry.histogram(
            "service.queue_depth", DEPTH_BUCKETS
        )
        self._g_queue_depth = self.registry.gauge(
            "service.queue_depth_current"
        )
        #: name -> serializer; *every* registered section appears in
        #: :meth:`to_json` — sections added after construction
        #: (:meth:`add_section`) can no longer be silently dropped
        #: from reports.
        self._sections: Dict[str, Callable[[], object]] = {}
        #: name -> optional text renderer for :meth:`render`.
        self._renderers: Dict[str, Callable[[], List[str]]] = {}
        self._register_builtin_sections()
        # Structural-digest traffic is recorded process-globally in
        # repro.ir.core.DIGEST_STATS (the memo lives on the ops, not on
        # any profiler); snapshot the baseline so this instance reports
        # only the deltas accrued during its own lifetime.
        from ..ir.core import DIGEST_STATS

        self._digest_baseline = DIGEST_STATS.snapshot()

    # -- section registry ----------------------------------------------------

    def add_section(self, name: str,
                    to_json: Callable[[], object],
                    render: Optional[Callable[[], List[str]]] = None,
                    ) -> None:
        """Register a report section. ``to_json`` produces the
        section's JSON value; ``render`` (optional) produces report
        lines for :meth:`render`. Registration is the serialization
        contract: a registered section is never omitted from
        :meth:`to_json`."""
        self._sections[name] = to_json
        if render is not None:
            self._renderers[name] = render

    def _register_builtin_sections(self) -> None:
        self.add_section("transforms", lambda: {
            name: {"count": s.count, "seconds": s.seconds}
            for name, s in self.transforms.items()
        })
        self.add_section("patterns", lambda: {
            label: {
                "attempts": s.attempts,
                "applies": s.applies,
                "seconds": s.seconds,
            }
            for label, s in self.patterns.items()
        })
        self.add_section("passes", lambda: {
            name: {"count": s.count, "seconds": s.seconds}
            for name, s in self.passes.items()
        })
        self.add_section("worklist", lambda: {
            "runs": self.worklist.runs,
            "pushes": self.worklist.pushes,
            "pops": self.worklist.pops,
            "max_depth": self.worklist.max_depth,
        })
        self.add_section("invalidation", lambda: {
            "events": self.invalidation.events,
            "handles_invalidated":
                self.invalidation.handles_invalidated,
        })
        self.add_section("service", lambda: {
            "jobs": self.service.jobs,
            "jobs_by_status": dict(self.service.jobs_by_status),
            "job_seconds": self.service.job_seconds,
            "mean_job_seconds": self.service.mean_job_seconds,
            "max_job_seconds": self.service.max_job_seconds,
            "cache_hits": self.service.cache_hits,
            "cache_misses": self.service.cache_misses,
            "cache_hit_rate": self.service.hit_rate,
            "worker_restarts": self.service.worker_restarts,
            "queue_samples": self.service.queue_samples,
            "mean_queue_depth": self.service.mean_queue_depth,
            "max_queue_depth": self.service.max_queue_depth,
        })
        self.add_section("resilience", lambda: {
            name: getattr(self.resilience, name)
            for name in ResilienceStats.FIELDS
        })
        self.add_section("hashing", self.digest_counters)

    # -- structural-digest deltas -------------------------------------------

    def digest_counters(self) -> Dict[str, int]:
        """Memo hits / recomputes / invalidations since construction."""
        from ..ir.core import DIGEST_STATS

        hits, recomputes, invalidations = DIGEST_STATS.snapshot()
        base_hits, base_recomputes, base_invalidations = \
            self._digest_baseline
        return {
            "hash_hits": hits - base_hits,
            "hash_recomputes": recomputes - base_recomputes,
            "hash_invalidations": invalidations - base_invalidations,
        }

    # -- recording entry points ---------------------------------------------

    def record_pattern(self, label: str, applied: bool,
                       seconds: float) -> None:
        stat = self.patterns.get(label)
        if stat is None:
            stat = self.patterns[label] = PatternStat()
        stat.attempts += 1
        if applied:
            stat.applies += 1
        stat.seconds += seconds

    def record_transform(self, name: str, seconds: float) -> None:
        stat = self.transforms.get(name)
        if stat is None:
            stat = self.transforms[name] = TimedStat()
        stat.count += 1
        stat.seconds += seconds
        self._h_transform_seconds.observe(seconds)

    def record_pass(self, name: str, seconds: float) -> None:
        stat = self.passes.get(name)
        if stat is None:
            stat = self.passes[name] = TimedStat()
        stat.count += 1
        stat.seconds += seconds

    def record_worklist_push(self, depth: int) -> None:
        self.worklist.pushes += 1
        if depth > self.worklist.max_depth:
            self.worklist.max_depth = depth

    def record_worklist_seed(self, depth: int) -> None:
        self.worklist.pushes += depth
        if depth > self.worklist.max_depth:
            self.worklist.max_depth = depth

    def record_worklist_pop(self) -> None:
        self.worklist.pops += 1

    def record_driver_run(self) -> None:
        self.worklist.runs += 1

    def record_invalidation(self, handles: int) -> None:
        self.invalidation.events += 1
        self.invalidation.handles_invalidated += handles

    def record_service_job(self, status: str, seconds: float,
                           cache_hit: bool) -> None:
        service = self.service
        service.jobs += 1
        service.job_seconds += seconds
        if seconds > service.max_job_seconds:
            service.max_job_seconds = seconds
        service.jobs_by_status[status] = (
            service.jobs_by_status.get(status, 0) + 1
        )
        if cache_hit:
            service.cache_hits += 1
        else:
            service.cache_misses += 1
        registry = self.registry
        registry.counter("service.jobs").inc()
        registry.counter(f"service.jobs_by_status.{status}").inc()
        registry.counter(
            "service.cache_hits" if cache_hit else "service.cache_misses"
        ).inc()
        self._h_job_seconds.observe(seconds)

    def record_queue_depth(self, depth: int) -> None:
        """One queue-depth sample. The frontier samples at *both*
        enqueue and dequeue — one-sided (enqueue-only) sampling sees
        every burst at its peak and never the drain, skewing the mean
        upward under bursty admission."""
        service = self.service
        service.queue_samples += 1
        service.queue_depth_sum += depth
        if depth > service.max_queue_depth:
            service.max_queue_depth = depth
        self._h_queue_depth.observe(depth)
        self._g_queue_depth.set(depth)

    @contextmanager
    def time_pass(self, name: str) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            self.record_pass(name, time.perf_counter() - start)

    def reset(self) -> None:
        self.__init__()

    # -- reporting ----------------------------------------------------------

    def render(self) -> str:
        """A `-mlir-timing`-style text report of everything recorded."""
        bar = "===" + "-" * 70 + "==="
        lines: List[str] = [bar, "  ... Transform execution timing report ...",
                            bar]

        if self.transforms:
            total = sum(s.seconds for s in self.transforms.values())
            lines.append(f"  Transform ops ({total * 1e3:.3f} ms total)")
            lines.append(f"    {'wall (ms)':>10s}  {'count':>7s}  name")
            for name, stat in sorted(self.transforms.items(),
                                     key=lambda kv: -kv[1].seconds):
                lines.append(
                    f"    {stat.seconds * 1e3:10.3f}  {stat.count:7d}  {name}"
                )
            lines.append("")

        if self.patterns:
            total = sum(s.seconds for s in self.patterns.values())
            lines.append(f"  Patterns ({total * 1e3:.3f} ms total)")
            lines.append(
                f"    {'wall (ms)':>10s}  {'applied':>8s}  "
                f"{'attempts':>8s}  pattern"
            )
            for label, stat in sorted(self.patterns.items(),
                                      key=lambda kv: -kv[1].seconds):
                lines.append(
                    f"    {stat.seconds * 1e3:10.3f}  {stat.applies:8d}  "
                    f"{stat.attempts:8d}  {label}"
                )
            lines.append("")

        if self.passes:
            total = sum(s.seconds for s in self.passes.values())
            lines.append(f"  Passes ({total * 1e3:.3f} ms total)")
            lines.append(f"    {'wall (ms)':>10s}  {'count':>7s}  pass")
            for name, stat in sorted(self.passes.items(),
                                     key=lambda kv: -kv[1].seconds):
                lines.append(
                    f"    {stat.seconds * 1e3:10.3f}  {stat.count:7d}  {name}"
                )
            lines.append("")

        if self.worklist.pushes or self.worklist.runs:
            lines.append("  Greedy-driver worklist")
            lines.append(
                f"    runs: {self.worklist.runs}  "
                f"pushes: {self.worklist.pushes}  "
                f"pops: {self.worklist.pops}  "
                f"max depth: {self.worklist.max_depth}"
            )
            lines.append("")

        if self.invalidation.events:
            lines.append("  Handle invalidation")
            lines.append(
                f"    consume events: {self.invalidation.events}  "
                f"handles invalidated: "
                f"{self.invalidation.handles_invalidated}  "
                f"mean fan-out: {self.invalidation.mean_fanout:.2f}"
            )
            lines.append("")

        service = self.service
        if service.jobs or service.queue_samples:
            lines.append("  Compile service")
            by_status = "  ".join(
                f"{status}: {count}"
                for status, count in sorted(service.jobs_by_status.items())
            )
            lines.append(
                f"    jobs: {service.jobs}  "
                f"mean wall: {service.mean_job_seconds * 1e3:.3f} ms  "
                f"max wall: {service.max_job_seconds * 1e3:.3f} ms"
            )
            if by_status:
                lines.append(f"    by status: {by_status}")
            lines.append(
                f"    cache hit rate: {service.hit_rate:.1%}  "
                f"(hits: {service.cache_hits}  "
                f"misses: {service.cache_misses})  "
                f"worker restarts: {service.worker_restarts}"
            )
            if service.queue_samples:
                lines.append(
                    f"    queue depth: mean "
                    f"{service.mean_queue_depth:.2f}  "
                    f"max {service.max_queue_depth}  "
                    f"(samples: {service.queue_samples})"
                )
            lines.append("")

        resilience = self.resilience
        if (resilience.retries or resilience.quarantined
                or resilience.pool_degradations):
            lines.append("  Resilience")
            lines.append(
                f"    retries: {resilience.retries}  "
                f"(backoff: {resilience.backoff_seconds * 1e3:.3f} ms)  "
                f"quarantined: {resilience.quarantined}  "
                f"pool degradations: {resilience.pool_degradations}"
            )
            lines.append("")

        digests = self.digest_counters()
        if any(digests.values()):
            hits = digests["hash_hits"]
            recomputes = digests["hash_recomputes"]
            total = hits + recomputes
            rate = hits / total if total else 0.0
            lines.append("  Structural hashing")
            lines.append(
                f"    memo hit rate: {rate:.1%}  "
                f"(hits: {hits}  recomputes: {recomputes})  "
                f"invalidations: {digests['hash_invalidations']}"
            )
            lines.append("")

        for name, renderer in self._renderers.items():
            extra = renderer()
            if extra:
                lines.extend(extra)
                lines.append("")

        if len(lines) == 3:
            lines.append("  (nothing recorded)")
        return "\n".join(lines).rstrip()

    def to_json(self) -> Dict[str, object]:
        """Machine-readable dump of every instrument (plain dicts and
        numbers, ready for ``json.dump``).

        Driven by the section registry: every section registered via
        :meth:`add_section` — built-in or added after construction —
        serializes. (Previously each section was hand-listed here, so
        a newly grown instrument could be silently omitted from
        reports until someone remembered to extend this method.)
        """
        data: Dict[str, object] = {"schema_version": self.SCHEMA_VERSION}
        for name, serialize in self._sections.items():
            data[name] = serialize()
        return data

    def registry_snapshot(self) -> Dict[str, object]:
        """The unified, versioned metrics snapshot.

        Service-level distributions (job wall seconds, queue depth,
        per-transform-op seconds) and resilience counters are recorded
        into the registry live; the remaining scalar sections are
        synced here, so the returned
        :meth:`~repro.observability.metrics.MetricsRegistry.snapshot`
        is the complete, single-schema view of everything this
        profiler knows.
        """
        registry = self.registry
        registry.set_section("worklist", {
            "runs": self.worklist.runs,
            "pushes": self.worklist.pushes,
            "pops": self.worklist.pops,
            "max_depth": self.worklist.max_depth,
        })
        registry.set_section("invalidation", {
            "events": self.invalidation.events,
            "handles_invalidated": self.invalidation.handles_invalidated,
            "mean_fanout": self.invalidation.mean_fanout,
        })
        registry.set_section("rewrite", {
            "pattern_attempts":
                sum(s.attempts for s in self.patterns.values()),
            "pattern_applies":
                sum(s.applies for s in self.patterns.values()),
            # float() pins the empty-sum (int 0) to the gauge kind.
            "pattern_seconds":
                float(sum(s.seconds for s in self.patterns.values())),
        })
        registry.set_section("passes", {
            "runs": sum(s.count for s in self.passes.values()),
            "seconds":
                float(sum(s.seconds for s in self.passes.values())),
        })
        registry.set_section("interpreter", {
            "transforms_executed":
                sum(s.count for s in self.transforms.values()),
        })
        registry.set_section("service", {
            "max_job_seconds": self.service.max_job_seconds,
            # Floats so these land as gauges (point-in-time values),
            # not counters.
            "max_queue_depth": float(self.service.max_queue_depth),
            "queue_samples": self.service.queue_samples,
            "cache_hit_rate": self.service.hit_rate,
        })
        registry.set_section("hashing", self.digest_counters())
        return registry.snapshot()
