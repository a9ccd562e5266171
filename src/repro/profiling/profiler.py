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

from dataclasses import dataclass
from typing import Dict, List


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


class Profiler:
    """Collects timing/counter data from the transform hot paths of
    one process: per-pattern, per-transform-op and per-pass wall time,
    worklist and invalidation counters.

    It is the in-process ``-mlir-timing`` report and nothing else; the
    compile service keeps its own counters (see DESIGN.md section 7).
    """

    def __init__(self) -> None:
        self.patterns: Dict[str, PatternStat] = {}
        self.transforms: Dict[str, TimedStat] = {}
        self.passes: Dict[str, TimedStat] = {}
        self.worklist = WorklistStats()
        self.invalidation = InvalidationStats()

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

        if len(lines) == 3:
            lines.append("  (nothing recorded)")
        return "\n".join(lines).rstrip()
