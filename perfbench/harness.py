"""The measuring kit: nothing here knows a workload or a layer.

* closed-loop client driver (each client sends its next job when the
  previous reply is in hand) with host-speed calibration in its gaps;
* the percentile rule for tails;
* paired samples (interleaved A/B on the same item, alternating which
  side goes first, median of differences with quartiles);
* child-inclusive CPU / RSS sampling through ``/proc``;
* span self-time (a span's duration minus the part its children cover);
* the host fingerprint that goes beside every recorded number.

Spans are :class:`repro.observability.Tracer` spans — the benchmark
records them around public calls; there is no second span class.
"""

from __future__ import annotations

import math
import os
import platform
import statistics
import sys
import threading
import time
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

#: The rungs a tail may sit on. A fixed ladder (not a continuous
#: formula) so the same workload reports the same percentile run after
#: run even though a timed run's sample count wobbles.
TAIL_LADDER = (95, 90, 75, 50)
#: A percentile is only quoted with at least this many samples beyond it.
MIN_BEYOND = 10


def tail_percentile(samples: int) -> int:
    """The highest ladder percentile with >= 10 samples beyond it,
    capped at p95 (p50 when even p75 cannot be supported)."""
    for rung in TAIL_LADDER:
        if samples * (100 - rung) >= MIN_BEYOND * 100:
            return rung
    return TAIL_LADDER[-1]


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (no interpolation: every reported value
    is a latency some caller actually saw)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) the way the driver computes spreads."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def geomean(values: Iterable[float]) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


# ---------------------------------------------------------------------------
# Host-speed calibration
# ---------------------------------------------------------------------------
#
# The reference host is a shared 2-core VM whose effective CPU speed
# drifts by +-10-15% over tens of seconds (a fixed pure-Python loop
# shows it as plainly as a compile job does), which would put every
# timing's run-to-run spread near its regression bound. The drift is
# common-mode: two unrelated Python kernels slow down together (their
# ratio holds within ~3%). So every run times a small fixed kernel in
# quiescent gaps of the measurement and quotes its timings at reference
# host speed: measured x (CALIBRATION_REFERENCE_S / median kernel time).
# The kernel shares no code with the program under test, so a faster
# compiler cannot hide in it.

#: What one :func:`calibration_chunk` takes on the reference host in a
#: quiet moment. Only scales the reported numbers; parent/child
#: comparisons do not depend on it.
CALIBRATION_REFERENCE_S = 0.0018
CALIBRATION_BURST = 5


class _Node:
    __slots__ = ("key", "text")

    def __init__(self, key, text):
        self.key = key
        self.text = text


def calibration_chunk() -> float:
    """Seconds one fixed mix of bytecode arithmetic, small-object
    allocation, dict traffic and string building takes right now."""
    start = time.perf_counter()
    total = 0
    for i in range(20000):
        total += i * i
    table = {}
    nodes = [_Node(i, str(i)) for i in range(2500)]
    for node in nodes:
        table[node.text] = node
    for node in nodes:
        total += table[node.text].key
    "".join(node.text for node in nodes)
    return time.perf_counter() - start


def calibration_burst() -> List[float]:
    return [calibration_chunk() for _ in range(CALIBRATION_BURST)]


def host_speed(chunks: Sequence[float]) -> float:
    """> 1 when the host ran faster than the reference while measured."""
    return CALIBRATION_REFERENCE_S / statistics.median(chunks)


# ---------------------------------------------------------------------------
# Closed loop
# ---------------------------------------------------------------------------


class Sample(NamedTuple):
    """One job as its caller saw it."""

    index: int
    latency: float
    outcome: object


def run_closed_loop(n_jobs: int,
                    make_client: Callable[[int], Callable[[int], object]],
                    clients: int, seconds: float,
                    calibrate_every: Optional[float] = 0.75,
                    deadline_per_job: float = 30.0
                    ) -> Tuple[List[Sample], float, List[float]]:
    """Drive ``clients`` closed-loop clients over jobs ``0..n_jobs-1``.

    ``make_client(i)`` returns that client's ``send(index) -> outcome``
    (called on the client's own thread, so it may own a connection).
    Clients pull the next unsent index; the run stops when the clock
    passes ``seconds`` or the jobs run out. A ``send`` that raises or
    overruns ``deadline_per_job`` yields an outcome of ``None`` — the
    caller counts it failed.

    Every ``calibrate_every`` seconds the next client to come free
    holds the others back, waits until nothing is in flight, and times
    a calibration burst on the quiet system. The gaps stay inside the
    timed wall: they cost every commit the same.

    Returns the samples, the timed wall (first send to last reply) and
    the calibration chunk times.
    """
    gate = threading.Condition()
    state = {"cursor": 0, "in_flight": 0, "pausing": False,
             "calibrate_at": 0.0, "stop_at": 0.0}
    samples: List[List[Sample]] = [[] for _ in range(clients)]
    chunks: List[float] = []
    senders = [make_client(i) for i in range(clients)]
    barrier = threading.Barrier(clients + 1)

    def client(slot: int) -> None:
        send = senders[slot]
        mine = samples[slot]
        barrier.wait()
        while True:
            with gate:
                while state["pausing"]:
                    gate.wait()
                now = time.perf_counter()
                if state["cursor"] >= n_jobs or now >= state["stop_at"]:
                    return
                if calibrate_every is not None \
                        and now >= state["calibrate_at"]:
                    state["pausing"] = True
                    while state["in_flight"]:
                        gate.wait()
                    chunks.extend(calibration_burst())
                    state["calibrate_at"] = (time.perf_counter()
                                             + calibrate_every)
                    state["pausing"] = False
                    gate.notify_all()
                index = state["cursor"]
                state["cursor"] = index + 1
                state["in_flight"] += 1
            start = time.perf_counter()
            try:
                outcome = send(index)
            except Exception as error:  # a failed job, not a failed run
                print(f"perfbench: job {index} raised "
                      f"{type(error).__name__}: {error}", file=sys.stderr)
                outcome = None
            latency = time.perf_counter() - start
            if latency > deadline_per_job:
                outcome = None
            mine.append(Sample(index, latency, outcome))
            with gate:
                state["in_flight"] -= 1
                gate.notify_all()

    threads = [threading.Thread(target=client, args=(slot,), daemon=True)
               for slot in range(clients)]
    for thread in threads:
        thread.start()
    begin = time.perf_counter()
    state["stop_at"] = begin + seconds
    barrier.wait()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - begin
    return [s for per_client in samples for s in per_client], wall, chunks


# ---------------------------------------------------------------------------
# Paired samples
# ---------------------------------------------------------------------------


def paired(tracer, parent, name_a: str, side_a: Callable[[object], object],
           name_b: str, side_b: Callable[[object], object],
           items: Sequence[object]) -> Dict[str, float]:
    """Interleaved A/B on each item, alternating which side goes first.

    Each call is one span (``name_a`` / ``name_b``, child of
    ``parent``); the numbers come from the span durations. Returns the
    median of the per-item differences ``a - b`` with its quartiles and
    each side's median, all in seconds.
    """
    a_times: List[float] = []
    b_times: List[float] = []
    for position, item in enumerate(items):
        order = ((name_a, side_a, a_times), (name_b, side_b, b_times))
        if position % 2:
            order = order[::-1]
        for name, side, sink in order:
            with tracer.span(name, parent,
                             {"pair": position}) as span:
                side(item)
            sink.append(span.duration)
    diffs = [a - b for a, b in zip(a_times, b_times)]
    q1, median, q3 = quartiles(diffs)
    return {
        "diff": median, "diff_q1": q1, "diff_q3": q3,
        "a": statistics.median(a_times),
        "b": statistics.median(b_times),
        "pairs": len(diffs),
    }


# ---------------------------------------------------------------------------
# CPU and memory, children included
# ---------------------------------------------------------------------------

_TICK = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


def _read_stat(pid: int) -> Optional[Tuple[int, float]]:
    """(ppid, user+sys CPU seconds) of a live process, else None."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            data = handle.read().decode("ascii", "replace")
    except OSError:
        return None
    # The command name is parenthesized and may hold spaces.
    fields = data[data.rindex(")") + 2:].split()
    return int(fields[1]), (int(fields[11]) + int(fields[12])) / _TICK


def _peak_rss_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def process_tree(root: Optional[int] = None) -> Dict[int, float]:
    """pid -> CPU seconds for ``root`` (default: this process) and all
    its live descendants — pool workers, the daemon, the daemon's pool
    workers. One ``/proc`` scan; Linux only."""
    root = os.getpid() if root is None else root
    stats: Dict[int, Tuple[int, float]] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            stat = _read_stat(int(entry))
            if stat is not None:
                stats[int(entry)] = stat
    children: Dict[int, List[int]] = {}
    for pid, (ppid, _cpu) in stats.items():
        children.setdefault(ppid, []).append(pid)
    tree: Dict[int, float] = {}
    frontier = [root]
    while frontier:
        pid = frontier.pop()
        if pid in stats and pid not in tree:
            tree[pid] = stats[pid][1]
            frontier.extend(children.get(pid, ()))
    return tree


class ResourceMeter:
    """CPU seconds and peak RSS over a timed phase, this process and
    every descendant alive at both ends of it."""

    def __enter__(self) -> "ResourceMeter":
        self._before = process_tree()
        self._self_before = time.process_time()
        return self

    def __exit__(self, *exc) -> None:
        after = process_tree()
        me = os.getpid()
        #: This process by ``process_time`` (finer than /proc's ticks).
        self.client_cpu = time.process_time() - self._self_before
        self.children_cpu = sum(
            cpu - self._before[pid] for pid, cpu in after.items()
            if pid != me and pid in self._before
        )
        self.cpu = self.client_cpu + self.children_cpu
        self.peak_rss_mb = max(_peak_rss_mb(pid) for pid in after)
        self.processes = len(after)


# ---------------------------------------------------------------------------
# Span self-time
# ---------------------------------------------------------------------------


def self_times(spans: Sequence[object]) -> Dict[str, float]:
    """span_id -> self time: the span's duration minus the part of its
    interval that its direct children cover (overlapping children are
    merged first; a child is clipped to its parent)."""
    children: Dict[str, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append(
                (span.start, span.end))
    result: Dict[str, float] = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(span.span_id, ())):
            start = max(start, reach)
            end = min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        result[span.span_id] = max(span.end - span.start - covered, 0.0)
    return result


def layer_of(span_name: str) -> str:
    """``ir.parser.parse`` -> ``ir.parser``: spans are named
    ``<module>.<what>`` and a layer is a module."""
    return span_name.rsplit(".", 1)[0]


def self_time_by_layer(spans: Sequence[object]) -> Dict[str, float]:
    own = self_times(spans)
    layers: Dict[str, float] = {}
    for span in spans:
        layer = layer_of(span.name)
        layers[layer] = layers.get(layer, 0.0) + own[span.span_id]
    return layers


# ---------------------------------------------------------------------------
# Host
# ---------------------------------------------------------------------------


def host_fingerprint(repo_root: str) -> Dict[str, object]:
    commit = None
    head = os.path.join(repo_root, ".git", "HEAD")
    try:
        with open(head) as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(repo_root, ".git", ref[5:])) as handle:
                commit = handle.read().strip()
        else:
            commit = ref
    except OSError:
        pass  # the driver's checkout is not a git repository
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
    }
