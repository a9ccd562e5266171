"""`repro.service`: a concurrent, cached transform-compilation service.

Batch transform-compilation on top of the interpreter stack built in
PRs 1-3: jobs are (payload module, transform script, parameter
bindings) triples shipped across process boundaries as *text* (the
printer -> parser round-trip is the transport contract), executed by
worker processes the engine forks and talks to over one pipe each,
fronted by a content-addressed compilation cache and an asyncio
admission queue with backpressure.

Layers (each its own module):

* :mod:`repro.service.cache` — SHA-256 content-addressed result cache,
  in-memory LRU plus an optional on-disk store, with hit/miss/eviction
  statistics;
* :mod:`repro.service.worker` — the pool worker: parses, binds
  parameters, interprets and prints entirely job-locally, one call at a
  time off its pipe;
* :mod:`repro.service.engine` — job scheduling: static preflight
  rejection, in-flight deduplication, per-job timeouts, cancellation,
  and policy-driven crash containment over the worker pool;
* :mod:`repro.service.resilience` — the recovery mechanisms the engine
  runs under, each set by the CLI flags that name it: retry/backoff
  (``--max-attempts``, ``--retry-timeouts``, ``--backoff``), poison-job
  quarantine (``--quarantine-after``) and crash-loop pool-health
  monitoring (``--crash-loop-limit``);
* :mod:`repro.service.sharding` — the seams of the engine's function
  tier: the gate deciding which (payload, schedule) pairs split per
  ``func.func`` (it asks each transform op whether it is
  function-local) and the text splice that joins per-function cache
  entries back into a module;
* :mod:`repro.service.frontier` — the one scheduler: queued jobs wait
  for a dispatch slot by priority class then arrival, the queue is
  bounded with backpressure when full, and ``close()`` drains admitted
  work; a job the engine's memory can answer is answered at admission
  and never queues;
* :mod:`repro.service.cli` — everything argparse: the flags and
  engine factory the CLIs share, the one result reporter, the
  ``--timing`` service report, and ``repro-batch`` (one driver over a local frontier or ``--connect``);
* :mod:`repro.service.server` — the persistent ``repro-serve``
  daemon: a warm engine + frontier behind a framed protocol on a
  unix/TCP socket, with streamed job events, per-client quotas, and
  drain/reload;
* :mod:`repro.service.client` — sync and asyncio clients for the
  daemon, and the ``repro-submit`` CLI;
* :mod:`repro.service.wire` — the one frame codec both sides use: a
  JSON header line, then IR text as raw UTF-8 bytes.

Fault tolerance is testable: every failure-handling path above can be
driven deterministically by :mod:`repro.testing.faults`.
"""

from importlib import import_module

from .cache import CachedResult, CacheStats, CompilationCache, cache_key
from .engine import CompileEngine, CompileJob, JobResult, JobStatus
from .frontier import ServiceClosedError, ServiceFrontier
from .resilience import JobQuarantine, PoolHealthMonitor, RetryPolicy
from .sharding import is_func_shardable
from .worker import bind_parameters, compile_job

__all__ = [
    "AsyncServiceClient",
    "CacheStats",
    "CachedResult",
    "CompilationCache",
    "CompileEngine",
    "CompileJob",
    "CompileServer",
    "JobQuarantine",
    "JobResult",
    "JobStatus",
    "PoolHealthMonitor",
    "RemoteError",
    "RetryPolicy",
    "ServerStats",
    "ServiceClient",
    "ServiceClosedError",
    "ServiceFrontier",
    "bind_parameters",
    "cache_key",
    "compile_job",
    "is_func_shardable",
]

#: Names of the modules ``python -m`` runs, imported on first use (PEP
#: 562): imported here, ``python -m repro.service.server`` (``.client``,
#: ``.cli``) would find its module loaded already and run a second copy.
_LAZY = {"AsyncServiceClient": ".client", "RemoteError": ".client",
         "ServiceClient": ".client", "CompileServer": ".server",
         "ServerStats": ".server"}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(_LAZY[name], __name__), name)
