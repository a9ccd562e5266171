"""The four seeded workloads.

Each workload is: a generator that turns a seed into a stream of jobs
(plus the warm-up jobs its route needs), a route (how a caller reaches
the compiler), and the facts each output must satisfy. The program
under test only ever sees generated IR text — never the seed.

Sizes below are constants, not flags. A run is bounded by the clock
(``--seconds``), so ``STREAM`` lengths are sized to ~2.5x what the seed
commit completes in ``run_seconds`` on the 2-core reference host: a
stream that runs dry ends the timed phase early.
"""

from __future__ import annotations

import hashlib
import os
import random
import signal
import subprocess
import sys
import textwrap
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: 2 on the reference host: pools and the daemon run this many workers
#: and no workload has more clients than this.
WORKERS = 2
#: Caller-side deadline; a job that overruns it is a failed job.
JOB_DEADLINE_S = 30.0


@dataclass(frozen=True)
class Job:
    job_id: str
    payload: str
    script: str
    params: Optional[Dict[str, int]] = None
    #: (needle, count): substrings the output must contain exactly that
    #: often. The benchmark's own prediction of the output's structure,
    #: derived from the generator's parameters, not from the compiler.
    facts: Tuple[Tuple[str, int], ...] = ()
    #: Latency is reported per group (geometric mean across groups).
    group: str = "all"
    #: ("matmul" | "batch_matmul", function name, dims) when the output
    #: is small enough to execute against numpy.
    oracle: Optional[Tuple[str, str, Tuple[int, ...]]] = None
    #: Free-form provenance (family, hot/partial/novel).
    kind: str = ""


@dataclass
class Outcome:
    """What the client keeps of one reply (the text itself is dropped so
    the load generator's memory stays flat)."""

    ok: bool
    sha: str = ""
    facts_ok: bool = False
    cache_hit: bool = False
    text: Optional[str] = None


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def observe(job: Job, ok: bool, output: Optional[str],
            keep_text: bool = False, **flags) -> Outcome:
    if not ok or output is None:
        return Outcome(False)
    return Outcome(
        True, sha(output),
        all(output.count(needle) == count for needle, count in job.facts),
        text=output if keep_text else None, **flags,
    )


def _print(op) -> str:
    from repro.ir.printer import print_op
    return print_op(op)


# ---------------------------------------------------------------------------
# Routes
# ---------------------------------------------------------------------------


class Route:
    """A started system under test. ``client(i)`` gives client ``i`` its
    ``send(job) -> Outcome``; ``stop`` tears everything down and waits."""

    def client(self, slot: int) -> Callable[[Job], Outcome]:
        raise NotImplementedError

    def stats(self) -> Dict[str, Dict[str, float]]:
        """Public stats objects of the route: {"engine": .., "cache": ..}."""
        return {}

    def stop(self) -> None:
        pass

    def __enter__(self) -> "Route":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


class InProcessRoute(Route):
    """``repro.service.worker.compile_job`` called directly — what
    ``repro-opt`` does."""

    def client(self, slot):
        from repro.service.worker import compile_job

        def send(job: Job) -> Outcome:
            raw = compile_job(job.payload, job.script, job.params)
            return observe(job, raw["status"] == "success", raw["output"],
                           keep_text=job.oracle is not None)
        return send


class EngineRoute(Route):
    def __init__(self, workers: int, cache_capacity: Optional[int],
                 function_tier: bool = True, preflight: bool = True,
                 tracer=None, events=None):
        from repro.service import CompilationCache, CompileEngine

        self.cache = (CompilationCache(capacity=cache_capacity)
                      if cache_capacity else None)
        self.engine = CompileEngine(
            workers=workers, cache=self.cache, preflight=preflight,
            function_tier=function_tier, tracer=tracer, events=events,
        )

    def run(self, job: Job):
        from repro.service import CompileJob
        return self.engine.run_job(CompileJob(
            job.payload, job.script, job.params,
            timeout=JOB_DEADLINE_S, job_id=job.job_id,
        ))

    def run_ok(self, job: Job):
        """``run`` for measurements that assume success: a rejected or
        failed job returns fast and would pass for a speed-up."""
        result = self.run(job)
        if result.status.value != "success":
            raise RuntimeError(f"job {job.job_id}: {result.status.value}: "
                               f"{result.diagnostics[:200]}")
        return result

    def client(self, slot):
        from repro.service import JobStatus

        def send(job: Job) -> Outcome:
            result = self.run(job)
            return observe(job, result.status is JobStatus.SUCCESS,
                           result.output,
                           keep_text=job.oracle is not None,
                           cache_hit=result.cache_hit)
        return send

    def stats(self):
        stats = {"engine": self.engine.stats.as_dict()}
        if self.cache is not None:
            stats["cache"] = self.cache.stats.as_dict()
        return stats

    def stop(self):
        self.engine.shutdown()


class DaemonRoute(Route):
    """A real ``repro-serve`` subprocess on a unix socket; every client
    owns one blocking connection."""

    def __init__(self, tmpdir: str, cache_capacity: int):
        import repro
        from repro.service import ServiceClient

        self._client_class = ServiceClient
        # Relative to the working directory: AF_UNIX paths are capped
        # at ~107 bytes and a checkout can live anywhere.
        self.socket = os.path.join(os.path.relpath(tmpdir), "serve.sock")
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(os.path.abspath(
            repro.__file__)))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        self._log = open(os.path.join(tmpdir, "serve.stderr"), "w")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.service.server",
             "--socket", self.socket, "--jobs", str(WORKERS),
             "--cache-size", str(cache_capacity)],
            stdout=subprocess.PIPE, stderr=self._log, text=True, env=env,
        )
        self._connections: List[object] = []
        try:
            ready = self.process.stdout.readline()
            if "listening on" not in ready:
                raise RuntimeError(
                    f"repro-serve did not come up: {ready!r}")
        except BaseException:
            self.stop()
            raise

    def connect(self):
        connection = self._client_class(self.socket,
                                        timeout=JOB_DEADLINE_S)
        self._connections.append(connection)
        return connection

    def client(self, slot):
        from repro.service import JobStatus

        connection = self.connect()

        def send(job: Job) -> Outcome:
            result = connection.submit(job.payload, job.script,
                                       params=job.params,
                                       job_id=job.job_id)
            return observe(job, result.status is JobStatus.SUCCESS,
                           result.output, cache_hit=result.cache_hit)
        return send

    def stats(self):
        connection = self.connect()
        snapshot = connection.stats()
        return {"engine": snapshot.get("engine") or {},
                "cache": snapshot.get("cache") or {},
                "server": snapshot.get("server") or {}}

    def stop(self):
        for connection in self._connections:
            connection.close()
        self._connections = []
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=20.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self._log.close()


# ---------------------------------------------------------------------------
# Workload base
# ---------------------------------------------------------------------------


class Workload:
    name = ""
    why = ""
    #: Closed-loop clients (threads, or connections for the daemon).
    clients = 1
    #: Jobs generated per unit ``scale`` (the timed stream).
    STREAM = 0
    #: Jobs a ``--trace 1`` pass replays (fixed, so counts repeat), and
    #: how many of them each paired A/B measurement uses.
    TRACED = 0
    PAIRS = 0
    #: The tail percentile this workload quotes; ``run.py`` falls down
    #: the ladder (and says so) if a run has too few samples for it.
    TAIL = 95
    #: Results must be byte-identical to an in-process ``compile_job``
    #: of the same job (the routes that leave the caller's process).
    BYTE_IDENTITY = False
    #: The engine this workload's route runs (``EngineRoute`` keywords);
    #: the traced pass builds its in-process engines from it.
    ENGINE = dict(workers=0, cache_capacity=None)
    #: What ``start`` returns: "worker" (bare compile_job), "engine"
    #: (an in-process ``ENGINE``) or "daemon" (``ENGINE`` behind the wire).
    ROUTE = "engine"

    def generate(self, seed: int, scale: float = 1.0
                 ) -> Tuple[List[Job], List[Job]]:
        """(warm-up jobs, timed stream). Same seed, same jobs."""
        raise NotImplementedError

    def start(self, tmpdir: str) -> Route:
        raise NotImplementedError

    def warm(self, route: Route, warmup: Sequence[Job]) -> None:
        """Run the warm-up jobs (first fork, registry import, memo
        fill); charged to ``setup_s``."""
        send = route.client(0)
        for job in warmup:
            outcome = send(job)
            if not outcome.ok:
                raise RuntimeError(f"warm-up job {job.job_id} failed")

    def stream_length(self, scale: float) -> int:
        return max(int(self.STREAM * scale), 8)


# ---------------------------------------------------------------------------
# 1. model_pipeline
# ---------------------------------------------------------------------------

#: tosa op -> the op its lowering must leave behind, one for one.
_LOWERS_TO = {
    "tosa.conv2d": "linalg.conv_2d_nhwc_hwcf",
    "tosa.matmul": "linalg.batch_matmul",
    "tosa.transpose": "linalg.transpose",
    "tosa.softmax": "linalg.reduce",
    "tosa.clamp": "arith.minimumf",
}


class ModelPipeline(Workload):
    # Why: the paper's Table 1 shape — a big payload driven by a
    # ten-op transform script of apply_registered_pass. Time should sit
    # in passes + rewrite, a fifth in parser/printer.
    # Must NOT be sensitive to: anything in service/ (no engine, no
    # cache, no pool, no wire), nor to interpreter dispatch cost (ten
    # transform ops per job).
    name = "model_pipeline"
    why = ("Table 1 shape: TOSA->Linalg pass pipeline as a transform "
           "script on a CNN and a transformer, in-process compile_job")
    MODELS = ("squeezenet", "whisper_decoder")
    STREAM = 300  # rounds x 2 models
    TRACED = 12
    PAIRS = 8
    TAIL = 75  # ~45 samples per model in a run
    ROUTE = "worker"

    def generate(self, seed, scale=1.0):
        from repro.core import pipeline_to_transform_script
        from repro.mlmodels import build_model
        from repro.passes.tosa_pipeline import TOSA_TO_LINALG_PIPELINE

        script = _print(pipeline_to_transform_script(
            list(TOSA_TO_LINALG_PIPELINE)))
        proto = {}
        for model in self.MODELS:
            text = _print(build_model(model))
            facts = [('"tosa.', 0)]
            for source, target in _LOWERS_TO.items():
                facts.append((f'"{target}"', text.count(f'"{source}"')))
            # Every tosa.add and every softmax normalisation leaves
            # exactly one arith.addf.
            facts.append(('"arith.addf"', text.count('"tosa.add"')
                          + text.count('"tosa.softmax"')))
            proto[model] = (text, tuple(facts))
        rng = random.Random(seed)
        rounds = self.stream_length(scale) // len(self.MODELS)
        jobs = []
        for round_ in range(rounds):
            order = list(self.MODELS)
            rng.shuffle(order)
            for model in order:
                text, facts = proto[model]
                jobs.append(Job(f"{model}-{round_}", text, script,
                                facts=facts, group=model, kind=model))
        warmup = [Job(f"warm-{model}", proto[model][0], script,
                      facts=proto[model][1], group=model)
                  for model in self.MODELS]
        return warmup, jobs

    def start(self, tmpdir):
        return InProcessRoute()


# ---------------------------------------------------------------------------
# 2. schedule_finegrained
# ---------------------------------------------------------------------------


def _divisors(n: int, low: int = 2) -> List[int]:
    return [d for d in range(low, n + 1) if n % d == 0]


class ScheduleFinegrained(Workload):
    # Why: case studies 4-5 — many cheap transform ops on a small
    # payload, every job different. Time should sit in
    # core.interpreter / core.state / core.transaction / transforms and
    # the analysis preflight.
    # Must NOT be sensitive to: pass or greedy-driver speed (no pass
    # runs), pool dispatch, the cache (there is none), or the wire. An
    # interpreter speed-up must move it; a pass speed-up must not.
    name = "schedule_finegrained"
    why = ("case studies 4-5: distinct small loop schedules (Fig. 8 "
           "split/tile/alternatives/unroll, Fig. 9 params, Fig. 1, "
           "library includes) through an uncached in-process engine")
    STREAM = 4500
    TRACED = 240
    PAIRS = 40
    WARMUP = 12
    #: Every Nth job's output is kept and, after the clock stops,
    #: executed against numpy (if it is of an executable family).
    ORACLE_EVERY = 64

    def _fig8(self, rng, tag, served=None, region=True):
        """Fig. 8: split -> tile -> alternatives{to_library} -> unroll
        the remainder. A third of the draws pick a tile the library
        cannot serve (not a multiple of 4), so the alternatives region
        fails and its transaction rolls back."""
        from repro.core import dialect as transform
        from repro.execution.workloads import build_matmul_module
        from repro.ir import Builder

        draw = rng.random() >= 1 / 3
        served = draw if served is None else served
        tile_i = rng.choice((4, 8, 12, 16) if served else (2, 6, 10))
        remainder = rng.randint(1, min(3, tile_i - 1))
        m = tile_i * rng.randint(1, 2) + remainder
        tile_j = rng.choice((4, 8))
        n = tile_j * rng.randint(1, 3)
        k = rng.choice((4, 8, 12))
        name = f"layer_{tag}"
        script, builder, root = transform.sequence()
        i_loop = transform.match_op(builder, root, "scf.for",
                                    position="first")
        main, rest = transform.loop_split(builder, i_loop, tile_i)
        outer, inner = transform.loop_tile(builder, main, [tile_i, tile_j])
        if region:
            alternatives = transform.alternatives(builder, 2)
            attempt = Builder.at_end(alternatives.regions[0].entry_block)
            transform.to_library(attempt, inner, "libxsmm")
            transform.yield_(attempt)
        transform.loop_unroll(builder, rest, full=True)
        # Autotuners tag what they emit; it also makes every script new
        # to the engine's per-script preflight memo.
        transform.annotate(builder, outer, "schedule_id", tag)
        transform.yield_(builder)
        # Served: the point nest becomes one call, leaving the two tile
        # loops; else all five loops stay. The unrolled remainder is
        # `remainder` copies of the j/k nest either way.
        loops = (2 if served else 5) + 2 * remainder
        facts = (('"scf.for"', loops),
                 ("microkernel_flops", 1 if served else 0),
                 (f"schedule_id = {tag} ", 1))
        return Job(f"fig8-{tag}", _print(build_matmul_module(m, n, k, name)),
                   _print(script), facts=facts,
                   oracle=("matmul", name, (m, n, k)),
                   kind="fig8" if served else "fig8-rollback")

    def rollback_pair(self, seed):
        """A Fig. 8 job whose alternative fails, and the same job with
        the alternatives region left out: their difference is what the
        transaction (clone, checkpoint, roll back) costs."""
        return (self._fig8(random.Random(seed), 0, served=False),
                self._fig8(random.Random(seed), 0, served=False,
                           region=False))

    def _fig9(self, rng, tag, template):
        """Fig. 9: one schedule text, tile sizes and vector width bound
        per job through ``params`` (the service's override path)."""
        from repro.execution.workloads import build_batch_matmul_module

        batch = rng.randint(1, 2)
        m = rng.choice((8, 12, 16))
        n = rng.choice((8, 12, 16))
        k = rng.choice((4, 8))
        params = {"TILE1": rng.choice(_divisors(m)),
                  "TILE2": rng.choice(_divisors(n)),
                  "VEC": rng.choice(_divisors(k, low=1))}
        name = f"bmm_{tag}"
        facts = (('"scf.for"', 6),
                 (f"vector_width = {params['VEC']} ", 1))
        return Job(f"fig9-{tag}",
                   _print(build_batch_matmul_module(batch, m, n, k, name)),
                   template, params, facts,
                   oracle=("batch_matmul", name, (batch, m, n, k)),
                   kind="fig9")

    def _fig1(self, rng, tag):
        """Fig. 1: hoist, split the uneven 2042-trip loop, tile the
        divisible part, unroll the remainder."""
        from repro.core import dialect as transform
        from repro.dialects import func
        from repro.execution.workloads import build_uneven_loop_module
        from repro.ir import Builder
        from repro.ir.types import F64

        payload = build_uneven_loop_module(f"uneven_{tag}")
        # The builder declares @use without a body, and a bodiless
        # func.func does not survive print -> parse (it comes back with
        # an argument-less entry block and fails verification), so jobs
        # — which travel as text — define it instead.
        payload.body.remove(payload.body.ops[0])
        use = func.func("use", [F64])
        func.return_(Builder.at_end(use.body))
        payload.body.insert(0, use)

        # 2042 = 2 * 1021: no divisor here divides it, so there is
        # always a remainder to unroll.
        divisor = rng.randint(3, 24)
        script, builder, root = transform.sequence()
        outer = transform.match_op(builder, root, "scf.for",
                                   position="first")
        function = transform.match_op(builder, root, "func.func",
                                      position="last")
        transform.loop_hoist(builder, outer, function)
        inner = transform.match_op(builder, outer, "scf.for",
                                   position="first")
        size = transform.param_constant(builder, divisor)
        main, rest = transform.loop_split(builder, inner, size)
        transform.loop_tile(builder, main, size)
        transform.loop_unroll(builder, rest, full=True)
        transform.annotate(builder, outer, "schedule_id", tag)
        transform.yield_(builder)
        facts = (('"scf.for"', 3),
                 ("callee = @use", 1 + 2042 % divisor),
                 (f"schedule_id = {tag} ", 1))
        return Job(f"fig1-{tag}", _print(payload), _print(script),
                   facts=facts, kind="fig1")

    def _include(self, rng, tag, library_scripts):
        """``transform.include`` of the shipped schedule library
        (fixed 32x32 tiles), linked into the script."""
        from repro.execution.workloads import build_matmul_module

        macro = rng.choice(sorted(library_scripts))
        remainder = rng.randint(1, 3)
        m = 32 + remainder
        n = 32 * rng.randint(1, 2)
        k = rng.choice((4, 8))
        name = f"lib_{tag}"
        offload = macro == "offload_to_microkernel"
        facts = (('"scf.for"', (2 if offload else 5) + 2 * remainder),
                 ("microkernel_flops", 1 if offload else 0))
        return Job(f"include-{tag}",
                   _print(build_matmul_module(m, n, k, name)),
                   library_scripts[macro], facts=facts,
                   oracle=("matmul", name, (m, n, k)), kind="include")

    def generate(self, seed, scale=1.0):
        from repro.autotuning.integration import case_study_5_template
        from repro.core import dialect as transform
        from repro.core.schedules import link_schedule_library
        from repro.ir.core import Operation

        template = _print(case_study_5_template().build())
        library_scripts = {}
        for macro in ("tile_and_unroll_remainder",
                      "offload_to_microkernel"):
            module = Operation.create("builtin.module", regions=1)
            module.regions[0].add_block()
            sequence, builder, root = transform.sequence()
            module.regions[0].entry_block.append(sequence)
            loop = transform.match_op(builder, root, "scf.for",
                                      position="first")
            transform.include(
                builder, macro, [loop],
                n_results=1 if macro == "tile_and_unroll_remainder" else 0)
            transform.yield_(builder)
            link_schedule_library(module)
            library_scripts[macro] = _print(module)

        rng = random.Random(seed)
        total = self.stream_length(scale) + self.WARMUP
        jobs: List[Job] = []
        seen = set()
        while len(jobs) < total:
            tag = len(jobs)
            draw = rng.random()
            if draw < 0.40:
                job = self._fig8(rng, tag)
            elif draw < 0.75:
                job = self._fig9(rng, tag, template)
            elif draw < 0.85:
                job = self._fig1(rng, tag)
            else:
                job = self._include(rng, tag, library_scripts)
            # Function names carry the tag, so jobs are distinct by
            # construction; the set guards the claim.
            identity = (job.payload, job.script,
                        tuple(sorted((job.params or {}).items())))
            assert identity not in seen
            seen.add(identity)
            if tag % self.ORACLE_EVERY:
                job = replace(job, oracle=None)
            jobs.append(job)
        return jobs[:self.WARMUP], jobs[self.WARMUP:]

    def start(self, tmpdir):
        return EngineRoute(**self.ENGINE)


# ---------------------------------------------------------------------------
# 3. sweep_pooled  /  4. serve_mixed  (the 4-function unroll payload)
# ---------------------------------------------------------------------------

UNROLL_FACTOR = 16
UNROLL_SCHEDULE = textwrap.dedent(f"""
    "transform.sequence"() ({{
    ^bb0(%root: !transform.any_op):
      %loops = "transform.match_op"(%root) {{names = ["scf.for"], position = "all"}} : (!transform.any_op) -> !transform.any_op
      "transform.loop.unroll"(%loops) {{factor = {UNROLL_FACTOR} : i64}} : (!transform.any_op) -> ()
      "transform.yield"() : () -> ()
    }}) : () -> ()
""").strip()
FUNCTIONS_PER_MODULE = 4


def _unroll_function(name: str, trip: int) -> str:
    """One unrollable loop (trip divisible by the factor) doing real
    body-duplication work — the ``bench_service.py`` payload shape."""
    return textwrap.dedent(f"""
      "func.func"() ({{
        %lb = "arith.constant"() {{value = 0 : index}} : () -> index
        %ub = "arith.constant"() {{value = {trip} : index}} : () -> index
        %st = "arith.constant"() {{value = 1 : index}} : () -> index
        "scf.for"(%lb, %ub, %st) ({{
        ^bb0(%iv: index):
          %a = "arith.constant"() {{value = 1.0 : f32}} : () -> f32
          %b = "arith.constant"() {{value = 2.0 : f32}} : () -> f32
          %c = "arith.addf"(%a, %b) : (f32, f32) -> f32
          %d = "arith.mulf"(%c, %b) : (f32, f32) -> f32
          %e = "arith.addf"(%d, %a) : (f32, f32) -> f32
          "scf.yield"() : () -> ()
        }}) : (index, index, index) -> ()
        "func.return"() : () -> ()
      }}) {{sym_name = "{name}", function_type = () -> ()}} : () -> ()
    """).strip()


def _module_of(functions: Sequence[str]) -> str:
    body = "\n".join(functions)
    return f'"builtin.module"() ({{\n{body}\n}}) : () -> ()'


_UNROLL_FACTS = (
    ('"scf.for"', FUNCTIONS_PER_MODULE),
    ('"arith.mulf"', FUNCTIONS_PER_MODULE * UNROLL_FACTOR),
    ('"arith.addf"', FUNCTIONS_PER_MODULE * UNROLL_FACTOR * 2),
)


class _UnrollModules:
    """Seeded source of never-repeating unroll functions/modules."""

    def __init__(self, rng: random.Random):
        self._rng = rng
        self._serial = 0

    def function(self) -> str:
        self._serial += 1
        name = f"w{self._serial}_{self._rng.randrange(1 << 20):05x}"
        return _unroll_function(
            name, UNROLL_FACTOR * self._rng.randint(4, 20))

    def functions(self) -> List[str]:
        return [self.function() for _ in range(FUNCTIONS_PER_MODULE)]


def _unroll_job(job_id: str, functions: Sequence[str], kind: str,
                group: str = "all") -> Job:
    return Job(job_id, _module_of(functions), UNROLL_SCHEDULE,
               facts=_UNROLL_FACTS, group=group, kind=kind)


class SweepPooled(Workload):
    # Why: an autotuner's cold sweep — every job is new, so every job
    # is a cache WRITE (1 whole-job + 4 function entries) and never a
    # read. Dispatch, pickling, the worker's re-parse, digesting and
    # function-tier population are pure cost here; this is where the
    # dispatch tax and any parallel speed-up must show.
    # Must NOT be sensitive to: cache lookup speed on hits (there are
    # none), the wire, or the TOSA passes.
    name = "sweep_pooled"
    why = ("autotuner cold sweep: distinct 4-function unroll modules "
           "from 2 threads through a 2-worker pooled engine with both "
           "cache tiers on; every job a cache write, never a read")
    clients = WORKERS
    BYTE_IDENTITY = True
    TAIL = 90  # ~400 samples a run; p95 leaves too few beyond it to be steady
    STREAM = 900
    TRACED = 48
    PAIRS = 24
    WARMUP = 4
    CACHE_CAPACITY = 512
    ENGINE = dict(workers=WORKERS, cache_capacity=CACHE_CAPACITY)

    def generate(self, seed, scale=1.0):
        source = _UnrollModules(random.Random(seed))
        total = self.stream_length(scale) + self.WARMUP
        jobs = [_unroll_job(f"sweep-{i}", source.functions(), "novel")
                for i in range(total)]
        return jobs[:self.WARMUP], jobs[self.WARMUP:]

    def start(self, tmpdir):
        return EngineRoute(**self.ENGINE)

    def warm(self, route, warmup):
        # Two at a time, so both workers fork and import before timing.
        import threading

        failures: List[str] = []

        def run(slot):
            send = route.client(slot)
            for job in warmup[slot::WORKERS]:
                if not send(job).ok:
                    failures.append(job.job_id)

        threads = [threading.Thread(target=run, args=(slot,))
                   for slot in range(WORKERS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if failures:
            raise RuntimeError(f"warm-up jobs failed: {failures}")


class ServeMixed(SweepPooled):
    # Why: the daemon's steady state — one cache serves reads beside
    # writes. p50 is the hit path (wire + frontier + cache get), the
    # tail is the miss path; the function tier that only costs
    # sweep_pooled should pay here, so a change that trades one for the
    # other shows on both rows.
    # Must NOT be sensitive (at p50) to: parser, interpreter or printer
    # speed — a hit parses nothing.
    name = "serve_mixed"
    why = ("daemon steady state over 2 connections: 70% repeats of a "
           "32-job hot set (cache hits), 20% modules sharing 3 of 4 "
           "functions with a hot job (function-tier), 10% novel")
    STREAM = 4000
    TRACED = 200
    PAIRS = 24
    HOT_SET = 32
    HOT_SHARE, PARTIAL_SHARE = 0.70, 0.20
    #: Holds the hot set (32 x 5 entries) with room to spare, but not
    #: the novel stream: puts evict.
    CACHE_CAPACITY = 384
    ENGINE = dict(workers=WORKERS, cache_capacity=CACHE_CAPACITY)
    ROUTE = "daemon"

    def generate(self, seed, scale=1.0):
        rng = random.Random(seed)
        source = _UnrollModules(rng)
        hot = [source.functions() for _ in range(self.HOT_SET)]
        warmup = [_unroll_job(f"hot-{i}", functions, "hot")
                  for i, functions in enumerate(hot)]
        jobs = []
        for index in range(self.stream_length(scale)):
            draw = rng.random()
            if draw < self.HOT_SHARE:
                which = rng.randrange(self.HOT_SET)
                job = _unroll_job(f"serve-{index}", hot[which], "hot",
                                  group="hit")
            elif draw < self.HOT_SHARE + self.PARTIAL_SHARE:
                functions = list(hot[rng.randrange(self.HOT_SET)])
                functions[rng.randrange(FUNCTIONS_PER_MODULE)] = \
                    source.function()
                job = _unroll_job(f"serve-{index}", functions, "partial",
                                  group="miss")
            else:
                job = _unroll_job(f"serve-{index}", source.functions(),
                                  "novel", group="miss")
            jobs.append(job)
        return warmup, jobs

    def start(self, tmpdir):
        return DaemonRoute(tmpdir, self.CACHE_CAPACITY)


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (ModelPipeline(), ScheduleFinegrained(),
                        SweepPooled(), ServeMixed())
}


# ---------------------------------------------------------------------------
# The numpy oracle (independent of the transform interpreter)
# ---------------------------------------------------------------------------


def oracle_agrees(job: Job, output: str) -> bool:
    """Execute ``output`` with the reference payload interpreter on
    seeded inputs and compare with numpy."""
    import numpy as np

    from repro.execution import PayloadInterpreter
    from repro.ir.parser import parse

    shape, function, dims = job.oracle
    rng = np.random.default_rng(len(output))
    if shape == "matmul":
        m, n, k = dims
        a, b = rng.standard_normal((m, k)), rng.standard_normal((k, n))
        c = np.zeros((m, n))
    else:
        batch, m, n, k = dims
        a = rng.standard_normal((batch, m, k))
        b = rng.standard_normal((batch, k, n))
        c = np.zeros((batch, m, n))
    PayloadInterpreter(parse(output, "<output>")).run(function, a, b, c)
    return bool(np.allclose(c, a @ b))


# ---------------------------------------------------------------------------
# The output check
# ---------------------------------------------------------------------------

GOLDEN_CHARS = 4  # hex digits of each output's sha256 kept per job


def check(workload: Workload, jobs: Sequence[Job], samples,
          golden: Optional[str]) -> int:
    """Count the jobs whose output is wrong: failed/refused/late, facts
    off, golden digest off (seed 0), bytes differing from an in-process
    ``compile_job`` of the same job, or numpy disagreeing."""
    from repro.service.worker import compile_job

    reference: Dict[str, str] = {}
    failed = 0
    for sample in samples:
        job = jobs[sample.index]
        outcome = sample.outcome
        good = outcome is not None and outcome.ok and outcome.facts_ok
        if good and golden is not None:
            at = sample.index * GOLDEN_CHARS
            good = golden[at:at + GOLDEN_CHARS] == outcome.sha[:GOLDEN_CHARS]
        if good and workload.BYTE_IDENTITY:
            # Pooled and served results must be byte-identical to the
            # in-process reference semantics.
            if job.payload not in reference:
                reference[job.payload] = sha(compile_job(
                    job.payload, job.script, job.params)["output"])
            good = reference[job.payload] == outcome.sha
        if good and outcome.text is not None:
            good = oracle_agrees(job, outcome.text)
        if not good:
            print(f"perfbench: {workload.name}: job {job.job_id} "
                  "failed its output check", file=sys.stderr)
            failed += 1
    return failed
