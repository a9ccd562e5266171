"""The traced pass: where one workload's time goes, layer by layer.

Nothing under ``src/`` is instrumented for this. Every time below is
the duration of a :class:`repro.observability.Tracer` span that *this
file* opens around a call into a layer's public functions; counts come
from public stats objects (``interpreter.stats``, ``engine.stats``,
``cache.stats``, ``Profiler``). Span names are ``<module>.<what>`` so a
span's layer is its name minus the last component.

All measurements run on the workload's own jobs (the first ``TRACED``
of its seeded stream; paired ones on the first ``PAIRS`` distinct
ones), with three fixed-input exceptions the issue names: the greedy
driver (1804-op unrolled ResNet payload), the loop/microkernel
utilities (a fresh 36x32x32 nest) and the frontend builders.

Work inside pool workers and the daemon cannot be wrapped from outside.
:class:`Replay` therefore re-enacts a job's route stage by stage in
this process with the functions the engine calls; the real route is
timed as a black box, and the difference is ``*.unattributed_ms`` — the
number a later in-program tracing issue exists to explain.
"""

from __future__ import annotations

import asyncio
import json
import pickle
import statistics
from collections import Counter
from typing import Dict, List, NamedTuple, Optional, Sequence

import harness
from workloads import (
    DaemonRoute,
    EngineRoute,
    Job,
    WORKLOADS,
    check,
)

WARM_DIGESTS = 100
CACHE_ROUNDS = 20


def _count_ops(op) -> int:
    return sum(1 for _ in op.walk())


def _labelled(names: Sequence[str]) -> List[tuple]:
    """``canonicalize`` twice in a pipeline -> canonicalize-1, -2."""
    totals: Dict[str, int] = {}
    for name in names:
        totals[name] = totals.get(name, 0) + 1
    seen: Dict[str, int] = {}
    labelled = []
    for name in names:
        seen[name] = seen.get(name, 0) + 1
        label = f"{name}-{seen[name]}" if totals[name] > 1 else name
        labelled.append((label, name))
    return labelled


def tosa_pipeline() -> List[str]:
    from repro.passes.tosa_pipeline import TOSA_TO_LINALG_PIPELINE
    return list(TOSA_TO_LINALG_PIPELINE)


def _function_modules(functions) -> List[object]:
    """One attribute-less single-function module per function — the
    shape function-tier entries are stored in."""
    from repro.dialects import builtin

    wrappers = []
    for function in functions:
        wrapper = builtin.module()
        wrapper.body.append(function.clone())
        wrappers.append(wrapper)
    return wrappers


def _request_line(job: Job) -> str:
    """The submit frame a client puts on the wire for ``job``."""
    return json.dumps({"op": "submit", "payload": job.payload,
                       "script": job.script, "params": job.params,
                       "job_id": job.job_id, "id": "1"})


def _pool_arguments(job: Job) -> bytes:
    """What the engine pickles to hand ``job`` to a pool worker."""
    return pickle.dumps((job.payload, job.script, job.params, None, False,
                         None, None))


class _PayloadInfo(NamedTuple):
    digest: str
    attributes: Dict[str, object]
    func_digests: Optional[tuple]


class Replay:
    """A job's route, re-enacted in-process one public call at a time.

    Mirrors what :class:`repro.service.engine.CompileEngine` does at
    this commit: derive payload/script digests once per distinct text,
    lint once per distinct script, key, look up, (assemble from the
    function tier | pickle to a worker, compile, pickle back, populate
    the function tier), put. ``front=False`` is the bare worker
    (``compile_job``); ``wire=True`` adds the client/server codecs.
    """

    def __init__(self, tracer, parent, front: bool,
                 cache_capacity: Optional[int], pooled: bool, wire: bool):
        from repro.service import CompilationCache

        self.tracer = tracer
        self.parent = parent
        self.front = front
        self.pooled = pooled
        self.wire = wire
        self.cache = (CompilationCache(capacity=cache_capacity)
                      if cache_capacity else None)
        self._payloads: Dict[str, _PayloadInfo] = {}
        self._scripts: Dict[str, tuple] = {}
        self._linted = set()
        #: Counts read off public objects between the stage spans.
        self.tally: Counter = Counter()

    def _span(self, name, parent, **attributes):
        return self.tracer.span(name, parent, attributes)

    def _parse(self, text, parent):
        from repro.ir.parser import parse
        with self._span("ir.parser.parse", parent, bytes=len(text)):
            return parse(text)

    def _print(self, op, parent) -> str:
        from repro.ir.printer import print_op
        self.tally["ops_printed"] += _count_ops(op)
        with self._span("ir.printer.print", parent):
            return print_op(op)

    # -- the worker: what compile_job does ----------------------------------

    def worker(self, job: Job, parent) -> Dict[str, object]:
        from repro.core.interpreter import TransformInterpreter
        from repro.ir.hashing import op_digest
        from repro.service.worker import bind_parameters

        payload = self._parse(job.payload, parent)
        script = self._parse(job.script, parent)
        self.tally["executed"] += 1
        self.tally["ops_in"] += _count_ops(payload)
        with self._span("service.worker.bind_parameters", parent):
            bind_parameters(script, job.params)
        interpreter = TransformInterpreter()
        with self._span("core.interpreter.apply", parent):
            interpreter.apply(script, payload)
        self.tally["transforms_executed"] += \
            interpreter.stats.transforms_executed
        self.tally["handles_invalidated"] += \
            interpreter.stats.handles_invalidated
        with self._span("ir.core.verify", parent):
            payload.verify()
        output = self._print(payload, parent)
        with self._span("ir.hashing.redigest", parent):
            digest = op_digest(payload)
        self.tally["ops_out"] += _count_ops(payload)
        self.tally["bytes_out"] += len(output)
        return {"status": "success", "output": output,
                "output_digest": digest, "diagnostics": "", "stats": {},
                "wall_seconds": 0.0, "spans": []}

    # -- the engine front-end -----------------------------------------------

    def _payload_info(self, text, parent):
        from repro.ir.hashing import attributes_digest, op_digest
        from repro.service.sharding import shardable_functions

        if text not in self._payloads:
            payload = self._parse(text, parent)
            with self._span("service.sharding.gate", parent):
                functions = shardable_functions(payload)
            with self._span("ir.hashing.digest", parent):
                func_digests = (tuple(op_digest(f) for f in functions)
                                if functions is not None else None)
                attributes_digest(payload)  # the engine keeps it too
                info = _PayloadInfo(op_digest(payload),
                                    dict(payload.attributes), func_digests)
            self._payloads[text] = info
        return self._payloads[text]

    def _script_info(self, text, parent):
        from repro.analysis.lint import lint_script
        from repro.ir.hashing import op_digest
        from repro.service.sharding import is_func_shardable

        if text not in self._scripts:
            script = self._parse(text, parent)
            with self._span("ir.hashing.digest", parent):
                digest = op_digest(script)
            with self._span("service.sharding.gate", parent):
                shardable = is_func_shardable(script)
            self._scripts[text] = (digest, shardable)
        if text not in self._linted:
            self._linted.add(text)
            script = self._parse(text, parent)
            with self._span("analysis.lint.preflight", parent):
                engine = lint_script(script)
            self.tally["diagnostics"] += len(engine.diagnostics)
        return self._scripts[text]

    def _dispatch(self, job: Job, parent) -> Dict[str, object]:
        if not self.pooled:
            return self.worker(job, parent)
        with self._span("service.engine.pickle", parent):
            pickle.loads(_pool_arguments(job))
        raw = self.worker(job, parent)
        with self._span("service.engine.pickle", parent):
            pickle.loads(pickle.dumps(raw))
        return raw

    def _function_texts(self, module, parent) -> Optional[List[str]]:
        """One standalone single-function module text per function."""
        from repro.service.sharding import shardable_functions

        with self._span("service.sharding.gate", parent):
            functions = shardable_functions(module)
        if functions is None:
            return None
        return [self._print(wrapper, parent)
                for wrapper in _function_modules(functions)]

    def _assemble(self, job, payload_info, script_digest, parent):
        from repro.service.cache import function_key
        from repro.service.sharding import assemble_functions

        keys = [function_key(digest, script_digest, job.params)
                for digest in payload_info.func_digests]
        with self._span("service.cache.get", parent):
            entries = [self.cache.get_function(key) for key in keys]
        if not any(entries):
            return None
        if not all(entries):
            texts = self._function_texts(
                self._parse(job.payload, parent), parent)
        outputs = []
        for index, entry in enumerate(entries):
            if entry is None:
                sub = Job(f"{job.job_id}/fn{index}", texts[index],
                          job.script, job.params)
                outputs.append(self.engine(sub, parent))
            else:
                outputs.append(entry.output)
        with self._span("service.sharding.assemble", parent):
            output, _digest = assemble_functions(payload_info.attributes,
                                                 outputs)
        return output

    def _populate(self, job, raw, payload_info, script_digest, parent):
        from repro.service.cache import CachedResult, function_key

        texts = self._function_texts(
            self._parse(raw["output"], parent), parent)
        if texts is None or len(texts) != len(payload_info.func_digests):
            return
        for digest, text in zip(payload_info.func_digests, texts):
            with self._span("service.cache.put", parent):
                self.cache.put_function(
                    function_key(digest, script_digest, job.params),
                    CachedResult("success", text, "", None))

    def engine(self, job: Job, parent) -> str:
        from repro.service.cache import CachedResult, cache_key

        payload_info = self._payload_info(job.payload, parent)
        script_digest, shardable = self._script_info(job.script, parent)
        with self._span("service.cache.key", parent):
            key = cache_key(payload_info.digest, script_digest, job.params)
        if self.cache is None:
            return self._dispatch(job, parent)["output"]
        with self._span("service.cache.get", parent):
            cached = self.cache.get(key)
        if cached is not None:
            return cached.output
        func_digests = payload_info.func_digests
        tiered = (shardable and func_digests is not None
                  and len(func_digests) >= 2)
        output = (self._assemble(job, payload_info, script_digest, parent)
                  if tiered else None)
        if output is None:
            raw = self._dispatch(job, parent)
            output = raw["output"]
            if shardable and func_digests:
                self._populate(job, raw, payload_info, script_digest,
                               parent)
        with self._span("service.cache.put", parent):
            self.cache.put(key, CachedResult("success", output, "", None))
        return output

    # -- one whole job --------------------------------------------------------

    def job(self, job: Job) -> str:
        from repro.service import JobResult, JobStatus
        from repro.service.client import result_from_frame
        from repro.service.server import result_to_frame

        with self._span("bench.replay.job", self.parent,
                        job_id=job.job_id) as span:
            if self.wire:
                with self._span("service.client.codec", span):
                    line = _request_line(job)
                with self._span("service.server.codec", span):
                    json.loads(line)
            output = (self.engine(job, span) if self.front
                      else self.worker(job, span)["output"])
            if self.wire:
                with self._span("service.server.codec", span):
                    line = json.dumps(result_to_frame(JobResult(
                        job.job_id, JobStatus.SUCCESS, output=output)))
                with self._span("service.client.codec", span):
                    result_from_frame(json.loads(line))
        return output


class TracedPass:
    def __init__(self, workload, seed: int, scale: float, tmpdir: str):
        from repro.observability import Tracer

        self.workload = workload
        self.seed = seed
        self.tmpdir = tmpdir
        self.tracer = Tracer()
        self.root = self.tracer.start_span(
            f"bench.{workload.name}", attributes={"seed": seed})
        self.warmup, stream = workload.generate(seed, scale)
        shrink = min(scale, 1.0)
        self.jobs = stream[:max(2, round(workload.TRACED * shrink))]
        pairs = max(2, round(workload.PAIRS * shrink))
        distinct: Dict[str, Job] = {}
        for job in self.jobs:
            if job.kind != "partial":
                distinct.setdefault(job.payload, job)
        #: Distinct jobs sharing no function with each other: a fresh
        #: engine sees every one of them as new (its per-text memos
        #: never hit). Measurements that touch no engine use ``repeats``,
        #: which keeps the stream's own mix.
        self.pairs = list(distinct.values())[:pairs]
        self.repeats = self.jobs[:pairs]
        #: Jobs sharing 3 of 4 functions with a warm-up (hot) job.
        self.partials = [j for j in self.jobs if j.kind == "partial"][:pairs]
        self.cache_capacity = workload.ENGINE["cache_capacity"]
        self.m: Dict[str, float] = {}
        self.detail: Dict[str, object] = {}
        self.attempted = self.failed = 0
        #: compile_job results for ``repeats`` (filled by ``worker``).
        self.raw: List[Dict[str, object]] = []

    # -- helpers --------------------------------------------------------------

    def section(self, name: str):
        return self.tracer.span(f"bench.{name}", self.root)

    def durations(self, name: str) -> List[float]:
        return [span.duration for span in self.tracer.find(name)]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def median_ms(self, name: str) -> float:
        durations = self.durations(name)
        return statistics.median(durations) * 1e3 if durations else 0.0

    def per_call_us(self, name: str) -> float:
        spans = self.tracer.find(name)
        calls = sum(span.attributes.get("calls", 1) for span in spans)
        return (sum(span.duration for span in spans) / calls * 1e6
                if calls else 0.0)

    def engine_route(self, **overrides) -> EngineRoute:
        config = dict(self.workload.ENGINE)
        config.update(overrides)
        return EngineRoute(**config)

    def run_route(self, route, name: str) -> None:
        """The workload's jobs, one at a time, through a started route;
        outputs are checked."""
        self.workload.warm(route, self.warmup)
        before = route.stats()
        send = route.client(0)
        samples = []
        with harness.ResourceMeter() as meter:
            for index, job in enumerate(self.jobs):
                with self.tracer.span(name, self.root,
                                      {"job_id": job.job_id}) as span:
                    outcome = send(job)
                samples.append(harness.Sample(index, span.duration,
                                              outcome))
        self.attempted += len(samples)
        self.failed += check(self.workload, self.jobs, samples, None)
        latencies = [s.latency * 1e3 for s in samples]
        rung = harness.tail_percentile(len(latencies))
        self.detail[name] = {
            "mean_ms": statistics.mean(latencies),
            "tail_percentile": rung,
            "tail_ms": harness.percentile(latencies, rung),
            "stats_before": before, "stats_after": route.stats(),
            "client_cpu_share": meter.client_cpu / meter.cpu,
            "cache_hits": sum(bool(s.outcome and s.outcome.cache_hit)
                              for s in samples),
        }

    # -- sections -------------------------------------------------------------

    def replay(self):
        workload = self.workload
        config = workload.ENGINE
        with self.section("replay") as section:
            replay = Replay(
                self.tracer, section, front=workload.ROUTE != "worker",
                cache_capacity=config["cache_capacity"],
                pooled=config["workers"] > 0,
                wire=workload.ROUTE == "daemon")
            # The warm-up the real route gets: lazy imports done, the
            # cache (if any) in the state the timed jobs will find.
            for job in self.warmup:
                replay.job(job)
            replay.tally.clear()
            first = len(self.tracer.spans())
            for job in self.jobs:
                replay.job(job)
        n = len(self.jobs)
        spans = [s for s in self.tracer.spans()[first:]
                 if s.name != "bench.replay"]
        by_name: Dict[str, float] = {}
        for span in spans:
            by_name[span.name] = by_name.get(span.name, 0.0) + span.duration
        job_total = by_name.pop("bench.replay.job")
        #: What the stage spans account for; the job spans also hold
        #: this file's own bookkeeping between stages.
        self.replay_ms = sum(
            seconds for name, seconds in by_name.items()
            if not name.endswith(".codec")) / n * 1e3
        self.replay_spans = len(spans)
        self.replay_total = job_total
        m = self.m

        def per_job_ms(name):
            return by_name.get(name, 0.0) / n * 1e3

        parse_s = by_name.get("ir.parser.parse", 0.0)
        print_s = by_name.get("ir.printer.print", 0.0)
        tally = replay.tally
        executed = max(tally["executed"], 1)
        m["ir.parser.parse_ms"] = per_job_ms("ir.parser.parse")
        m["ir.parser.mb_per_s"] = (
            sum(s.attributes["bytes"] for s in spans
                if s.name == "ir.parser.parse") / parse_s / 1e6
            if parse_s else 0.0)
        m["ir.parser.share"] = parse_s / job_total
        m["ir.printer.print_ms"] = per_job_ms("ir.printer.print")
        m["ir.printer.kops_per_s"] = (
            tally["ops_printed"] / print_s / 1e3 if print_s else 0.0)
        m["ir.core.verify_ms"] = per_job_ms("ir.core.verify")
        m["ir.hashing.redigest_ms"] = per_job_ms("ir.hashing.redigest")
        m["ir.payload.ops_in"] = tally["ops_in"] / executed
        m["ir.payload.ops_out"] = tally["ops_out"] / executed
        m["ir.payload.bytes_out"] = tally["bytes_out"] / executed
        m["analysis.lint.preflight_ms"] = per_job_ms(
            "analysis.lint.preflight")
        m["analysis.lint.diagnostics"] = tally["diagnostics"]
        m["core.interpreter.apply_ms"] = per_job_ms("core.interpreter.apply")
        m["core.interpreter.share"] = (
            by_name.get("core.interpreter.apply", 0.0) / job_total)
        m["core.interpreter.transforms_executed"] = (
            tally["transforms_executed"] / executed)
        m["core.state.handles_invalidated"] = (
            tally["handles_invalidated"] / executed)
        m["service.worker.bind_parameters_us"] = per_job_ms(
            "service.worker.bind_parameters") * 1e3
        self.detail["replay_layers_s"] = {
            layer: seconds for layer, seconds in sorted(
                harness.self_time_by_layer(spans).items(),
                key=lambda item: -item[1])}

    def worker(self):
        """``compile_job`` itself — the floor under every route — and
        what crossing a process boundary would add to it."""
        from repro.service.worker import compile_job

        sizes = []
        with self.section("worker") as section:
            for job in self.repeats:
                with self.tracer.span("service.worker.compile_job", section):
                    raw = compile_job(job.payload, job.script, job.params)
                self.raw.append(raw)
                with self.tracer.span("service.engine.pickle.pair",
                                      section):
                    blob = pickle.dumps(raw)
                    pickle.loads(blob)
                    sent = _pool_arguments(job)
                    pickle.loads(sent)
                sizes.append(len(blob) + len(sent))
        self.m["service.worker.compile_job_ms"] = (
            self.total("service.worker.compile_job") / len(self.raw) * 1e3)
        self.m["service.worker.result_bytes"] = statistics.mean(
            len(raw["output"]) for raw in self.raw)
        self.m["service.engine.pickle_us"] = self.median_ms(
            "service.engine.pickle.pair") * 1e3
        self.m["service.engine.pickle_bytes"] = statistics.mean(sizes)

    def call_count(self):
        """Python-level calls per ``compile_job``: a work count the
        host's speed cannot move (wall time under a profile hook means
        nothing, so none is taken)."""
        import sys

        from repro.service.worker import compile_job

        calls = [0]

        def hook(frame, event, arg):
            if event == "call" or event == "c_call":
                calls[0] += 1

        sys.setprofile(hook)
        try:
            for job in self.repeats:
                compile_job(job.payload, job.script, job.params)
        finally:
            sys.setprofile(None)
        self.m["bench.py_calls_per_job"] = calls[0] / len(self.repeats)

    def routes(self):
        """The workload's jobs through an in-process engine configured
        like its route — and through the real route when that is
        something else (bare compile_job, the daemon)."""
        with self.engine_route() as route:
            self.run_route(route, "bench.engine.job")
        detail = self.detail["bench.engine.job"]
        real = detail
        if self.workload.ROUTE != "engine":
            with self.workload.start(self.tmpdir) as route:
                self.run_route(route, "bench.route.job")
            real = self.detail["bench.route.job"]
        n = len(self.jobs)
        m = self.m
        after = detail["stats_after"]
        before = detail["stats_before"]

        def delta(section, key):
            return (after.get(section, {}).get(key, 0)
                    - before.get(section, {}).get(key, 0))

        for key in ("executed", "cache_hits", "function_tier_hits",
                    "coalesced", "retries", "worker_restarts"):
            m[f"service.engine.{key}"] = delta("engine", key)
        # The replay mirrors the real route; for the daemon that is the
        # engine behind it (the wire has its own residual below).
        base = real if self.workload.ROUTE == "worker" else detail
        m["service.engine.unattributed_ms"] = (base["mean_ms"]
                                               - self.replay_ms)
        m["service.cache.hit_rate"] = detail["cache_hits"] / n
        lookups = (delta("cache", "function_hits")
                   + delta("cache", "function_misses"))
        m["service.cache.function_hit_rate"] = (
            delta("cache", "function_hits") / lookups if lookups else 0.0)
        m["service.cache.evictions"] = delta("cache", "evictions")
        m["service.cache.entries_per_job"] = delta("cache", "puts") / n
        m["bench.client_cpu_share"] = real["client_cpu_share"]
        # One client, TRACED jobs: the tail a lone caller sees. (The
        # closed-loop tail is in every end-to-end run's ledger rows; it
        # is too host-sensitive to carry a bound.)
        m["bench.latency_tail_ms"] = real["tail_ms"]

    def hashing(self):
        from repro.ir.hashing import op_digest
        from repro.ir.parser import parse

        with self.section("hashing") as section:
            for job in self.repeats:
                payload = parse(job.payload)
                with self.tracer.span("ir.hashing.cold", section):
                    op_digest(payload)
                with self.tracer.span("ir.hashing.warm", section,
                                      {"calls": WARM_DIGESTS}):
                    for _ in range(WARM_DIGESTS):
                        op_digest(payload)
        self.m["ir.hashing.digest_cold_ms"] = self.median_ms(
            "ir.hashing.cold")
        self.m["ir.hashing.digest_warm_us"] = self.per_call_us(
            "ir.hashing.warm")

    def passes(self):
        """Each pass of the job's own pipeline (the passes its script
        applies; none for a loop schedule) run alone through
        ``PassManager([p])`` on the IR its predecessors left."""
        from repro.core.pass_to_transform import transform_script_to_pipeline
        from repro.ir.parser import parse
        from repro.passes import PassManager

        ops_in = ops_after = 0
        with self.section("passes") as section:
            for job in self.repeats:
                payload = parse(job.payload)
                pipeline = transform_script_to_pipeline(parse(job.script))
                ops_in += _count_ops(payload)
                with self.tracer.span("passes.pipeline.run",
                                      section) as whole:
                    for label, name in _labelled(pipeline):
                        with self.tracer.span(f"passes.{label}.run", whole):
                            PassManager([name]).run(payload)
                ops_after += _count_ops(payload)
        n = len(self.repeats)
        run_s = self.total("passes.pipeline.run")
        self.m["passes.pipeline.run_ms"] = run_s / n * 1e3
        self.m["passes.pipeline.ops_after"] = ops_after / n
        self.m["passes.pipeline.kops_per_s"] = ops_in / run_s / 1e3
        for label, _name in _labelled(tosa_pipeline()):
            self.m[f"passes.{label}.run_ms"] = (
                self.total(f"passes.{label}.run") / n * 1e3)

    def interpreter_overhead(self):
        """Table 1: the TOSA pipeline as a transform script minus the
        same pipeline through the native pass manager, on this
        workload's payloads."""
        from repro.core import TransformInterpreter
        from repro.core import pipeline_to_transform_script
        from repro.ir.parser import parse
        from repro.passes import PassManager

        pipeline = tosa_pipeline()
        items = [(parse(job.payload), parse(job.payload),
                  pipeline_to_transform_script(pipeline))
                 for job in self.repeats]
        with self.section("interpreter_overhead") as section:
            result = harness.paired(
                self.tracer, section,
                "core.interpreter.pipeline_script",
                lambda item: TransformInterpreter().apply(item[2], item[0]),
                "passes.pipeline.native",
                lambda item: PassManager(pipeline).run(item[1]),
                items)
        self.m["core.interpreter.overhead_ms"] = result["diff"] * 1e3
        self.detail["interpreter_overhead"] = result

    def rollback(self):
        """Fig. 8 with an alternative the library cannot serve, minus
        the same schedule with no alternatives region."""
        from repro.core import TransformInterpreter
        from repro.ir.parser import parse

        failing, plain = WORKLOADS["schedule_finegrained"].rollback_pair(
            self.seed)
        items = [(parse(failing.payload), parse(failing.script),
                  parse(plain.payload), parse(plain.script))
                 for _ in range(20)]
        with self.section("rollback") as section:
            result = harness.paired(
                self.tracer, section,
                "core.transaction.failing_alternative",
                lambda item: TransformInterpreter().apply(item[1], item[0]),
                "core.transaction.no_region",
                lambda item: TransformInterpreter().apply(item[3], item[2]),
                items)
        self.m["core.transaction.rollback_ms"] = result["diff"] * 1e3

    def rewrite(self):
        from repro.execution.workloads import build_resnet_layer_module
        from repro.passes.canonicalize import frozen_canonicalization_patterns
        from repro.profiling import Profiler
        from repro.rewrite.greedy import apply_patterns_greedily
        from repro.transforms.loop import unroll_loop

        def unrolled():
            module = build_resnet_layer_module()
            loops = [op for op in module.walk() if op.name == "scf.for"]
            unroll_loop(loops[-1], full=True)
            return module

        frozen = frozen_canonicalization_patterns()
        with self.section("rewrite") as section:
            for _ in range(3):
                module = unrolled()
                with self.tracer.span("rewrite.greedy.fixpoint", section):
                    apply_patterns_greedily(module, frozen)
        # What the driver changed: patterns applied plus dead ops erased
        # (on this payload the work is the traversal, not the rewrites).
        profiler = Profiler()
        module = unrolled()
        before = _count_ops(module)
        apply_patterns_greedily(module, frozen, profiler=profiler)
        rewrites = (sum(stat.applies for stat in profiler.patterns.values())
                    + before - _count_ops(module))
        fixpoint_ms = self.median_ms("rewrite.greedy.fixpoint")
        self.m["rewrite.greedy.fixpoint_ms"] = fixpoint_ms
        self.m["rewrite.greedy.rewrites"] = rewrites
        self.m["rewrite.greedy.us_per_rewrite"] = (
            fixpoint_ms * 1e3 / rewrites if rewrites else 0.0)

    def transforms(self):
        from repro.execution.workloads import build_matmul_module
        from repro.transforms import split_loop, tile_loop_nest, unroll_loop
        from repro.transforms.microkernel import replace_with_library_call

        with self.section("transforms") as section:
            for _ in range(20):
                module = build_matmul_module(36, 32, 32)
                loop = next(module.walk_ops("scf.for"))
                with self.tracer.span("transforms.loop.split", section):
                    main, rest = split_loop(loop, 32)
                with self.tracer.span("transforms.loop.tile", section):
                    tile_loop_nest(main, [32, 32])
                points = [op for op in module.walk()
                          if op.name == "scf.for"]
                with self.tracer.span("transforms.microkernel.replace",
                                      section):
                    replace_with_library_call(points[2])
                with self.tracer.span("transforms.loop.unroll", section):
                    unroll_loop(rest, full=True)
        self.m["transforms.loop.split_us"] = self.median_ms(
            "transforms.loop.split") * 1e3
        self.m["transforms.loop.tile_us"] = self.median_ms(
            "transforms.loop.tile") * 1e3
        self.m["transforms.loop.unroll_ms"] = self.median_ms(
            "transforms.loop.unroll")
        self.m["transforms.microkernel.replace_ms"] = self.median_ms(
            "transforms.microkernel.replace")

    def _paired_routes(self, label, config_a, config_b, jobs, prime=()):
        """Paired A/B of two fresh in-process engines on ``jobs`` (each
        engine meets each job exactly once); returns harness.paired's
        dict."""
        plain = dict(workers=0, cache_capacity=None, function_tier=True,
                     preflight=False)
        with EngineRoute(**{**plain, **config_a}) as route_a, \
                EngineRoute(**{**plain, **config_b}) as route_b:
            for job in prime:
                route_a.run_ok(job)
                route_b.run_ok(job)
            with self.section(label) as section:
                return harness.paired(
                    self.tracer, section,
                    f"service.engine.{label}.a", route_a.run_ok,
                    f"service.engine.{label}.b", route_b.run_ok, jobs)

    def engine(self):
        from repro.service.worker import compile_job

        m = self.m
        capacity = self.cache_capacity or 512
        jobs = self.pairs

        bare = dict(workers=0, cache_capacity=None, preflight=False)
        with EngineRoute(**bare) as route, \
                self.section("inproc") as section:
            result = harness.paired(
                self.tracer, section, "service.engine.inproc", route.run_ok,
                "service.worker.compile_job.paired",
                lambda job: compile_job(job.payload, job.script,
                                        job.params),
                jobs)
        m["service.engine.inproc_ms"] = result["a"] * 1e3
        m["service.engine.inproc_overhead_ms"] = result["diff"] * 1e3

        result = self._paired_routes("preflight", dict(preflight=True), {},
                                     jobs)
        m["service.engine.preflight_cost_ms"] = result["diff"] * 1e3
        result = self._paired_routes(
            "cache", dict(cache_capacity=capacity, function_tier=False),
            {}, jobs)
        m["service.engine.cache_cost_ms"] = result["diff"] * 1e3
        result = self._paired_routes(
            "tier_cost", dict(cache_capacity=capacity),
            dict(cache_capacity=capacity, function_tier=False), jobs)
        m["service.engine.function_tier_cost_ms"] = result["diff"] * 1e3
        m["service.engine.function_tier_saving_ms"] = 0.0
        if self.partials:
            # Both engines hold the hot set; only one may reuse its
            # functions.
            result = self._paired_routes(
                "tier_saving",
                dict(cache_capacity=capacity, function_tier=False),
                dict(cache_capacity=capacity), self.partials,
                prime=self.warmup)
            m["service.engine.function_tier_saving_ms"] = \
                result["diff"] * 1e3

        with self.section("pool") as section, \
                EngineRoute(**bare) as inproc:
            spawn = self.tracer.start_span("service.engine.pool_spawn",
                                           section)
            with EngineRoute(**{**bare, "workers": 2}) as pooled:
                # The first job pays the fork and the worker's imports.
                pooled.run_ok(self.warmup[0])
                self.tracer.end_span(spawn)
                pooled.run_ok(self.warmup[-1])
                result = harness.paired(
                    self.tracer, section, "service.engine.pooled",
                    pooled.run_ok, "service.engine.inproc.paired",
                    inproc.run_ok, jobs)
        m["service.engine.pool_spawn_ms"] = self.median_ms(
            "service.engine.pool_spawn")
        m["service.engine.pooled_ms"] = result["a"] * 1e3
        m["service.engine.dispatch_overhead_ms"] = result["diff"] * 1e3

        walls = {}
        with self.section("parallel") as section:
            for workers in (1, 2):
                with EngineRoute(**{**bare, "workers": workers}) as route:
                    self.workload.warm(route, self.warmup[:2])
                    with self.tracer.span(
                            f"service.engine.parallel_w{workers}", section):
                        _samples, walls[workers], _chunks = \
                            harness.run_closed_loop(
                                len(jobs),
                                lambda slot, run=route.run_ok:
                                    lambda index: run(jobs[index]),
                                2, seconds=60.0, calibrate_every=None)
        m["service.engine.parallel_speedup"] = walls[1] / walls[2]

    def cache(self):
        from repro.service import CachedResult, CompilationCache, cache_key
        from workloads import sha

        cache = CompilationCache(capacity=4096)
        digests = [(sha(job.payload), sha(job.script), job.params)
                   for job in self.repeats]
        keys = [cache_key(*digest) for digest in digests]
        values = [CachedResult("success", raw["output"], "",
                               raw["output_digest"]) for raw in self.raw]
        calls = {"calls": len(keys)}
        with self.section("cache") as section:
            for _ in range(CACHE_ROUNDS):
                with self.tracer.span("service.cache.key.batch", section,
                                      calls):
                    for digest in digests:
                        cache_key(*digest)
                with self.tracer.span("service.cache.put.batch", section,
                                      calls):
                    for key, value in zip(keys, values):
                        cache.put(key, value)
                with self.tracer.span("service.cache.get_hit.batch",
                                      section, calls):
                    for key in keys:
                        cache.get(key)
                with self.tracer.span("service.cache.get_miss.batch",
                                      section, calls):
                    for key in keys:
                        cache.get(key[::-1])
        for what in ("key", "put", "get_hit", "get_miss"):
            self.m[f"service.cache.{what}_us"] = self.per_call_us(
                f"service.cache.{what}.batch")

    def sharding(self):
        from repro.ir.parser import parse
        from repro.ir.printer import print_op
        from repro.service.sharding import (
            assemble_functions,
            is_func_shardable,
            shardable_functions,
        )

        with self.section("sharding") as section:
            for job, raw in zip(self.repeats, self.raw):
                payload, script = parse(job.payload), parse(job.script)
                with self.tracer.span("service.sharding.gate.pair", section):
                    is_func_shardable(script)
                    shardable_functions(payload)
                output = parse(raw["output"])
                functions = shardable_functions(output)
                if functions is None:
                    continue
                texts = [print_op(wrapper)
                         for wrapper in _function_modules(functions)]
                with self.tracer.span("service.sharding.assemble.pair",
                                      section):
                    assemble_functions(dict(output.attributes), texts)
        self.m["service.sharding.gate_us"] = self.median_ms(
            "service.sharding.gate.pair") * 1e3
        self.m["service.sharding.assemble_ms"] = self.median_ms(
            "service.sharding.assemble.pair")

    def frontier(self):
        """``ServiceFrontier.submit`` minus ``engine.run_job`` on a job
        the cache already holds."""
        from repro.service import CompileJob, ServiceFrontier

        job = self.pairs[0]

        def compile_job_of(index):
            return CompileJob(job.payload, job.script, job.params,
                              job_id=f"frontier-{index}")

        async def drive(route, section):
            async with ServiceFrontier(route.engine) as frontier:
                for index in range(50):
                    sides = ["submit", "direct"]
                    if index % 2:
                        sides.reverse()
                    for side in sides:
                        if side == "submit":
                            with self.tracer.span(
                                    "service.frontier.submit", section):
                                await frontier.submit(compile_job_of(index))
                        else:
                            with self.tracer.span("service.engine.hit",
                                                  section):
                                route.engine.run_job(compile_job_of(index))

        with EngineRoute(workers=0, preflight=False,
                         cache_capacity=self.cache_capacity or 64) as route:
            route.run_ok(job)
            with self.section("frontier") as section:
                asyncio.run(drive(route, section))
        diffs = [a - b for a, b in zip(
            self.durations("service.frontier.submit"),
            self.durations("service.engine.hit"))]
        self.m["service.frontier.submit_overhead_us"] = (
            statistics.median(diffs) * 1e6)

    def server(self):
        """A fresh daemon against a fresh in-process engine of the same
        configuration, job for job.

        Always on ``serve_mixed``'s seeded unroll jobs, whichever
        workload is traced: a fresh ``repro-serve`` REJECTS any script
        that spells a ``!transform.op<"...">`` type ("input does not
        parse") — its engine parses scripts before anything has imported
        ``repro.core`` and registered the type — so the builder-made
        schedules of the other workloads cannot travel this route.
        """
        from repro.service.client import result_from_frame
        from repro.service.server import result_to_frame

        served = WORKLOADS["serve_mixed"]
        hot, stream = served.generate(self.seed, 0.05)
        jobs = [job for job in stream if job.kind == "novel"][
            :max(2, len(self.pairs) // 2)]
        sizes = []

        def submit(job):
            result = connection.submit(job.payload, job.script,
                                       job_id=job.job_id)
            if result.status.value != "success":
                raise RuntimeError(f"daemon: {job.job_id}: "
                                   f"{result.diagnostics[:200]}")

        with EngineRoute(**served.ENGINE) as full, \
                DaemonRoute(self.tmpdir, served.CACHE_CAPACITY) as daemon:
            with self.section("server") as section:
                connection = daemon.connect()
                full.run_ok(hot[0])
                submit(hot[0])
                for _ in range(200):
                    with self.tracer.span("service.server.ping", section):
                        connection.ping()
                for job in jobs:
                    with self.tracer.span("service.engine.full", section):
                        result = full.run_ok(job)
                    with self.tracer.span("service.server.miss_rtt",
                                          section):
                        submit(job)
                    with self.tracer.span("service.client.codec.pair",
                                          section):
                        request = _request_line(job)
                        line = json.dumps(result_to_frame(result))
                        result_from_frame(json.loads(line))
                    sizes.append(len(request) + len(line))
                for _ in range(50):
                    with self.tracer.span("service.server.hit_rtt", section):
                        submit(hot[0])
                server_stats = daemon.stats().get("server", {})
        m = self.m
        m["service.server.ping_rtt_us"] = self.median_ms(
            "service.server.ping") * 1e3
        m["service.server.hit_rtt_ms"] = self.median_ms(
            "service.server.hit_rtt")
        m["service.server.miss_rtt_ms"] = self.median_ms(
            "service.server.miss_rtt")
        m["service.client.codec_us"] = self.median_ms(
            "service.client.codec.pair") * 1e3
        m["service.server.wire_overhead_us"] = (
            m["service.server.hit_rtt_ms"] * 1e3
            - self.median_ms("service.engine.hit") * 1e3)
        m["service.server.frame_bytes_per_job"] = statistics.mean(sizes)
        m["service.server.refused"] = sum(
            server_stats.get(key, 0) for key in
            ("quota_rejected", "drain_rejected", "bad_requests"))
        m["service.server.unattributed_ms"] = (
            m["service.server.miss_rtt_ms"]
            - self.median_ms("service.engine.full")
            - m["service.client.codec_us"] / 1e3)

    def observability(self):
        """This workload's engine with a live Tracer and EventLog
        against the same engine without — the instruments' own price."""
        from repro.observability import EventLog, Tracer

        tracer, events = Tracer(), EventLog()
        with self.engine_route(tracer=tracer, events=events) as on, \
                self.engine_route() as off:
            for route in (on, off):
                self.workload.warm(route, self.warmup[:2])
            warm_spans = len(tracer.spans())
            warm_events = len(events.records())
            with self.section("observability") as section:
                result = harness.paired(
                    self.tracer, section, "observability.on", on.run_ok,
                    "observability.off", off.run_ok, self.pairs)
        n = len(self.pairs)
        self.m["observability.enabled_overhead_pct"] = (
            result["diff"] / result["b"] * 100.0)
        self.m["observability.spans_per_job"] = (
            len(tracer.spans()) - warm_spans) / n
        self.m["observability.events_per_job"] = (
            len(events.records()) - warm_events) / n

    def frontend(self):
        from repro.autotuning.integration import case_study_5_template
        from repro.mlmodels import build_mlp_frontend

        with self.section("frontend") as section:
            for _ in range(5):
                with self.tracer.span("frontend.tracer.jit", section):
                    build_mlp_frontend()
            for _ in range(20):
                with self.tracer.span("frontend.schedule.build", section):
                    case_study_5_template().build()
        self.m["frontend.tracer.jit_ms"] = self.median_ms(
            "frontend.tracer.jit")
        self.m["frontend.schedule.build_us"] = self.median_ms(
            "frontend.schedule.build") * 1e3

    def own_cost(self):
        """What recording the replay's spans cost, as a share of the
        replay: (spans recorded x one empty span) / replay wall."""
        with self.section("own_cost") as section:
            with self.tracer.span("bench.empty.batch", section,
                                  {"calls": 1000}) as batch:
                for _ in range(1000):
                    with self.tracer.span("bench.empty", batch):
                        pass
        per_span = self.per_call_us("bench.empty.batch") / 1e6
        self.m["bench.trace_overhead_pct"] = (
            self.replay_spans * per_span / self.replay_total * 100.0)

    # -- the whole pass -------------------------------------------------------

    def run(self):
        from repro.observability import validate_chrome_trace

        chunks = harness.calibration_burst()
        for section in (self.replay, self.worker, self.call_count,
                        self.routes, self.hashing,
                        self.passes, self.interpreter_overhead,
                        self.rollback, self.rewrite, self.transforms,
                        self.engine, self.cache, self.sharding,
                        self.frontier, self.server, self.observability,
                        self.frontend, self.own_cost):
            section()
            chunks += harness.calibration_burst()
        self.detail["host_speed"] = harness.host_speed(chunks)
        self.tracer.end_span(self.root)
        trace = self.tracer.export_chrome()
        problems = validate_chrome_trace(trace)
        roots = [event for event in trace["traceEvents"]
                 if event["args"]["parent_id"] is None]
        if len(roots) != 1:
            problems.append(f"{len(roots)} root spans, expected the "
                            "workload root alone")
        if problems:
            raise RuntimeError(f"traced pass is malformed: {problems[:5]}")
        self.detail["spans"] = len(trace["traceEvents"])
        return self.attempted, self.failed, self.m, self.detail


def run_traced(workload, seed: int, scale: float, tmpdir: str):
    return TracedPass(workload, seed, scale, tmpdir).run()
