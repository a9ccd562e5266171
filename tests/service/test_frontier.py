"""ServiceFrontier admission layer and the repro-batch CLI."""

import asyncio
import inspect
import json
import threading

import pytest

from repro.observability import (
    MetricsRegistry,
    Tracer,
    validate_chrome_trace,
    validate_events,
)
from repro.observability.events import EventLog
from repro.service import (
    CompilationCache,
    CompileEngine,
    CompileJob,
    JobResult,
    JobStatus,
    ServiceClosedError,
)
from repro.service.cli import _unique_labels, main as batch_main
from repro.service.frontier import PRIORITY_RANKS, ServiceFrontier

from .test_engine import PAYLOAD, UNROLL, UNROLL_BOUND, USE_AFTER_CONSUME


def _job(script=UNROLL, **kwargs):
    return CompileJob(payload_text=PAYLOAD, script_text=script, **kwargs)


class _HeldEngine(CompileEngine):
    """An in-process engine whose executions wait for ``release``;
    answering at admission (``may_parse=False``) never waits."""

    def __init__(self, **kwargs):
        super().__init__(workers=0, **kwargs)
        self.release = threading.Event()

    def run_job(self, job, parent_span=None, **kwargs):
        if kwargs.get("may_parse", True):
            assert self.release.wait(10.0)
        return super().run_job(job, parent_span, **kwargs)


async def until(condition):
    """Poll (on the running loop) until ``condition()`` holds."""
    for _ in range(1000):
        if condition():
            return
        await asyncio.sleep(0.005)
    raise AssertionError("condition never held")


class TestFrontier:
    def test_submit_roundtrip(self):
        async def go():
            with CompileEngine(workers=0) as engine:
                async with ServiceFrontier(engine) as frontier:
                    return await frontier.submit(_job())

        result = asyncio.run(go())
        assert result.ok

    def test_run_preserves_submission_order(self):
        jobs = [
            _job(job_id="a"),
            _job(script=USE_AFTER_CONSUME, job_id="b"),
            _job(script=UNROLL_BOUND, job_id="c"),
        ]

        async def go():
            with CompileEngine(workers=0) as engine:
                async with ServiceFrontier(engine) as frontier:
                    return await frontier.run(jobs)

        results = asyncio.run(go())
        assert [r.job_id for r in results] == ["a", "b", "c"]
        assert results[0].ok and results[2].ok and not results[1].ok

    def test_bounded_queue_applies_backpressure(self):
        # With max_queue=1 every producer must wait for a dispatcher
        # pop before the next admission; all jobs still complete.
        jobs = [_job(job_id=f"j{i}") for i in range(8)]

        async def go():
            with CompileEngine(workers=0,
                               cache=CompilationCache()) as engine:
                async with ServiceFrontier(engine, max_queue=1) as frontier:
                    results = await frontier.run(jobs)
                    depth = frontier.queue_depth
                return results, depth, engine.stats.completed

        results, depth, completed = asyncio.run(go())
        assert all(r.ok for r in results)
        assert depth == 0
        assert completed == 8

    def test_queue_depth_samples_never_negative(self):
        # Regression: depth used to be incremented only after put(),
        # so a dispatcher could pop-and-decrement first and the
        # samples went transiently negative.
        jobs = [_job(job_id=f"d{i}") for i in range(12)]

        async def go():
            with CompileEngine(workers=0) as engine:
                async with ServiceFrontier(engine, max_queue=2) as frontier:
                    return await frontier.run(jobs), engine

        results, engine = asyncio.run(go())
        assert all(r.ok for r in results)
        # Depth is sampled on both edges: once at admission (the
        # rising slope, always >= 1 because the submitter counts its
        # own job) and once at dequeue (the falling slope, >= 0).
        depth = engine.metrics.snapshot()["histograms"][
            "service.queue_depth"]
        assert depth["count"] == 2 * len(jobs)
        assert depth["min"] >= 0
        # bucket 0 holds the samples == 0: at most the dequeue edges.
        assert depth["count"] - depth["bucket_counts"][0] >= len(jobs)

    def test_submit_before_start_raises(self):
        async def go():
            with CompileEngine(workers=0) as engine:
                frontier = ServiceFrontier(engine)
                with pytest.raises(RuntimeError):
                    await frontier.submit(_job())

        asyncio.run(go())

    def test_invalid_queue_bound(self):
        with CompileEngine(workers=0) as engine:
            with pytest.raises(ValueError):
                ServiceFrontier(engine, max_queue=0)

    def test_close_is_idempotent(self):
        async def go():
            with CompileEngine(workers=0) as engine:
                frontier = ServiceFrontier(engine)
                await frontier.start()
                await frontier.close()
                await frontier.close()

        asyncio.run(go())

    def test_submit_after_close_raises_instead_of_hanging(self):
        # Regression: a job enqueued behind the shutdown sentinels was
        # never dispatched and its submitter awaited forever.
        async def go():
            with CompileEngine(workers=0) as engine:
                frontier = ServiceFrontier(engine)
                await frontier.start()
                await frontier.close()
                with pytest.raises(ServiceClosedError):
                    await asyncio.wait_for(frontier.submit(_job()),
                                           timeout=5.0)

        asyncio.run(go())

    def test_submit_during_drain_raises_but_admitted_jobs_finish(self):
        # A dispatcher is mid-job (blocked in the engine) while
        # close() drains: a late submit must fail fast, and the job
        # admitted before close() must still complete.
        class _SlowEngine:
            workers = 0
            metrics = MetricsRegistry()
            faults = None

            def __init__(self):
                self.release = threading.Event()

            def run_job(self, job):
                assert self.release.wait(10.0)
                return JobResult(job.job_id, JobStatus.SUCCESS)

        async def go():
            engine = _SlowEngine()
            frontier = ServiceFrontier(engine)
            await frontier.start()
            admitted = asyncio.ensure_future(
                frontier.submit(_job(job_id="admitted"))
            )
            # Let the dispatcher pick the job up and block in run_job.
            await asyncio.sleep(0.05)
            closer = asyncio.ensure_future(frontier.close())
            await asyncio.sleep(0.05)
            with pytest.raises(ServiceClosedError):
                await frontier.submit(_job(job_id="late"))
            engine.release.set()
            await asyncio.wait_for(closer, timeout=10.0)
            result = await asyncio.wait_for(admitted, timeout=10.0)
            assert result.status is JobStatus.SUCCESS

        asyncio.run(go())

    def test_close_racing_submit_refuses_instead_of_hanging(self):
        # close() is a drain: every submit admitted before it began —
        # running, queued, or still waiting for queue room — completes,
        # and close() returns only after them; a submit arriving once
        # close() has begun raises instead of hanging.
        async def go():
            with _HeldEngine() as engine:
                frontier = ServiceFrontier(engine, max_queue=1)
                await frontier.start()
                admitted = [
                    asyncio.ensure_future(
                        frontier.submit(_job(job_id=f"a{i}")))
                    for i in range(3)
                ]
                # a0 holds the one slot, a1 the one queue place, and
                # a2 waits for room; all three are admitted.
                await until(lambda: frontier.queue_depth == 2)
                closer = asyncio.ensure_future(frontier.close())
                await asyncio.sleep(0.05)
                with pytest.raises(ServiceClosedError):
                    await asyncio.wait_for(
                        frontier.submit(_job(job_id="racer")), timeout=5.0)
                assert not closer.done()
                engine.release.set()
                await asyncio.wait_for(closer, timeout=10.0)
                assert all(task.done() for task in admitted)
                return [task.result() for task in admitted]

        results = asyncio.run(go())
        assert [r.job_id for r in results] == ["a0", "a1", "a2"]
        assert all(r.ok for r in results)

    def test_refused_submit_ends_spans_and_trace_validates(self, tmp_path):
        # A submit refused because close() has begun opens no span and
        # emits no event, so the exported trace and the event stream
        # stay valid; the job admitted before close() is traced whole.
        tracer = Tracer()
        events = EventLog()

        async def go():
            with _HeldEngine(tracer=tracer, events=events) as engine:
                frontier = ServiceFrontier(engine)
                await frontier.start()
                admitted = asyncio.ensure_future(
                    frontier.submit(_job(job_id="fine")))
                await until(lambda: "DEQUEUED" in [
                    r["event"] for r in events.records()])
                closer = asyncio.ensure_future(frontier.close())
                await asyncio.sleep(0)
                with pytest.raises(ServiceClosedError):
                    await frontier.submit(_job(job_id="refused"))
                engine.release.set()
                await asyncio.wait_for(closer, timeout=10.0)
                assert admitted.result().ok

        asyncio.run(go())
        trace_out = tmp_path / "trace.json"
        tracer.write_chrome(str(trace_out))
        trace = json.loads(trace_out.read_text())
        assert validate_chrome_trace(trace) == []
        spans = [event["args"].get("job_id")
                 for event in trace["traceEvents"] if event.get("ph") == "X"]
        assert "fine" in spans and "refused" not in spans
        assert validate_events(events.records()) == []
        assert [r["event"] for r in events.records()
                if r.get("job_id") == "fine"][-1] == "COMPLETED"
        assert not [r for r in events.records()
                    if r.get("job_id") == "refused"]

    def test_interactive_overtakes_every_queued_batch_job(self):
        # One dispatcher, default max_queue: b0 is dispatched (gated
        # in run_job), b1..b14 wait in the queue. An interactive job
        # admitted behind them must be the next one dispatched — the
        # queue orders by (rank, arrival), not arrival alone.
        class _GatedEngine:
            workers = 0
            metrics = MetricsRegistry()
            faults = None

            def __init__(self):
                self.release = threading.Event()
                self.order = []

            def run_job(self, job):
                self.order.append(job.job_id)
                assert self.release.wait(10.0)
                return JobResult(job.job_id, JobStatus.SUCCESS)

        async def go():
            engine = _GatedEngine()
            async with ServiceFrontier(engine) as frontier:
                batch = [
                    asyncio.ensure_future(
                        frontier.submit(_job(job_id=f"b{i}"))
                    )
                    for i in range(15)
                ]
                await until(lambda: engine.order == ["b0"]
                            and frontier.queue_depth == 14)
                urgent = asyncio.ensure_future(frontier.submit(
                    _job(job_id="urgent"), priority="interactive"
                ))
                late = asyncio.ensure_future(frontier.submit(
                    _job(job_id="late"), priority="background"
                ))
                await until(lambda: frontier.queue_depth == 16)
                engine.release.set()
                await asyncio.gather(urgent, late, *batch)
            return engine.order

        order = asyncio.run(go())
        assert order == (["b0", "urgent"]
                         + [f"b{i}" for i in range(1, 15)] + ["late"])

    def test_unknown_priority_is_a_value_error(self):
        async def go():
            with CompileEngine(workers=0) as engine:
                async with ServiceFrontier(engine) as frontier:
                    with pytest.raises(ValueError, match="urgent"):
                        await frontier.submit(_job(), priority="urgent")
                    assert frontier.queue_depth == 0

        asyncio.run(go())
        assert list(PRIORITY_RANKS) == ["interactive", "batch",
                                        "background"]

    def test_restart_after_close_accepts_jobs_again(self):
        async def go():
            with CompileEngine(workers=0) as engine:
                frontier = ServiceFrontier(engine)
                await frontier.start()
                await frontier.close()
                await frontier.start()
                try:
                    return await frontier.submit(_job())
                finally:
                    await frontier.close()

        assert asyncio.run(go()).ok


    def test_submit_cancelled_while_queued_leaves_the_queue(self, tmp_path):
        # Regression: a submit cancelled while queued stayed in the
        # queue depth until a dispatcher popped it, its queue.wait span
        # ended "ok", and its events stopped at ADMITTED, DEQUEUED.
        tracer = Tracer()
        events = EventLog()

        async def go():
            with _HeldEngine(tracer=tracer, events=events) as engine:
                async with ServiceFrontier(engine) as frontier:
                    first = asyncio.ensure_future(
                        frontier.submit(_job(job_id="first")))
                    queued = asyncio.ensure_future(frontier.submit(
                        _job(script=UNROLL_BOUND, job_id="queued")))
                    await until(lambda: frontier.queue_depth == 1)
                    queued.cancel()
                    with pytest.raises(asyncio.CancelledError):
                        await queued
                    depth = frontier.queue_depth
                    after = asyncio.ensure_future(frontier.submit(
                        _job(script=UNROLL_BOUND, job_id="after")))
                    await until(lambda: frontier.queue_depth == 1)
                    engine.release.set()
                    return depth, await first, await after

        depth, first, after = asyncio.run(go())
        assert depth == 0
        assert first.ok and after.ok
        cancelled = [r for r in events.records()
                     if r.get("job_id") == "queued"]
        assert [r["event"] for r in cancelled] == ["ADMITTED", "COMPLETED"]
        assert cancelled[-1]["status"] == "cancelled"
        assert validate_events(events.records()) == []
        trace_out = tmp_path / "trace.json"
        tracer.write_chrome(str(trace_out))
        trace = json.loads(trace_out.read_text())
        assert validate_chrome_trace(trace) == []
        statuses = {
            event["args"].get("status")
            for event in trace["traceEvents"]
            if event.get("ph") == "X"
            and event["args"].get("job_id") == "queued"
        }
        assert statuses == {"error"}

    def test_a_slot_handed_to_a_cancelled_waiter_is_passed_on(self):
        # "queued" is cancelled in the instant between being handed the
        # slot "first" freed and resuming: it must pass the slot to
        # "next" rather than keep it, or "next" and close() would hang.
        events = EventLog()

        async def go():
            with _HeldEngine(events=events) as engine:
                async with ServiceFrontier(engine) as frontier:
                    first = asyncio.ensure_future(
                        frontier.submit(_job(job_id="first")))
                    queued = asyncio.ensure_future(frontier.submit(
                        _job(script=UNROLL_BOUND, job_id="queued")))
                    after = asyncio.ensure_future(frontier.submit(
                        _job(script=UNROLL_BOUND, job_id="next")))
                    await until(lambda: frontier.queue_depth == 2)
                    release = frontier._release
                    cancelled = []

                    def release_then_cancel():
                        release()
                        if not cancelled:
                            cancelled.append(True)
                            queued.cancel()

                    frontier._release = release_then_cancel
                    engine.release.set()
                    results = await asyncio.wait_for(
                        asyncio.gather(first, after), timeout=10.0)
                    assert queued.cancelled()
                    return results, frontier.queue_depth

        (first, after), depth = asyncio.run(go())
        assert first.ok and after.ok and depth == 0
        assert [r["event"] for r in events.records()
                if r.get("job_id") == "queued"] == ["ADMITTED", "COMPLETED"]
        assert validate_events(events.records()) == []

    def test_the_frontier_is_the_one_scheduler(self):
        # Queued jobs wait for a slot inside their own submit
        # coroutine: no dispatcher tasks, no dispatcher knob, and no
        # second scheduler on the engine.
        assert "dispatchers" not in inspect.signature(
            ServiceFrontier.__init__).parameters
        assert not hasattr(CompileEngine, "run_batch")

        async def go():
            with CompileEngine(workers=0) as engine:
                before = asyncio.all_tasks()
                async with ServiceFrontier(engine) as frontier:
                    assert asyncio.all_tasks() == before
                    return await frontier.submit(_job())

        assert asyncio.run(go()).ok


class TestBatchCli:
    @pytest.fixture()
    def tree(self, tmp_path):
        payloads = tmp_path / "payloads"
        schedules = tmp_path / "schedules"
        payloads.mkdir()
        schedules.mkdir()
        (payloads / "a.mlir").write_text(PAYLOAD)
        (payloads / "b.mlir").write_text(PAYLOAD)
        (schedules / "unroll.mlir").write_text(UNROLL)
        (schedules / "bound.mlir").write_text(UNROLL_BOUND)
        return tmp_path

    def test_batch_compiles_the_product(self, tree, capsys):
        out = tree / "out"
        metrics = tree / "metrics.json"
        code = batch_main([
            str(tree / "payloads"),
            "--schedule", str(tree / "schedules"),
            "--jobs", "0",
            "-o", str(out),
            "--json", str(metrics),
        ])
        assert code == 0
        produced = sorted(p.name for p in out.iterdir())
        assert produced == [
            "a.bound.mlir", "a.unroll.mlir",
            "b.bound.mlir", "b.unroll.mlir",
        ]
        data = json.loads(metrics.read_text())
        assert data["jobs"] == 4
        assert data["by_status"] == {"success": 4}
        # a and b are identical payloads: 2 distinct compilations,
        # 2 cache hits.
        metrics = data["metrics"]
        assert metrics["counters"]["engine.executed"] == 2
        assert metrics["counters"]["engine.cache_hits"] == 2
        assert metrics["gauges"]["cache.hit_rate"] == 0.5
        assert metrics["histograms"]["service.job_seconds"]["count"] == 4
        assert not {"engine", "cache"} & set(data)

    def test_batch_param_binding(self, tree, capsys):
        out = tree / "out"
        code = batch_main([
            str(tree / "payloads" / "a.mlir"),
            "--schedule", str(tree / "schedules" / "bound.mlir"),
            "--jobs", "0",
            "--param", "factor=4",
            "-o", str(out),
        ])
        assert code == 0
        text = (out / "a.bound.mlir").read_text()
        assert text.count("1 : i64") == 4

    def test_batch_reports_failures(self, tree, capsys):
        bad = tree / "schedules" / "bad.mlir"
        bad.write_text(USE_AFTER_CONSUME)
        code = batch_main([
            str(tree / "payloads" / "a.mlir"),
            "--schedule", str(bad),
            "--jobs", "0",
        ])
        assert code == 1
        captured = capsys.readouterr()
        assert "rejected" in captured.out
        assert "error" in captured.err

    def test_duplicate_schedule_stems_do_not_collide(self, tree, capsys):
        # Regression: --schedule is repeatable across directories, and
        # two files named unroll.mlir used to produce one job id —
        # with -o, the second output silently overwrote the first.
        other = tree / "schedules2"
        other.mkdir()
        (other / "unroll.mlir").write_text(UNROLL_BOUND)
        out = tree / "out"
        code = batch_main([
            str(tree / "payloads" / "a.mlir"),
            "--schedule", str(tree / "schedules" / "unroll.mlir"),
            "--schedule", str(other / "unroll.mlir"),
            "--jobs", "0",
            "-o", str(out),
        ])
        assert code == 0
        produced = sorted(p.name for p in out.iterdir())
        assert produced == [
            "a.schedules.unroll.mlir",
            "a.schedules2.unroll.mlir",
        ]

    def test_batch_missing_inputs(self, tree, capsys):
        code = batch_main([
            str(tree / "nope"),
            "--schedule", str(tree / "schedules"),
        ])
        assert code == 2

    def test_batch_bad_param(self, tree, capsys):
        code = batch_main([
            str(tree / "payloads"),
            "--schedule", str(tree / "schedules"),
            "--param", "oops",
        ])
        assert code == 2

    @pytest.mark.parametrize("flags", [["--quarantine-after", "-1"],
                                       ["--crash-loop-limit", "-1"],
                                       ["--timeout", "0"]])
    def test_batch_bad_engine_setting(self, tree, capsys, flags):
        code = batch_main([
            str(tree / "payloads"),
            "--schedule", str(tree / "schedules"),
            "--jobs", "0", *flags,
        ])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")


class TestUniqueLabels:
    def test_distinct_stems_stay_plain(self):
        assert _unique_labels(["a/x.mlir", "b/y.mlir"]) == ["x", "y"]

    def test_duplicate_stems_gain_parent_dir(self):
        assert _unique_labels(["a/x.mlir", "b/x.mlir"]) == ["a.x", "b.x"]

    def test_same_file_twice_falls_back_to_index(self):
        assert _unique_labels(["a/x.mlir", "a/x.mlir"]) == \
            ["a.x.0", "a.x.1"]
