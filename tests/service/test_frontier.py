"""ServiceFrontier admission layer and the repro-batch CLI."""

import asyncio
import json
import threading

import pytest

from repro.observability import MetricsRegistry
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
                async with ServiceFrontier(engine, max_queue=1,
                                           dispatchers=1) as frontier:
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
                async with ServiceFrontier(engine, max_queue=2,
                                           dispatchers=2) as frontier:
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
            frontier = ServiceFrontier(engine, dispatchers=1)
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
        # Regression (close/submit race): submit() passed its closed
        # check, then parked in queue.put(); close() ran to completion
        # meanwhile. asyncio.Queue wakeups are not FIFO-fair with
        # fresh puts, so the job could land behind (or after) the
        # shutdown sentinels — never dispatched, submitter hung
        # forever. The gate below deterministically forces that exact
        # interleaving: the job's put is held while close() finishes,
        # then released into the dead queue.
        async def go():
            with CompileEngine(workers=0) as engine:
                frontier = ServiceFrontier(engine, dispatchers=1)
                await frontier.start()
                gate = asyncio.Event()
                parked = asyncio.Event()
                real_put = frontier._queue.put

                async def gated_put(item):
                    if item[2] is not None:  # sentinels pass the gate
                        parked.set()
                        await gate.wait()
                    await real_put(item)

                frontier._queue.put = gated_put
                submitter = asyncio.ensure_future(
                    frontier.submit(_job(job_id="racer"))
                )
                # The submit is past its closed-flag check, parked in
                # put(); now let close() win the race outright.
                await asyncio.wait_for(parked.wait(), timeout=5.0)
                await asyncio.wait_for(frontier.close(), timeout=5.0)
                gate.set()
                with pytest.raises(ServiceClosedError):
                    await asyncio.wait_for(submitter, timeout=5.0)

        asyncio.run(go())

    def test_refused_submit_ends_spans_and_trace_validates(self, tmp_path):
        # Regression (span leak on refusal): the per-job root span
        # opens before admission, so a refusal used to leave it (and
        # its queue.wait child) unended — validate_chrome_trace then
        # flags the child as an orphan because unended spans never
        # reach the exporter. Interleave the same close/submit race
        # with a tracer attached and check the exported trace.
        from repro.observability import (
            Tracer,
            validate_chrome_trace,
            validate_events,
        )
        from repro.observability.events import EventLog

        tracer = Tracer()
        events = EventLog()

        async def go():
            with CompileEngine(workers=0, tracer=tracer,
                               events=events) as engine:
                frontier = ServiceFrontier(engine, dispatchers=1)
                await frontier.start()
                ok = await frontier.submit(_job(job_id="fine"))
                assert ok.ok
                gate = asyncio.Event()
                parked = asyncio.Event()
                real_put = frontier._queue.put

                async def gated_put(item):
                    if item[2] is not None:
                        parked.set()
                        await gate.wait()
                    await real_put(item)

                frontier._queue.put = gated_put
                submitter = asyncio.ensure_future(
                    frontier.submit(_job(job_id="refused"))
                )
                await asyncio.wait_for(parked.wait(), timeout=5.0)
                await asyncio.wait_for(frontier.close(), timeout=5.0)
                gate.set()
                with pytest.raises(ServiceClosedError):
                    await asyncio.wait_for(submitter, timeout=5.0)

        asyncio.run(go())
        trace_out = tmp_path / "trace.json"
        tracer.write_chrome(str(trace_out))
        trace = json.loads(trace_out.read_text())
        assert validate_chrome_trace(trace) == []
        # The refused job's spans are present and marked as errors —
        # ended, not leaked.
        statuses = {
            event["args"].get("status")
            for event in trace["traceEvents"]
            if event.get("ph") == "X"
            and event["args"].get("job_id") == "refused"
        }
        assert statuses == {"error"}
        # The event stream stays schema-valid too: the refusal emits
        # the terminal COMPLETED (status=cancelled) so the vocabulary
        # stays closed.
        assert validate_events(events.records()) == []
        refusal = [r for r in events.records()
                   if r.get("job_id") == "refused"]
        assert [r["event"] for r in refusal] == ["ADMITTED", "COMPLETED"]
        assert refusal[-1]["status"] == "cancelled"

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
            async with ServiceFrontier(engine, dispatchers=1) as frontier:
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


class TestUniqueLabels:
    def test_distinct_stems_stay_plain(self):
        assert _unique_labels(["a/x.mlir", "b/y.mlir"]) == ["x", "y"]

    def test_duplicate_stems_gain_parent_dir(self):
        assert _unique_labels(["a/x.mlir", "b/x.mlir"]) == ["a.x", "b.x"]

    def test_same_file_twice_falls_back_to_index(self):
        assert _unique_labels(["a/x.mlir", "a/x.mlir"]) == \
            ["a.x.0", "a.x.1"]
