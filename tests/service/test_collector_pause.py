"""The cyclic collector stays out of a job: ``worker.collector_paused``
keeps it off while at least one job is in flight in the process, and
puts it back as it found it."""

import gc
import multiprocessing
import sys
import threading

import pytest

import repro.core  # noqa: F401 — registers transform ops
import repro.dialects  # noqa: F401 — registers payload ops
from repro.ir import parse, print_op
from repro.service import worker
from repro.service.worker import collector_paused, compile_job
from tests.service.test_engine import PAYLOAD, UNROLL


@pytest.fixture(autouse=True)
def collector_on():
    assert gc.isenabled() and worker._jobs_in_flight == 0
    yield
    assert worker._jobs_in_flight == 0
    gc.enable()


def _collections(fn):
    """(generation, jobs in flight) of each collection the cyclic
    collector starts while ``fn()`` runs."""
    started = []

    def callback(phase, info):
        if phase == "start":
            started.append((info["generation"], worker._jobs_in_flight))

    gc.callbacks.append(callback)
    try:
        fn()
    finally:
        gc.callbacks.remove(callback)
    return started


def test_a_model_job_runs_no_collection():
    from repro.core import pipeline_to_transform_script
    from repro.mlmodels import build_model
    from repro.passes.tosa_pipeline import TOSA_TO_LINALG_PIPELINE

    payload = print_op(build_model("whisper_decoder"))
    script = print_op(
        pipeline_to_transform_script(list(TOSA_TO_LINALG_PIPELINE)))
    assert compile_job(payload, script)["status"] == "success"
    # Outside a job, the job's parse alone is enough to start some
    # (and leaves its module for the collector: no ``destroy``).
    assert len(_collections(lambda: parse(payload))) > 1
    gc.collect()
    # None while the job runs. Freed objects that went to a free list
    # are still counted as allocated, so the first allocation after the
    # pause may start one young collection: over what the job left
    # alive, its result, not over its IR.
    assert _collections(lambda: compile_job(payload, script)) in ([], [(0, 0)])
    assert gc.isenabled()


def test_overlapping_jobs_share_one_pause():
    barrier = threading.Barrier(6)
    seen_on = []
    errors = []

    def jobs():
        try:
            barrier.wait(timeout=10)
            for _ in range(4):
                assert compile_job(PAYLOAD, UNROLL)["status"] == "success"
                with collector_paused():
                    seen_on.append(gc.isenabled())
        except BaseException as error:  # reported by the main thread
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=jobs) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors
    assert seen_on == [False] * 24
    assert gc.isenabled()


def test_a_collector_the_caller_turned_off_stays_off():
    gc.disable()
    with collector_paused():
        with collector_paused():
            assert not gc.isenabled()
    assert compile_job(PAYLOAD, UNROLL)["status"] == "success"
    assert not gc.isenabled()


def test_a_job_that_raises_still_lifts_the_pause():
    with pytest.raises(RuntimeError):
        with collector_paused():
            raise RuntimeError("inside a job")
    assert gc.isenabled()
    # ``trace`` must be a pair: the job raises before compiling.
    with pytest.raises(ValueError):
        compile_job(PAYLOAD, UNROLL, trace=("only an id",))
    assert gc.isenabled()


def _report(conn):
    before = (gc.isenabled(), worker._jobs_in_flight)
    status = compile_job(PAYLOAD, UNROLL)["status"]
    conn.send((before, status, gc.isenabled()))
    conn.close()


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs the fork start method")
def test_a_worker_forked_during_a_job_starts_with_the_collector_on():
    context = multiprocessing.get_context("fork")
    ours, theirs = context.Pipe()
    with collector_paused():
        assert not gc.isenabled()
        child = context.Process(target=_report, args=(theirs,))
        child.start()
    try:
        assert ours.poll(30)
        assert ours.recv() == ((True, 0), "success", True)
    finally:
        child.join(timeout=30)
        if child.is_alive():
            child.kill()
            child.join(timeout=10)
    assert child.exitcode == 0
