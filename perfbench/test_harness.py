"""Tests of the measuring kit itself.

Run with ``python3 -m pytest perfbench/test_harness.py`` — not part of
tier-1 (``testpaths`` is ``tests``); the ``--smoke`` cases start pools
and a daemon and take about a minute.
"""

import json
import os
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import repro.core  # noqa: E402,F401 — registers transform ops
import repro.dialects  # noqa: E402,F401 — registers payload ops
import repro.passes  # noqa: E402,F401 — registers passes

import compare  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.observability.tracing import Span, Tracer  # noqa: E402


@pytest.mark.parametrize("samples, expected", [
    (9, 50), (10, 50), (39, 50), (40, 75), (99, 75), (100, 90),
    (199, 90), (200, 95), (320, 95), (100000, 95),
])
def test_tail_rule_needs_ten_samples_beyond(samples, expected):
    assert harness.tail_percentile(samples) == expected


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert harness.percentile(values, 50) == 50
    assert harness.percentile(values, 95) == 95
    assert harness.percentile([7.0], 95) == 7.0
    # 40 samples at p75: exactly ten lie beyond the quoted one.
    assert harness.percentile(list(range(40)), 75) == 29


def _span(span_id, parent, start, end, name="x.y"):
    return Span(name=name, trace_id="t", span_id=span_id, parent_id=parent,
                start=start, end=end)


def test_self_time_subtracts_what_children_cover():
    spans = [
        _span("root", None, 0.0, 10.0, "bench.job"),
        _span("a", "root", 1.0, 4.0, "ir.parser.parse"),
        _span("b", "root", 3.0, 6.0, "ir.printer.print"),   # overlaps a
        _span("c", "root", 8.0, 12.0, "ir.parser.parse"),   # overruns root
        _span("a1", "a", 1.0, 2.0, "ir.hashing.digest"),
    ]
    own = harness.self_times(spans)
    # Children cover [1,6] and [8,10] of the root's [0,10].
    assert own["root"] == pytest.approx(3.0)
    assert own["a"] == pytest.approx(2.0)
    assert own["b"] == pytest.approx(3.0)
    assert own["a1"] == pytest.approx(1.0)
    layers = harness.self_time_by_layer(spans)
    assert layers["ir.parser"] == pytest.approx(2.0 + 4.0)
    assert layers["bench"] == pytest.approx(3.0)
    assert harness.layer_of("passes.tosa-to-linalg.run") == \
        "passes.tosa-to-linalg"


def test_paired_alternates_sides_and_takes_median_of_differences():
    tracer = Tracer()
    root = tracer.start_span("bench.test")
    order = []

    def slow(item):
        order.append("a")
        time.sleep(0.004)

    def fast(item):
        order.append("b")
        time.sleep(0.001)

    result = harness.paired(tracer, root, "side.a", slow, "side.b", fast,
                            list(range(6)))
    assert order == ["a", "b", "b", "a"] * 3
    assert result["pairs"] == 6
    assert 0.002 < result["diff"] < 0.006
    assert result["diff_q1"] <= result["diff"] <= result["diff_q3"]
    assert len(tracer.find("side.a")) == len(tracer.find("side.b")) == 6


def test_closed_loop_stops_at_the_clock_and_counts_a_raise_as_failed():
    def make_client(slot):
        def send(index):
            if index == 3:
                raise RuntimeError("boom")
            time.sleep(0.01)
            return index
        return send

    samples, wall, chunks = harness.run_closed_loop(
        1000, make_client, 2, 0.3, calibrate_every=0.1)
    assert 0.25 < wall < 1.0
    assert len(samples) < 1000
    # A burst at the start and about one per 0.1 s after it.
    assert 2 * harness.CALIBRATION_BURST <= len(chunks) \
        <= 5 * harness.CALIBRATION_BURST
    assert 0.2 < harness.host_speed(chunks) < 5
    indices = sorted(sample.index for sample in samples)
    assert indices == list(range(len(samples)))  # a prefix, none skipped
    failed = [s for s in samples if s.outcome is None]
    assert [s.index for s in failed] == [3]


def test_resource_meter_sees_this_process():
    with harness.ResourceMeter() as meter:
        sum(i * i for i in range(300000))
    assert meter.client_cpu > 0
    assert meter.peak_rss_mb > 5
    assert os.getpid() in harness.process_tree()


def _identities(jobs):
    return [workloads.sha(job.payload + job.script + str(job.params))
            for job in jobs]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_jobs_other_seed_other_jobs(name):
    workload = workloads.WORKLOADS[name]
    warm_a, jobs_a = workload.generate(5, 0.02)
    warm_b, jobs_b = workload.generate(5, 0.02)
    _warm_c, jobs_c = workload.generate(6, 0.02)
    assert _identities(warm_a + jobs_a) == _identities(warm_b + jobs_b)
    assert [j.job_id for j in jobs_a] == [j.job_id for j in jobs_b]
    if name == "model_pipeline":
        # The models are fixed; the seed decides their order.
        long_a = [j.job_id for j in workload.generate(5, 0.2)[1]]
        long_c = [j.job_id for j in workload.generate(6, 0.2)[1]]
        assert long_a != long_c and sorted(long_a) == sorted(long_c)
    else:
        assert _identities(jobs_a) != _identities(jobs_c)


def test_a_corrupted_output_is_a_failed_job():
    workload = workloads.WORKLOADS["sweep_pooled"]
    _warmup, jobs = workload.generate(1, 0.01)
    send = workloads.InProcessRoute().client(0)
    from repro.service.worker import compile_job

    good = [harness.Sample(i, 0.01, send(jobs[i])) for i in range(3)]
    assert workloads.check(workload, jobs, good, None) == 0
    text = compile_job(jobs[0].payload, jobs[0].script)["output"]
    wrong_structure = workloads.observe(
        jobs[0], True, text.replace('"arith.mulf"', '"arith.addf"', 1))
    wrong_bytes = workloads.observe(jobs[1], True, compile_job(
        jobs[1].payload, jobs[1].script)["output"] + " ")
    assert wrong_bytes.facts_ok and not wrong_structure.facts_ok
    bad = [harness.Sample(0, 0.01, wrong_structure),
           harness.Sample(1, 0.01, wrong_bytes),
           harness.Sample(2, 0.01, None),   # raised, refused or late
           good[2]]
    assert workloads.check(workload, jobs, bad, None) == 3
    # The golden digests catch a change the byte-identity check shares
    # with its reference.
    golden = "".join(s.outcome.sha[:workloads.GOLDEN_CHARS] for s in good)
    assert workloads.check(workload, jobs, good, golden) == 0
    assert workloads.check(workload, jobs, good, "0000" + golden[4:]) == 1


def test_the_numpy_oracle_rejects_a_wrong_schedule_result():
    workload = workloads.WORKLOADS["schedule_finegrained"]
    _warmup, jobs = workload.generate(2, 0.02)
    job = next(j for j in jobs if j.oracle is not None)
    from repro.service.worker import compile_job

    output = compile_job(job.payload, job.script, job.params)["output"]
    assert workloads.oracle_agrees(job, output)
    assert not workloads.oracle_agrees(
        job, output.replace('"arith.addf"', '"arith.subf"'))


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(steady, [108.0] * 5, "lower", 0.05)[0] == \
        "REGRESSION"
    assert compare.verdict(steady, [103.0] * 5, "lower", 0.05)[0] == \
        "unchanged"
    assert compare.verdict(steady, [90.0] * 5, "lower", 0.05)[0] == \
        "improved"
    assert compare.verdict(steady, [90.0] * 5, "higher", 0.05)[0] == \
        "REGRESSION"
    noisy = [80.0, 120.0, 100.0, 90.0, 110.0]
    assert compare.verdict(noisy, [104.0] * 5, "lower", 0.05)[0] == \
        "unresolved"
    # Every new run beats every old run: resolved despite the spread.
    assert compare.verdict(noisy, [70.0] * 5, "lower", 0.05)[0] == \
        "improved"


def _smoke(tmp_path, extra):
    out = tmp_path / "ledger.json"
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        code = run.main(["--smoke", "--seed", "1", "--out", str(out)]
                        + extra)
    finally:
        os.chdir(cwd)
    with open(out) as handle:
        (report,) = json.load(handle)["runs"]
    assert not os.path.exists(tmp_path / ".perfbench_tmp")
    return code, report


def test_smoke_run_of_all_four_workloads(tmp_path):
    code, report = _smoke(tmp_path, [])
    assert code == 0
    contract = run.load_contract()
    assert set(report["workloads"]) == {
        w["name"] for w in contract["workloads"]}
    for name, entry in report["workloads"].items():
        result = entry["end_to_end"]
        assert result["correct"] and result["failed"] == 0, name
        assert result["attempted"] >= 2
        assert set(result["metrics"]) == {
            m["name"] for m in contract["end_to_end"]}
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_smoke_traced_pass_reports_every_layer_metric(tmp_path):
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        result, detail = run.measure(
            workloads.WORKLOADS["sweep_pooled"],
            run.argparse.Namespace(seed=1, seconds=2.0),
            1.0 / run.SMOKE_DIVISOR, 1, 0.0)
    finally:
        os.chdir(cwd)
    contract = run.load_contract()
    assert set(result["metrics"]) == {
        m["name"] for m in contract["per_layer"]}
    assert result["correct"]
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["service.cache.hit_rate"] == 0
    assert values["service.engine.executed"] == result["attempted"]
    assert values["ir.parser.parse_ms"] > 0
    assert detail["spans"] > 100
