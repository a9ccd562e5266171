#!/usr/bin/env python3
"""The repo's one perf ledger: four seeded workloads, end to end and by layer.

The driver's form (one workload per process, last stdout line is JSON)::

    python3 perfbench/run.py --workload sweep_pooled --seed 3 --seconds 15 --trace 0
    python3 perfbench/run.py --workload sweep_pooled --seed 3 --seconds 15 --trace 1

The human form (every workload, a table, optionally a report file that
``compare.py`` reads)::

    python3 perfbench/run.py [--seed N] [--trace 1] [--out FILE] [--smoke]
    python3 perfbench/run.py --bless      # regenerate expected/seed0.json

End-to-end metrics are taken with tracing off. ``--trace 1`` is a
separate pass that records spans around the calls into each layer's
public functions (see ``layers.py``) and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import time

_START = time.perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
EXPECTED = os.path.join(HERE, "expected", "seed0.json")
#: Set-up (generate + start + warm-up) is repeated and its median
#: reported, so one slow fork does not decide ``setup_s``.
SETUP_REPEATS = 3
#: ``--smoke`` divides every stream by this.
SMOKE_DIVISOR = 20


def load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def import_program() -> float:
    """Import everything a job touches; returns the seconds it took
    (part of ``setup_s``: imports register every op and pass)."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"perfbench: no program to measure under {SRC}")
    sys.path.insert(0, SRC)
    import repro.core  # noqa: F401 — registers transform ops
    import repro.dialects  # noqa: F401 — registers payload ops
    import repro.passes  # noqa: F401 — registers passes
    import repro.service  # noqa: F401
    elapsed = time.perf_counter() - _START
    import harness
    return elapsed * harness.host_speed(harness.calibration_burst())


# ---------------------------------------------------------------------------
# Set-up, timed phase, check
# ---------------------------------------------------------------------------


def set_up(workload, seed, scale, tmpdir):
    """Generate inputs, start the route, run the warm-up jobs — several
    times, each quoted at reference host speed. Returns (jobs, live
    route, median seconds)."""
    import harness

    times = []
    route = None
    for repeat in range(SETUP_REPEATS):
        if route is not None:
            route.stop()
        chunks = harness.calibration_burst()
        begin = time.perf_counter()
        warmup, jobs = workload.generate(seed, scale)
        route = workload.start(tmpdir)
        try:
            workload.warm(route, warmup)
        except BaseException:
            route.stop()
            raise
        elapsed = time.perf_counter() - begin
        chunks += harness.calibration_burst()
        times.append(elapsed * harness.host_speed(chunks))
    return jobs, route, statistics.median(times)


def load_golden(workload, seed, scale):
    if seed != 0 or scale != 1.0 or not os.path.exists(EXPECTED):
        return None
    with open(EXPECTED) as handle:
        return json.load(handle).get(workload.name)


def run_end_to_end(workload, seed, seconds, scale, tmpdir, import_s):
    import harness
    from workloads import check

    jobs, route, setup_median = set_up(workload, seed, scale, tmpdir)
    try:
        def make_client(slot):
            send = route.client(slot)
            return lambda index: send(jobs[index])

        with harness.ResourceMeter() as meter:
            samples, wall, chunks = harness.run_closed_loop(
                len(jobs), make_client, workload.clients, seconds)
        stats = route.stats()
    finally:
        route.stop()
    failed = check(workload, jobs, samples,
                   load_golden(workload, seed, scale))
    # Every timing below is quoted at reference host speed.
    speed = harness.host_speed(chunks)

    groups = {}
    for sample in samples:
        groups.setdefault(jobs[sample.index].group, []).append(
            sample.latency * 1e3 * speed)
    fewest = min(len(latencies) for latencies in groups.values())
    tail = min(workload.TAIL, harness.tail_percentile(fewest))
    if tail != workload.TAIL:
        print(f"perfbench: {workload.name}: only {fewest} samples, tail "
              f"quoted at p{tail} instead of p{workload.TAIL}",
              file=sys.stderr)
    rows = {
        group: {"samples": len(latencies),
                "p50_ms": statistics.median(latencies),
                "tail_ms": harness.percentile(latencies, tail)}
        for group, latencies in sorted(groups.items())
    }
    attempted = len(samples)
    metrics = {
        "setup_s": import_s + setup_median,
        "latency_p50_ms": harness.geomean(
            row["p50_ms"] for row in rows.values()),
        "throughput_jobs_per_s": (attempted - failed) / wall / speed,
        "cpu_s_per_job": meter.cpu / attempted * speed,
        "peak_rss_mb": meter.peak_rss_mb,
    }
    detail = {
        "tail_percentile": tail, "timed_wall_s": wall, "rows": rows,
        "stream_exhausted": attempted == len(jobs),
        "client_cpu_share": meter.client_cpu / meter.cpu,
        "processes": meter.processes, "import_s": import_s,
        "host_speed": speed, "calibration_chunks": len(chunks),
        "stats": stats,
    }
    return attempted, failed, metrics, detail


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def measure(workload, args, scale, trace, import_s):
    """One workload, one mode; returns the driver's result object plus
    the human detail."""
    scratch = os.path.join(os.getcwd(), ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix=f"{os.getpid()}-", dir=scratch)
    try:
        if trace:
            import layers
            attempted, failed, metrics, detail = layers.run_traced(
                workload, args.seed, scale, tmpdir)
        else:
            attempted, failed, metrics, detail = run_end_to_end(
                workload, args.seed, args.seconds, scale, tmpdir, import_s)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass  # another run is using it
    section = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in load_contract()[section]}
    if set(units) != set(metrics):
        raise SystemExit(
            f"perfbench: {section} metrics out of step with BENCHMARK.json: "
            f"{sorted(set(units) ^ set(metrics))}")
    if trace:
        # Like the end-to-end numbers, quoted at reference host speed:
        # times scale with it, rates against it, counts and shares not.
        speed = detail["host_speed"]
        for name, unit in units.items():
            if unit in ("s", "ms", "us"):
                metrics[name] *= speed
            elif unit.endswith("/s"):
                metrics[name] /= speed
    result = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    return result, detail


def print_table(name, result, detail):
    print(f"\n== {name}: attempted {result['attempted']}, "
          f"failed {result['failed']} "
          f"(failed_share {result['failed'] / result['attempted']:.4f})")
    for metric, entry in result["metrics"].items():
        print(f"  {metric:44s} {entry['value']:14.4f} {entry['unit']}")
    for group, row in detail.get("rows", {}).items():
        print(f"  [{group}] n={row['samples']} p50={row['p50_ms']:.3f} ms "
              f"p{detail['tail_percentile']}={row['tail_ms']:.3f} ms")


def bless():
    """Regenerate the seed-0 golden digests from in-process compile_job
    over every workload's whole stream. Review the diff."""
    from workloads import GOLDEN_CHARS, WORKLOADS, sha
    from repro.service.worker import compile_job

    golden = {}
    for name, workload in WORKLOADS.items():
        _warmup, jobs = workload.generate(0)
        memo = {}
        digits = []
        for job in jobs:
            key = (job.payload, job.script, str(job.params))
            if key not in memo:
                memo[key] = sha(compile_job(
                    job.payload, job.script, job.params)["output"])
            digits.append(memo[key][:GOLDEN_CHARS])
        golden[name] = "".join(digits)
        print(f"blessed {name}: {len(jobs)} jobs", file=sys.stderr)
    os.makedirs(os.path.dirname(EXPECTED), exist_ok=True)
    with open(EXPECTED, "w") as handle:
        json.dump(golden, handle, indent=0)
        handle.write("\n")


def main(argv=None):
    contract = load_contract()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default=None,
                        choices=[w["name"] for w in contract["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(contract["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="append this run's full report to FILE "
                        "(the ledger compare.py reads)")
    parser.add_argument("--smoke", action="store_true",
                        help=f"streams / {SMOKE_DIVISOR}, 2 s per workload")
    parser.add_argument("--bless", action="store_true",
                        help="regenerate expected/seed0.json and exit")
    parser.add_argument("--detail", action="store_true",
                        help=argparse.SUPPRESS)  # the human form's child
    args = parser.parse_args(argv)

    if args.workload is None and not args.bless:
        return all_workloads(args)
    import_s = import_program()
    from workloads import WORKLOADS

    if args.bless:
        bless()
        return 0
    scale = 1.0
    if args.smoke:
        scale = 1.0 / SMOKE_DIVISOR
        args.seconds = min(args.seconds, 2.0)
    result, detail = measure(WORKLOADS[args.workload], args, scale,
                             args.trace, import_s)
    if args.detail:
        result["detail"] = detail
    print(json.dumps(result))
    return 0


def all_workloads(args):
    """The human form: every workload (each in a process of its own,
    exactly as the driver runs it), a table, optionally the ledger."""
    import subprocess

    import harness

    report = {"seed": args.seed, "seconds": args.seconds,
              "smoke": args.smoke, "host": harness.host_fingerprint(ROOT),
              "workloads": {}}
    for workload in load_contract()["workloads"]:
        name = workload["name"]
        entry = {}
        for trace in ((0, 1) if args.trace else (0,)):
            command = [sys.executable, os.path.abspath(__file__),
                       "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(trace),
                       "--detail"] + (["--smoke"] if args.smoke else [])
            child = subprocess.run(command, stdout=subprocess.PIPE,
                                   text=True, check=True)
            result = json.loads(child.stdout.splitlines()[-1])
            print_table(f"{name} ({'traced' if trace else 'end to end'})",
                        result, result["detail"])
            entry["per_layer" if trace else "end_to_end"] = result
        report["workloads"][name] = entry
    if args.out:
        # One ledger file holds several runs: append, don't replace.
        runs = []
        if os.path.exists(args.out):
            with open(args.out) as handle:
                runs = json.load(handle)["runs"]
        with open(args.out, "w") as handle:
            json.dump({"runs": runs + [report]}, handle, indent=1)
            handle.write("\n")
    failed = sum(section["failed"] for entry in report["workloads"].values()
                 for section in entry.values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
