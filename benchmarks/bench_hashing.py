"""Structural hashing: digest compares vs whole-module reprints, and
the function-tier hit rate on an overlapping batch.

Two measurements, mirroring the two consumers the digests rebuilt:

* **identity checks** — every service hot path (cache lookup,
  single-flight key, function-tier entry identity, reassembly backstop)
  used to answer "are these two modules the same compilation?" by
  printing both and comparing strings. On the unrolled ResNet-layer
  payload (~1.8k ops) this benchmark times R rounds of reprint-compare
  against R rounds of digest-compare (memoized after the first round —
  which is the point) and also reports the cold first-digest cost.
* **function-tier reuse** — a batch of multi-function payloads drawn
  from a shared pool of functions runs through a cached engine; the
  per-function digest tier must convert the overlap into > 0 function
  hits, with every assembled output byte-identical to a tier-disabled
  whole-module compilation.

Emits ``BENCH_hashing.json`` and asserts both bars: digest compares
faster than reprints, and a positive warm hit rate on the overlapping
batch. Run standalone (``python benchmarks/bench_hashing.py``) or
through pytest (``pytest benchmarks/bench_hashing.py -s``).
"""

import json
import os
import sys
import textwrap
import time

import repro.core  # noqa: F401 — registers transform ops
import repro.dialects  # noqa: F401 — registers payload ops
from repro.execution.workloads import build_resnet_layer_module
from repro.ir import op_digest, parse, print_op
from repro.service import (
    CompilationCache,
    CompileEngine,
    CompileJob,
    JobStatus,
)
from repro.transforms.loop import unroll_loop

#: Identity-check rounds (one per simulated cache lookup).
ROUNDS = 50


def build_unrolled_resnet_payload():
    """The ResNet-layer nest with its k-loop fully unrolled (~1.8k
    ops) — the PR 1 stress payload, here standing in for the large
    modules the service keys on every lookup."""
    module = build_resnet_layer_module()
    loops = [op for op in module.walk() if op.name == "scf.for"]
    unroll_loop(loops[-1], full=True)
    return module


def bench_identity_checks():
    payload = build_unrolled_resnet_payload()
    text = print_op(payload)
    # Two independent parses, as two jobs arriving over the wire.
    a = parse(text, "<a>")
    b = parse(text, "<b>")
    op_count = sum(1 for _ in a.walk())

    start = time.perf_counter()
    for _ in range(ROUNDS):
        assert print_op(a) == print_op(b)
    reprint_seconds = time.perf_counter() - start

    start = time.perf_counter()
    digest_a = op_digest(a)
    digest_b = op_digest(b)
    assert digest_a == digest_b
    digest_cold_seconds = time.perf_counter() - start

    start = time.perf_counter()
    for _ in range(ROUNDS):
        assert op_digest(a) == op_digest(b)
    digest_warm_seconds = time.perf_counter() - start

    return {
        "payload_ops": op_count,
        "rounds": ROUNDS,
        "reprint_seconds": reprint_seconds,
        "digest_cold_seconds": digest_cold_seconds,
        "digest_warm_seconds": digest_warm_seconds,
        "speedup_warm": reprint_seconds / digest_warm_seconds
        if digest_warm_seconds else float("inf"),
        # Even one cold digest plus R-1 memo hits vs R reprints.
        "speedup_including_cold":
            reprint_seconds
            / (digest_cold_seconds + digest_warm_seconds),
    }


SCHEDULE = textwrap.dedent("""
    "transform.sequence"() ({
    ^bb0(%root: !transform.any_op):
      %loops = "transform.match_op"(%root) {names = ["scf.for"], position = "all"} : (!transform.any_op) -> !transform.any_op
      "transform.loop.unroll"(%loops) {factor = 4 : i64} : (!transform.any_op) -> ()
      "transform.yield"() : () -> ()
    }) : () -> ()
""").strip()


def _function(name, trip):
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
          "scf.yield"() : () -> ()
        }}) : (index, index, index) -> ()
        "func.return"() : () -> ()
      }}) {{sym_name = "{name}", function_type = () -> ()}} : () -> ()
    """).strip()


def _module(*funcs):
    body = "\n".join(funcs)
    return f'"builtin.module"() ({{\n{body}\n}}) : () -> ()'


def _overlapping_batch():
    """12 payloads drawn from a pool of 8 functions, 3 each — every
    function appears in several payloads, so after the first few
    executions the tier serves most of the work."""
    pool = [_function(f"fn{i}", 8 + 4 * i) for i in range(8)]
    return [
        _module(pool[i % 8], pool[(i + 2) % 8], pool[(i + 5) % 8])
        for i in range(12)
    ]


def bench_function_tier():
    payloads = _overlapping_batch()

    # Reference: tier disabled, whole-module compilation per payload.
    reference = []
    with CompileEngine(workers=0, cache=None, preflight=False,
                       function_tier=False) as engine:
        for payload in payloads:
            result = engine.run_job(CompileJob(payload_text=payload,
                                               script_text=SCHEDULE))
            assert result.status is JobStatus.SUCCESS
            reference.append(result.output)

    cache = CompilationCache(capacity=256)
    with CompileEngine(workers=0, cache=cache,
                       preflight=False) as engine:
        start = time.perf_counter()
        results = [
            engine.run_job(CompileJob(payload_text=payload,
                                      script_text=SCHEDULE))
            for payload in payloads
        ]
        elapsed = time.perf_counter() - start
        stats = engine.stats.as_dict()

    for expected, result in zip(reference, results):
        assert result.status is JobStatus.SUCCESS
        assert result.output == expected, (
            "function-tier output diverged from whole-module run"
        )
    function_lookups = (cache.stats.function_hits
                        + cache.stats.function_misses)
    return {
        "jobs": len(payloads),
        "seconds": elapsed,
        "executed": stats["executed"],
        "function_tier_jobs": stats["function_tier_hits"],
        "function_hits": cache.stats.function_hits,
        "function_misses": cache.stats.function_misses,
        "function_hit_rate": cache.stats.function_hits / function_lookups
        if function_lookups else 0.0,
        "function_puts": cache.stats.function_puts,
        "output_byte_identical": True,
    }


def run_benchmark():
    report = {
        "identity_checks": bench_identity_checks(),
        "function_tier": bench_function_tier(),
    }
    report["digest_faster_than_reprint"] = (
        report["identity_checks"]["reprint_seconds"]
        > report["identity_checks"]["digest_cold_seconds"]
        + report["identity_checks"]["digest_warm_seconds"]
    )
    return report


def test_hashing_benchmark():
    report = run_benchmark()
    print(json.dumps(report, indent=2))
    assert report["digest_faster_than_reprint"]
    assert report["function_tier"]["function_hits"] > 0


def main():
    report = run_benchmark()
    out = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "BENCH_hashing.json")
    with open(out, "w") as handle:
        json.dump(report, handle, indent=2)
    print(json.dumps(report, indent=2))
    print(f"\nwrote {out}")
    if not report["digest_faster_than_reprint"]:
        print("FAIL: digest compare not faster than reprint",
              file=sys.stderr)
        return 1
    if report["function_tier"]["function_hits"] <= 0:
        print("FAIL: overlapping batch produced no function-tier hits",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
