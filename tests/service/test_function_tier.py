"""The per-function digest cache tier: reuse across overlapping
payloads, byte-identity with whole-module compilation, and the gates
that keep it out of non-distributing jobs."""

import random
import threading
from dataclasses import fields

import pytest

import repro.core  # noqa: F401 — registers transform ops
import repro.dialects  # noqa: F401 — registers payload ops
import repro.service.engine as engine_module
from repro.core.dialect import TransformOp
from repro.core.errors import TransformResult
from repro.ir.core import Operation, register_op
from repro.ir.hashing import op_digest
from repro.ir.parser import parse
from repro.ir.printer import module_body, print_op
from repro.service import (
    CompilationCache,
    CompileEngine,
    CompileJob,
    JobResult,
    JobStatus,
)
from repro.service.cache import function_key
from repro.service.server import result_to_frame
from repro.service.sharding import (
    assemble_functions,
    function_entries,
    function_text,
    function_text_digests,
)
from repro.service.worker import compile_job

from .test_engine import UNROLL, UNROLL_BOUND
from .test_sharding import MODULE_ANNOTATE, MULTI, SINGLE, _func, _module

F0, F1, F2 = _func("f0", 8), _func("f1", 4), _func("f2", 16)


@register_op
class _TierTestEscapeOp(TransformOp):
    """Escapes the function-local contract on purpose: appends a
    top-level op to the payload module — a clone of its first function
    (``kind = "function"``) or an op that is no function at all."""

    NAME = "transform.test.tier_escape"

    def apply(self, interpreter, state) -> TransformResult:
        body = state.payload_root.regions[0].entry_block
        if self._str_attr("kind") == "function":
            extra = body.ops[0].clone()
            extra.set_attr("sym_name", "extra")
        else:
            extra = Operation.create("test.global")
        body.append(extra)
        return TransformResult.success()


def _escape(kind):
    return f'''"transform.sequence"() ({{
^bb0(%root: !transform.any_op):
  "transform.test.tier_escape"() {{kind = "{kind}"}} : () -> ()
  "transform.yield"() : () -> ()
}}) : () -> ()'''


def _engine(cache=None, function_tier=True):
    return CompileEngine(workers=0, cache=cache, preflight=False,
                         function_tier=function_tier)


def _reference(payload):
    """Whole-module compilation with the tier disabled."""
    engine = _engine(cache=None, function_tier=False)
    try:
        result = engine.run_job(
            CompileJob(payload_text=payload, script_text=UNROLL)
        )
    finally:
        engine.shutdown()
    assert result.status is JobStatus.SUCCESS
    return result.output


class TestOverlapReuse:
    def test_shared_function_hits_across_payloads(self):
        cache = CompilationCache(capacity=64)
        engine = _engine(cache)
        try:
            first = engine.run_job(CompileJob(
                payload_text=_module(F0, F1), script_text=UNROLL))
            assert first.status is JobStatus.SUCCESS
            assert not first.function_tier
            # f0 and f1 are now in the function tier; a payload
            # sharing f0 only re-compiles f2.
            second = engine.run_job(CompileJob(
                payload_text=_module(F0, F2), script_text=UNROLL))
        finally:
            engine.shutdown()
        assert second.status is JobStatus.SUCCESS
        assert second.function_tier
        assert not second.cache_hit  # f2 had to be compiled
        assert engine.stats.function_tier_hits == 1
        assert cache.stats.function_hits >= 1
        assert second.output == _reference(_module(F0, F2))

    def test_reordered_functions_assemble_from_tier_alone(self):
        cache = CompilationCache(capacity=64)
        engine = _engine(cache)
        try:
            engine.run_job(CompileJob(
                payload_text=_module(F0, F1), script_text=UNROLL))
            executed = engine.stats.executed
            swapped = engine.run_job(CompileJob(
                payload_text=_module(F1, F0), script_text=UNROLL))
        finally:
            engine.shutdown()
        assert swapped.status is JobStatus.SUCCESS
        assert swapped.function_tier and swapped.cache_hit
        # Both functions came from the tier: nothing executed.
        assert engine.stats.executed == executed
        assert swapped.output == _reference(_module(F1, F0))

    def test_assembled_output_cached_at_whole_job_tier(self):
        cache = CompilationCache(capacity=64)
        engine = _engine(cache)
        try:
            engine.run_job(CompileJob(
                payload_text=_module(F0, F1), script_text=UNROLL))
            engine.run_job(CompileJob(
                payload_text=_module(F1, F0), script_text=UNROLL))
            again = engine.run_job(CompileJob(
                payload_text=_module(F1, F0), script_text=UNROLL))
        finally:
            engine.shutdown()
        # Third run: plain whole-job hit, no assembly needed.
        assert again.cache_hit and not again.function_tier

    def test_output_digest_reported(self):
        cache = CompilationCache(capacity=64)
        engine = _engine(cache)
        try:
            result = engine.run_job(CompileJob(
                payload_text=_module(F0, F1), script_text=UNROLL))
        finally:
            engine.shutdown()
        assert result.output_digest is not None
        from repro.ir import op_digest, parse

        assert op_digest(parse(result.output)) == result.output_digest


class TestByteIdentity:
    def test_tier_output_matches_whole_module_for_batch(self):
        payloads = [
            _module(F0, F1),
            _module(F0, F2),
            _module(F1, F2, F0),
            _module(F2, F1),
        ]
        cache = CompilationCache(capacity=64)
        engine = _engine(cache)
        try:
            results = [
                engine.run_job(CompileJob(payload_text=payload,
                                          script_text=UNROLL))
                for payload in payloads
            ]
        finally:
            engine.shutdown()
        for payload, result in zip(payloads, results):
            assert result.status is JobStatus.SUCCESS
            assert result.output == _reference(payload)
        # The overlap actually exercised the tier.
        assert engine.stats.function_tier_hits >= 1


class TestTierGates:
    def test_single_function_payload_skips_tier(self):
        cache = CompilationCache(capacity=64)
        engine = _engine(cache)
        try:
            result = engine.run_job(CompileJob(
                payload_text=SINGLE, script_text=UNROLL))
        finally:
            engine.shutdown()
        assert result.status is JobStatus.SUCCESS
        assert not result.function_tier
        # ... but its function still populates the tier for reuse by
        # multi-function payloads that contain it.
        assert cache.stats.function_puts == 1

    def test_non_distributing_schedule_never_uses_tier(self):
        cache = CompilationCache(capacity=64)
        engine = _engine(cache)
        try:
            first = engine.run_job(CompileJob(
                payload_text=_module(F0, F1),
                script_text=MODULE_ANNOTATE))
            second = engine.run_job(CompileJob(
                payload_text=_module(F0, F2),
                script_text=MODULE_ANNOTATE))
        finally:
            engine.shutdown()
        assert first.status is JobStatus.SUCCESS
        assert second.status is JobStatus.SUCCESS
        assert engine.stats.function_tier_hits == 0
        assert cache.stats.function_puts == 0

    def test_disabled_tier_never_consulted(self):
        cache = CompilationCache(capacity=64)
        engine = _engine(cache, function_tier=False)
        try:
            engine.run_job(CompileJob(
                payload_text=_module(F0, F1), script_text=UNROLL))
            engine.run_job(CompileJob(
                payload_text=_module(F0, F2), script_text=UNROLL))
        finally:
            engine.shutdown()
        assert engine.stats.function_tier_hits == 0
        assert cache.stats.function_puts == 0
        assert cache.stats.function_hits == 0

    def test_entry_point_jobs_skip_tier(self):
        # UNROLL has an unnamed sequence; an explicit entry point is
        # enough to disqualify tier participation regardless.
        cache = CompilationCache(capacity=64)
        engine = _engine(cache)
        try:
            engine.run_job(CompileJob(
                payload_text=_module(F0, F1), script_text=UNROLL,
                entry_point="main"))
        finally:
            engine.shutdown()
        assert cache.stats.function_puts == 0

    def test_no_cache_means_no_tier(self):
        engine = _engine(cache=None)
        try:
            result = engine.run_job(CompileJob(
                payload_text=_module(F0, F1), script_text=UNROLL))
        finally:
            engine.shutdown()
        assert result.status is JobStatus.SUCCESS
        assert not result.function_tier


def _fig9_job():
    """A Fig. 9 tile schedule (parametric sizes, positional matches)
    on its batch matmul."""
    from repro.autotuning.integration import case_study_5_template
    from repro.execution.workloads import build_batch_matmul_module

    return (print_op(build_batch_matmul_module(2, 8, 8, 4)),
            print_op(case_study_5_template().build()),
            {"TILE1": 2, "TILE2": 4, "VEC": 2})


class TestWorkerEmittedEntries:
    """The worker splits the transformed module while it is still IR;
    the engine parses no output. Re-parsing the printed output — what
    the engine did before — stays as the reference."""

    @pytest.mark.parametrize("payload, script, params", [
        (MULTI, UNROLL, None),
        (_module(F2, F0), UNROLL_BOUND, {"factor": 4}),
        (SINGLE, UNROLL, None),
        # What a tier-assembled parent submits as its ``/fnN`` sub-job.
        (function_text(parse(MULTI).regions[0].entry_block.ops[1]),
         UNROLL, None),
        _fig9_job(),
    ], ids=["unroll", "unroll-bound", "single", "sub-job", "fig9"])
    def test_entries_equal_the_reparsed_output(self, payload, script,
                                               params):
        raw = compile_job(payload, script, params, function_tier=True)
        assert raw["status"] == "success"
        assert raw["functions"] == function_entries(parse(raw["output"]))
        assert raw["attrs_digest"] is not None
        # Without the flag the worker does none of it.
        bare = compile_job(payload, script, params)
        assert bare["functions"] is None and bare["attrs_digest"] is None
        assert bare["output"] == raw["output"]
        assert bare["output_digest"] == raw["output_digest"]

    def test_an_entry_is_the_canonical_print_of_its_digest(self):
        # Equal digest => identical bytes, up to where the names sit:
        # an entry is its function's slice of the whole-module print
        # (SSA numbering running on across functions) in a bare module
        # shell, says where its names start, carries that function's
        # digest — the kind the tier is keyed on — and moved to %0 it
        # is the canonical print of the function alone.
        raw = compile_job(MULTI, UNROLL, function_tier=True)
        values = blocks = 0
        for text, digest, names in raw["functions"]:
            assert module_body(text, {}) in raw["output"]
            assert (names[0], names[2]) == (values, blocks)
            values, blocks = values + names[1], blocks + names[3]
            (function,) = parse(text).regions[0].entry_block.ops
            assert op_digest(function) == digest
            assert assemble_functions({}, [text], names=[names])[0] \
                == function_text(function)
        assert raw["functions"][1][2][0] > 0

    @pytest.mark.parametrize("workers", [0, 1])
    def test_cache_holds_the_reference_entries(self, workers):
        cache = CompilationCache(capacity=64)
        with CompileEngine(workers=workers, cache=cache,
                           preflight=False) as engine:
            result = engine.run_job(CompileJob(MULTI, UNROLL))
        assert result.status is JobStatus.SUCCESS
        sources = parse(MULTI).regions[0].entry_block.ops
        outputs = function_entries(parse(result.output))
        assert cache.stats.function_puts == len(sources) == 3
        script_digest = op_digest(parse(UNROLL))
        for source, reference in zip(sources, outputs):
            entry = cache.get_function(
                function_key(op_digest(source), script_digest, None))
            assert (entry.output, entry.output_digest, entry.names) \
                == reference

    def test_non_function_output_is_not_split(self):
        raw = compile_job(MULTI, _escape("global"), function_tier=True)
        assert raw["status"] == "success"
        assert '"test.global"' in raw["output"]
        assert raw["functions"] is None and raw["attrs_digest"] is None

    def test_unsuccessful_results_are_not_split(self):
        silenceable = compile_job(
            MULTI, UNROLL.replace("factor = 2", "factor = 3"),
            function_tier=True)
        assert silenceable["status"] == "silenceable"
        assert silenceable["output"] and silenceable["functions"] is None
        definite = compile_job(MULTI, "not ir", function_tier=True)
        assert definite["status"] == "definite"
        assert definite["functions"] is None

    def test_traced_print_span_covers_the_split(self):
        # The split is the print (one printer session, nothing
        # renumbered): there is nothing left for a span of its own.
        trace = ("t" * 32, "p" * 16)
        for function_tier in (True, False):
            spans = compile_job(MULTI, UNROLL, trace=trace,
                                function_tier=function_tier)["spans"]
            assert sorted(span.name for span in spans
                          if span.name.startswith("worker.")) == [
                "worker.compile", "worker.interpret", "worker.parse",
                "worker.print"]


class TestOnePrintPerDigest:
    """A module's digest composes from its functions' digests, and a
    caller that has those hands them in: the engine deriving a
    payload's facts, and the worker digesting its function-tier output,
    each print every function once for its digest and the module never.
    Digests are not memoized, so hashing the functions again would
    print them again."""

    QUAD = _module(F0, F1, F2, _func("f3", 2))
    FUNCTIONS = ['"f0"', '"f1"', '"f2"', '"f3"']

    @pytest.fixture
    def digest_prints(self, monkeypatch):
        import repro.ir.hashing as hashing

        printed = []

        def counting(op):
            printed.append(str(op.attributes.get("sym_name", op.name)))
            return print_op(op)

        monkeypatch.setattr(hashing, "print_op", counting)
        return printed

    def test_deriving_a_payload(self, digest_prints):
        with _engine(cache=CompilationCache(capacity=8)) as engine:
            info = engine._derive_payload(self.QUAD, [])
        assert sorted(digest_prints) == self.FUNCTIONS
        assert info.func_digests is not None
        assert info.digest == op_digest(parse(self.QUAD))

    def test_a_function_tier_job(self, digest_prints):
        raw = compile_job(self.QUAD, UNROLL, function_tier=True)
        assert raw["status"] == "success"
        assert sorted(digest_prints) == self.FUNCTIONS
        assert raw["output_digest"] == op_digest(parse(raw["output"]))


class TestEscapeBackstops:
    """A schedule the gate passed that escapes the function-local
    contract anyway stores nothing. The gate is forced open here: the
    backstops are what is under test."""

    @pytest.fixture
    def open_gate(self, monkeypatch):
        monkeypatch.setattr(engine_module, "is_func_shardable",
                            lambda script: True)

    @pytest.mark.parametrize("script, mark", [
        (MODULE_ANNOTATE, "marked"),            # module attrs change
        (_escape("global"), '"test.global"'),   # not all functions
        (_escape("function"), '"extra"'),       # function count changes
    ], ids=["module-attrs", "non-function", "count"])
    def test_escaped_output_stores_nothing(self, open_gate, script, mark):
        cache = CompilationCache(capacity=64)
        with _engine(cache) as engine:
            result = engine.run_job(CompileJob(MULTI, script))
        assert result.status is JobStatus.SUCCESS
        assert mark in result.output
        assert cache.stats.function_puts == 0
        assert cache.stats.puts == 1  # the whole-job tier still fills

    def test_silenceable_result_stores_nothing(self):
        cache = CompilationCache(capacity=64)
        with _engine(cache) as engine:
            result = engine.run_job(CompileJob(
                MULTI, UNROLL.replace("factor = 2", "factor = 3")))
        assert result.status is JobStatus.SILENCEABLE
        assert cache.stats.function_puts == 0


class TestNothingLeaksPastTheEngine:
    def test_follower_and_frame_carry_no_functions(self, monkeypatch):
        following = threading.Event()
        real_compile = engine_module.compile_job  # the workers=0 route

        def held_compile(*args, **kwargs):
            # The leader compiles only once the follower is waiting.
            assert following.wait(timeout=30)
            return real_compile(*args, **kwargs)

        monkeypatch.setattr(engine_module, "compile_job", held_compile)
        cache = CompilationCache(capacity=64)
        with _engine(cache) as engine:
            real_follow = engine._follow

            def follow(*args):
                following.set()
                return real_follow(*args)

            monkeypatch.setattr(engine, "_follow", follow)
            results = {}

            def run(name):
                results[name] = engine.run_job(
                    CompileJob(MULTI, UNROLL, job_id=name))

            leader = threading.Thread(target=run, args=("leader",))
            leader.start()
            while not engine._inflight:  # the leader holds the slot
                assert leader.is_alive()
            run("follower")
            leader.join(timeout=30)
            assert not leader.is_alive()
        follower = results["follower"]
        assert follower.coalesced and follower.ok
        assert follower.output == results["leader"].output
        assert cache.stats.function_puts == 3  # the leader published
        for leaked in ("functions", "attrs_digest"):
            assert leaked not in {f.name for f in fields(JobResult)}
            assert leaked not in vars(follower)
            assert leaked not in result_to_frame(follower)


class TestHotSetResidency:
    """A whole-job hit is a use of the function entries that job is
    made of, and a sub-job is a function-tier write and nothing else —
    deterministic, in process."""

    CAPACITY = 24
    HOT = [_func(f"hot{n}", 4 + 2 * n) for n in range(4)]

    def _age_the_hot_set(self, engine, cache, seed=0):
        """One hot 4-function job, then a seeded run of novel jobs and
        hot repeats that puts several capacities' worth of entries
        through the shared LRU: the hot whole-job entry is re-used
        often enough to stay, its four function entries are touched by
        nothing but those hits."""
        rng = random.Random(seed)
        hot = _module(*self.HOT)
        assert engine.run_job(CompileJob(hot, UNROLL)).status \
            is JobStatus.SUCCESS
        novel = 0
        for step in range(24):
            if step % 3 == 2:
                assert engine.run_job(CompileJob(hot, UNROLL)).cache_hit
                continue
            novel += 1
            functions = [_func(f"n{step}_{n}", 2 * rng.randint(1, 40))
                         for n in range(4)]
            assert engine.run_job(
                CompileJob(_module(*functions), UNROLL)).ok
        # The stream really did push the hot entries' age past the bound.
        assert 5 * novel > 3 * self.CAPACITY
        assert cache.stats.evictions > 2 * self.CAPACITY
        assert len(cache) == self.CAPACITY
        return hot

    def test_a_near_repeat_of_a_hot_job_finds_all_it_expects(self):
        cache = CompilationCache(capacity=self.CAPACITY)
        partial = _module(self.HOT[0], self.HOT[1], _func("new", 6),
                          self.HOT[3])
        with _engine(cache) as engine:
            self._age_the_hot_set(engine, cache)
            texts = set(engine._payloads)
            before = (cache.stats.function_hits, cache.stats.function_misses,
                      cache.stats.puts, cache.stats.function_puts,
                      engine.stats.executed, engine.stats.submitted)
            result = engine.run_job(CompileJob(partial, UNROLL))
            after = (cache.stats.function_hits, cache.stats.function_misses,
                     cache.stats.puts, cache.stats.function_puts,
                     engine.stats.executed, engine.stats.submitted)
            memoized = set(engine._payloads) - texts
        # 3 entries spliced, 1 compiled by exactly one sub-job (the
        # parent evicted the hot entries: two sub-jobs or the whole
        # module); the partial hit wrote the new function and its own
        # whole-job result — no whole-job copy of the sub-job's one
        # function — and memoized no text but its own.
        assert result.function_tier and not result.cache_hit
        assert [b - a for a, b in zip(before, after)] == [3, 1, 2, 1, 1, 2]
        assert memoized == {partial}
        assert result.output == _reference(partial)

    def test_a_sub_job_is_a_function_tier_write_and_nothing_else(self):
        cache = CompilationCache(capacity=64)
        partial = _module(F0, _func("new", 6), F2)
        with _engine(cache) as engine:
            engine.run_job(CompileJob(_module(F0, F1, F2), UNROLL))
            hits, misses = cache.stats.hits, cache.stats.misses
            result = engine.run_job(CompileJob(partial, UNROLL,
                                               job_id="parent"))
            # The lookups of the partial hit: its whole-job miss, three
            # function lookups (2 hits, 1 miss) — the sub-job asked for
            # no whole-job entry that nobody could have stored.
            assert (cache.stats.hits - hits,
                    cache.stats.misses - misses) == (2, 2)
            # The key the ``/fn1`` sub-job was single-flighted under
            # names no entry.
            sub_key = engine_module.cache_key(
                function_text_digests(op_digest(parse(_func("new", 6))))[0],
                op_digest(parse(UNROLL)))
            assert cache.get(sub_key, count_miss=False) is None
            assert len(cache) == 4 + 2
        assert result.function_tier and result.output == _reference(partial)

    def test_a_whole_job_entry_remembers_its_function_keys(self, tmp_path):
        # ... across the disk tier too: a promoted entry refreshes the
        # function entries that are resident.
        path = str(tmp_path)
        cache = CompilationCache(capacity=64, disk_path=path)
        with _engine(cache) as engine:
            first = engine.run_job(CompileJob(MULTI, UNROLL))
        entry = cache.get(first.key)
        assert len(entry.uses) == 3
        assert all(cache.get_function(key) is not None
                   for key in entry.uses)
        reread = CompilationCache(capacity=64, disk_path=path)
        assert reread.get(first.key) == entry
        # Single-function and gated jobs have nothing to keep resident.
        with _engine(CompilationCache(capacity=8)) as engine:
            single = engine.run_job(CompileJob(SINGLE, UNROLL))
            gated = engine.run_job(CompileJob(MULTI, MODULE_ANNOTATE))
            assert len(engine.cache.get(single.key).uses) == 1
            assert engine.cache.get(gated.key).uses == ()
