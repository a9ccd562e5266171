"""The function tier's seams: the gate, the splitter, the splice, and
per-function jobs against whole-module bytes."""

import textwrap

import pytest

import repro.core  # registers transform ops
import repro.dialects  # registers payload ops
from repro.ir.parser import parse
from repro.ir.printer import print_op
from repro.service import (
    CompilationCache,
    CompileEngine,
    CompileJob,
    JobStatus,
    is_func_shardable,
)
from repro.service.sharding import (
    assemble_functions,
    function_text,
    shardable_functions,
)

from .test_engine import UNROLL, UNROLL_BOUND


def _func(name, trip=8):
    return textwrap.dedent(f"""
      "func.func"() ({{
        %lb = "arith.constant"() {{value = 0 : index}} : () -> index
        %ub = "arith.constant"() {{value = {trip} : index}} : () -> index
        %st = "arith.constant"() {{value = 1 : index}} : () -> index
        "scf.for"(%lb, %ub, %st) ({{
        ^bb0(%i: index):
          %c = "arith.constant"() {{value = 1 : i64}} : () -> i64
          "scf.yield"() : () -> ()
        }}) : (index, index, index) -> ()
        "func.return"() : () -> ()
      }}) {{sym_name = "{name}", function_type = () -> ()}} : () -> ()
    """).strip()


def _module(*funcs):
    body = "\n".join(funcs)
    return f'"builtin.module"() ({{\n{body}\n}}) : () -> ()'


MULTI = _module(_func("f0", 8), _func("f1", 4), _func("f2", 16))
SINGLE = _module(_func("only"))

#: Climbs from each func to the module and annotates *it* — the
#: annotation lands on a per-shard clone module, so sharding must
#: refuse or the mark silently vanishes in reassembly.
MODULE_ANNOTATE = textwrap.dedent("""
    "transform.sequence"() ({
    ^bb0(%root: !transform.any_op):
      %funcs = "transform.match_op"(%root) {names = ["func.func"], position = "all"} : (!transform.any_op) -> !transform.any_op
      %mod = "transform.get_parent_op"(%funcs) {op_name = "builtin.module"} : (!transform.any_op) -> !transform.any_op
      "transform.annotate"(%mod) {attr_name = "marked", value = 1 : i64} : (!transform.any_op) -> ()
      "transform.yield"() : () -> ()
    }) : () -> ()
""").strip()

#: No op_name: "immediate parent", which for a top-level func is the
#: module itself — just as unshardable as naming builtin.module.
PARENT_NO_NAME = MODULE_ANNOTATE.replace(
    ' {op_name = "builtin.module"}', ""
)

#: Stays below the module (loop -> enclosing func): genuinely
#: distributes over functions, so the fan-out path must still fire.
FUNC_ANNOTATE = textwrap.dedent("""
    "transform.sequence"() ({
    ^bb0(%root: !transform.any_op):
      %loops = "transform.match_op"(%root) {names = ["scf.for"], position = "all"} : (!transform.any_op) -> !transform.any_op
      %fn = "transform.get_parent_op"(%loops) {op_name = "func.func"} : (!transform.any_op) -> !transform.any_op
      "transform.annotate"(%fn) {attr_name = "marked", value = 1 : i64} : (!transform.any_op) -> ()
      "transform.yield"() : () -> ()
    }) : () -> ()
""").strip()


class TestShardableGate:
    def test_whitelisted_schedule_is_shardable(self):
        assert is_func_shardable(parse(UNROLL))
        assert is_func_shardable(parse(UNROLL_BOUND))

    def test_positional_match_is_not(self):
        script = UNROLL.replace('position = "all"', 'position = "first"')
        assert not is_func_shardable(parse(script))

    def test_unknown_transform_is_not(self):
        script = UNROLL.replace(
            "transform.loop.unroll", "transform.foreach"
        )
        assert not is_func_shardable(parse(script))

    def test_get_parent_to_module_is_not(self):
        assert not is_func_shardable(parse(MODULE_ANNOTATE))

    def test_get_parent_without_op_name_is_not(self):
        assert not is_func_shardable(parse(PARENT_NO_NAME))

    def test_get_parent_below_module_is(self):
        assert is_func_shardable(parse(FUNC_ANNOTATE))

    def test_named_sequences_are_not(self):
        script = textwrap.dedent("""
            "builtin.module"() ({
              "transform.named_sequence"() ({
              ^bb0(%root: !transform.any_op):
                "transform.yield"() : () -> ()
              }) {sym_name = "macro"} : () -> ()
            }) : () -> ()
        """).strip()
        assert not is_func_shardable(parse(script))


GLOBAL = '"llvm.mlir.global"() {sym_name = "g"} : () -> ()'


class TestShardPayload:
    def test_multi_func_module_splits(self):
        functions = shardable_functions(parse(MULTI))
        assert functions is not None and len(functions) == 3
        for function, name in zip(functions, ["f0", "f1", "f2"]):
            assert f'"{name}"' in function_text(function)

    def test_non_func_top_level_does_not(self):
        mixed = _module(_func("f0"), GLOBAL)
        assert shardable_functions(parse(mixed)) is None

    def test_cross_function_calls_do_not(self):
        caller = textwrap.dedent("""
          "func.func"() ({
            "func.call"() {callee = "f0"} : () -> ()
            "func.return"() : () -> ()
          }) {sym_name = "caller", function_type = () -> ()} : () -> ()
        """).strip()
        assert shardable_functions(
            parse(_module(_func("f0"), caller))) is None

    def test_identity_reassembly_is_byte_stable(self):
        payload = parse(MULTI)
        texts = [function_text(f) for f in shardable_functions(payload)]
        assert assemble_functions(payload.attributes, texts)[0] \
            == print_op(payload)

    def test_reassembly_rejects_diverged_module_attrs(self):
        # Backstop behind the gate: a sub-job whose module op gained an
        # attribute does not print an entry — the splice must refuse
        # so the engine compiles the module whole.
        payload = parse(MULTI)
        texts = [function_text(f) for f in shardable_functions(payload)]
        marked = parse(texts[1])
        marked.set_attr("marked", 1)
        texts[1] = print_op(marked)
        with pytest.raises(ValueError):
            assemble_functions(payload.attributes, texts)


def _whole_module(payload, script):
    """``workers=0`` bytes: no cache, no function tier."""
    engine = CompileEngine(workers=0, cache=None, preflight=False,
                           function_tier=False)
    try:
        result = engine.run_job(
            CompileJob(payload_text=payload, script_text=script))
    finally:
        engine.shutdown()
    assert result.status is JobStatus.SUCCESS
    return result.output


def _through_tier(script, *payloads):
    """Run ``payloads`` in order through one cached engine with the
    function tier on; returns (results, engine, cache)."""
    cache = CompilationCache(capacity=64)
    engine = CompileEngine(workers=0, cache=cache, preflight=False,
                           function_tier=True)
    try:
        results = [
            engine.run_job(CompileJob(payload_text=payload,
                                      script_text=script))
            for payload in payloads
        ]
    finally:
        engine.shutdown()
    assert all(r.status is JobStatus.SUCCESS for r in results)
    return results, engine, cache


F0, F1, F2 = _func("f0", 8), _func("f1", 4), _func("f2", 16)


class TestJobsEquivalence:
    """Jobs served per function are byte-identical to whole-module
    jobs — or the gate keeps them whole."""

    def test_sharded_path_fires_and_matches_sequential(self):
        rotated = _module(F1, F2, F0)
        (first, second), engine, cache = _through_tier(
            UNROLL, MULTI, rotated)
        assert cache.stats.function_puts == 3
        assert second.function_tier and second.cache_hit
        assert engine.stats.executed == 1
        assert first.output == _whole_module(MULTI, UNROLL)
        assert second.output == _whole_module(rotated, UNROLL)

    def test_non_shardable_payload_falls_back(self):
        # A global at the top level: the payload is not splittable,
        # the job is compiled whole and nothing enters the tier.
        mixed = _module(F0, GLOBAL, F1)
        (result,), _, cache = _through_tier(UNROLL, mixed)
        assert not result.function_tier
        assert cache.stats.function_puts == 0
        assert result.output == _whole_module(mixed, UNROLL)

    def test_non_shardable_script_falls_back(self):
        script = UNROLL.replace('position = "all"', 'position = "first"')
        assert not is_func_shardable(parse(script))
        results, _, cache = _through_tier(script, MULTI, _module(F0, F2))
        assert cache.stats.function_puts == 0
        assert not any(r.function_tier for r in results)
        assert results[0].output == _whole_module(MULTI, script)
        assert results[1].output == _whole_module(_module(F0, F2), script)

    def test_module_annotation_falls_back_and_keeps_the_mark(self):
        # Regression: get_parent_op climbing to builtin.module used to
        # pass the gate; a per-function sub-job would annotate its own
        # module shell and the assembled output lose `marked`.
        assert not is_func_shardable(parse(MODULE_ANNOTATE))
        results, _, cache = _through_tier(
            MODULE_ANNOTATE, MULTI, _module(F0, F2))
        assert cache.stats.function_puts == 0
        assert not any(r.function_tier for r in results)
        for result, payload in zip(results, (MULTI, _module(F0, F2))):
            assert result.output == _whole_module(payload, MODULE_ANNOTATE)
            assert "marked" in result.output

    def test_in_shard_get_parent_still_fans_out(self):
        assert is_func_shardable(parse(FUNC_ANNOTATE))
        partial = _module(F2, _func("f3", 2), F0)
        (first, second), engine, cache = _through_tier(
            FUNC_ANNOTATE, MULTI, partial)
        assert cache.stats.function_puts >= 3
        assert second.function_tier and not second.cache_hit
        assert engine.stats.function_tier_hits == 1
        assert first.output == _whole_module(MULTI, FUNC_ANNOTATE)
        assert second.output == _whole_module(partial, FUNC_ANNOTATE)
        assert second.output.count("marked") == 3


class TestShardableFunctions:
    def test_returns_the_functions_without_cloning(self):
        payload = parse(MULTI)
        functions = shardable_functions(payload)
        assert functions is not None and len(functions) == 3
        tops = list(payload.regions[0].entry_block.ops)
        assert all(f is top for f, top in zip(functions, tops))

    def test_single_function_is_splittable_here(self):
        # The function tier caches single-function modules too.
        assert shardable_functions(parse(SINGLE)) is not None

    def test_calls_and_foreign_tops_refused(self):
        with_global = _module(_func("f0"), GLOBAL)
        assert shardable_functions(parse(with_global)) is None


class TestAssembleFunctions:
    def test_matches_whole_module_print(self):
        from repro.ir.hashing import module_digest, op_digest
        from repro.service.sharding import function_entries

        payload = parse(MULTI)
        entries = function_entries(payload)
        attributes = dict(payload.attributes)
        text, names = assemble_functions(
            attributes, [entry for entry, _, _ in entries],
            names=[placed for _, _, placed in entries])
        assert text == print_op(payload)
        # Per function: four constants and the induction variable, one
        # labelled block.
        assert [placed for _, _, placed in entries] \
            == [(0, 5, 0, 1), (5, 5, 1, 1), (10, 5, 2, 1)]
        assert names == (15, 3) and "%14" in text and "^bb2" in text
        assert module_digest(attributes, [d for _, d, _ in entries]) \
            == op_digest(parse(MULTI))

    def test_accepts_single_function_module_wrappers(self):
        payload = parse(MULTI)
        texts = [function_text(f) for f in shardable_functions(payload)]
        text, counts = assemble_functions(dict(payload.attributes), texts)
        assert text == print_op(payload)
        # Normalized texts carry no names record: the counts are read
        # off the text on the way.
        assert counts == (15, 3)
