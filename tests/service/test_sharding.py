"""Per-function fan-out: the gate, the splitter, and --jobs equivalence."""

import textwrap

import repro.core  # registers transform ops
import repro.dialects  # registers payload ops
from repro.ir.parser import parse
from repro.ir.printer import print_op
from repro.service import (
    is_func_shardable,
    reassemble_module,
    shard_payload,
)
from repro.tools import _transform_opt_sharded, transform_opt

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


class TestShardPayload:
    def test_multi_func_module_splits(self):
        shards = shard_payload(parse(MULTI))
        assert shards is not None and len(shards) == 3
        for shard, name in zip(shards, ["f0", "f1", "f2"]):
            assert f'"{name}"' in print_op(shard)

    def test_single_func_module_does_not(self):
        assert shard_payload(parse(SINGLE)) is None

    def test_non_func_top_level_does_not(self):
        mixed = _module(
            _func("f0"),
            '"llvm.mlir.global"() {sym_name = "g"} : () -> ()',
        )
        assert shard_payload(parse(mixed)) is None

    def test_cross_function_calls_do_not(self):
        caller = textwrap.dedent("""
          "func.func"() ({
            "func.call"() {callee = "f0"} : () -> ()
            "func.return"() : () -> ()
          }) {sym_name = "caller", function_type = () -> ()} : () -> ()
        """).strip()
        assert shard_payload(parse(_module(_func("f0"), caller))) is None

    def test_identity_reassembly_is_byte_stable(self):
        payload = parse(MULTI)
        shards = shard_payload(payload)
        texts = [print_op(s) for s in shards]
        assert reassemble_module(payload, texts) == print_op(payload)

    def test_reassembly_rejects_diverged_module_attrs(self):
        # Backstop behind the gate: a shard whose module op gained an
        # attribute cannot be merged faithfully — reassembly must
        # refuse so the caller falls back to the sequential path.
        payload = parse(MULTI)
        shards = shard_payload(payload)
        shards[1].set_attr("marked", 1)
        texts = [print_op(s) for s in shards]
        assert reassemble_module(payload, texts) is None


class TestJobsEquivalence:
    def test_sharded_path_fires_and_matches_sequential(self):
        payload = parse(MULTI)
        script = parse(UNROLL)
        sharded = _transform_opt_sharded(payload, script, UNROLL, jobs=3)
        assert sharded is not None
        sequential = transform_opt(MULTI, UNROLL, jobs=1)
        assert sharded == sequential

    def test_transform_opt_jobs_flag_byte_identical(self):
        assert transform_opt(MULTI, UNROLL, jobs=4) == \
            transform_opt(MULTI, UNROLL, jobs=1)

    def test_non_shardable_payload_falls_back(self):
        # Single function: the sharded path declines, the sequential
        # path still compiles.
        assert transform_opt(SINGLE, UNROLL, jobs=4) == \
            transform_opt(SINGLE, UNROLL, jobs=1)

    def test_non_shardable_script_falls_back(self):
        script = UNROLL.replace('position = "all"', 'position = "first"')
        assert transform_opt(MULTI, script, jobs=4) == \
            transform_opt(MULTI, script, jobs=1)

    def test_module_annotation_falls_back_and_keeps_the_mark(self):
        # Regression: get_parent_op climbing to builtin.module used to
        # pass the gate, each shard annotated its own clone module,
        # and the reassembled output silently lost `marked`.
        assert _transform_opt_sharded(
            parse(MULTI), parse(MODULE_ANNOTATE), MODULE_ANNOTATE,
            jobs=2,
        ) is None
        fanned = transform_opt(MULTI, MODULE_ANNOTATE, jobs=2)
        assert fanned == transform_opt(MULTI, MODULE_ANNOTATE, jobs=1)
        assert "marked" in fanned

    def test_in_shard_get_parent_still_fans_out(self):
        sharded = _transform_opt_sharded(
            parse(MULTI), parse(FUNC_ANNOTATE), FUNC_ANNOTATE, jobs=3
        )
        assert sharded is not None
        assert sharded == transform_opt(MULTI, FUNC_ANNOTATE, jobs=1)
        assert sharded.count("marked") == 3


class TestShardableFunctions:
    def test_returns_the_functions_without_cloning(self):
        from repro.service.sharding import shardable_functions

        payload = parse(MULTI)
        functions = shardable_functions(payload)
        assert functions is not None and len(functions) == 3
        tops = list(payload.regions[0].entry_block.ops)
        assert all(f is top for f, top in zip(functions, tops))

    def test_single_function_is_splittable_here(self):
        # Unlike shard_payload (which wants >= 2 to fan out), the
        # function tier caches single-function modules too.
        from repro.service.sharding import shardable_functions

        assert shardable_functions(parse(SINGLE)) is not None
        assert shard_payload(parse(SINGLE)) is None

    def test_calls_and_foreign_tops_refused(self):
        from repro.service.sharding import shardable_functions

        with_global = _module(
            _func("f0"),
            '"llvm.mlir.global"() {sym_name = "g"} : () -> ()',
        )
        assert shardable_functions(parse(with_global)) is None


class TestAssembleFunctions:
    def test_matches_whole_module_print(self):
        from repro.ir.hashing import module_digest, op_digest
        from repro.service.sharding import (
            assemble_functions,
            function_entries,
        )

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
        from repro.service.sharding import assemble_functions

        payload = parse(MULTI)
        shards = shard_payload(payload)
        texts = [print_op(shard) for shard in shards]
        text, _ = assemble_functions(dict(payload.attributes), texts)
        assert text == print_op(payload)
