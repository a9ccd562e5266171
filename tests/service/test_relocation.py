"""Function text is relocatable (DESIGN.md §9): the whole-module print
is the splice of the function-tier entries, the module digest composes
from the function digests, and the tier's read side therefore neither
parses nor re-hashes anything — pinned by a hand table, a property over
the fuzz corpus, parse counts by source name and a call ceiling."""

import itertools
import random
import sys

import pytest

import repro.core  # noqa: F401 — registers transform ops
import repro.dialects  # noqa: F401 — registers payload ops
import repro.ir.parser as parser_module
import repro.service.engine as engine_module
from repro.ir.hashing import module_digest, op_digest
from repro.ir.parser import parse
from repro.ir.printer import print_op, shift_names
from repro.service import CompilationCache, CompileEngine, CompileJob
from repro.service.cache import CachedResult, function_key
from repro.service.sharding import (
    assemble_functions,
    function_entries,
    function_module_texts,
)
from repro.service.worker import compile_job
from repro.testing.fuzz import PayloadFuzzer, relocation_violations

from .test_engine import UNROLL
from .test_sharding import _func, _module

#: Three blocks, reached out of textual order (so ``^bbN`` is numbered
#: at a successor reference before its label), block arguments, a
#: two-result op, and a string attribute spelling names, an escaped
#: quote and a raw newline.
BRANCHY = '''"func.func"() ({
^bb0():
  %c = "arith.constant"() {value = 1 : i64} : () -> i64
  "cf.br"(%c)[^bb2] : (i64) -> ()
^bb1(%x: i64, %y: i64):
  "func.return"() : () -> ()
^bb2(%z: i64):
  %p, %q = "test.pair"(%z) {note = "%3 ^bb1 \\" and a
newline"} : (i64) -> (i64, i64)
  "cf.br"(%q, %p)[^bb1] : (i64, i64) -> ()
}) {sym_name = "NAME", function_type = () -> ()} : () -> ()'''


def _branchy(name):
    return BRANCHY.replace("NAME", name)


def _with_attrs(module_text, attrs):
    assert module_text.endswith("}) : () -> ()")
    return module_text[:-len(" : () -> ()")] + f" {attrs} : () -> ()"


THREE = (_func("f0", 8), _branchy("f1"), _func("f2", 4))

HAND_TABLE = {
    "branches-and-strings": _module(_branchy("a"), _func("b"),
                                    _branchy("c")),
    "module-attributes": _with_attrs(
        _module(_func("a"), _branchy("b")),
        '{tag = "%0 ^bb0 }) : () -> ()", version = 3 : i64}'),
    "one-function": _module(_branchy("only")),
    "same-function-twice": _module(_branchy("twin"), _branchy("twin")),
    **{"permutation-" + "".join(str(THREE.index(f)) for f in order):
       _module(*order) for order in itertools.permutations(THREE)},
}


def _fuzz_module(seed):
    """The functions of three fuzz payloads in one module (the fuzzer
    itself stops at two per module)."""
    rng = random.Random(seed)
    merged = PayloadFuzzer(rng).module()
    for _ in range(2):
        donor = PayloadFuzzer(rng).module()
        for function in list(donor.regions[0].entry_block.ops):
            merged.body.append(function.clone())
    for index, function in enumerate(merged.regions[0].entry_block.ops):
        function.set_attr("sym_name", f"fuzz_fn{index}")
    merged.verify()
    return merged


class TestSpliceIsPrint:
    @pytest.mark.parametrize("text", HAND_TABLE.values(),
                             ids=HAND_TABLE.keys())
    def test_hand_table(self, text):
        module = parse(text)
        module.verify()
        assert function_entries(module) is not None
        assert relocation_violations(module) == []

    @pytest.mark.parametrize("seed", range(40))
    def test_fuzz_modules(self, seed):
        module = _fuzz_module(seed)
        assert len(function_entries(module)) >= 3
        assert relocation_violations(module) == []

    def test_the_identities_spelled_out(self):
        # What relocation_violations checks, once without it.
        module = parse(HAND_TABLE["module-attributes"])
        functions = module.regions[0].entry_block.ops
        entries = function_entries(module)
        texts = [text for text, _ in entries]
        assert assemble_functions(module.attributes, texts)[0] \
            == print_op(module)
        assert module_digest(module.attributes,
                             [op_digest(f) for f in functions]) \
            == op_digest(module)
        assert entries == function_module_texts(print_op(module), "<m>")
        assert shift_names(texts[1], 0, 0) == (texts[1], 6, 3)

    def test_every_entry_lands_on_every_base(self):
        # The same entry text serves whichever position its function
        # takes: entries are per function, not per (function, module).
        by_name = {}
        for order in itertools.permutations(THREE):
            for function, (text, digest) in zip(
                    order, function_entries(parse(_module(*order)))):
                assert by_name.setdefault(function, (text, digest)) \
                    == (text, digest)
        assert len(by_name) == 3

    def test_strings_are_never_shifted(self):
        shifted, values, blocks = shift_names(
            '%0 = "t.op"(%1)[^bb0] {a = "%0 ^bb0 \\" %1", b = "%7\n^bb7"}',
            10, 5)
        assert shifted == \
            '%10 = "t.op"(%11)[^bb5] {a = "%0 ^bb0 \\" %1", b = "%7\n^bb7"}'
        assert (values, blocks) == (2, 1)

    @pytest.mark.parametrize("damage", [
        lambda text: text[1:],                         # no header
        lambda text: text + "\n",                      # trailing bytes
        lambda text: text[:-len(" : () -> ()")] + ' {a = 1 : i64} : () -> ()',
        lambda text: text.split("\n")[0] + "\n" + text.split("\n")[-1],
        lambda text: "",
    ], ids=["header", "trailing", "attributes", "empty-body", "empty"])
    def test_text_that_is_not_an_entry_is_a_value_error(self, damage):
        texts = [text for text, _ in function_entries(parse(_module(*THREE)))]
        texts[1] = damage(texts[1])
        with pytest.raises(ValueError):
            assemble_functions({}, texts)


def _counting_parse(monkeypatch):
    """Every ``parse`` call's source name, whoever imported it."""
    sources = []
    real = parser_module.parse

    def parse_and_count(text, filename="<string>"):
        sources.append(filename)
        return real(text, filename)

    monkeypatch.setattr(parser_module, "parse", parse_and_count)
    return sources


F0, F1, F2, F3, NEW = (_func(f"f{i}", 8 + 2 * i) for i in range(5))


class TestTheReadSideParsesNothing:
    def test_an_all_hit_assembly_parses_only_the_input(self, monkeypatch):
        cache = CompilationCache(capacity=64)
        with CompileEngine(workers=0, cache=cache,
                           preflight=False) as engine:
            engine.run_job(CompileJob(_module(F0, F1, F2, F3), UNROLL))
            sources = _counting_parse(monkeypatch)
            result = engine.run_job(
                CompileJob(_module(F3, F2, F1, F0), UNROLL))
        assert result.function_tier and result.cache_hit
        # The input memo's one parse of the new payload text.
        assert sources == ["<payload>"]
        assert op_digest(parse(result.output)) == result.output_digest

    def test_a_partial_hit_parses_only_the_input_shard(self, monkeypatch):
        cache = CompilationCache(capacity=64)
        with CompileEngine(workers=0, cache=cache,
                           preflight=False) as engine:
            engine.run_job(CompileJob(_module(F0, F1, F2, F3), UNROLL))
            sources = _counting_parse(monkeypatch)
            lookups = (cache.stats.function_hits,
                       cache.stats.function_misses)
            result = engine.run_job(
                CompileJob(_module(F0, NEW, F2, F3), UNROLL))
            assert (cache.stats.function_hits - lookups[0],
                    cache.stats.function_misses - lookups[1]) == (3, 1)
        assert result.function_tier and not result.cache_hit
        # The parent's memo, the split of its text into shards, the
        # sub-job's memo: inputs only — no ``<function N>``, no
        # ``<output>``.
        assert sources == ["<payload>"] * 3
        reference = compile_job(_module(F0, NEW, F2, F3), UNROLL)
        assert result.output == reference["output"]
        assert result.output_digest == reference["output_digest"]


#: Python-level calls (``call`` + ``c_call`` profile events) of one
#: ``assemble_functions`` over the four entries of the benchmark's
#: 4-function unroll output: 1 546 measured, ceiling ≈ 10 % above. The
#: parse-based body this replaced made 99 047.
ASSEMBLE_CALLS_CEILING = 1_700


def test_assemble_call_count_ceiling():
    """A work count no host can move: a regression to re-parsing (two
    orders of magnitude more calls) fails here without a timer."""
    from benchmarks.bench_service import SCHEDULE, _payload

    raw = compile_job(_payload(0), SCHEDULE, function_tier=True)
    texts = [text for text, _ in raw["functions"]]
    assert len(texts) == 4
    assemble_functions({}, texts)  # imports, regex compilation
    calls = [0]

    def hook(frame, event, arg):
        if event == "call" or event == "c_call":
            calls[0] += 1

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        output = assemble_functions({}, texts)[0]
    finally:
        sys.setprofile(previous)
    assert output == raw["output"]
    assert calls[0] <= ASSEMBLE_CALLS_CEILING, calls[0]


class TestStaleAndDamagedEntries:
    def test_an_entry_under_the_v1_key_is_never_returned(self):
        # Before this key version an entry carried the digest of its
        # wrapper *module*; spliced in, it would report a wrong
        # ``output_digest``. The key domain moved so it cannot be read.
        import hashlib

        from repro.service.cache import _frame, _params_blob

        def v1_key(func_digest, script_digest, params=None):
            hasher = hashlib.sha256(b"repro-fn-key-v1")
            _frame(hasher, func_digest.encode())
            _frame(hasher, script_digest.encode())
            _frame(hasher, _params_blob(params))
            return hasher.hexdigest()

        payload = parse(_module(F0, F1))
        script_digest = op_digest(parse(UNROLL))
        cache = CompilationCache(capacity=64)
        for function in payload.regions[0].entry_block.ops:
            digest = op_digest(function)
            assert v1_key(digest, script_digest) \
                != function_key(digest, script_digest)
            cache.put_function(
                v1_key(digest, script_digest),
                CachedResult("success", "poison", "", "00" * 32))
        with CompileEngine(workers=0, cache=cache,
                           preflight=False) as engine:
            result = engine.run_job(CompileJob(_module(F0, F1), UNROLL))
        assert not result.function_tier
        assert cache.stats.function_hits == 0
        assert result.output == compile_job(_module(F0, F1), UNROLL)["output"]

    def test_a_damaged_entry_falls_back_to_whole_module(self):
        cache = CompilationCache(capacity=64)
        script_digest = op_digest(parse(UNROLL))
        with CompileEngine(workers=0, cache=cache,
                           preflight=False) as engine:
            engine.run_job(CompileJob(_module(F0, F1), UNROLL))
            key = function_key(
                op_digest(parse(_module(F0)).regions[0].entry_block.ops[0]),
                script_digest)
            entry = cache.get_function(key)
            # Decodable, but no longer the text of an entry.
            cache.put_function(key, CachedResult(
                "success", entry.output[:-1], "", entry.output_digest))
            executed = engine.stats.executed
            result = engine.run_job(CompileJob(_module(F1, F0), UNROLL))
            assert engine.stats.executed == executed + 1
        assert not result.function_tier
        assert result.output == compile_job(_module(F1, F0), UNROLL)["output"]

    def test_a_bug_in_the_splice_is_not_swallowed(self, monkeypatch):
        def broken(attributes, texts):
            raise TypeError("injected")

        cache = CompilationCache(capacity=64)
        with CompileEngine(workers=0, cache=cache,
                           preflight=False) as engine:
            engine.run_job(CompileJob(_module(F0, F1), UNROLL))
            monkeypatch.setattr(engine_module, "assemble_functions", broken)
            with pytest.raises(TypeError, match="injected"):
                engine.run_job(CompileJob(_module(F1, F0), UNROLL))
            # The failed leader released its single-flight slot.
            assert not engine._inflight
