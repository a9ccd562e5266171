"""Function text is relocatable (DESIGN.md §9): the whole-module print
is the join of the function-tier entries as they were printed, an entry
moves to another position by the difference of its recorded bases, the
module digest composes from the function digests, and the tier
therefore parses a partial hit once, renumbers only what moved and
re-hashes nothing — pinned by a hand table, a property over the fuzz
corpus, parse and ``shift_names`` counts and a call ceiling."""

import itertools
import random
import sys

import pytest

import repro.core  # noqa: F401 — registers transform ops
import repro.dialects  # noqa: F401 — registers payload ops
import repro.ir.parser as parser_module
import repro.ir.printer as printer_module
import repro.service.engine as engine_module
import repro.service.sharding as sharding_module
from repro.ir.hashing import attributes_digest, module_digest, op_digest
from repro.ir.parser import parse
from repro.ir.printer import module_body, module_text, print_op, shift_names
from repro.service import CompilationCache, CompileEngine, CompileJob
from repro.service.cache import CachedResult, function_key
from repro.service.sharding import (
    assemble_functions,
    function_entries,
    function_text,
    function_text_digests,
    shardable_functions,
)
from repro.service.worker import compile_job
from repro.testing.fuzz import PayloadFuzzer, relocation_violations

from .test_engine import UNROLL
from .test_sharding import MODULE_ANNOTATE, _func, _module

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
        texts = [text for text, _, _ in entries]
        names = [placed for _, _, placed in entries]
        assert names == [(0, 5, 0, 1), (5, 6, 1, 3)]
        # Joined as printed; assembled by the recorded names (no
        # shift: they sit where they were printed); swapped.
        assert module_text("\n".join(module_body(t, {}) for t in texts),
                           module.attributes) == print_op(module)
        assert assemble_functions(module.attributes, texts, names=names)[0] \
            == print_op(module)
        assert assemble_functions({}, texts[::-1], names=names[::-1]) \
            == (print_op(parse(_module(_branchy("b"), _func("a")))), (11, 4))
        assert module_digest(module.attributes,
                             [op_digest(f) for f in functions]) \
            == op_digest(module)
        assert shift_names(texts[1], 0, 0) == (texts[1], 11, 4)
        assert shift_names(texts[1], -5, -1)[0] == function_text(functions[1])

    def test_every_entry_lands_on_every_base(self):
        # Whatever position an entry was printed at, it serves whichever
        # position its function takes: entries are per function — one
        # digest, one text up to the recorded shift — not per
        # (function, module).
        by_name = {}
        for order in itertools.permutations(THREE):
            for function, entry in zip(
                    order, function_entries(parse(_module(*order)))):
                by_name.setdefault(function, []).append(entry)
        assert len(by_name) == 3
        for prints in by_name.values():
            assert len({digest for _, digest, _ in prints}) == 1
            assert len({names for _, _, names in prints}) >= 3
        for order in itertools.permutations(THREE):
            expected = print_op(parse(_module(*order)))
            for picks in itertools.product(range(6), repeat=3):
                chosen = [by_name[function][pick]
                          for function, pick in zip(order, picks)]
                assert assemble_functions(
                    {}, [text for text, _, _ in chosen],
                    names=[names for _, _, names in chosen])[0] == expected

    def test_normalized_texts_assemble_without_names(self):
        # The --jobs form, which perfbench's replay also calls: every
        # text numbered from %0/^bb0, counts read off the text.
        module = parse(_module(*THREE))
        texts = [function_text(function)
                 for function in module.regions[0].entry_block.ops]
        assert all(print_op(parse(text)) == text for text in texts)
        assert assemble_functions({}, texts) == (print_op(module), (16, 5))

    def test_strings_are_never_shifted(self):
        shifted, values, blocks = shift_names(
            '%0 = "t.op"(%1)[^bb0] {a = "%0 ^bb0 \\" %1", b = "%7\n^bb7"}',
            10, 5)
        assert shifted == \
            '%10 = "t.op"(%11)[^bb5] {a = "%0 ^bb0 \\" %1", b = "%7\n^bb7"}'
        assert (values, blocks) == (2, 1)

    def test_a_shift_below_zero_is_a_value_error(self):
        assert shift_names("%4 ^bb2", -4, -2)[0] == "%0 ^bb0"
        with pytest.raises(ValueError):
            shift_names("%4 ^bb2", -5, 0)
        with pytest.raises(ValueError):
            shift_names("%4 ^bb2", 0, -3)
        # A literal is never a name, whatever it spells.
        assert shift_names('"-1" %1', -1, 0)[0] == '"-1" %0'

    @pytest.mark.parametrize("damage", [
        lambda text: text[1:],                         # no header
        lambda text: text + "\n",                      # trailing bytes
        lambda text: text[:-len(" : () -> ()")] + ' {a = 1 : i64} : () -> ()',
        lambda text: text.split("\n")[0] + "\n" + text.split("\n")[-1],
        lambda text: "",
    ], ids=["header", "trailing", "attributes", "empty-body", "empty"])
    def test_text_that_is_not_an_entry_is_a_value_error(self, damage):
        entries = function_entries(parse(_module(*THREE)))
        texts = [text for text, _, _ in entries]
        texts[1] = damage(texts[1])
        with pytest.raises(ValueError):
            assemble_functions({}, texts,
                               names=[names for _, _, names in entries])
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

    def _a_partial_hit(self, monkeypatch, memoized):
        partial = _module(F0, NEW, F2, F3)
        cache = CompilationCache(capacity=64)
        with CompileEngine(workers=0, cache=cache,
                           preflight=False) as engine:
            engine.run_job(CompileJob(_module(F0, F1, F2, F3), UNROLL))
            if memoized:
                # Another schedule's job leaves the text in the memo
                # (and nothing of it in the function tier).
                engine.run_job(CompileJob(partial, MODULE_ANNOTATE))
            sources = _counting_parse(monkeypatch)
            lookups = (cache.stats.function_hits,
                       cache.stats.function_misses)
            executed = engine.stats.executed
            result = engine.run_job(CompileJob(partial, UNROLL))
            assert (cache.stats.function_hits - lookups[0],
                    cache.stats.function_misses - lookups[1]) == (3, 1)
            assert engine.stats.executed == executed + 1
        assert result.function_tier and not result.cache_hit
        sources = list(sources)  # the reference below parses too
        reference = compile_job(partial, UNROLL)
        assert result.output == reference["output"]
        assert result.output_digest == reference["output_digest"]
        return sources

    def test_a_partial_hit_parses_only_the_input_shard(self, monkeypatch):
        # The module once, by the memo miss — the shards are cut off
        # that very module — and the shard once, by the execution (the
        # worker's role; the sub-job's facts are composed): inputs
        # only — no ``<function N>``, no ``<output>``.
        assert self._a_partial_hit(monkeypatch, memoized=False) \
            == ["<payload>"] * 2

    def test_a_partial_hit_on_a_memoized_text_parses_where_it_cuts(
            self, monkeypatch):
        # No module in hand: one parse right where the shard is cut,
        # still one for the module.
        assert self._a_partial_hit(monkeypatch, memoized=True) \
            == ["<payload>"] * 2

    def test_a_pooled_partial_hit_parses_once_in_the_daemon(
            self, monkeypatch):
        cache = CompilationCache(capacity=64)
        with CompileEngine(workers=1, cache=cache,
                           preflight=False) as engine:
            engine.run_job(CompileJob(_module(F0, F1, F2, F3), UNROLL))
            sources = _counting_parse(monkeypatch)
            result = engine.run_job(
                CompileJob(_module(F0, NEW, F2, F3), UNROLL))
        assert result.function_tier and not result.cache_hit
        assert sources == ["<payload>"]
        assert result.output \
            == compile_job(_module(F0, NEW, F2, F3), UNROLL)["output"]

    @pytest.mark.parametrize("text", HAND_TABLE.values(),
                             ids=HAND_TABLE.keys())
    def test_composed_shard_facts_equal_the_derived_ones(self, text):
        # What _assemble puts in the input memo for a ``/fnN`` sub-job
        # is what the input step would have derived by parsing it.
        cache = CompilationCache(capacity=8)
        with CompileEngine(workers=0, cache=cache) as engine:
            for function in shardable_functions(parse(text)):
                shard = function_text(function)
                derived = engine._derive_payload(shard, [])
                digest = op_digest(function)
                assert derived == engine_module._PayloadInfo(
                    *function_text_digests(digest), {}, (digest,))
                assert function_text_digests(digest) == (
                    op_digest(parse(shard)), attributes_digest(parse(shard)))


def _counting_shifts(monkeypatch):
    """Every ``shift_names`` call's deltas: the splice's own (normalized
    texts) and ``move_names``' (entries that moved)."""
    calls = []
    real = printer_module.shift_names

    def shift_and_count(text, value_delta, block_delta):
        calls.append((value_delta, block_delta))
        return real(text, value_delta, block_delta)

    monkeypatch.setattr(printer_module, "shift_names", shift_and_count)
    monkeypatch.setattr(sharding_module, "shift_names", shift_and_count)
    return calls


class TestNothingIsRenumberedThatDidNotMove:
    def test_an_execution_shifts_nothing(self, monkeypatch):
        payload = _module(F0, F1, F2, F3)
        shifts = _counting_shifts(monkeypatch)
        raw = compile_job(payload, UNROLL, function_tier=True)
        assert len(raw["functions"]) == 4 and shifts == []
        assert raw["output"] == compile_job(payload, UNROLL)["output"]

    @pytest.mark.parametrize("position", range(4))
    def test_a_partial_assemble_shifts_at_most_the_new_function(
            self, monkeypatch, position):
        # serve_mixed's partial job: a hot module with one function
        # swapped for a new one of the same shape.
        functions = [F0, F1, F2, F3]
        cache = CompilationCache(capacity=64)
        with CompileEngine(workers=0, cache=cache,
                           preflight=False) as engine:
            engine.run_job(CompileJob(_module(*functions), UNROLL))
            functions[position] = NEW
            shifts = _counting_shifts(monkeypatch)
            result = engine.run_job(CompileJob(_module(*functions), UNROLL))
        assert result.function_tier and not result.cache_hit
        # The sub-job printed NEW from %0: it moves unless it is first.
        assert len(shifts) == (1 if position else 0)
        assert result.output \
            == compile_job(_module(*functions), UNROLL)["output"]

    def test_a_function_tier_off_engine_derives_no_function_facts(self):
        # No cache, no tier keys: the gate and the per-function digests
        # would be work for nothing (schedule_finegrained's engine).
        with CompileEngine(workers=0, preflight=False) as engine:
            info = engine._derive_payload(_module(F0, F1), [])
        assert info.func_digests is None and info.module_attrs is None
        with CompileEngine(workers=0, preflight=False,
                           cache=CompilationCache(capacity=8)) as engine:
            info = engine._derive_payload(_module(F0, F1), [])
        assert len(info.func_digests) == 2


#: Python-level calls (``call`` + ``c_call`` profile events) of one
#: ``assemble_functions`` over the four functions of an unrolled
#: 4-function module. Normalized texts (the ``--jobs`` form: every text
#: is shifted): 203 measured here; the ceiling was set ≈ 10 % above the
#: 1 546 of perfbench's larger unroll module, and one ``parse`` of this
#: output alone makes 4 317 (the parse-based body this replaced made
#: 99 047 on that module). Entries under their recorded names, in the
#: order they were printed (what every worker execution does): 229
#: measured — nothing is renumbered.
ASSEMBLE_CALLS_CEILING = 1_700
ASSEMBLE_NAMED_CALLS_CEILING = 260


def _calls_of(function):
    calls = [0]

    def hook(frame, event, arg):
        if event == "call" or event == "c_call":
            calls[0] += 1

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        result = function()
    finally:
        sys.setprofile(previous)
    return result, calls[0]


def test_assemble_call_count_ceiling():
    """A work count no host can move: a regression to re-parsing (an
    order of magnitude more calls) fails here without a timer."""
    raw = compile_job(_module(F0, F1, F2, F3), UNROLL, function_tier=True)
    entries = raw["functions"]
    assert len(entries) == 4
    texts = [function_text(function) for function
             in parse(raw["output"]).regions[0].entry_block.ops]
    assemble_functions({}, texts)  # imports, regex compilation
    (output, _), calls = _calls_of(lambda: assemble_functions({}, texts))
    assert output == raw["output"]
    assert calls <= ASSEMBLE_CALLS_CEILING, calls
    (output, _), calls = _calls_of(lambda: assemble_functions(
        {}, [text for text, _, _ in entries],
        names=[names for _, _, names in entries]))
    assert output == raw["output"]
    assert calls <= ASSEMBLE_NAMED_CALLS_CEILING, calls


def _old_key(domain, func_digest, script_digest, params=None):
    """``function_key`` as an earlier key version computed it."""
    import hashlib

    from repro.service.cache import _frame, _params_blob

    hasher = hashlib.sha256(domain)
    _frame(hasher, func_digest.encode())
    _frame(hasher, script_digest.encode())
    _frame(hasher, _params_blob(params))
    return hasher.hexdigest()


def _tier_key(source, script_digest):
    (function,) = parse(_module(source)).regions[0].entry_block.ops
    return function_key(op_digest(function), script_digest)


class TestStaleAndDamagedEntries:
    def test_an_entry_under_the_v1_key_is_never_returned(self):
        # Before this key version an entry carried the digest of its
        # wrapper *module*; spliced in, it would report a wrong
        # ``output_digest``. The key domain moved so it cannot be read.
        def v1_key(func_digest, script_digest, params=None):
            return _old_key(b"repro-fn-key-v1", func_digest, script_digest,
                            params)

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
            key = _tier_key(F0, script_digest)
            entry = cache.get_function(key)
            # Decodable, but no longer the text of an entry.
            cache.put_function(key, CachedResult(
                "success", entry.output[:-1], "", entry.output_digest,
                entry.names))
            executed = engine.stats.executed
            result = engine.run_job(CompileJob(_module(F1, F0), UNROLL))
            assert engine.stats.executed == executed + 1
        assert not result.function_tier
        assert result.output == compile_job(_module(F1, F0), UNROLL)["output"]

    def test_an_entry_under_the_v2_key_is_never_returned(self):
        # A v2 entry is numbered from %0 and records no names: spliced
        # as it is, it would repeat %0.. in every function.
        payload = parse(_module(F0, F1))
        script_digest = op_digest(parse(UNROLL))
        cache = CompilationCache(capacity=64)
        for function in payload.regions[0].entry_block.ops:
            digest = op_digest(function)
            v2_key = _old_key(b"repro-fn-key-v2", digest, script_digest)
            assert v2_key != function_key(digest, script_digest)
            cache.put_function(v2_key, CachedResult(
                "success", function_text(function), "", digest))
        with CompileEngine(workers=0, cache=cache,
                           preflight=False) as engine:
            result = engine.run_job(CompileJob(_module(F0, F1), UNROLL))
        assert not result.function_tier
        assert cache.stats.function_hits == 0
        assert result.output == compile_job(_module(F0, F1), UNROLL)["output"]

    @pytest.mark.parametrize("names", [
        None, [0, 5, 0, 1], (0, 5, 0), (0, 5, 0, 1, 0), (0, -5, 0, 1),
        (0, 5.0, 0, 1), (0, "5", 0, 1), (True, 5, 0, 1),
    ], ids=repr)
    def test_an_entry_without_its_names_is_a_miss_and_heals(self, names):
        # Hand-made, v2-shaped or damaged but decodable: never spliced;
        # the function is compiled again and its entry replaced.
        cache = CompilationCache(capacity=64)
        script_digest = op_digest(parse(UNROLL))
        with CompileEngine(workers=0, cache=cache,
                           preflight=False) as engine:
            engine.run_job(CompileJob(_module(F0, F1), UNROLL))
            key = _tier_key(F1, script_digest)
            good = cache.get_function(key)
            cache.put_function(key, CachedResult(
                "success", good.output, "", good.output_digest, names))
            executed = engine.stats.executed
            result = engine.run_job(CompileJob(_module(F1, F0), UNROLL))
            assert engine.stats.executed == executed + 1
            assert result.output \
                == compile_job(_module(F1, F0), UNROLL)["output"]
            healed = cache.get_function(key)
            assert healed.splices
            again = engine.run_job(CompileJob(_module(F1, F0, F1), UNROLL))
            assert again.function_tier and again.cache_hit
        assert again.output \
            == compile_job(_module(F1, F0, F1), UNROLL)["output"]

    @pytest.mark.parametrize("order", [(F0, F1, F2), (F1, F0, F2),
                                       (F2, F1, F0), (F1, F2, F0)],
                             ids=["012", "102", "210", "120"])
    @pytest.mark.parametrize("wrong", [
        lambda v, n, b, m: (0, n, 0, m),          # "printed first"
        lambda v, n, b, m: (v + n, n, b + m, m),  # "printed one later"
        lambda v, n, b, m: (v + 1, n, b, m),
        lambda v, n, b, m: (v, n, b + 1, m),
        lambda v, n, b, m: (max(v - 1, 0), n, max(b - 1, 0), m),
    ], ids=["zero", "next", "value+1", "block+1", "minus-1"])
    def test_wrong_recorded_bases_never_reach_the_output(self, order, wrong):
        # An entry whose recorded bases are not where its text is
        # numbered assembles to the right bytes or not at all: the
        # splice checks the first names against the record, whichever
        # position the entry is asked to take.
        cache = CompilationCache(capacity=64)
        script_digest = op_digest(parse(UNROLL))
        with CompileEngine(workers=0, cache=cache,
                           preflight=False) as engine:
            engine.run_job(CompileJob(_module(F0, F1, F2), UNROLL))
            key = _tier_key(F1, script_digest)
            good = cache.get_function(key)
            bad = wrong(*good.names)
            cache.put_function(key, CachedResult(
                "success", good.output, "", good.output_digest, bad))
            result = engine.run_job(CompileJob(_module(*order), UNROLL))
        assert result.function_tier == (bad == good.names)
        assert result.output == compile_job(_module(*order), UNROLL)["output"]

    def test_a_bug_in_the_splice_is_not_swallowed(self, monkeypatch):
        def broken(attributes, texts, names):
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
