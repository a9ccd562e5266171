"""The IR containers' cost model, pinned without a benchmark: block
mutation is O(1) per op (a scaling ratio, not a time), ``walk`` is the
recursive generator it replaced (kept here as the reference), and one
model job stays under a Python-call ceiling on any host."""

import random
import sys
import time

import repro.core  # noqa: F401 — registers the transform dialect
from repro.ir import Block, Operation, parse, print_op


#: CPU time of this process, not wall time: a busy host deschedules the
#: test without charging it, so the ratios below hold under contention.
_clock = time.process_time


def _best_of(runs, measure):
    return min(measure() for _ in range(runs))


# ---------------------------------------------------------------------------
# Scaling: linear in block size
# ---------------------------------------------------------------------------


def _insert_and_erase_seconds(count):
    """``count`` inserts before one fixed anchor, then as many erases,
    newest first — the rewriter's pattern (create before the matched
    op, erase it); a list pays an ``index`` and a ``remove`` scan on
    every one of them."""
    block = Block()
    for _ in range(count):
        block.append(Operation.create("test.filler"))
    anchor = block.append(Operation.create("test.anchor"))
    fresh = [Operation.create("test.new") for _ in range(count)]
    start = _clock()
    for op in fresh:
        block.insert_before(anchor, op)
    for op in reversed(fresh):
        op.erase()
    return _clock() - start


def test_mutating_a_block_is_linear_in_its_size():
    small = _best_of(5, lambda: _insert_and_erase_seconds(4_000))
    large = _best_of(5, lambda: _insert_and_erase_seconds(16_000))
    # 4 when every mutation is O(1); 16 on the list this replaced.
    assert large / small < 8, (small, large)


def _block_work_per_op(model, monkeypatch):
    """What Table 1's pipeline makes the blocks of ``model`` do, per op
    of the model: the ops :meth:`Block._recompute_op_order` renumbers
    plus the ops a rebuild of the :attr:`Block.ops` memo copies."""
    from repro.mlmodels import build_model
    from repro.passes.manager import PassManager
    from repro.passes.tosa_pipeline import TOSA_TO_LINALG_PIPELINE

    work = []
    recompute, ops = Block._recompute_op_order, Block.ops.fget

    def counting_recompute(block):
        recompute(block)
        work.append(len(block._ops))

    def counting_ops(block):
        rebuilt = block._ops is None
        listed = ops(block)
        if rebuilt:
            work.append(len(listed))
        return listed

    module = build_model(model)
    size = sum(1 for _ in module.walk())
    with monkeypatch.context() as patch:
        patch.setattr(Block, "_recompute_op_order", counting_recompute)
        patch.setattr(Block, "ops", property(counting_ops))
        PassManager(list(TOSA_TO_LINALG_PIPELINE)).run(module)
    return sum(work) / size


def test_the_tosa_pipeline_costs_the_same_per_op_on_a_large_block(
        monkeypatch):
    # Table 1's shape: work follows op count. whisper_decoder's one
    # function body holds ~850 ops, squeezenet's ~130; a block whose
    # every insert or removal costs a pass over its ops makes the large
    # one dearer per op by their ratio. Counted, not timed: both read
    # about 6 ops of block work per model op.
    small = _block_work_per_op("squeezenet", monkeypatch)
    large = _block_work_per_op("whisper_decoder", monkeypatch)
    assert large <= 1.5 * small, (small, large)


# ---------------------------------------------------------------------------
# walk: same order as the recursive generator, mutation included
# ---------------------------------------------------------------------------


def reference_walk(op, reverse=False):
    """``Operation.walk`` as it was: one generator frame per op."""
    yield op
    regions = reversed(op.regions) if reverse else op.regions
    for region in regions:
        blocks = reversed(region.blocks) if reverse else region.blocks
        for block in blocks:
            ops = reversed(block.ops) if reverse else list(block.ops)
            for child in ops:
                yield from reference_walk(child, reverse)


def _walk_corpus():
    from repro.mlmodels import build_model
    from repro.testing.fuzz import PayloadFuzzer, ScheduleFuzzer

    modules = [build_model("squeezenet"), build_model("whisper_decoder")]
    for seed in range(20):
        rng = random.Random(seed)
        modules.append(PayloadFuzzer(rng).module())
        modules.append(ScheduleFuzzer(rng).sequence())
    return modules


def _visit_order(module, walk, reverse, erase_every=0):
    """Pre-walk positions of the ops ``walk`` yields over a clone of
    ``module``, erasing every ``erase_every``-th erasable op as it is
    visited (0: none)."""
    clone = module.clone()
    position = {id(op): index
                for index, op in enumerate(reference_walk(clone))}
    order = []
    for op in walk(clone, reverse):
        order.append(position[id(op)])
        if (erase_every and len(order) % erase_every == 0
                and op.parent is not None
                and not any(r.has_uses() for r in op.results)):
            op.erase()
    return order


def test_walk_matches_the_recursive_generator():
    for module in _walk_corpus():
        for reverse in (False, True):
            order = _visit_order(module, Operation.walk, reverse)
            assert order == _visit_order(module, reference_walk, reverse)
            assert len(order) == len(set(order))
            for erase_every in (1, 3):
                assert _visit_order(
                    module, Operation.walk, reverse, erase_every
                ) == _visit_order(
                    module, reference_walk, reverse, erase_every)


def test_walk_snapshots_a_block_when_it_reaches_it():
    holder = Operation.create("test.holder", regions=2)
    first, second = (region.add_block() for region in holder.regions)
    a = first.append(Operation.create("test.a"))
    b = first.append(Operation.create("test.b"))
    c = second.append(Operation.create("test.c"))
    seen = []
    for op in holder.walk():
        seen.append(op.name)
        if op is holder:
            first.append(Operation.create("test.early"))  # not reached yet
        if op is a:
            first.insert_after(a, Operation.create("test.late"))
            b.erase()  # still visited, detached
            second.insert_before(c, Operation.create("test.ahead"))
    assert seen == ["test.holder", "test.a", "test.b", "test.early",
                    "test.ahead", "test.c"]
    assert b.parent is None


# ---------------------------------------------------------------------------
# A host-independent cost ceiling for one model job
# ---------------------------------------------------------------------------

#: Python-level + C-level calls of one squeezenet ``compile_job`` under
#: the TOSA -> Linalg script, measured 52 474 with one lexeme per
#: operand list and per signature (56 529 with one per type; 135 294
#: with the list-backed block, the recursive ``walk`` — 20 685
#: generator resumptions against 10 409 — and a type spelling rebuilt
#: on every use); the ceiling leaves ~10 % for interpreter versions.
JOB_CALLS_CEILING = 57_800


def test_model_job_call_count_stays_under_its_ceiling():
    """A reintroduced recursive walk or per-use type spelling fails
    here rather than in a benchmark (the technique of
    ``tests/ir/test_lexer.py``'s parse ceiling)."""
    from repro.core import pipeline_to_transform_script
    from repro.mlmodels import build_model
    from repro.passes.tosa_pipeline import TOSA_TO_LINALG_PIPELINE
    from repro.service.worker import compile_job

    payload = print_op(build_model("squeezenet"))
    script = print_op(
        pipeline_to_transform_script(list(TOSA_TO_LINALG_PIPELINE)))
    # Imports, regex compilation and memo fills are not the job's work.
    assert compile_job(payload, script)["status"] == "success"
    calls = [0]

    def hook(frame, event, arg):
        if event == "call" or event == "c_call":
            calls[0] += 1

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        compile_job(payload, script)
    finally:
        sys.setprofile(previous)
    assert calls[0] <= JOB_CALLS_CEILING, calls[0]


def test_shaped_type_spelling_is_memoized_by_value_and_bounded():
    import weakref

    from repro.ir.types import F32, TensorType, VectorType

    # By value: an equal type is the same instance, spelled once.
    held = TensorType((4, 7), F32)
    spelled = str(held)
    assert spelled == "tensor<4x7xf32>"
    assert str(TensorType((4, 7), F32)) is spelled
    assert parse(f'%0 = "t.x"() : () -> {spelled}').results[0].type is held
    # Bounded: the table keeps no type that nothing else holds.
    vector_type = VectorType((4, 7), F32)
    assert str(vector_type) == "vector<4x7xf32>"
    dropped = weakref.ref(vector_type)
    del vector_type
    assert dropped() is None


def _cyclic_garbage_of_one_job(model):
    """Objects the cyclic collector finds after one ``compile_job`` of
    ``model`` under the TOSA -> Linalg script, with the collector off."""
    import gc

    from repro.core import pipeline_to_transform_script
    from repro.mlmodels import build_model
    from repro.passes.tosa_pipeline import TOSA_TO_LINALG_PIPELINE
    from repro.service.worker import compile_job

    payload = print_op(build_model(model))
    script = print_op(
        pipeline_to_transform_script(list(TOSA_TO_LINALG_PIPELINE)))
    assert compile_job(payload, script)["status"] == "success"
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        compile_job(payload, script)
        return gc.collect()
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()


def test_a_model_job_leaves_nothing_for_the_cyclic_collector():
    # Reference counting frees a job's IR: erased ops let go of their
    # results and types are uniqued (3 053 / 21 266 objects before).
    assert _cyclic_garbage_of_one_job("squeezenet") == 0
    assert _cyclic_garbage_of_one_job("whisper_decoder") == 0
