"""The builder reads shipped library macros off the library text: an
``include`` of one is stepped through the macro's inlined body, as
the lint reads it — not through a hand copy of what it consumes."""

import pytest

from repro.core import schedules
from repro.frontend import Schedule, ScheduleError
from repro.frontend.schedule import _library_macros

EXTRA_MACRO = '''
  "transform.named_sequence"() ({
  ^bb0(%keep: !transform.any_op, %loop: !transform.any_op):
    "transform.loop.unroll"(%loop) {full = unit} : (!transform.any_op) -> ()
    "transform.yield"(%keep, %keep) : (!transform.any_op, !transform.any_op) -> ()
  }) {sym_name = "unroll_second"} : () -> ()
}) : () -> ()
'''


def test_derived_contracts_equal_the_former_literals():
    # Each macro's (consumed arguments, result count), as the builder
    # once held them in a table: an include must kill exactly those
    # arguments and have that many results.
    literals = {
        "tile_and_unroll_remainder": ((0,), 1),
        "offload_to_microkernel": ((0,), 0),
        "lower_to_llvm": ((), 1),
    }
    macros = _library_macros(schedules.SCHEDULE_LIBRARY_IR)
    assert sorted(macros) == sorted(literals)
    for name, (consumes, n_results) in literals.items():
        schedule = Schedule().use_library()
        args = [schedule.match(f"test.op{i}")._cursor
                for i in range(len(macros[name].body.args))]
        schedule.include(name, args=args)
        include = schedule._sequence_op.body.ops[-1]
        assert include.name == "transform.include"
        assert len(include.results) == n_results, name
        assert tuple(i for i, arg in enumerate(args)
                     if not arg.live) == consumes, name


def test_a_macro_added_to_the_library_text_is_includable(monkeypatch):
    text = schedules.SCHEDULE_LIBRARY_IR
    monkeypatch.setattr(
        schedules, "SCHEDULE_LIBRARY_IR",
        text[:text.rindex("}) : () -> ()")] + EXTRA_MACRO)
    schedule = Schedule().use_library()
    schedule.match("func.func", name="fn")
    schedule.match("scf.for", position="first", name="loop")
    schedule.include("unroll_second", args=["fn", "loop"], name="kept")
    # Argument 1 is consumed by the macro body, argument 0 is not, and
    # the two yields became two results.
    with pytest.raises(ScheduleError, match="use-after-consume"):
        schedule.use("loop")
    schedule.use("fn").use("kept")
    include = next(op for op in schedule.script.walk()
                   if op.name == "transform.include")
    assert len(include.results) == 2
    assert not schedule.lint().has_errors()
