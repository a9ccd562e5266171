"""The builder's contracts for shipped library macros are read off the
library text — the invalidation analysis run over each macro of the
inlined library — not a hand copy."""

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
    derived = {
        name: (info.consumes, info.n_results)
        for name, info in _library_macros(
            schedules.SCHEDULE_LIBRARY_IR).items()
    }
    assert derived == {
        "tile_and_unroll_remainder": ((0,), 1),
        "offload_to_microkernel": ((0,), 0),
        "lower_to_llvm": ((), 1),
    }


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
