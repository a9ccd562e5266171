"""Testing utilities: randomized fuzzing and deterministic fault injection.

:mod:`repro.testing.fuzz` hardens the transform interpreter the way
MLIR-Smith hardens MLIR: seeded random payload modules and
random-but-type-correct transform scripts are executed under the
interpreter's exception barrier, and structural invariants (no uncaught
exceptions, transactional rollback restores the payload byte-for-byte,
deterministic failure classification) are asserted for every case.

:mod:`repro.testing.faults` does the same for the compile service's
*infrastructure*: a seeded :class:`FaultPlan` injects worker crashes,
hangs, pool breakage, disk-cache errors and queue stalls at explicit
sites, and the chaos driver asserts every job still reaches a terminal
status with fault-free-identical recovered outputs.

Submodules are loaded lazily (PEP 562) so ``python -m
repro.testing.fuzz`` / ``python -m repro.testing.faults`` do not import
them twice — and so importing :class:`FaultPlan` from service modules
stays dependency-free (``faults`` is stdlib-only at module level).
"""

_FUZZ = frozenset({
    "FuzzReport",
    "PayloadFuzzer",
    "ScheduleFuzzer",
    "run_case",
    "run_fuzz",
})
_FAULTS = frozenset({
    "CHAOS_RATES",
    "ChaosReport",
    "FaultPlan",
    "FaultSite",
    "FuzzFailure",
    "run_chaos",
    "run_chaos_case",
})

__all__ = sorted(_FUZZ | _FAULTS)


def __getattr__(name):
    if name in _FUZZ:
        from . import fuzz

        return getattr(fuzz, name)
    if name in _FAULTS:
        from . import faults

        return getattr(faults, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
