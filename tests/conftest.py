"""Shared fixtures and helpers for the test suite."""

import pytest

# Importing the dialects registers every operation; tests rely on that.
import repro.dialects  # noqa: F401
import repro.passes  # noqa: F401
import repro.core  # noqa: F401
from repro.ir.core import JOURNAL


@pytest.fixture(autouse=True)
def no_open_undo_log():
    """Fail a test that leaves an IR undo log (an unfinished
    ``PayloadTransaction``) open on its thread; close it for the next."""
    yield
    log, JOURNAL.log = JOURNAL.log, None
    assert log is None, "the test left a transaction's undo log open"


@pytest.fixture
def matmul_module():
    """A fresh 8x8x8 matmul module (small enough to interpret fast)."""
    from repro.execution.workloads import build_matmul_module

    return build_matmul_module(8, 8, 8)


@pytest.fixture
def resnet_module():
    from repro.execution.workloads import build_resnet_layer_module

    return build_resnet_layer_module()


@pytest.fixture(scope="session")
def fuzz_seed0_report():
    """One 40-case fuzz run from seed 0 (both legs), shared by the
    tests that only read its report."""
    from repro.testing.fuzz import run_fuzz

    return run_fuzz(seed=0, cases=40)
