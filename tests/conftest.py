"""Collects the one-line acceptance reports and echoes them in the
terminal summary, so they are visible without disabling capture;
provides the subprocess environments of the BLAS thread-count tests."""

import os
from pathlib import Path

import pytest

import fillhull

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance report")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


@pytest.fixture
def blas_thread_envs():
    """Two environments for a subprocess that imports this fillhull:
    one OpenBLAS thread, and the thread variables unset."""
    src = str(Path(fillhull.__file__).parents[1])
    base = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "GOTO_NUM_THREADS"):
        base.pop(var, None)
    base["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, base.get("PYTHONPATH")) if p)
    return dict(base, OPENBLAS_NUM_THREADS="1"), base
