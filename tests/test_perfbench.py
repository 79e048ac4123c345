"""The benchmark in ``perfbench/`` reaches the package by name: the
workloads call module attributes and the tracer wraps the functions
listed in ``spans.FUNCTIONS``.  A name the package drops must fail
here, not in a benchmark run."""

import importlib
import re
import sys
from pathlib import Path

from fillhull import cli, comass, volumes

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_finds_every_name_it_uses(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    # leave no bytecode in the benchmark's directory
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    workloads = importlib.import_module("workloads")
    spans = importlib.import_module("spans")
    assert set(workloads.WORKLOADS) == {"calibration", "cone-mass",
                                        "stokes-cap"}
    source = (PERFBENCH / "workloads.py").read_text()
    modules = {"cli": cli, "comass": comass, "volumes": volumes}
    for module, attr in re.findall(r"\b(cli|comass|volumes)\.(\w+)",
                                   source):
        assert hasattr(modules[module], attr), f"{module}.{attr}"
    original = volumes.finsler_mass_table
    # entering resolves every FUNCTIONS entry (AttributeError if one
    # is gone) and wraps it; leaving puts the originals back
    with spans.Tracer():
        assert volumes.finsler_mass_table is not original
    assert volumes.finsler_mass_table is original
