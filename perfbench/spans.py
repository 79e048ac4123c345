"""Spans around the public functions of each fillhull module.

The wrappers are installed from outside the package: every module
namespace that holds a traced function (``coeffs.p_grid`` is also
``comass.p_grid`` and ``volumes.p_grid``) gets the wrapper, so calls
between modules are caught as well as calls from the benchmark.  Spans
are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

from fillhull.volumes import JACOBIAN_DEFINITIONS

MODULES = ("cli", "quadrature", "hull", "coeffs", "pathspace", "comass",
           "volumes")

# (module, attribute) of each traced function; a dotted attribute is a
# method of a class in that module
FUNCTIONS = (
    ("cli", "parse_hull_spec"),
    ("quadrature", "integrate_triangle"),
    ("hull", "dist_to_hemisphere"),
    ("hull", "random_hull_point"),
    ("hull", "sphere_point"),
    ("hull", "HullFn.value_at"),
    ("coeffs", "p_grid"),
    ("pathspace", "nu_tables"),
    ("comass", "comass_ir"),
    ("comass", "maximize_eta"),
    ("comass", "psi"),
    ("comass", "calibration_sweep"),
    ("volumes", "john_ellipse"),
    ("volumes", "jacobian"),
    ("volumes", "metric_derivative"),
    ("volumes", "finsler_mass_table"),
    ("volumes", "cone_chart"),
    ("volumes", "cap_chart"),
    ("volumes", "perturbed_cap_chart"),
    ("volumes", "omega_surface_integral"),
)


def span_names() -> list[str]:
    """Every span name a traced run can report, in a fixed order."""
    names = []
    for module, attr in FUNCTIONS:
        if (module, attr) == ("volumes", "jacobian"):
            names += [f"volumes.jacobian.{d}" for d in JACOBIAN_DEFINITIONS]
        else:
            names.append(f"{module}.{attr}")
    return names


class Tracer:
    """Records ``(name, start, end, parent)`` spans and solver counts.

    ``parent`` is the index of the enclosing span, or -1.  Use as a
    context manager: the wrappers are installed on entry and the
    original functions restored on exit.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.iterations = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        if name == "volumes.jacobian":
            def name_of(args, kwargs):
                return f"{name}.{kwargs.get('definition', args[1])}"
        else:
            def name_of(args, kwargs):
                return name
        counts_iterations = name == "comass.maximize_eta"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append((name_of(args, kwargs), 0.0, 0.0, parent))
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (self.spans[index][0], start, end, parent)
            if counts_iterations:
                self.iterations += int(result[2]["iterations"])
            return result

        return traced

    def __enter__(self) -> "Tracer":
        modules = [importlib.import_module("fillhull")] + [
            importlib.import_module(f"fillhull.{m}") for m in MODULES]
        for module_name, attr in FUNCTIONS:
            home = importlib.import_module(f"fillhull.{module_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                self._set(cls, meth, original,
                          self._wrap(f"{module_name}.{attr}", original))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(f"{module_name}.{attr}", original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, original, wrapper)
        return self

    def _set(self, owner, key: str, original, wrapper) -> None:
        self._restore.append((owner, key, original))
        setattr(owner, key, wrapper)

    def __exit__(self, *exc) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Calls, total time and self time per span name; self time is
        the span's duration minus the time its child spans cover."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
               for name in span_names()}
        for i, (name, start, end, _) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[i]
        return out

    def write(self, path) -> None:
        names = span_names()
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": names,
                       "fields": ["name", "start_s", "end_s", "parent"],
                       "spans": [[index[n], round(s, 7), round(e, 7), p]
                                 for n, s, e, p in self.spans]}, fh)
