"""Fast self-test of the benchmark harness at tiny sizes.

    python3 perfbench/selftest.py

Shows that each workload passes its checks at tiny sizes with the
tolerances widened to suit them, that every check fails when its
closed-form target or bound is perturbed (the operation counts as
failed and the run as incorrect), that an operation which raises or
exits non-zero counts as failed, that a known extra cost in ``p_grid``
lowers ops_per_s at reference speed by its share of wall time, and
that a traced run reports every metric BENCHMARK.json names.  Takes
about a minute; exits 0 when all of that holds.
"""

import json
import math
import statistics
import sys
import time
from contextlib import ExitStack, contextmanager
from pathlib import Path
from unittest import mock

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

run.import_package()
import workloads as wl  # noqa: E402
from fillhull import hull, volumes  # noqa: E402
from fillhull.quadrature import Grid  # noqa: E402
from spans import Tracer  # noqa: E402
from speed import INTERVAL, SpeedProbe  # noqa: E402

# tolerances wide enough for the tiny sizes below
WIDE = {"COMASS_TOL": 0.1, "STATIONARITY_MAX": 10.0, "CONE_TOL": 1.0,
        "CAP_TOL": 0.5, "EXACTNESS_TOL": 0.5}


def tiny(name: str):
    if name == "calibration":
        return wl.Calibration(0, grid_n=64, eval_n=128, comass_per_round=2,
                              t_list="0.02,0.04")
    if name == "cone-mass":
        return wl.ConeMass(0, param_n=5, grid_n=128, warm_param_n=3)
    return wl.StokesCap(0, n_d=5, n_tau=8, grid_n=64, warm_n_d=3,
                        warm_n_tau=4)


@contextmanager
def widened(**patches):
    """Widened tolerances and the given patches of module constants."""
    with ExitStack() as stack:
        for key, value in {**WIDE, **patches}.items():
            stack.enter_context(mock.patch.object(wl, key, value))
        yield


def one_round(name: str, **patches) -> wl.Tally:
    """One round of a tiny workload under ``widened(**patches)``."""
    tally = wl.Tally()
    with widened(**patches):
        tiny(name).round(tally, 0)
    return tally


FAILURES: list[str] = []

# a known extra cost in p_grid must lower ops_per_s by the share of the
# operation's wall time it takes, within INJECTED_TOL of that share
INJECTED_REPEATS = 12
INJECTED_TOL = 0.25
SPIN_STEPS = 60_000
# 32 MB, more than the host's caches, so each pass evicts them
SWEEP_BUFFER = np.ones(4 << 20)


def spin() -> None:
    total = 0.0
    for i in range(SPIN_STEPS):
        total += i * 0.5


def sweep() -> None:
    np.add(SWEEP_BUFFER, 1.0, out=SWEEP_BUFFER)


EXTRA_COSTS = {"spin loop": spin, "32 MB pass": sweep}


def injected_costs() -> dict[str, tuple[float, float, float]]:
    """For each of ``EXTRA_COSTS``, run after every ``p_grid`` call: the
    share of a slowed operation's wall time spent in it, and the fall of
    ``ops_per_s`` that the slowed operations show at reference speed
    and in wall time.

    Plain and slowed operations take turns, each about a second of
    surface integral over a 9 x 16 cap chart, so a drift of the
    machine's speed affects all of them alike."""
    grid = Grid(256)
    p_grid = volumes.p_grid

    def integral() -> None:
        volumes.omega_surface_integral(
            volumes.cap_chart(wl.CAP_R, 9, 16, grid))

    def slowed(extra, spent: list[float]):
        def slowed_p_grid(*args, **kwargs):
            table = p_grid(*args, **kwargs)
            start = time.perf_counter()
            extra()
            spent[-1] += time.perf_counter() - start
            return table

        def operation() -> None:
            spent.append(0.0)
            with mock.patch.object(volumes, "p_grid", slowed_p_grid):
                integral()
        return operation

    spent = {label: [] for label in EXTRA_COSTS}
    operations = {"plain": integral} | {
        label: slowed(extra, spent[label])
        for label, extra in EXTRA_COSTS.items()}
    tallies = {label: wl.Tally() for label in operations}
    integral()
    with SpeedProbe() as probe:
        for _ in range(INJECTED_REPEATS):
            for label, operation in operations.items():
                tallies[label].run(label, label, operation)
    ref_plain, wall_plain = run.throughput(tallies["plain"],
                                           INJECTED_REPEATS, probe)
    result = {}
    for label in EXTRA_COSTS:
        share = statistics.median(
            x / (e - s) for x, (s, e)
            in zip(spent[label], tallies[label].intervals[label]))
        ref, wall = run.throughput(tallies[label], INJECTED_REPEATS, probe)
        result[label] = (share, 1 - ref / ref_plain, 1 - wall / wall_plain)
    return result


def check(ok: bool, what: str) -> None:
    print(f"[{'ok' if ok else 'FAIL'}] {what}")
    if not ok:
        FAILURES.append(what)


def main() -> int:
    for name in wl.WORKLOADS:
        t = one_round(name)
        check(t.attempted > 0 and t.failed == 0 and t.wrong == 0,
              f"{name}: {t.attempted} tiny operations pass")

    # each perturbed target fails the operations that check it; counts
    # are per round: calibration = 2 comass + 1 sweep, stokes-cap =
    # 1 round cap + PERTURBED_PER_ROUND perturbed caps, cone-mass =
    # 1 table
    cases = [
        ("calibration", "COMASS_TARGET", {"COMASS_TARGET": math.pi + 1}, 2),
        ("calibration", "ETA_CAP", {"ETA_CAP": 1e-9}, 1),
        ("calibration", "STATIONARITY_MAX", {"STATIONARITY_MAX": 0.0}, 1),
        ("stokes-cap", "CAP_TARGET", {"CAP_TARGET": 2 * wl.CAP_TARGET}, 1),
        ("stokes-cap", "EXACTNESS_TOL", {"EXACTNESS_TOL": 0.0},
         wl.PERTURBED_PER_ROUND),
    ]
    for definition, want in wl.CONE_TARGETS.items():
        targets = {**wl.CONE_TARGETS, definition: want / 100}
        cases.append(("cone-mass", f"CONE_TARGETS[{definition}]",
                      {"CONE_TARGETS": targets}, 1))
    for name, label, patches, expected in cases:
        t = one_round(name, **patches)
        check(t.failed == expected and t.wrong == expected,
              f"{name}: perturbed {label} fails {t.failed} of "
              f"{t.attempted} (want {expected})")

    # an operation that raises, or a command that exits non-zero, is a
    # failure but not a wrong answer
    t = wl.Tally()
    t.run("raises", "raises", lambda: 1 / 0)
    t.run("exit 2", "exit 2",
          lambda: wl.run_cli(["comass", "sphere:0.0,2.0"]))
    check(t.attempted == 2 and t.failed == 2 and t.wrong == 0,
          "raising and non-zero exit count as failed, not wrong")

    # a slowdown of fillhull reaches ops_per_s at its true size, also
    # when it evicts the caches before a kernel sample
    for label, (share, fall, wall_fall) in injected_costs().items():
        check(abs(fall - share) <= INJECTED_TOL * share,
              f"a {label} in p_grid takes {share:.1%} of the slowed "
              f"operation; ops_per_s falls {fall:.1%} (wall {wall_fall:.1%})")

    # the traced run reports exactly the per-layer metrics that
    # BENCHMARK.json names, and the tracer restores the package
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    want_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    want_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    originals = (volumes.p_grid, hull.HullFn.__dict__["value_at"])
    reached = {}
    for name in wl.WORKLOADS:
        tally = wl.Tally()
        with widened(), SpeedProbe() as probe, Tracer() as tracer:
            rounds = run.measure(tiny(name), tally, 2 * INTERVAL)
            sampled = len(probe.samples)
        got = run.layer_metrics(tracer, tally, rounds, probe)
        check(sampled >= 1 and got["trace.ops_per_s"]["value"] > 0,
              f"{name}: speed probe sampled {sampled} times while the "
              f"work ran")
        check({k: v["unit"] for k, v in got.items()} == want_layer,
              f"{name}: traced metrics match BENCHMARK.json per_layer")
        reached[name] = {k[:-len(".calls")] for k, v in got.items()
                         if k.endswith(".calls") and v["value"] > 0}
    got = run.end_to_end_metrics(1.0, 1.0)
    check({k: v["unit"] for k, v in got.items()} == want_e2e,
          "end-to-end metrics match BENCHMARK.json")
    check((volumes.p_grid, hull.HullFn.__dict__["value_at"]) == originals,
          "tracer restores the original functions")
    expect_reached = {
        "calibration": {"comass.comass_ir", "comass.calibration_sweep",
                        "comass.psi", "hull.HullFn.value_at",
                        "hull.dist_to_hemisphere", "coeffs.p_grid",
                        "quadrature.integrate_triangle",
                        "pathspace.nu_tables", "cli.parse_hull_spec",
                        "hull.random_hull_point", "hull.sphere_point"},
        "cone-mass": {"volumes.finsler_mass_table", "volumes.cone_chart",
                      "volumes.metric_derivative", "volumes.john_ellipse"}
        | {f"volumes.jacobian.{d}" for d in wl.CONE_TARGETS},
        "stokes-cap": {"volumes.cap_chart", "volumes.perturbed_cap_chart",
                       "volumes.omega_surface_integral", "coeffs.p_grid",
                       "quadrature.integrate_triangle"},
    }
    for name, names in expect_reached.items():
        missing = names - reached[name]
        check(not missing, f"{name}: spans reach {sorted(names)}"
              + (f"; missing {sorted(missing)}" if missing else ""))
    check(not reached["calibration"] & {"volumes.john_ellipse",
                                        "volumes.finsler_mass_table"},
          "calibration never reaches volumes")
    check(not reached["cone-mass"] & {"coeffs.p_grid",
                                      "comass.maximize_eta"},
          "cone-mass never reaches p_grid or the optimizer")

    print(f"selftest: {len(FAILURES)} failures")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
