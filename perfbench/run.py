"""Benchmark of fillhull: one workload per run, timed or traced.

    python3 perfbench/run.py --workload calibration --seed 1 \
        --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
its ``src`` directory.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
with ``--trace 0`` the end-to-end metrics (``ops_per_s``, ``setup_s``,
``peak_rss_mb``), with ``--trace 1`` the per-layer metrics of a traced
run.  See ``perfbench/README.md``.
"""

import os

# one BLAS thread: the benchmark is a single process on a 2-core
# machine, and OpenBLAS would otherwise start one thread per core
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import KERNEL_REFERENCE_S, SpeedProbe

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_PROBES = 3


def import_package() -> None:
    """Import fillhull from the checkout, never from anywhere else."""
    if not (SRC / "fillhull" / "__init__.py").is_file():
        sys.exit(f"perfbench: no fillhull sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import fillhull
    if Path(fillhull.__file__).resolve().parent != SRC / "fillhull":
        sys.exit(f"perfbench: imported fillhull from {fillhull.__file__}, "
                 f"not from {SRC}")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("calibration", "cone-mass", "stokes-cap"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def make_workload(args):
    from workloads import WORKLOADS
    return WORKLOADS[args.workload](args.seed)


def setup_seconds(args) -> float:
    """Median over fresh interpreters of the time from process start
    to the end of set-up (imports, inputs and the warm-up operation),
    at the reference speed the child measured while it set up."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
        word, _, kernel_s = line.partition(" ")
        if proc.returncode != 0 or word != "ready":
            sys.exit(f"perfbench: set-up probe exited {proc.returncode}")
        times.append(elapsed * KERNEL_REFERENCE_S / float(kernel_s))
    return statistics.median(times)


def measure(workload, tally, seconds: float) -> int:
    """Run whole rounds until ``seconds`` have passed; return how many."""
    start = time.perf_counter()
    rounds = 0
    while not rounds or time.perf_counter() - start < seconds:
        workload.round(tally, rounds)
        rounds += 1
    return rounds


def throughput(tally, rounds: int, probe) -> tuple[float, float]:
    """Operations per second at the reference speed, and per second of
    wall time.

    Every round holds the same kinds of operation, so a round takes the
    sum over its operations of their kind's median duration.  The
    median is robust to a burst of load from elsewhere on the machine.
    """
    def per(length) -> float:
        round_length = sum(
            len(spans) / rounds
            * statistics.median(length(s, e) for s, e in spans)
            for spans in tally.intervals.values())
        return tally.attempted / rounds / round_length

    return per(probe.at_reference), per(lambda s, e: e - s)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


ACCURACY_UNITS = {"hemi_defect": "1"}


def layer_metrics(tracer, tally, rounds: int, probe) -> dict:
    """The per-layer metrics of a traced run; counts and times are per
    round, so they do not grow with the number of rounds run."""
    ops_per_s, wall_ops_per_s = throughput(tally, rounds, probe)
    metrics = {"trace.ops_per_s": metric(ops_per_s, "1/s"),
               "trace.wall_ops_per_s": metric(wall_ops_per_s, "1/s"),
               "trace.rounds": metric(rounds, "count"),
               "comass.iterations": metric(tracer.iterations / rounds,
                                           "count")}
    for name, entry in tracer.summary().items():
        for key, unit in (("calls", "count"), ("total_s", "s"),
                          ("self_s", "s")):
            metrics[f"{name}.{key}"] = metric(entry[key] / rounds, unit)
    for name, value in tally.accuracy.items():
        metrics[f"accuracy.{name}"] = metric(
            value, ACCURACY_UNITS.get(name, "ratio"))
    return metrics


def end_to_end_metrics(ops_per_s: float, setup_s: float) -> dict:
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"ops_per_s": metric(ops_per_s, "1/s"),
            "setup_s": metric(setup_s, "s"),
            "peak_rss_mb": metric(peak_mb, "MB")}


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        with SpeedProbe() as probe:
            import_package()
            make_workload(args).setup()
        print(f"ready {probe.kernel_seconds(-math.inf, math.inf)!r}",
              flush=True)
        return 0

    import_package()
    from workloads import Tally

    setup_s = None if args.trace else setup_seconds(args)
    workload = make_workload(args)
    workload.setup()
    tally = Tally()
    with SpeedProbe() as probe:
        if args.trace:
            from spans import Tracer
            with Tracer() as tracer:
                rounds = measure(workload, tally, args.seconds)
        else:
            rounds = measure(workload, tally, args.seconds)

    ops_per_s, wall_ops_per_s = throughput(tally, rounds, probe)
    kernel_ms = 1e3 * probe.kernel_seconds(-math.inf, math.inf)
    kinds = ", ".join(f"{kind} {statistics.median(e - s for s, e in spans):.4g}"
                      for kind, spans in tally.intervals.items())
    print(f"perfbench: {args.workload} seed {args.seed}: {rounds} rounds, "
          f"{tally.failed} of {tally.attempted} operations failed, "
          f"{wall_ops_per_s:.4g} wall ops/s, kernel {kernel_ms:.4g} ms; "
          f"median wall seconds by kind: {kinds}", file=sys.stderr)
    if args.trace:
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{args.workload}-{args.seed}.json")
        metrics = layer_metrics(tracer, tally, rounds, probe)
    else:
        metrics = end_to_end_metrics(ops_per_s, setup_s)
    print(json.dumps({"correct": tally.wrong == 0,
                      "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
