"""Command-line driver exposing the experiments as subcommands.

Every command is deterministic given its flags and seed and emits a
machine-readable report (JSON by default, CSV for the tabular
commands).  Hull-function inputs are either JSON files or tiny
generator specs:

    sphere:TAU,D
    random:SEED,ROUGHNESS,EPS
    shrink:BASE_SPEC,LAMBDA      (BASE_SPEC is one of the above)

Exit codes: 0 success, 1 a failed invariant of ``check``, 2 input
error, 3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys

import numpy as np

from . import coeffs, comass, hull, pathspace, quadrature, volumes
from .quadrature import Grid

PI = math.pi


class InputError(ValueError):
    pass


def finite(text: str) -> float:
    """``float(text)`` that rejects nan and inf, which no input takes."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text.strip()!r} is not a finite number")
    return value


def _round_sig(x: float, digits: int = 12) -> float:
    if x == 0 or not math.isfinite(x):
        return x
    return float(f"{x:.{digits}g}")


def _jsonable(obj):
    """Recursively convert a report to JSON types with 12 significant
    digits on all floats."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (float, np.floating)):
        return _round_sig(float(obj))
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    return obj


def _hemisphere_point(tau: float, d: float) -> hull.SpherePoint:
    """The point at azimuth ``tau`` mod 2 pi and distance ``d``; a
    ``tau`` in (-4.4e-16, 0), whose remainder rounds up to 2 pi, is 0."""
    tau %= 2 * PI
    return hull.SpherePoint(0.0 if tau == 2 * PI else tau, d)


def parse_hull_spec(spec: str, grid: Grid) -> hull.HullFn:
    """Build a hull function from a generator spec or a JSON file path;
    a file must be sampled on ``grid`` and be a hull member."""
    if os.path.exists(spec):
        try:
            with open(spec, "r", encoding="utf-8") as fh:
                f = hull.HullFn.from_json(fh.read())
        except (OSError, KeyError, TypeError, ValueError) as exc:
            raise InputError(f"cannot read hull file {spec!r}: {exc}")
        if f.grid.n != grid.n:
            raise InputError(f"hull file {spec!r} has n = {f.grid.n}, "
                             f"the run grid has n = {grid.n}")
        if not hull.is_member(f):
            raise InputError(f"hull file {spec!r} is not a hull member "
                             "(finite, range [0, pi] and 1-Lipschitz with "
                             "the antipodal wrap)")
        return f
    kind, _, rest = spec.partition(":")
    try:
        if kind == "sphere":
            tau, d = (finite(v) for v in rest.split(","))
            return hull.sphere_point(_hemisphere_point(tau, d), grid)
        if kind == "random":
            seed, rough, eps = rest.split(",")
            return hull.random_hull_point(int(seed), finite(rough),
                                          finite(eps), grid)
        if kind == "shrink":
            base, _, lam = rest.rpartition(",")
            return hull.shrink_toward_center(parse_hull_spec(base, grid),
                                             finite(lam))
    except InputError:
        raise
    except (ValueError, TypeError) as exc:
        raise InputError(f"malformed generator spec {spec!r}: {exc}")
    raise InputError(f"unknown generator kind {kind!r} in {spec!r}")


def _emit(command: str, results: dict, args: argparse.Namespace,
          csv_text: str | None) -> None:
    """Write the report ``{command, config, results}`` of a command, or
    its CSV table under ``--format csv`` where it has one."""
    report = {"command": command,
              "config": {"grid_n": args.grid_n, "eval_n": args.eval_n,
                         "seed": args.seed},
              "results": results}
    if args.format == "csv" and csv_text is not None:
        text = csv_text
    else:
        text = json.dumps(_jsonable(report), indent=2) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:      # a missing directory, no permission
            raise InputError(f"cannot write --out: {exc}")
    else:
        sys.stdout.write(text)


def cmd_comass(args: argparse.Namespace) -> int:
    # the one command that reads both grids
    if args.eval_n < args.grid_n:
        raise InputError(f"--eval-n must be >= --grid-n "
                         f"({args.grid_n}), got {args.eval_n}")
    grid = Grid(args.grid_n)
    f = parse_hull_spec(args.input, grid)
    value, diag = comass.comass_ir(f, eval_grid=Grid(args.eval_n))
    h = diag["hemisphere_point"]
    _emit("comass", {
        "comass": value,
        "comass_normalized": value / PI,
        "hemisphere_tau": h.tau,
        "hemisphere_d": h.d,
        "hemisphere_dist": diag["hemisphere_dist"],
        "eta_inf": diag["eta_inf"],
        "iterations": diag["iterations"],
        "grad_norm": diag["grad_norm"],
        "converged": diag["converged"],
    }, args, None)
    return 0 if diag["converged"] else 3


def cmd_sweep(args: argparse.Namespace) -> int:
    try:
        t_list = [finite(v) for v in args.t_list.split(",") if v.strip()]
    except ValueError as exc:
        raise InputError(f"bad t list: {exc}")
    if not t_list:
        raise InputError("empty t list")
    try:
        tau, d = (finite(v) for v in args.h.split(","))
    except ValueError as exc:
        raise InputError(f"bad hemisphere spec: {exc}")
    grid = Grid(args.grid_n)
    g = parse_hull_spec(args.g, grid)
    table = comass.calibration_sweep(_hemisphere_point(tau, d), g, t_list,
                                     defect_floor=args.defect_floor)
    lines = ["t,dist,defect,eta_inf,iters,converged"]
    for r in table["rows"]:
        lines.append(f"{r['t']:.12g},{r['dist']:.12g},{r['defect']:.12g},"
                     f"{r['eta_inf']:.12g},{r['iters']},"
                     f"{str(r['converged']).lower()}")
    _emit("sweep", table, args, "\n".join(lines) + "\n")
    if not all(r["converged"] for r in table["rows"]):
        return 3
    return 0


def cmd_cone(args: argparse.Namespace) -> int:
    if args.param_n < 3:
        raise InputError(f"--param-n must be >= 3, got {args.param_n}")
    if args.param_n < 16:
        print(f"fillhull: warning: --param-n {args.param_n} is below 16, "
              "where the cone masses are far off", file=sys.stderr)
    grid = Grid(max(64, args.grid_n // 2))
    chart = volumes.cone_chart(n_r=args.param_n, n_alpha=args.param_n,
                               grid=grid)
    values = volumes.finsler_mass_table(chart)
    lines = ["chart,definition,value,grid_n,param_n"]
    for definition in volumes.JACOBIAN_DEFINITIONS:
        lines.append(f"cone,{definition},{values[definition]:.12g},"
                     f"{grid.n},{args.param_n}")
    _emit("cone", {"masses": values, "param_n": args.param_n,
                   "chart_grid_n": grid.n}, args, "\n".join(lines) + "\n")
    return 0


def cmd_lowerbound(args: argparse.Namespace) -> int:
    try:
        offsets = [finite(v) for v in args.offsets.split(",") if v.strip()]
    except ValueError as exc:
        raise InputError(f"bad offsets: {exc}")
    if not offsets:
        raise InputError("empty offsets list")
    rows = [{"offset": o, "area": volumes.coordinate_filling_area(o)}
            for o in offsets]
    lines = ["offset,area"] + [f"{r['offset']:.12g},{r['area']:.12g}"
                               for r in rows]
    _emit("lowerbound", {"rows": rows}, args, "\n".join(lines) + "\n")
    return 0


def cmd_l1(args: argparse.Namespace) -> int:
    if args.count < 1:
        raise InputError(f"--count must be >= 1, got {args.count}")
    grid = Grid(args.eval_n)
    rows = []
    best = None
    for k in range(args.count):
        f = hull.random_hull_point(args.seed + k, roughness=0.5,
                                   eps=args.eps, grid=grid)
        v = coeffs.p_l1_norm(f)
        rows.append({"seed": args.seed + k, "value": v})
        if best is None or v > best["value"]:
            best = rows[-1]
    bound = PI * PI / 2
    lines = ["seed,value"] + [f"{r['seed']},{r['value']:.12g}" for r in rows]
    _emit("l1", {
        "rows": rows,
        "max_value": best["value"],
        "argmax_seed": best["seed"],
        "bound": bound,
        "exceeds_bound": bool(best["value"] > bound + 1e-2),
    }, args, "\n".join(lines) + "\n")
    return 0


def run_checks(n: int, seed: int = 0) -> list[tuple[str, bool, str]]:
    """Cross-module invariant suite used by ``fillhull check``."""
    grid = Grid(n)
    rng = np.random.default_rng(seed)
    results: list[tuple[str, bool, str]] = []

    def record(name: str, ok: bool, detail: str) -> None:
        results.append((name, bool(ok), detail))

    # quadrature against a closed form
    F = np.sin(np.subtract.outer(-grid.alpha_nodes, -grid.beta_nodes))
    val = quadrature.integrate_triangle(F, grid)
    record("triangle quadrature", abs(val - PI) < 1e-2 * (128 / n),
           f"sin kernel integral {val:.6g} vs pi")

    # hull isometry vs the spherical law of cosines
    ok = True
    worst = 0.0
    for _ in range(10):
        p1 = hull.SpherePoint(rng.uniform(0, 2 * PI), rng.uniform(0, PI / 2))
        p2 = hull.SpherePoint(rng.uniform(0, 2 * PI), rng.uniform(0, PI / 2))
        got = hull.sup_dist(hull.sphere_point(p1, grid),
                            hull.sphere_point(p2, grid))
        want = math.acos(min(1.0, max(-1.0,
                             math.sin(p1.d) * math.sin(p2.d)
                             + math.cos(p1.d) * math.cos(p2.d)
                             * math.cos(p1.tau - p2.tau))))
        worst = max(worst, abs(got - want))
        ok = ok and abs(got - want) <= 2 * grid.step
    record("hemisphere isometry", ok, f"worst gap {worst:.3g}")

    # coefficient table against the scalar definition
    record("north pole coefficient",
           abs(coeffs.p_scalar(0.7, PI / 2, PI / 2) - 1.0) < 1e-12,
           "p(a, pi/2, pi/2) = 1")
    f = hull.random_hull_point(seed + 1, 0.4, 0.3, grid)
    table = coeffs.p_grid(f)
    xm = f.at_midnodes()
    ok = True
    worst = 0.0
    for _ in range(20):
        j = int(rng.integers(0, n - 1))
        k = int(rng.integers(j + 1, n))
        direct = coeffs.p_scalar(grid.beta_nodes[k] - grid.alpha_nodes[j],
                                 xm[j], f.values[k])
        worst = max(worst, abs(direct - table[j, k]))
        ok = ok and abs(direct - table[j, k]) < 1e-10
    record("coefficient table consistency", ok, f"worst gap {worst:.3g}")

    # the closed-form phase against a fine trapezoid of its speed, and
    # the two routes to the action
    h = hull.SpherePoint(1.3, 0.6)
    m = 32
    speed = coeffs.hemisphere_speed(h, np.arange(n * m + 1) * (grid.step / m))
    cells = (speed[:-1] + speed[1:]).reshape(n, m).sum(axis=1)
    gap = np.abs(np.diff(pathspace.nu_h(h, grid))
                 - cells * (grid.step / (2 * m))).max()
    record("phase against its speed", gap < 1e-7,
           f"worst cell gap {gap:.3g}")
    eta = pathspace.AngleField.from_values(
        grid, 0.05 * np.sin(2 * grid.beta_nodes))
    hf = hull.sphere_point(h, grid)
    v1 = comass.psi(h, hf, eta)
    gamma = pathspace.gamma_from_eta(h, eta)
    gb, gm = gamma.points, gamma.at_midnodes()
    cross = np.outer(gm[:, 0], gb[:, 1]) - np.outer(gm[:, 1], gb[:, 0])
    v2 = quadrature.integrate_triangle(coeffs.p_grid(hf) * cross, grid)
    record("psi equals path action", abs(v1 - v2) < 1e-9,
           f"gap {abs(v1 - v2):.3g}")

    # gradient against finite differences
    g = comass.psi_gradient(h, hf, eta)
    v = pathspace.AngleField.from_values(
        grid, rng.normal(size=n))
    t = 1e-5
    ep = pathspace.AngleField(grid, eta.values + t * v.values
                              - (eta.values + t * v.values).mean())
    em = pathspace.AngleField(grid, eta.values - t * v.values
                              - (eta.values - t * v.values).mean())
    fd = (comass.psi(h, hf, ep) - comass.psi(h, hf, em)) / (2 * t)
    dot = float(g.values @ v.values)
    record("psi gradient", abs(fd - dot) <= 1e-5 * max(1.0, abs(fd)),
           f"fd {fd:.9g} vs analytic {dot:.9g}")

    # isoperimetric side: area bound and Fourier stability
    _, area = pathspace.sigma_path(h, eta)
    c0, c1, w_sup, bound = pathspace.fuglede_check(h, eta)
    record("sigma area bound", area <= PI + 1e-3, f"A = {area:.6f}")
    record("fuglede bound", w_sup <= bound + 1e-3,
           f"sup|w| = {w_sup:.4g}, bound = {bound:.4g}")

    # volume definitions on closed-form norms
    eu = volumes.Norm2D.euclidean()
    ok = all(abs(volumes.jacobian(eu, d) - 1.0) < 5e-3
             for d in volumes.JACOBIAN_DEFINITIONS)
    record("euclidean jacobians", ok, "all five equal 1")
    l1n = volumes.Norm2D.l1()
    want = {"mass": 1.0, "mass_star": 2.0, "busemann_hausdorff": PI / 2,
            "holmes_thompson": 4 / PI, "inner_riemannian": 2.0}
    ok = all(abs(volumes.jacobian(l1n, d) - w) < 5e-3 * w
             for d, w in want.items())
    record("l1 jacobians", ok, "diamond values")

    # the form is exact: a cap and its interior perturbation integrate
    # alike, up to the central differences of their tangents
    cap = volumes.cap_chart(0.3, 17, 32, grid)
    a = volumes.omega_surface_integral(cap)
    b = volumes.omega_surface_integral(
        volumes.perturbed_cap_chart(cap, bump_seed=seed + 1, amplitude=0.2))
    gap = abs(b - a) / abs(a)
    record("Stokes exactness", gap <= 5e-3,
           f"cap {a:.9g}, perturbed {b:.9g}, relative gap {gap:.3g}")

    area = volumes.coordinate_filling_area(PI / 2)
    record("filling lower bound",
           abs(area - PI * PI / 2) <= 4 * math.ulp(PI * PI / 2),
           f"area = {area:.12g}")
    return results


def cmd_check(args: argparse.Namespace) -> int:
    n = 128 if args.fast else 256
    results = run_checks(n, args.seed)
    failed = [name for name, ok, _ in results if not ok]
    _emit("check", {
        "checks": [{"name": name, "passed": ok, "detail": detail}
                   for name, ok, detail in results],
        "n_failed": len(failed),
    }, args, None)
    return 0 if not failed else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and reused: a
    parse leaves no state in it."""
    parser = argparse.ArgumentParser(
        prog="fillhull",
        description="Experiments on the injective hull of the round circle")
    parser.add_argument("--grid-n", type=int, default=512)
    parser.add_argument("--eval-n", type=int, default=1024)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None)
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("comass", help="comass of a hull function")
    p.add_argument("input", help="hull JSON file or generator spec")
    p.set_defaults(fn=cmd_comass)

    p = sub.add_parser("sweep", help="calibration defect rate sweep")
    p.add_argument("--h", default="0.0,0.7", help="hemisphere point TAU,D")
    p.add_argument("--g", default="random:1,0.25,0.3", help="endpoint spec")
    p.add_argument("--t-list",
                   default="0.02,0.04,0.06,0.08,0.1,0.12,0.14,0.16,0.18,0.2")
    p.add_argument("--defect-floor", type=finite, default=5e-5)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("cone", help="cone chart mass table")
    p.add_argument("--param-n", type=int, default=48,
                   help="parameter nodes per axis (>= 3); below 16 the "
                        "masses are far off, with a warning on stderr "
                        "(mass* 15%% low at 12, 39%% low at 10); from 16 "
                        "to 48 all five are within 0.67%% of the closed "
                        "forms, and at 16 and 32 exact to rounding")
    p.set_defaults(fn=cmd_cone)

    p = sub.add_parser("lowerbound", help="coordinate filling areas")
    p.add_argument("--offsets", default=f"{PI/2}")
    p.set_defaults(fn=cmd_lowerbound)

    p = sub.add_parser("l1", help="coefficient L1 norm over a random corpus")
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--eps", type=finite, default=0.3)
    p.set_defaults(fn=cmd_l1)

    p = sub.add_parser("check", help="run the cross-module invariant suite")
    p.add_argument("--fast", action="store_true")
    p.set_defaults(fn=cmd_check)
    return parser


# options whose value is a comma list of numbers
_LIST_OPTIONS = ("--h", "--t-list", "--offsets")


def main(argv=None) -> int:
    parser = build_parser()
    words = sys.argv[1:] if argv is None else list(argv)
    # argparse reads a list such as "-0.5,1.0", which is not one
    # negative number, as an option: join it to its option with "="
    for k in range(len(words) - 1, 0, -1):
        if words[k - 1] in _LIST_OPTIONS and re.match(r"-[\d.]", words[k]):
            words[k - 1:k + 1] = [words[k - 1] + "=" + words[k]]
    args = parser.parse_args(words)
    try:
        if args.grid_n < 64:
            raise InputError(f"--grid-n must be >= 64, got {args.grid_n}")
        if args.eval_n < 64:
            raise InputError(f"--eval-n must be >= 64, got {args.eval_n}")
        if args.seed < 0:
            raise InputError(f"--seed must be >= 0, got {args.seed}")
        return args.fn(args)
    except ValueError as exc:       # InputError among them
        print(f"fillhull: {exc}", file=sys.stderr)
        return 2
    except hull.ConvergenceError as exc:
        print(f"fillhull: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
