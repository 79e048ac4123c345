import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from fillhull import cli, comass, hull, volumes
from fillhull.quadrature import Grid

PI = math.pi
SCHEMA = json.loads(
    (Path(cli.__file__).parent / "schemas" / "report.schema.json")
    .read_text())


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def validate(out):
    report = json.loads(out)
    jsonschema.validate(report, SCHEMA)
    return report


def test_parse_hull_spec_generators():
    grid = Grid(128)
    f = cli.parse_hull_spec("sphere:0.5,0.7", grid)
    assert hull.is_member(f)
    g = cli.parse_hull_spec("random:3,0.4,0.3", grid)
    assert hull.is_member(g)
    s = cli.parse_hull_spec("shrink:sphere:0.5,0.7,0.5", grid)
    assert np.abs(np.diff(s.values)).max() <= 0.5 * grid.step + 1e-12


def test_parse_hull_spec_reads_json_files(tmp_path):
    grid = Grid(128)
    f = hull.random_hull_point(1, 0.3, 0.3, grid)
    path = tmp_path / "point.json"
    path.write_text(f.to_json())
    g = cli.parse_hull_spec(str(path), grid)
    assert np.allclose(f.values, g.values)


def test_parse_hull_spec_rejects_garbage():
    grid = Grid(128)
    for bad in ("sphere:1.0", "random:a,b,c", "waves:1,2", "sphere:"):
        with pytest.raises(cli.InputError):
            cli.parse_hull_spec(bad, grid)


def test_comass_command_on_a_hemisphere_point(capsys):
    code, out = run(capsys, "--grid-n", "128", "--eval-n", "256",
                    "comass", "sphere:0.5,0.7")
    assert code == 0
    report = validate(out)
    assert report["command"] == "comass"
    assert report["results"]["comass"] == pytest.approx(PI, abs=5e-3)
    assert report["results"]["converged"] is True


def test_comass_command_is_deterministic(capsys):
    args = ("--grid-n", "128", "--eval-n", "128", "--seed", "5",
            "comass", "random:2,0.2,0.3")
    _, out1 = run(capsys, *args)
    _, out2 = run(capsys, *args)
    assert out1 == out2


def test_malformed_hull_file_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    for text in ("{not json", "[1, 2]", "5", '{"n": null, "values": []}'):
        path.write_text(text)
        code, _ = run(capsys, "comass", str(path))
        assert code == 2
    # a path that exists but cannot be read as a file
    code, _ = run(capsys, "comass", str(tmp_path))
    assert code == 2


@pytest.mark.parametrize("n, values, message", [
    # sampled on another grid than the run's --grid-n 512
    (100, hull.sphere_point(hull.SpherePoint(0.5, 0.7), Grid(100)).values,
     "has n = 100, the run grid has n = 512"),
    # in range but not 1-Lipschitz
    (512, np.random.default_rng(0).uniform(0.5, 2.5, 512), "not a hull"),
    # 1-Lipschitz inside, but f(pi) = pi - f(0) is far from f(pi - step)
    (512, np.ones(512), "not a hull"),
    # one NaN sample: every range and Lipschitz comparison with it is false
    (512, np.where(np.arange(512) == 200, np.nan, hull.sphere_point(
        hull.SpherePoint(0.5, 0.7), Grid(512)).values), "not a hull"),
])
def test_unusable_hull_file_exits_2(tmp_path, capsys, n, values, message):
    path = tmp_path / "point.json"
    path.write_text(hull.HullFn(Grid(n), values).to_json())
    assert cli.main(["--grid-n", "512", "comass", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_bad_run_config_exits_2(capsys):
    for argv, message in (
            (("--grid-n", "16", "comass", "sphere:0.5,0.7"),
             "--grid-n must be >= 64, got 16"),
            (("--grid-n", "256", "--eval-n", "128",
              "comass", "sphere:0.5,0.7"),
             "--eval-n must be >= --grid-n (256), got 128")):
        assert cli.main(list(argv)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


@pytest.mark.parametrize("argv", [
    ("cone", "--param-n", "3"),     # reads --grid-n only
    ("lowerbound",),                # reads neither grid
    ("l1", "--count", "1"),         # reads --eval-n only
])
def test_eval_n_below_grid_n_is_no_error_where_unread(capsys, argv):
    assert cli.main(["--grid-n", "2048", *argv]) == 0
    assert "--eval-n" not in capsys.readouterr().err


def test_eval_n_below_64_exits_2(capsys):
    assert cli.main(["--eval-n", "16", "l1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--eval-n must be >= 64, got 16" in captured.err


@pytest.mark.parametrize("argv", [
    ("comass", "random:1,nan,0.3"),
    ("comass", "random:1,inf,0.3"),
    ("sweep", "--t-list", "0.1,nan"),
    ("sweep", "--defect-floor", "inf"),
    ("lowerbound", "--offsets", "nan,inf"),
    ("lowerbound", "--offsets", "0.5,-inf"),
])
def test_non_finite_numbers_exit_2(capsys, argv):
    try:
        code = cli.main(["--grid-n", "128", *argv])
    except SystemExit as exc:       # argparse rejects an option's value
        code = exc.code
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "finite" in captured.err


def test_bad_table_sizes_exit_2(capsys):
    for argv in (("l1", "--count", "0"), ("l1", "--count", "-1"),
                 ("cone", "--param-n", "1"), ("cone", "--param-n", "2"),
                 ("lowerbound", "--offsets", ",")):
        code, out = run(capsys, *argv)
        assert code == 2
        assert out == ""


def test_non_convergence_exits_3(monkeypatch, capsys):
    def fake_comass_ir(f, eval_grid=None):
        diag = {"hemisphere_point": hull.SpherePoint(0.0, 0.5),
                "hemisphere_dist": 0.0, "eta_inf": 0.0, "iterations": 400,
                "grad_norm": 1.0, "converged": False,
                "eta": None, "cap_active": True}
        return 1.23, diag

    monkeypatch.setattr(cli.comass, "comass_ir", fake_comass_ir)
    code, out = run(capsys, "--grid-n", "128", "comass", "sphere:0.5,0.7")
    assert code == 3
    assert validate(out)["results"]["converged"] is False


def test_convergence_error_exits_3(monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise hull.ConvergenceError("stuck")

    monkeypatch.setattr(cli.hull, "random_hull_point", fail)
    code, _ = run(capsys, "--grid-n", "128", "comass", "random:0,0.4,0.3")
    assert code == 3


@pytest.mark.parametrize("form", [("--offsets", "-0.5,1.0"),
                                  ("--offsets=-0.5,1.0",)])
def test_lowerbound_takes_a_list_that_starts_with_a_negative_number(
        capsys, form):
    code, out = run(capsys, "lowerbound", *form)
    assert code == 0
    rows = validate(out)["results"]["rows"]
    assert [r["offset"] for r in rows] == [-0.5, 1.0]
    # the signed area is odd in the offset
    assert rows[0]["area"] == pytest.approx(
        -volumes.coordinate_filling_area(0.5), abs=1e-9)


def test_sweep_takes_a_hemisphere_point_with_a_negative_angle(capsys):
    outs = []
    for form in (("--h", "-1.0,0.6"), ("--h=-1.0,0.6",)):
        code, out = run(capsys, "--grid-n", "128", "sweep", *form,
                        "--t-list", "0.2", "--g", "random:1,0.25,0.3")
        assert code == 0
        outs.append(validate(out)["results"])
    assert outs[0] == outs[1]


def test_a_tiny_negative_azimuth_is_the_azimuth_0(capsys):
    # tau % (2 pi) rounds up to 2 pi for every tau in (-4.4e-16, 0)
    grid = Grid(128)
    want = cli.parse_hull_spec("sphere:0,0.7", grid).values
    for tau in ("-1e-20", "-1e-17", "-0.0"):
        got = cli.parse_hull_spec(f"sphere:{tau},0.7", grid).values
        assert np.array_equal(got, want), tau
    outs = []
    for h in ("0,0.7", "-1e-17,0.7"):
        code, out = run(capsys, "--grid-n", "128", "--eval-n", "256",
                        "sweep", "--h", h, "--t-list", "0.1,0.2")
        assert code == 0
        outs.append(validate(out)["results"]["rows"])
    assert outs[0] == outs[1]


@pytest.mark.parametrize("argv", [
    ("comass", "sphere:0.5,0.7"), ("sweep",), ("cone", "--param-n", "3"),
    ("lowerbound",), ("l1", "--count", "1"), ("check", "--fast")])
def test_a_negative_seed_exits_2(capsys, argv):
    assert cli.main(["--grid-n", "128", "--seed", "-1", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--seed" in captured.err


@pytest.mark.parametrize("argv", [
    ("comass", "random:3,0.4,0.3"),
    ("sweep", "--t-list", "0.1,0.2,0.3")])
def test_comass_and_sweep_do_not_depend_on_the_seed(capsys, argv):
    # the optimizer draws no random numbers
    reports = []
    for seed in ("0", "7"):
        cli.main(["--grid-n", "128", "--eval-n", "256", "--seed", seed,
                  *argv])
        reports.append(validate(capsys.readouterr().out))
    assert reports[0]["results"] == reports[1]["results"]
    assert [r["config"]["seed"] for r in reports] == [0, 7]


def test_sweep_empty_t_list_exits_2(capsys):
    code, _ = run(capsys, "sweep", "--t-list", "")
    assert code == 2


def test_sweep_t_off_the_segment_exits_2(capsys):
    # f_t = (1 - t) h + t g is a hull member only for t in [0, 1]
    for t in ("1.5", "-0.2"):
        code = cli.main(["--grid-n", "128", "sweep", "--t-list", t])
        assert code == 2
        assert f"t = {t} is off the segment" in capsys.readouterr().err
    code, out = run(capsys, "--grid-n", "128", "--format", "csv", "sweep",
                    "--t-list", "0,1")
    assert code == 0
    assert [line.split(",")[0] for line in out.split()[1:]] == ["0", "1"]


def test_sweep_single_t_reports_table_without_fit(capsys):
    code, out = run(capsys, "--grid-n", "128", "sweep", "--t-list", "0.2",
                    "--g", "random:1,0.25,0.3")
    assert code == 0
    report = validate(out)
    assert len(report["results"]["rows"]) == 1
    assert "slope" not in report["results"]


def test_sweep_csv_schema(capsys):
    code, out = run(capsys, "--grid-n", "128", "--format", "csv",
                    "sweep", "--t-list", "0.1,0.2")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,dist,defect,eta_inf,iters,converged"
    assert len(lines) == 3


def test_cone_csv_schema(capsys):
    code, out = run(capsys, "--grid-n", "128", "--format", "csv",
                    "cone", "--param-n", "8")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "chart,definition,value,grid_n,param_n"
    assert len(lines) == 6
    assert all(line.startswith("cone,") for line in lines[1:])


def test_cone_below_16_nodes_warns_on_stderr(capsys):
    assert cli.main(["--grid-n", "128", "cone", "--param-n", "4"]) == 0
    captured = capsys.readouterr()
    assert validate(captured.out)["results"]["param_n"] == 4
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert "--param-n 4" in lines[0] and "16" in lines[0]
    assert cli.main(["--grid-n", "128", "cone", "--param-n", "16"]) == 0
    assert capsys.readouterr().err == ""


def test_lowerbound_values_and_symmetry(capsys):
    offs = f"0.0,{PI/4},{PI/2},{3*PI/4}"
    code, out = run(capsys, "lowerbound", "--offsets", offs)
    assert code == 0
    rows = validate(out)["results"]["rows"]
    areas = {round(r["offset"], 6): r["area"] for r in rows}
    assert areas[0.0] == pytest.approx(0.0, abs=1e-9)
    assert areas[round(PI / 2, 6)] == pytest.approx(PI ** 2 / 2, abs=1e-4)
    # the loop only depends on the gap between the two coordinates
    assert areas[round(PI / 4, 6)] == pytest.approx(
        areas[round(3 * PI / 4, 6)], abs=1e-9)


def test_l1_report_shape_and_determinism(capsys):
    args = ("--grid-n", "128", "--eval-n", "128", "--seed", "3",
            "l1", "--count", "3")
    code, out1 = run(capsys, *args)
    assert code == 0
    report = validate(out1)
    assert len(report["results"]["rows"]) == 3
    assert report["results"]["bound"] == pytest.approx(PI ** 2 / 2)
    _, out2 = run(capsys, *args)
    assert out1 == out2


def test_out_flag_writes_the_report(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out = run(capsys, "--out", str(path), "lowerbound")
    assert code == 0
    assert out == ""
    validate(path.read_text())
    # a directory that does not exist: one line on stderr, no traceback
    missing = tmp_path / "missing" / "report.json"
    assert cli.main(["--out", str(missing), "lowerbound"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "cannot write" in captured.err


def test_check_fast_passes_cleanly(capsys):
    code, out = run(capsys, "check", "--fast")
    assert code == 0
    report = validate(out)
    assert report["results"]["n_failed"] == 0
    assert len(report["results"]["checks"]) >= 10


def test_check_catches_a_coefficient_sign_bug(monkeypatch, capsys):
    true_p = cli.coeffs.p_scalar
    monkeypatch.setattr(cli.coeffs, "p_scalar",
                        lambda a, x, y: -true_p(a, x, y))
    code, out = run(capsys, "check", "--fast")
    assert code != 0
    report = json.loads(out)
    failed = {c["name"] for c in report["results"]["checks"]
              if not c["passed"]}
    assert "coefficient table consistency" in failed


def test_check_catches_a_trig_factor_sign_bug(monkeypatch, capsys):
    # the production tables' cos y factor negated: the weighted table
    # of Psi and the path action and the surface integral's dense
    # tables read it, while the reference table of the consistency line
    # keeps its own trig.  Each line is asserted by what the bug does to
    # its numbers, not by which lines cross their bounds
    def checks():
        # per line: whether it passed, and the numbers of its detail
        code, out = run(capsys, "check", "--fast")
        number = r"-?\d+\.?\d*(?:e[-+]?\d+)?"
        return code, {
            c["name"]: (c["passed"],
                        [float(x) for x in re.findall(number, c["detail"])])
            for c in json.loads(out)["results"]["checks"]}

    _, clean = checks()
    true_factors = cli.coeffs._half_angle_factors

    def flipped(y):
        cy, *rest = true_factors(y)
        return (-cy, *rest)

    monkeypatch.setattr(cli.coeffs, "_half_angle_factors", flipped)
    code, bad = checks()
    assert code != 0
    # Psi against the reference path action: a gap of 38.8, bound 1e-9
    passed, (gap,) = bad["psi equals path action"]
    assert not passed and gap > 1.0
    # the relative Stokes gap 0.0218, 4.4 times its bound 5e-3
    passed, (_, _, gap) = bad["Stokes exactness"]
    assert not passed and gap > 2 * 5e-3
    # the analytic Psi gradient moves from -0.0036 to 0.132, whether or
    # not the finite difference follows it
    analytic = bad["psi gradient"][1][1]
    assert abs(analytic - clean["psi gradient"][1][1]) > 0.05
    assert bad["coefficient table consistency"][0]


def test_cli_import_leaves_scipy_out():
    code = ("import sys, fillhull.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ)
    src = str(Path(cli.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_reports_do_not_depend_on_the_blas_thread_count(blas_thread_envs):
    for argv in (["comass", "sphere:0.5,0.7"],
                 ["--format", "csv", "sweep", "--h", "0.0,0.6",
                  "--g", "random:1,0.25,0.3"],
                 # a chart row's Jacobians use batched np.linalg calls
                 ["cone", "--param-n", "24"]):
        outs = [subprocess.run([sys.executable, "-m", "fillhull.cli", *argv],
                               env=env, check=True, capture_output=True,
                               text=True).stdout
                for env in blas_thread_envs]
        assert outs[0] and outs[0] == outs[1]


@pytest.mark.parametrize("argv", [
    ["--grid-n", "512", "--eval-n", "1024", "comass", "random:3,0.4,0.3"],
    ["sweep", "--g", "random:32,0.25,0.3"],
    ["sweep", "--g", "random:37,0.25,0.3"]])
def test_maximizers_at_the_cap_converge_inside_it(capsys, argv):
    # a maximizer at the cap is a KKT point of the capped problem: it
    # exits 0, and no field leaves the cap
    code, out = run(capsys, *argv)
    assert code == 0
    results = validate(out)["results"]
    rows = results.get("rows", [results])
    assert all(r["converged"] for r in rows)
    assert max(r["eta_inf"] for r in rows) == comass.OptimizerConfig.eta_cap


def test_a_small_distance_is_not_the_boundary(capsys):
    # sphere:0,1e-9 sampled 0.0 at its nearest node, the same input as
    # sphere:0,0, before the hemisphere points took the half-chord form
    on_circle = run(capsys, "comass", "sphere:0,0")
    near_it = run(capsys, "comass", "sphere:0,1e-9")
    assert on_circle[0] == 2 and on_circle != near_it
    assert validate(near_it[1])["results"]["hemisphere_d"] == pytest.approx(
        1e-9, rel=1e-6)


def test_the_parser_is_built_once_and_keeps_no_state(capsys):
    # a usage error and a subcommand's defaults between two runs do not
    # change the second run's output
    assert cli.build_parser() is cli.build_parser()
    first = run(capsys, "--format", "csv", "lowerbound", "--offsets", "0.5")
    with pytest.raises(SystemExit) as exc:
        cli.main(["cone", "--param-n", "x"])
    assert exc.value.code == 2
    assert "invalid int value" in capsys.readouterr().err
    assert run(capsys, "--format", "csv", "lowerbound")[0] == 0
    assert run(capsys, "--format", "csv", "lowerbound", "--offsets",
               "0.5") == first
