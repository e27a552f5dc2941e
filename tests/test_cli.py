"""End-to-end exercises of the command-line front end.

Everything runs in-process through cli.main so exit codes, stdout JSON,
stderr messages, and written artifacts are all observable. Quadrature is
kept coarse; these tests pin the plumbing contract (exit codes, report
provenance, determinism, file formats), not the numerics, which have their
own suites.
"""

import hashlib
import json
import os
import subprocess
import sys
import textwrap

import pytest

import qvlab
from qvlab import cli
from qvlab import weiss2d
from qvlab.cli import PlotDataError, SweepConfig, UsageError, emit_plot_data, example_library
from qvlab.frequency import RadialProfile

FQ = ["--quad-radial", "10", "--quad-angular", "48", "--quad-polar", "12"]


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_report(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert err == ""
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# examples and library


def test_examples_list_deterministic(capsys):
    code1, out1, err1 = run_cli(capsys, "examples", "list")
    code2, out2, _ = run_cli(capsys, "examples", "list")
    assert code1 == code2 == 0
    assert err1 == ""
    assert out1 == out2
    assert "branch-three-halves\tbranch:3/2" in out1
    lines = out1.strip().split("\n")
    assert len(lines) == len(example_library()) == 19


def test_example_library_specs_all_parse():
    from qvlab import fields

    for name, spec in example_library():
        f = fields.parse_field_spec(spec)
        assert f.q >= 1, name


# ---------------------------------------------------------------------------
# check subcommands


def test_carleman_check_reference_invocation(capsys):
    code, rep = run_report(capsys, "check", "carleman", "--field", "branch:3/2",
                           "--tau", "3", "--chi", "annulus:0.1,0.2,0.6,0.8", *FQ)
    assert code == 0
    assert rep["name"] == "carleman"
    assert rep["verdict"] == "pass"
    assert rep["field_spec"] == "branch:3/2"
    assert rep["params"]["tau"] == 3.0
    prov = rep["provenance"]
    assert prov["seed"] == 0
    assert prov["version"]
    assert len(prov["config_hash"]) == 12
    assert prov["config"]["quad_radial"] == 10


def test_report_file_matches_stdout(capsys, tmp_path):
    out_path = tmp_path / "rep.json"
    code, out, err = run_cli(capsys, "check", "carleman", "--field", "branch:3/2",
                             "--tau", "3", "--chi", "annulus:0.1,0.2,0.6,0.8",
                             "--out", str(out_path), *FQ)
    assert code == 0
    assert out_path.read_text() == out


def test_identical_invocations_byte_identical(capsys):
    argv = ("check", "three-sphere", "--field", "branch:3/2",
            "--radii", "0.02,0.08,0.32", "--tau", "2.5", *FQ)
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2


def test_three_sphere_bad_radii_exit_2(capsys):
    code, _, err = run_cli(capsys, "check", "three-sphere", "--field", "branch:3/2",
                           "--radii", "0.1,0.15,0.9", "--tau", "2.0", *FQ)
    assert code == 2
    assert "r2/r1" in err


def test_doubling_kappa_auto(capsys):
    code, rep = run_report(capsys, "check", "doubling", "--field", "branch:3/2",
                           "--kappa", "auto", "--r", "0.25", "--levels", "2", *FQ)
    assert code == 0
    assert rep["verdict"] == "pass"
    assert abs(rep["quantities"]["c_est_final"] - 32.0) < 1e-3


def test_caccioppoli_forced_fail_exits_1(capsys):
    code, rep = run_report(capsys, "check", "caccioppoli", "--field", "branch:3/2",
                           "--c-max", "1e-9", *FQ)
    assert code == 1
    assert rep["verdict"] == "fail"


def test_stationarity_check_passes(capsys):
    code, rep = run_report(capsys, "check", "stationarity", "--field", "branch:1/2",
                           "--no-refine", *FQ)
    assert code == 0
    assert rep["verdict"] == "pass"


# ---------------------------------------------------------------------------
# profiles and plot data


def test_frequency_profile_plot_data_constant(capsys, tmp_path):
    csv_path = tmp_path / "freq.csv"
    code, rep = run_report(capsys, "frequency", "--field", "branch:3/2",
                           "--radii", "0.5,0.25,0.125",
                           "--plot-data", str(csv_path), *FQ)
    assert code == 0
    assert rep["verdict"] == "diagnostic"
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0].startswith("# quantity: frequency-sharp; units: ")
    assert "resolution:" in lines[0]
    assert lines[1] == "r,frequency-sharp"
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 3
    for _, value in rows:
        assert abs(float(value) - 1.5) < 1e-9


def test_frequency_identity_subcommand(capsys):
    code, rep = run_report(capsys, "frequency", "--field", "branch:3/2",
                           "--identity", "0.2,0.5", *FQ)
    assert code == 0
    assert rep["verdict"] == "pass"


def test_emit_plot_data_empty_profile_errors(tmp_path):
    empty = RadialProfile(quantity="frequency-sharp", center=(0.0, 0.0),
                          radii=(), values=(), resolutions={})
    with pytest.raises(PlotDataError):
        emit_plot_data(empty, str(tmp_path / "x.csv"))


def test_emit_plot_data_row_missing_column(tmp_path):
    with pytest.raises(PlotDataError, match="missing column"):
        emit_plot_data([{"case": "carleman"}], str(tmp_path / "x.csv"))


def test_deficit_profile_decreasing(capsys, tmp_path):
    csv_path = tmp_path / "def.csv"
    code, rep = run_report(
        capsys, "deficit", "--field",
        "superpose(branch:3/2,n2m2:0.05*x1^2-0.05*x2^2;0.1*x1*x2)",
        "--kappa", "1.5", "--windows", "3", "--plot-data", str(csv_path), *FQ)
    assert code == 0
    q = rep["quantities"]
    assert q["innermost"] < q["outermost"]
    assert csv_path.read_text().startswith("# quantity: deficit;")


def test_vanishing_order_trivial_infinite_flag(capsys):
    code, rep = run_report(capsys, "vanishing-order", "--field", "trivial:2",
                           "--n-radii", "5", *FQ)
    assert code == 0
    assert rep["verdict"] == "diagnostic"
    assert rep["quantities"]["infinite_order"] == 1.0
    assert rep["notes"] == ["infinite order of vanishing: all annular means below mass floor"]


# ---------------------------------------------------------------------------
# weiss / epiperimetric / solve2d / blowup


def test_weiss_monotone_profile(capsys):
    code, rep = run_report(capsys, "weiss", "--field", "branch:3/2",
                           "--kappa", "1.5", "--radii", "0.6,0.4,0.2", *FQ)
    assert code == 0
    assert rep["name"] == "weiss-monotone"
    assert rep["verdict"] == "pass"
    assert rep["quantities"]["max_violation"] <= 1e-8


def test_weiss_derivative_records_kappa_source(capsys):
    code, rep = run_report(capsys, "weiss", "--field", "branch:3/2",
                           "--kappa", "auto", "--r", "0.4", "--derivative", *FQ)
    assert code == 0
    assert rep["verdict"] == "pass"
    assert rep["params"]["kappa_source"] == "vanishing-order fit"


def _write_boundary(path):
    piece = weiss2d.FourierPiece(winding=2, a0=(0.0,), modes=((3, (0.8,), (0.0,)),))
    weiss2d.save_boundary_data(str(path), [piece])


def test_epiperimetric_auto_kappa_from_boundary(capsys, tmp_path):
    bd = tmp_path / "bd.json"
    _write_boundary(bd)
    code, rep = run_report(capsys, "epiperimetric", "--boundary", str(bd),
                           "--kappa", "auto", *FQ)
    assert code == 0
    assert rep["verdict"] == "pass"
    assert rep["params"]["kappa_source"] == "vanishing-order fit"
    assert abs(rep["params"]["kappa"] - 1.5) < 1e-3


def test_solve2d_report_and_samples(capsys, tmp_path):
    bd = tmp_path / "bd.json"
    _write_boundary(bd)
    grid = tmp_path / "grid.csv"
    code, rep = run_report(capsys, "solve2d", "--boundary", str(bd),
                           "--samples", str(grid), *FQ)
    assert code == 0
    assert rep["verdict"] == "pass"
    assert rep["quantities"]["energy_rel_gap"] <= 1e-6
    first = grid.read_text().split("\n", 1)[0]
    assert first == "# format: qvlab-polar-grid/1"


def test_blowup_converges_on_homogeneous_field(capsys):
    code, rep = run_report(capsys, "blowup", "--field", "branch:3/2",
                           "--levels", "3", *FQ)
    assert code == 0
    assert rep["verdict"] == "diagnostic"
    assert rep["quantities"]["final_distance"] <= 1e-12


def test_blowup_zero_mass_exits_2(capsys):
    code, _, err = run_cli(capsys, "blowup", "--field", "trivial:2",
                           "--levels", "2", *FQ)
    assert code == 2
    assert "positive mass" in err


# ---------------------------------------------------------------------------
# config handling


def test_config_file_with_flag_override(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"quad_radial": 8, "seed": 7}))
    code, rep = run_report(capsys, "frequency", "--field", "branch:1/2",
                           "--r", "0.4", "--config", str(cfg),
                           "--quad-radial", "10",
                           "--quad-angular", "48", "--quad-polar", "12")
    assert code == 0
    prov = rep["provenance"]
    assert prov["config"]["quad_radial"] == 10
    assert prov["config"]["seed"] == 7
    assert prov["seed"] == 7


def test_config_default_when_unset(capsys):
    code, rep = run_report(capsys, "frequency", "--field", "branch:1/2",
                           "--r", "0.4", *FQ)
    assert code == 0
    assert rep["provenance"]["config"]["n_nodes"] == 512


def test_unknown_config_key_exits_2(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"quad_radual": 8}))
    code, _, err = run_cli(capsys, "frequency", "--field", "branch:1/2",
                           "--r", "0.4", "--config", str(cfg))
    assert code == 2
    assert "quad_radual" in err


def test_non_integer_config_value_exits_2(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"quad_radial": "lots"}))
    code, _, err = run_cli(capsys, "frequency", "--field", "branch:1/2",
                           "--r", "0.4", "--config", str(cfg))
    assert code == 2
    assert "quad_radial" in err


# ---------------------------------------------------------------------------
# usage errors


def test_malformed_field_spec_exits_2(capsys):
    code, _, err = run_cli(capsys, "check", "stationarity", "--field", "bogus:thing")
    assert code == 2
    assert "bogus:thing" in err


def test_malformed_chi_exits_2(capsys):
    code, _, err = run_cli(capsys, "check", "carleman", "--field", "branch:1/2",
                           "--tau", "1", "--chi", "disk:0.5")
    assert code == 2
    assert "disk:0.5" in err


def test_doubling_zero_eta_abs_exits_2(capsys):
    code, out, err = run_cli(capsys, "check", "doubling", "--field", "branch:3/2",
                             "--kappa", "1.5", "--eta-abs", "0", *FQ)
    assert code == 2
    assert out == ""
    assert err == "qvlab: error: eta_abs must be positive and finite, got 0\n"


@pytest.mark.parametrize("flag,value,message", [
    ("--levels", "0", "levels must be at least 1, got 0"),
    ("--r", "-0.25", "r must be positive, got -0.25"),
])
def test_doubling_degenerate_scales_exit_2(capsys, flag, value, message):
    code, out, err = run_cli(capsys, "check", "doubling", "--field", "branch:3/2",
                             "--kappa", "1.5", flag, value, *FQ)
    assert code == 2
    assert out == ""
    assert err == "qvlab: error: %s\n" % message


def _write_mixed_boundary(path):
    scalar = weiss2d.FourierPiece(winding=1, a0=(0.0,), modes=((1, (0.8,), (0.0,)),))
    planar = weiss2d.FourierPiece(winding=1, a0=(0.0, 0.0),
                                  modes=((1, (0.8, 0.1), (0.0, 0.0)),))
    weiss2d.save_boundary_data(str(path), [scalar, planar])


# errors a library call raises as ValueError reach main unwrapped; the
# messages were recorded when each handler still rewrapped them
LIBRARY_ERRORS = [
    (("check", "carleman", "--field", "branch:3/2", "--tau", "-1",
      "--chi", "annulus:0.1,0.2,0.6,0.8"), "tau must be positive"),
    (("check", "three-sphere", "--field", "branch:3/2", "--radii", "0.1,0.15,0.9",
      "--tau", "2.0"), "ratio r2/r1 = 1.5 must exceed 2"),
    (("frequency", "--field", "branch:3/2", "--identity", "0.4,0.2"),
     "need 0 < r_lo < r_hi"),
    (("vanishing-order", "--field", "branch:3/2", "--n-radii", "3"),
     "need at least 4 dyadic radii, got 3"),
    (("weiss", "--field", "branch:3/2", "--kappa", "-1"),
     "homogeneity degree kappa must be positive"),
    (("weiss", "--field", "branch:3/2", "--kappa", "1.5", "--derivative", "--h", "-1"),
     "need 0 < h < r for centered differencing"),
    (("epiperimetric", "--field", "branch:3/2", "--kappa", "-1"),
     "homogeneity degree kappa must be positive"),
    (("solve2d", "--boundary", "MIXED"), "boundary pieces disagree on target dimension"),
    (("check", "three-sphere", "--field", "branch:3/2", "--radii", "0,0.15,0.45",
      "--tau", "1"), "need r1 > 0, got 0"),
    (("check", "three-sphere", "--field", "branch:3/2", "--radii=-0.05,0.15,0.45",
      "--tau", "1"), "need r1 > 0, got -0.05"),
    (("check", "carleman", "--field", "branch:3/2", "--tau", "nan",
      "--chi", "annulus:0.1,0.2,0.6,0.8"), "tau must be positive"),
    (("check", "carleman", "--field", "branch:3/2", "--tau", "1", "--eps", "nan",
      "--chi", "annulus:0.1,0.2,0.6,0.8"), "eps must be nonnegative"),
    (("check", "caccioppoli", "--field", "branch:3/2", "--bump", "0.1,0.2,0.3,inf"),
     "--bump '0.1,0.2,0.3,inf': cutoff radii must be finite, got (0.1, 0.2, 0.3, inf)"),
    (("frequency", "--field", "branch:3/2", "--radii", "0.4,-0.1"),
     "sphere radius must satisfy 0 <= r < inf, got -0.1"),
    (("frequency", "--field", "branch:3/2", "--radii", "0.4,inf"),
     "sphere radius must satisfy 0 <= r < inf, got inf"),
    (("frequency", "--field", "branch:3/2", "--variant", "linear", "--radii", "0.4,-0.1"),
     "radii must satisfy 0 <= inner < outer < inf, got (-0.1, -0.2)"),
    (("check", "carleman", "--field", "branch:3/2", "--tau", "inf", "--eps", "0",
      "--chi", "annulus:0.1,0.2,0.6,0.8"), "tau and eps must be finite, got inf and 0.0"),
    (("check", "carleman", "--field", "branch:3/2", "--tau", "1", "--eps", "inf",
      "--chi", "annulus:0.1,0.2,0.6,0.8"), "tau and eps must be finite, got 1.0 and inf"),
    (("check", "three-sphere", "--field", "branch:3/2", "--radii", "0.05,0.15,0.45",
      "--tau", "nan"), "tau must be finite, got nan"),
    (("check", "doubling", "--field", "branch:3/2", "--kappa", "1.5", "--eta-abs", "inf"),
     "eta_abs must be positive and finite, got inf"),
    (("check", "caccioppoli", "--field", "branch:3/2", "--c-max", "nan"),
     "c_max must be finite, got nan"),
]


@pytest.mark.parametrize("argv,message", LIBRARY_ERRORS)
def test_library_value_errors_exit_2(capsys, tmp_path, argv, message):
    mixed = tmp_path / "mixed.json"
    _write_mixed_boundary(mixed)
    argv = [str(mixed) if a == "MIXED" else a for a in argv]
    code, out, err = run_cli(capsys, *argv, *FQ)
    assert code == 2
    assert out == ""
    assert err == "qvlab: error: %s\n" % message


@pytest.mark.parametrize("argv,message", [
    (("frequency", "--field", "branch:3/2", "--n-radii", "0"),
     "--n-radii must be at least 1, got 0"),
    (("frequency", "--field", "branch:3/2", "--n-radii", "-2"),
     "--n-radii must be at least 1, got -2"),
    (("deficit", "--field", "branch:3/2", "--kappa", "1.5", "--windows", "0"),
     "--windows must be at least 1, got 0"),
    (("deficit", "--field", "branch:3/2", "--kappa", "1.5", "--windows", "-1"),
     "--windows must be at least 1, got -1"),
])
def test_empty_profile_counts_exit_2(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv, *FQ)
    assert code == 2
    assert out == ""
    assert err == "qvlab: error: %s\n" % message


@pytest.mark.parametrize("argv", [
    ("weiss", "--field", "branch:3/2", "--kappa", "nan"),
    ("deficit", "--field", "branch:3/2", "--kappa", "nan"),
    ("deficit", "--field", "branch:3/2", "--kappa", "inf"),
    ("check", "doubling", "--field", "branch:3/2", "--kappa", "nan"),
])
def test_non_finite_kappa_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv, *FQ)
    assert code == 2
    assert out == ""
    assert err == "qvlab: error: --kappa must be a finite number or auto, got %r\n" % argv[-1]


def test_unknown_subcommand_exits_2(capsys):
    assert cli.main(["nosuchcmd"]) == 2
    capsys.readouterr()


def test_invalid_workers_env_exits_2(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("QVLAB_WORKERS", "zero")
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"fields": ["branch:1/2"], "taus": [1.0],
                               "cutoffs": [[0.1, 0.2, 0.6, 0.9]]}))
    code, _, err = run_cli(capsys, "sweep", "--config-sweep", str(cfg))
    assert code == 2
    assert "QVLAB_WORKERS" in err


def test_artifact_io_failure_exits_1_with_path(capsys, tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("a plain file, not a directory")
    target = blocker / "sub" / "rep.json"
    code, _, err = run_cli(capsys, "check", "caccioppoli", "--field", "trivial:2",
                           "--out", str(target), *FQ)
    assert code == 1
    assert str(target) in err


def test_trace_continuation_ambiguity_exits_2(capsys):
    argv = ("epiperimetric", "--field", "wound:0,3,3,1.8", "--kappa", "1.0")
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("qvlab: error: continuation ambiguity at node")
    assert err.count("\n") == 1
    assert "refine the angular sampling with --n-nodes above 512" in err
    code, rep = run_report(capsys, *argv, "--n-nodes", "4096")
    assert code == 0
    assert rep["provenance"]["config"]["n_nodes"] == 4096


# ---------------------------------------------------------------------------
# start-up imports


_IMPORT_GATE = textwrap.dedent("""
    import contextlib, io, itertools, json, os, sys
    import numpy as np

    def scipy_modules():
        return sorted(m for m in sys.modules if m.startswith("scipy"))

    seen = {}
    from qvlab import cli, qcore
    seen["import"] = scipy_modules()
    tmp = sys.argv[1]
    sweep = os.path.join(tmp, "sweep.json")
    with open(sweep, "w") as fh:
        json.dump({"fields": ["branch:1/2"], "taus": [1.0, 2.0],
                   "cutoffs": [[0.1, 0.2, 0.6, 0.9]],
                   "out_csv": os.path.join(tmp, "sweep.csv"),
                   "out_report": os.path.join(tmp, "sweep_report.json")}, fh)
    quad = ["--quad-radial", "10", "--quad-angular", "48"]
    codes = {}
    with contextlib.redirect_stdout(io.StringIO()):
        codes["sweep"] = cli.main(["sweep", "--config-sweep", sweep] + quad)
        seen["sweep"] = scipy_modules()
        codes["epiperimetric"] = cli.main(
            ["epiperimetric", "--field", "wound:1,3,1,1.8", "--kappa", "1.0"])
        seen["epiperimetric"] = scipy_modules()

    rng = np.random.default_rng(7)
    p = qcore.QPoint(rng.normal(size=(7, 2)))
    q = qcore.QPoint(rng.normal(size=(7, 2)))
    cost = qcore._cost_matrix(p, q)
    brute = min(itertools.permutations(range(7)), key=lambda perm: cost[range(7), perm].sum())
    plan = qcore.optimal_matching(p, q)
    print(json.dumps({"seen": seen, "codes": codes, "perm": plan.permutation, "brute": brute,
                      "solver_loaded": "scipy.optimize" in sys.modules}))
""")


def test_cli_paths_up_to_six_sheets_load_no_scipy(tmp_path):
    """SciPy is imported only for matchings of more than six sheets, so
    importing the CLI and running a sweep and a Q = 3 wound epiperimetric
    check leave it unloaded; a Q = 7 matching still loads the solver."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(qvlab.__file__)))
    env = dict(os.environ, PYTHONPATH=src, QVLAB_WORKERS="1")
    proc = subprocess.run([sys.executable, "-c", _IMPORT_GATE, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["codes"] == {"sweep": 0, "epiperimetric": 0}
    assert result["seen"] == {"import": [], "sweep": [], "epiperimetric": []}
    assert result["perm"] == result["brute"]
    assert result["solver_loaded"]


_BATTERY_GATE = textwrap.dedent("""
    import contextlib, io, json, sys
    from qvlab import cli, weiss2d

    runs = []
    inner = weiss2d.stationarity_battery

    def counted(*args, **kwargs):
        runs.append(1)
        return inner(*args, **kwargs)

    weiss2d.stationarity_battery = counted
    argv = json.loads(sys.argv[1])
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    print(json.dumps({"code": code, "batteries": len(runs)}))
""")


@pytest.mark.parametrize("argv, batteries", [
    (["epiperimetric", "--field", "wound:1,3,1,1.8", "--kappa", "1.0"], 0),
    (["solve2d", "--boundary", "BOUNDARY", *FQ], 1),
])
def test_wound_cli_call_runs_battery_only_when_it_reads_the_certificate(tmp_path, argv, batteries):
    """A parsed wound field builds its construction certificate on first
    read, which no subcommand but solve2d (on its own --boundary solve)
    does."""
    bd = tmp_path / "bd.json"
    _write_boundary(bd)
    argv = [str(bd) if a == "BOUNDARY" else a for a in argv]
    src = os.path.dirname(os.path.dirname(os.path.abspath(qvlab.__file__)))
    env = dict(os.environ, PYTHONPATH=src, QVLAB_WORKERS="1")
    proc = subprocess.run([sys.executable, "-c", _BATTERY_GATE, json.dumps(argv)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == {"code": 0, "batteries": batteries}


# ---------------------------------------------------------------------------
# sweep


def _sweep_config(tmp_path, **overrides):
    raw = {
        "fields": ["branch:1/2"],
        "taus": [1.0, 2.0],
        "cutoffs": [[0.1, 0.2, 0.6, 0.9]],
        "out_csv": str(tmp_path / "sweep.csv"),
        "out_report": str(tmp_path / "sweep_report.json"),
    }
    raw.update(overrides)
    path = tmp_path / "sweep_config.json"
    path.write_text(json.dumps(raw))
    return path


def test_sweep_rows_and_report(capsys, tmp_path):
    cfg = _sweep_config(tmp_path)
    code, out, err = run_cli(capsys, "sweep", "--config-sweep", str(cfg), *FQ)
    assert code == 0
    rep = json.loads(out)
    assert rep["name"] == "sweep"
    assert rep["quantities"]["n_rows"] == 2.0
    assert "trend:branch:1/2" in rep["quantities"]
    lines = (tmp_path / "sweep.csv").read_text().strip().split("\n")
    assert lines[1] == ",".join(cli.SWEEP_COLUMNS)
    assert len(lines) == 4
    first = dict(zip(cli.SWEEP_COLUMNS, lines[2].split(",")))
    assert first["case"] == "carleman"
    assert first["field"] == "branch:1/2"
    assert first["verdict"] == "pass"


def test_sweep_deterministic_across_worker_counts(capsys, tmp_path, monkeypatch):
    outputs = {}
    for workers in ("1", "3"):
        monkeypatch.setenv("QVLAB_WORKERS", workers)
        cfg = _sweep_config(tmp_path,
                            out_csv=str(tmp_path / ("s%s.csv" % workers)),
                            out_report=str(tmp_path / ("r%s.json" % workers)))
        code, _, _ = run_cli(capsys, "sweep", "--config-sweep", str(cfg), *FQ)
        assert code == 0
        outputs[workers] = ((tmp_path / ("s%s.csv" % workers)).read_text(),
                            (tmp_path / ("r%s.json" % workers)).read_text())
    assert outputs["1"] == outputs["3"]


def test_sweep_delta_and_kappa_grids(capsys, tmp_path):
    cfg = _sweep_config(tmp_path, fields=["branch:3/2"], taus=[1.5],
                        deltas=[0.02], kappas=[1.5])
    code, out, _ = run_cli(capsys, "sweep", "--config-sweep", str(cfg), *FQ)
    assert code == 0
    lines = (tmp_path / "sweep.csv").read_text().strip().split("\n")
    cases = {line.split(",", 1)[0] for line in lines[2:]}
    assert cases == {"carleman", "modified", "epiperimetric"}


SWEEP_GOLDEN_CSV = "10bf49e3a49cd8488db8860e60a8d009f48145e9e69c592810114c5c9e29ab3f"
SWEEP_GOLDEN_REPORT = "479b6db6d707e3e5bbf9c28d1ea5523555c088f577f4590d55b9adfc5757289d"


def test_sweep_golden_bytes(capsys, tmp_path):
    """sha256 of the CSV and the report of one sweep with carleman, modified
    and epiperimetric rows at radial 8 x angular 32, recorded before the two
    cutoff types were merged and re-recorded for report schema 2 (the CSV
    when the Gauss-Legendre nodes were polished, five rows moving in their
    last digits; the report for its format string). The CSV was re-recorded
    again when branch fields came to be evaluated on the polar product grid:
    the branch:3/2 carleman rhs moved by one ulp (its ratio with it) and the
    modified lhs, a cancellation near 1e-30, in its leading digits. It was
    re-recorded when the modified check came to form its left side from the
    moment S = |Df . x - eta f|^2 of the shared integrand: the four modified
    rows moved, lhs and ratio by at most 3.8e-16 relative, and the branch:3/2
    lhs near 1e-30, a cancellation, in its leading digits. It was
    re-recorded when the integrand came to run once per radius on the
    sphere moments: the harmonic:n2m1:x1 modified row at tau 2 moved its
    lhs and ratio by one ulp each. Any change to a row or report byte
    fails here."""
    cfg = _sweep_config(tmp_path, fields=["branch:3/2", "harmonic:n2m1:x1"],
                        taus=[1.5, 2.0], deltas=[0.02], kappas=[1.5])
    code, out, _ = run_cli(capsys, "sweep", "--config-sweep", str(cfg),
                           "--quad-radial", "8", "--quad-angular", "32")
    assert code == 0
    csv_text = (tmp_path / "sweep.csv").read_text()
    report_text = (tmp_path / "sweep_report.json").read_text()
    assert out == report_text
    cases = {line.split(",", 1)[0] for line in csv_text.strip().split("\n")[2:]}
    assert cases == {"carleman", "modified", "epiperimetric"}
    assert hashlib.sha256(csv_text.encode()).hexdigest() == SWEEP_GOLDEN_CSV
    assert hashlib.sha256(report_text.encode()).hexdigest() == SWEEP_GOLDEN_REPORT


def test_sweep_empty_grid_exits_2(capsys, tmp_path):
    cfg = _sweep_config(tmp_path, taus=[])
    code, _, err = run_cli(capsys, "sweep", "--config-sweep", str(cfg))
    assert code == 2
    assert "taus" in err


def test_sweep_nonpositive_tolerance_exits_2(capsys, tmp_path):
    cfg = _sweep_config(tmp_path, tolerances={"ratio_max": -1.0})
    code, _, err = run_cli(capsys, "sweep", "--config-sweep", str(cfg))
    assert code == 2
    assert "ratio_max" in err


def test_sweep_unknown_key_exits_2(capsys, tmp_path):
    cfg = _sweep_config(tmp_path, gamma=[1.0])
    code, _, err = run_cli(capsys, "sweep", "--config-sweep", str(cfg))
    assert code == 2
    assert "gamma" in err


def test_sweep_config_validation_direct():
    with pytest.raises(UsageError, match="fields"):
        SweepConfig(fields=(), taus=(1.0,), cutoffs=((0.1, 0.2, 0.6, 0.9),))
    with pytest.raises(UsageError, match="bent_radii"):
        SweepConfig(fields=("trivial:1",), taus=(1.0,),
                    cutoffs=((0.1, 0.2, 0.6, 0.9),), bent_radii=(0.3, 0.2))
