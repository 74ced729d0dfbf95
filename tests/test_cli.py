import hashlib
import importlib.metadata
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import relpose
import relpose.checks
import relpose.cli
from relpose import pgo
from relpose.bench import bench
from relpose.checks import check_jacobians
from relpose.cli import main

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "scenarios"


def write_small_scenario(tmp_path, **extra):
    d = {
        "version": 1,
        "seed": 3,
        "duration": 2.0,
        "id_mode": "oracle",
        "rates": {"imu": 100.0, "cam": 50.0, "uwb": 25.0},
        "robots": [
            {"id": 0, "trajectory": {"kind": "static", "center": [0, 0, 1]}},
            {"id": 1, "trajectory": {"kind": "circle", "center": [4, 0, 1], "radius": 1.0, "omega": 0.5}},
        ],
    }
    d.update(extra)
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(d))
    return p


def test_run_subcommand(tmp_path, capsys):
    cfg = write_small_scenario(tmp_path)
    out = tmp_path / "out"
    rc = main(["run", str(cfg), "--out", str(out)])
    assert rc == 0
    metrics = json.loads(capsys.readouterr().out)
    assert "0-1" in metrics["pairs"]
    assert (out / "metrics.json").exists()
    assert (out / "eskf_0_1.csv").exists()


def test_run_reads_the_config_once(tmp_path, capsys, monkeypatch):
    # the manifest hashes the object the run loaded: a file rewritten after
    # that one read changes neither the run nor the hash
    cfg = write_small_scenario(tmp_path)
    loaded = json.loads(cfg.read_text())
    read_text, reads = Path.read_text, []

    def read_once_then_rewrite(self, *args, **kwargs):
        text = read_text(self, *args, **kwargs)
        if self == cfg:
            reads.append(text)
            cfg.write_text(json.dumps(loaded | {"seed": 4, "duration": 1.0}))
        return text

    monkeypatch.setattr(Path, "read_text", read_once_then_rewrite)
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert len(reads) == 1
    manifest = dict(line.split(": ", 1) for line in (tmp_path / "out" / "manifest.txt").read_text().splitlines())
    digest = hashlib.sha256(json.dumps(loaded, sort_keys=True).encode()).hexdigest()
    assert manifest["config_sha256"] == digest
    assert manifest["seed"] == "3"
    t = (tmp_path / "out" / "eskf_0_1.csv").read_text().splitlines()[-1].split(",")[0]
    assert float(t) == 2.0  # the loaded duration, not the rewritten one


def test_run_seed_override(tmp_path, capsys):
    cfg = write_small_scenario(tmp_path)
    main(["run", str(cfg), "--out", str(tmp_path / "a"), "--seed", "99"])
    a = capsys.readouterr().out
    main(["run", str(cfg), "--out", str(tmp_path / "b"), "--seed", "99"])
    b = capsys.readouterr().out
    assert a == b
    main(["run", str(cfg), "--out", str(tmp_path / "c"), "--seed", "100"])
    c = capsys.readouterr().out
    assert a != c


def test_run_invalid_config_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"version": 1}))
    rc = main(["run", str(p)])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_run_unknown_led_exits_2(tmp_path, capsys):
    cfg = write_small_scenario(
        tmp_path,
        robots=[
            {"id": 0, "trajectory": {"kind": "static", "center": [0, 0, 1]}},
            {"id": 1, "led": 9, "trajectory": {"kind": "static", "center": [4, 0, 1]}},
        ],
    )
    rc = main(["run", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "config error: robots: robot 1 has led 9" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_repeated_led_exits_2(tmp_path, capsys):
    cfg = write_small_scenario(
        tmp_path,
        robots=[
            {"id": 0, "trajectory": {"kind": "static", "center": [0, 0, 1]}},
            {"id": 1, "led": 2, "trajectory": {"kind": "static", "center": [4, 0, 1]}},
            {"id": 2, "trajectory": {"kind": "static", "center": [0, 4, 1]}},
        ],
    )
    rc = main(["run", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "config error: robots: robots 1 and 2 both have led 2" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_strict_flag_accepts_converged(tmp_path, capsys):
    cfg = write_small_scenario(
        tmp_path, estimator="pgo", pairs="all", pgo_rate=5.0,
        robots=[
            {"id": 0, "trajectory": {"kind": "static", "center": [0, 0, 1]}},
            {"id": 1, "trajectory": {"kind": "static", "center": [4, 0, 1]}},
            {"id": 2, "trajectory": {"kind": "static", "center": [2, 3, 1]}},
        ],
    )
    rc = main(["run", str(cfg), "--out", str(tmp_path / "out"), "--strict"])
    assert rc == 0


def test_run_strict_flag_rejects_unconverged(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(pgo, "MAX_ITERS", 1)  # too few iterations for any graph to converge
    out = tmp_path / "out"
    rc = main(["run", str(SCENARIOS / "four_robot_pgo.json"), "--out", str(out), "--strict"])
    assert rc == 1
    assert "strict: 121 PGO solves did not converge" in capsys.readouterr().err
    assert (out / "metrics.json").exists()


def robot_1(trajectory):
    return {"robots": [{"id": 0, "trajectory": {"kind": "static"}}, {"id": 1, "trajectory": trajectory}]}


@pytest.mark.parametrize(
    "extra,message",
    [
        ({"rates": {"imu": 100.0, "cam": 30.0, "uwb": 50.0}}, "rates: 30 Hz does not divide 100 Hz"),
        ({"seed": -1}, "seed: must be >= 0"),
        (
            {"estimator": "pgo", "rates": {"imu": 100.0, "cam": 100.0, "uwb": 50.0}, "pgo_rate": 40.0},
            "pgo_rate: 40 Hz does not divide 100 Hz",
        ),
        (robot_1({"kind": "static", "duration": 1.0}), "robots: robot 1's trajectory ends at 1 s"),
        (
            robot_1({"kind": "waypoints", "waypoints": [[0.0, [4, 0, 1]], [1.0, [5, 0, 1]]]}),
            "trajectory: waypoints span [0, 1] s, not [0, 2] s",
        ),
        ({"duration": 2.005}, "duration: 2.005 s is not a whole number of 100 Hz master ticks"),
        # without the check, each of these runs something else or stops with a traceback
        ({"rates": {"imu": 100.0, "camera": 50.0, "uwb": 25.0}}, "rates: unknown fields ['camera']"),
        ({"estimater": "pgo"}, "config: unknown fields ['estimater']"),
        ({"seed": 1.5}, "seed: expected an integer, got 1.5"),
        (
            {"robots": [{"id": 0, "trajectory": {"kind": "static"}}, {"id": "one", "trajectory": {"kind": "static"}}]},
            "robots[1].id: expected an integer, got 'one'",
        ),
        ({"duration": "ten"}, "duration: expected a finite number, got 'ten'"),
        (robot_1({"kind": "static", "center": "123"}), "trajectory.center: expected a list of 3 values, got '123'"),
        (
            robot_1({"kind": "static", "center": [4, float("nan"), 1]}),
            "trajectory.center[1]: expected a finite number, got nan",
        ),
        (
            robot_1({"kind": "static", "attitude": {"yaw_rate": "0.1"}}),
            "trajectory.attitude.yaw_rate: expected a finite number, got '0.1'",
        ),
        (
            robot_1({"kind": "static", "center": [4.0, 1.0]}),
            "trajectory.center: expected a list of 3 values, got [4.0, 1.0]",
        ),
        (
            {"obstacles": [{"shape": "box", "center": [3, 0], "extents": [1, 1, 1]}]},
            "obstacles[0].center: expected a list of 3 values, got [3, 0]",
        ),
    ],
    ids=[
        "rates", "seed", "pgo_rate", "short_trajectory", "waypoints", "duration",
        "unknown_rate", "unknown_field", "fractional_seed", "text_id", "text_duration",
        "text_center", "nan_center", "text_yaw_rate", "short_center", "short_obstacle_center",
    ],
)
def test_run_config_error_exits_2(tmp_path, capsys, extra, message):
    cfg = write_small_scenario(tmp_path, **extra)
    rc = main(["run", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "export-gt"])
def test_negative_seed_override_exits_2(tmp_path, capsys, command):
    cfg = write_small_scenario(tmp_path)
    rc = main([command, str(cfg), "--seed", "-3", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "config error: seed: must be >= 0, got -3" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_check_jacobians_subcommand(capsys):
    rc = main(["check-jacobians", "--states", "5", "--seed", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    for name in ("Fx", "Fi", "H", "G"):
        assert name in out
    assert "FAIL" not in out


def _with_nan(fn, entry):
    def patched(*args):
        J = fn(*args)
        J[entry] = np.nan
        return J

    return patched


@pytest.mark.parametrize(
    "target,name,entry",
    [
        ("compute_Fx", "Fx", (4, 7)),  # one NaN in the analytic matrix
        ("compute_Fx", "Fx", slice(None)),  # every entry NaN
        ("measurement_map", "H", 2),  # NaN in the map the FD side differentiates
    ],
    ids=["analytic_entry", "analytic_all", "finite_difference"],
)
def test_check_jacobians_fails_on_nan(monkeypatch, capsys, target, name, entry):
    # a NaN used to leave the running maximum where it was, so the check passed
    monkeypatch.setattr(relpose.checks, target, _with_nan(getattr(relpose.checks, target), entry))
    worst = check_jacobians(5, 0)
    assert worst[name] == np.inf
    assert all(worst[k] < 1e-6 for k in worst if k != name)
    assert main(["check-jacobians", "--states", "5"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert f"{name}: max rel. error inf  [FAIL]" in lines
    assert sum("[FAIL]" in line for line in lines) == 1


@pytest.mark.parametrize(
    "argv,message",
    [
        # each of these passed without checking anything, or stopped with a traceback
        (["check-jacobians", "--states", "0"], "argument --states: expected an integer >= 1, got 0"),
        (["check-jacobians", "--states", "-3"], "argument --states: expected an integer >= 1, got -3"),
        (["check-jacobians", "--seed", "-1"], "argument --seed: expected an integer >= 0, got -1"),
        (["bench", "--reps", "0"], "argument --reps: expected an integer >= 1, got 0"),
        (["bench", "--reps", "-5"], "argument --reps: expected an integer >= 1, got -5"),
    ],
    ids=["zero_states", "negative_states", "negative_seed", "zero_reps", "negative_reps"],
)
def test_counts_and_seeds_out_of_range_exit_2(capsys, argv, message):
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2
    out, err = capsys.readouterr()
    assert message in err
    assert out == ""  # no Jacobian reported as checked, no timing


@pytest.mark.parametrize(
    "call",
    [
        lambda: check_jacobians(n_states=0),
        lambda: check_jacobians(n_states=-3),
        lambda: bench(reps=0),
        lambda: bench(reps=-5),
    ],
    ids=["zero_states", "negative_states", "zero_reps", "negative_reps"],
)
def test_library_counts_below_one_raise(call):
    # check_jacobians(n_states=0) reported a worst error of 0.0 having checked
    # nothing, and bench(reps=0) stopped with an IndexError
    with pytest.raises(ValueError, match="must be at least 1"):
        call()


def test_bench_subcommand(capsys):
    rc = main(["bench", "--reps", "5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "raw_estimate_row" in out
    assert "eskf_cycle" in out
    assert "pgo_5robot" in out
    assert "eskf_bank10" in out


def test_export_gt_subcommand(tmp_path, capsys):
    cfg = write_small_scenario(tmp_path)
    out = tmp_path / "gt"
    rc = main(["export-gt", str(cfg), "--out", str(out)])
    assert rc == 0
    assert (out / "gt_robot0.csv").exists()
    assert (out / "gt_robot1.csv").exists()


def test_export_gt_writes_truth_without_running(tmp_path, monkeypatch):
    cfg = write_small_scenario(tmp_path)
    run_out = tmp_path / "run"
    assert main(["run", str(cfg), "--out", str(run_out)]) == 0

    def no_run(*args, **kwargs):
        raise AssertionError("export-gt must not run the estimators")

    monkeypatch.setattr(relpose.cli, "run_scenario", no_run)
    out = tmp_path / "gt"
    assert main(["export-gt", str(cfg), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["gt_robot0.csv", "gt_robot1.csv"]
    for name in ("gt_robot0.csv", "gt_robot1.csv"):
        assert (out / name).read_bytes() == (run_out / name).read_bytes()


def test_export_gt_invalid_config(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{}")
    assert main(["export-gt", str(p)]) == 2


def _declared_script():
    """The `relpose` console-script target declared in pyproject.toml."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(ROOT / "pyproject.toml", "rb") as f:
        scripts = tomllib.load(f)["project"].get("scripts", {})
    assert "relpose" in scripts, "pyproject.toml declares no `relpose` console script"
    return scripts["relpose"]


def _distribution_installed():
    try:
        importlib.metadata.distribution("relpose")
    except importlib.metadata.PackageNotFoundError:
        return False
    return True


def _run_as_console_script(args, cwd):
    """Run `relpose.cli.main` in a child process the way the generated
    console-script wrapper does: `sys.exit(main())` with argv from the command
    line, importing the same `relpose` this test process imported."""
    env = dict(os.environ)
    pkg_root = str(Path(relpose.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [pkg_root, env.get("PYTHONPATH")]))
    code = "import sys; from relpose.cli import main; sys.exit(main())"
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def test_entry_point_installed(tmp_path):
    ep = importlib.metadata.EntryPoint(
        name="relpose", value=_declared_script(), group="console_scripts"
    )
    assert ep.load() is main

    proc = _run_as_console_script(["--help"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "usage: relpose" in proc.stdout
    for name in ("run", "check-jacobians", "bench", "export-gt"):
        assert name in proc.stdout

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"version": 1}))
    proc = _run_as_console_script(["run", str(bad)], tmp_path)
    assert proc.returncode == 2, (proc.stdout, proc.stderr)
    assert "config error" in proc.stderr


@pytest.mark.skipif(
    not _distribution_installed(), reason="the relpose distribution is not installed"
)
def test_entry_point_on_path():
    installed = importlib.metadata.distribution("relpose").entry_points.select(
        group="console_scripts", name="relpose"
    )
    assert [ep.value for ep in installed] == [_declared_script()]

    script = shutil.which("relpose")
    assert script is not None
    proc = subprocess.run(
        [script, "--help"], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert "usage: relpose" in proc.stdout
