import importlib.metadata
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import relpose
import relpose.cli
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


def test_check_jacobians_subcommand(capsys):
    rc = main(["check-jacobians", "--states", "5", "--seed", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    for name in ("Fx", "Fi", "H", "G"):
        assert name in out
    assert "FAIL" not in out


def test_bench_subcommand(capsys):
    rc = main(["bench", "--reps", "5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "eskf_cycle" in out
    assert "pgo_5robot" in out


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
