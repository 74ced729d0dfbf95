"""Each output check passes a real run and rejects a corrupted one.

Runs are shortened copies of the workloads so the suite stays fast; after a
corruption of the series, the program's own `compute_metrics` refreshes the
metrics where a test targets a property rather than the ATE comparison.
"""

import copy
import json
import shutil

import numpy as np
import pytest

import checks
import truth
import workloads
from relpose.codec import MIN_PERIODS, IdLibrary
from relpose.geom import Pose
from relpose.runner import compute_metrics, run_scenario, write_outputs
from relpose.scenario import config_from_dict


def _run(cfg):
    return run_scenario(config_from_dict(cfg))


def _shift(series, dp):
    series.poses = [Pose(p.R, p.t + dp) for p in series.poses]


@pytest.fixture(scope="module")
def pair():
    cfg = workloads.WORKLOADS["pair_eskf"].config(3)
    cfg["duration"] = 6.0
    return cfg, _run(cfg)


@pytest.fixture(scope="module")
def team():
    cfg = workloads.WORKLOADS["team_pgo"].config(3)
    cfg["duration"] = 2.0
    # start robot 1 where the box soon blocks its sight line to the ego
    cfg["robots"][1]["trajectory"]["phase"] = -1.6
    return cfg, _run(cfg)


@pytest.fixture(scope="module")
def codec(tmp_path_factory):
    cfg = workloads.WORKLOADS["codec_cli"].config(3)
    cfg["duration"] = 1.0
    res = _run(cfg)
    out = tmp_path_factory.mktemp("codec") / "out"
    write_outputs(res, out, cfg)
    return cfg, res, out


def test_pair_checks_pass_and_reject(pair):
    cfg, res = pair
    checks.check_pair_eskf(cfg, res, checks.series_stats(cfg, res))

    bad = copy.deepcopy(res)
    _shift(bad.eskf[(0, 1)], np.array([0.0, 0.0, 0.01]))
    with pytest.raises(checks.CheckFailed, match="ate_pos_m"):
        checks.series_stats(cfg, bad)

    bad = copy.deepcopy(res)
    bad.metrics["raw"]["0-1"]["ate_rot_deg"] += 1e-6
    with pytest.raises(checks.CheckFailed, match="ate_rot_deg"):
        checks.series_stats(cfg, bad)

    bad = copy.deepcopy(res)
    del bad.metrics["pairs"]["0-1"]
    with pytest.raises(checks.CheckFailed, match="missing"):
        checks.series_stats(cfg, bad)

    bad = copy.deepcopy(res)
    _shift(bad.eskf[(0, 1)], np.array([0.3, 0.0, 0.0]))
    bad.metrics = compute_metrics(bad)
    with pytest.raises(checks.CheckFailed, match="not below raw"):
        checks.check_pair_eskf(cfg, bad, checks.series_stats(cfg, bad))

    bad = copy.deepcopy(res)
    _shift(bad.raw[(0, 1)], np.array([0.0, 0.5, 0.0]))
    bad.metrics = compute_metrics(bad)
    with pytest.raises(checks.CheckFailed, match="median raw position"):
        checks.check_pair_eskf(cfg, bad, checks.series_stats(cfg, bad))


def test_team_checks_pass_and_reject(team):
    cfg, res = team
    checks.check_team_pgo(cfg, res, checks.series_stats(cfg, res))

    bad = copy.deepcopy(res)
    bad.pgo_converged[0] = False
    with pytest.raises(checks.CheckFailed, match="did not converge"):
        checks.check_team_pgo(cfg, bad, checks.series_stats(cfg, bad))

    bad = copy.deepcopy(res)
    for rid in (1, 2, 3, 4):
        _shift(bad.pgo[rid], np.array([0.5, 0.0, 0.0]))
    bad.metrics = compute_metrics(bad)
    with pytest.raises(checks.CheckFailed, match="mean PGO ATE"):
        checks.check_team_pgo(cfg, bad, checks.series_stats(cfg, bad))

    # keep robot 1's PGO estimates from the clear stretches only
    bad = copy.deepcopy(res)
    ser = bad.pgo[1]
    t = np.asarray(ser.t)
    robots = {r["id"]: r["trajectory"] for r in cfg["robots"]}
    ob = cfg["obstacles"][0]
    blocked = truth.box_blocks(
        ob["center"], ob["extents"],
        truth.position_velocity(robots[0], t)[0], truth.position_velocity(robots[1], t)[0],
    )
    assert blocked.any() and not blocked.all()
    ser.t = [x for x, b in zip(ser.t, blocked) if not b]
    ser.poses = [x for x, b in zip(ser.poses, blocked) if not b]
    bad.metrics = compute_metrics(bad)
    with pytest.raises(checks.CheckFailed, match="blocked"):
        checks.check_team_pgo(cfg, bad, checks.series_stats(cfg, bad))


def _check_codec(cfg, res, out):
    checks.check_codec_cli(
        cfg, res, checks.series_stats(cfg, res), out, MIN_PERIODS, IdLibrary().period
    )


def _corrupt(out, tmp_path, name, edit):
    dst = tmp_path / "copy"
    shutil.copytree(out, dst)
    path = dst / name
    edit(path)
    return dst


def test_codec_checks_pass_and_reject(codec, tmp_path):
    cfg, res, out = codec
    _check_codec(cfg, res, out)

    def drop_last_row(path):
        path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))

    dst = _corrupt(out, tmp_path, "raw_0_1.csv", drop_last_row)
    with pytest.raises(checks.CheckFailed, match="rows"):
        _check_codec(cfg, res, dst)
    shutil.rmtree(dst)

    dst = _corrupt(out, tmp_path, "eskf_0_1.csv", lambda p: p.unlink())
    with pytest.raises(checks.CheckFailed, match="missing"):
        _check_codec(cfg, res, dst)
    shutil.rmtree(dst)

    def move_robot(path):
        lines = path.read_text().splitlines(keepends=True)
        f = lines[5].split(",")
        f[1] = repr(float(f[1]) + 1e-6)
        lines[5] = ",".join(f)
        path.write_text("".join(lines))

    dst = _corrupt(out, tmp_path, "gt_robot1.csv", move_robot)
    with pytest.raises(checks.CheckFailed, match="position"):
        _check_codec(cfg, res, dst)
    assert checks.directory_digest(dst) != checks.directory_digest(out)
    shutil.rmtree(dst)

    def edit_metrics(path):
        m = json.loads(path.read_text())
        m["pairs"]["0-1"]["n_samples"] += 1
        path.write_text(json.dumps(m))

    dst = _corrupt(out, tmp_path, "metrics.json", edit_metrics)
    with pytest.raises(checks.CheckFailed, match="metrics.json"):
        _check_codec(cfg, res, dst)
    shutil.rmtree(dst)

    bad = copy.deepcopy(res)
    bad.raw[(0, 1)].t = bad.raw[(0, 1)].t[40:]
    bad.raw[(0, 1)].poses = bad.raw[(0, 1)].poses[40:]
    bad.metrics = compute_metrics(bad)
    with pytest.raises(checks.CheckFailed, match="first raw sample"):
        checks.check_codec_cli(
            cfg, bad, checks.series_stats(cfg, bad), out, MIN_PERIODS, IdLibrary().period
        )
