import json
from pathlib import Path

import numpy as np
import pytest

import relpose.runner
from relpose.runner import compute_metrics, export_ground_truth, run_scenario, write_outputs
from relpose.scenario import config_from_dict
from relpose.world import MessageBus, World
from scalar_reference import compute_metrics_per_sample, error_series_per_sample

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def small_config(**extra):
    d = {
        "version": 1,
        "seed": 13,
        "duration": 3.0,
        "ego": 0,
        "estimator": "eskf",
        "id_mode": "oracle",
        "rates": {"imu": 100.0, "cam": 50.0, "uwb": 25.0},
        "robots": [
            {"id": 0, "trajectory": {"kind": "static", "center": [0, 0, 1]}},
            {
                "id": 1,
                "trajectory": {"kind": "circle", "center": [4, 0, 1], "radius": 1.0, "omega": 0.5},
            },
        ],
    }
    d.update(extra)
    return config_from_dict(d)


def test_run_produces_estimates():
    res = run_scenario(small_config())
    assert len(res.raw[(0, 1)].t) > 50
    assert len(res.eskf[(0, 1)].t) > 50
    m = res.metrics["pairs"]["0-1"]
    assert m["median_pos_m"] < 0.2
    assert m["median_rot_deg"] < 1.0


def test_run_codec_mode_decodes_then_estimates():
    cfg = small_config(id_mode="codec", rates={"imu": 200.0, "cam": 200.0, "uwb": 50.0})
    res = run_scenario(cfg)
    # codec needs a few periods before the first decode
    assert res.raw[(0, 1)].t[0] >= 3 * 0.05 - 1e-9
    assert res.metrics["pairs"]["0-1"]["median_pos_m"] < 0.2


def test_run_estimator_raw_skips_filters():
    res = run_scenario(small_config(estimator="raw"))
    assert len(res.raw[(0, 1)].t) > 50
    assert len(res.eskf[(0, 1)].t) == 0
    assert res.metrics["pairs"] == {}


def test_run_pgo_four_robots():
    cfg = config_from_dict(json.loads((SCENARIOS / "four_robot_pgo.json").read_text()))
    cfg.duration = 3.0
    res = run_scenario(cfg)
    assert set(res.pgo) == {1, 2, 3}
    assert all(len(s.t) > 0 for s in res.pgo.values())
    assert res.pgo_converged and all(res.pgo_converged)
    for rid in (1, 2, 3):
        assert res.metrics["pgo"][str(rid)]["median_pos_m"] < 0.2


def test_same_seed_reproduces_exactly():
    a = run_scenario(small_config())
    b = run_scenario(small_config())
    assert a.raw[(0, 1)].t == b.raw[(0, 1)].t
    for pa, pb in zip(a.eskf[(0, 1)].poses, b.eskf[(0, 1)].poses):
        assert np.array_equal(pa.t, pb.t)
        assert np.array_equal(pa.R, pb.R)


def test_different_seed_differs():
    a = run_scenario(small_config())
    b = run_scenario(small_config(seed=14))
    assert not np.array_equal(a.eskf[(0, 1)].poses[-1].t, b.eskf[(0, 1)].poses[-1].t)


def test_write_outputs_files(tmp_path):
    res = run_scenario(small_config())
    write_outputs(res, tmp_path, config_dict={"version": 1})
    assert (tmp_path / "gt_robot0.csv").exists()
    assert (tmp_path / "gt_robot1.csv").exists()
    assert (tmp_path / "raw_0_1.csv").exists()
    assert (tmp_path / "eskf_0_1.csv").exists()
    assert (tmp_path / "metrics.json").exists()
    manifest = (tmp_path / "manifest.txt").read_text()
    assert "seed: 13" in manifest
    assert "config_sha256" in manifest
    header = (tmp_path / "eskf_0_1.csv").read_text().splitlines()[0]
    assert header.startswith("t_s,px_m,py_m,pz_m,vx_ms")


def test_export_ground_truth_grid(tmp_path):
    res = run_scenario(small_config())
    export_ground_truth(res.world, res.config.duration, tmp_path)
    rows = (tmp_path / "gt_robot1.csv").read_text().splitlines()
    assert len(rows) == 1 + int(3.0 * 50) + 1  # header + samples on the cam grid
    first = rows[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == pytest.approx(5.0)  # circle start x = cx + r


def test_pairs_all_mode():
    cfg = small_config(pairs="all")
    cfg2 = config_from_dict(
        {
            "version": 1,
            "seed": 1,
            "duration": 2.0,
            "ego": 0,
            "pairs": "all",
            "id_mode": "oracle",
            "rates": {"imu": 100.0, "cam": 50.0, "uwb": 25.0},
            "robots": [
                {"id": 0, "trajectory": {"kind": "static", "center": [0, 0, 1]}},
                {"id": 1, "trajectory": {"kind": "static", "center": [4, 0, 1]}},
                {"id": 2, "trajectory": {"kind": "static", "center": [2, 3, 1]}},
            ],
        }
    )
    res = run_scenario(cfg2)
    assert set(res.raw) == {(0, 1), (0, 2), (1, 2)}


def test_occlusion_blocks_pair():
    cfg = config_from_dict(
        {
            "version": 1,
            "seed": 2,
            "duration": 2.0,
            "estimator": "raw",
            "id_mode": "oracle",
            "rates": {"imu": 100.0, "cam": 50.0, "uwb": 25.0},
            "obstacles": [{"shape": "box", "center": [2, 0, 1], "extents": [0.5, 0.5, 1.0]}],
            "robots": [
                {"id": 0, "trajectory": {"kind": "static", "center": [0, 0, 1]}},
                {"id": 1, "trajectory": {"kind": "static", "center": [4, 0, 1]}},
            ],
        }
    )
    res = run_scenario(cfg)
    assert len(res.raw[(0, 1)].t) == 0


def test_metrics_equal_per_sample_reference(monkeypatch):
    cfg = config_from_dict(json.loads((SCENARIOS / "four_robot_pgo.json").read_text()))
    cfg.duration = 2.0
    cfg.pairs = "all"
    res = run_scenario(cfg)
    assert {len(res.metrics[g]) for g in ("pairs", "raw", "pgo")} == {3, 6}
    assert res.metrics == compute_metrics_per_sample(res)
    recorded = [(o, g, s) for (o, g), s in res.eskf.items()] + [(o, g, s) for (o, g), s in res.raw.items()]
    recorded += [(cfg.ego, rid, s) for rid, s in res.pgo.items()]
    error_series = relpose.runner.error_series
    for obs, tgt, ser in recorded:
        got = error_series(res.gt_pair(ser, obs, tgt))
        assert np.array_equal(got, error_series_per_sample(res, ser, obs, tgt))
    calls = []

    def counted(pair):
        calls.append(pair)
        return error_series(pair)

    monkeypatch.setattr(relpose.runner, "error_series", counted)
    assert compute_metrics(res) == res.metrics
    assert len(calls) == 15  # one error series per recorded series


def test_decoded_track_missing_a_frame_publishes_no_bearing(monkeypatch):
    cfg = small_config(id_mode="codec", duration=1.0, rates={"imu": 200.0, "cam": 200.0, "uwb": 50.0})
    t_miss = 0.6  # well after the first decode; the track outlives one missed frame
    frames = World.frames

    def drop_one_detection(self, duration):
        for f in frames(self, duration):
            if f.has_cam and abs(f.t - t_miss) < 1e-9:
                f.robots[1].detections = []
            yield f

    published = []
    publish = MessageBus.publish

    def record(self, sender, t, payload):
        if payload[0] == "cam":
            published.append((sender, t, set(payload[2])))
        publish(self, sender, t, payload)

    monkeypatch.setattr(World, "frames", drop_one_detection)
    monkeypatch.setattr(MessageBus, "publish", record)
    res = run_scenario(cfg)
    seen = {t: peers for sender, t, peers in published if sender == 1}
    t_before, t_after = t_miss - 1 / 200.0, t_miss + 1 / 200.0
    assert seen[t_before] == {0} and seen[t_after] == {0}
    assert seen[t_miss] == set()
    raw_t = res.raw[(0, 1)].t
    assert t_before in raw_t and t_after in raw_t and t_miss not in raw_t
