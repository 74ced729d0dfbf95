import dataclasses
import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import relpose.codec
import relpose.eskf
import relpose.runner
from relpose.codec import GATE_PX, SpotTracker
from relpose.geom import Pose, quat_normalize, rotmats_from_quats
from relpose.runner import (
    PoseSeries,
    compute_metrics,
    export_ground_truth,
    run_scenario,
    write_outputs,
)
from relpose.scenario import config_from_dict
from relpose.world import World
from rawpose_reference import raw_series_reference
from relpose.rawpose import ACCEPTED, VERTICAL
from relpose.runner import build_world
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


def test_bounded_undecoded_tracks_change_no_output(tmp_path, monkeypatch):
    # every beacon of the bundled codec run decodes within KEEP_PERIODS
    # periods, so bounding undecoded tracks changes no byte of its outputs
    config_dict = json.loads((SCENARIOS / "two_robot_auto.json").read_text())
    cfg = config_from_dict(config_dict)
    write_outputs(run_scenario(cfg), tmp_path / "bounded", config_dict)
    monkeypatch.setattr(relpose.codec, "KEEP_PERIODS", 10**9)
    write_outputs(run_scenario(cfg), tmp_path / "unbounded", config_dict)
    names = sorted(p.name for p in (tmp_path / "bounded").iterdir())
    assert "raw_0_1.csv" in names and names == sorted(p.name for p in (tmp_path / "unbounded").iterdir())
    for name in names:
        assert (tmp_path / "bounded" / name).read_bytes() == (tmp_path / "unbounded" / name).read_bytes(), name


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
    assert np.array_equal(a.raw[(0, 1)].t, b.raw[(0, 1)].t)
    sa, sb = a.eskf[(0, 1)], b.eskf[(0, 1)]
    for name in ("t", "p", "q", "v", "P_diag"):
        assert np.array_equal(getattr(sa, name), getattr(sb, name))


def test_different_seed_differs():
    a = run_scenario(small_config())
    b = run_scenario(small_config(seed=14))
    assert not np.array_equal(a.eskf[(0, 1)].p[-1], b.eskf[(0, 1)].p[-1])


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


def test_decoded_track_missing_a_frame_gives_no_raw_row(monkeypatch):
    cfg = small_config(id_mode="codec", duration=1.0, rates={"imu": 200.0, "cam": 200.0, "uwb": 50.0})
    t_miss = 0.6  # well after the first decode; the track outlives one missed frame
    chunk_of = World._chunk
    dropped = []

    def drop_one_detection(self, grid, k0, k1):
        chunk = chunk_of(self, grid, k0, k1)
        for t, c in zip(chunk.t.tolist(), chunk.cam_row.tolist()):
            if c >= 0 and abs(t - t_miss) < 1e-9 and chunk.seen[1, c, 0]:
                chunk.seen[1, c, 0] = False  # robot 1 misses robot 0's beacon
                chunk.pixels[1, c, 0] = np.nan
                dropped.append(t)
        return chunk

    monkeypatch.setattr(World, "_chunk", drop_one_detection)
    res = run_scenario(cfg)
    assert dropped == [t_miss]
    t_before, t_after = t_miss - 1 / 200.0, t_miss + 1 / 200.0
    # robot 1's decoded track of robot 0 lives on across the missed frame, but
    # its stale pixel gives no bearing there, so pair (0, 1) has no mutual
    # observation at that frame alone
    raw_t = res.raw[(0, 1)].t
    assert t_before in raw_t and t_after in raw_t and t_miss not in raw_t
    k = np.flatnonzero(raw_t == t_before)[0]
    assert raw_t[k + 1] == t_after


STATIC = {"kind": "static", "center": [0, 0, 1]}
RAW_CASES = {
    "codec_ids": dict(
        id_mode="codec", duration=2.0, rates={"imu": 200.0, "cam": 200.0, "uwb": 50.0}
    ),
    # a radio slower than a chunk: some chunks have no range, and ranges carry over
    "radio_slower_than_a_chunk": dict(
        pairs="all",
        duration=6.0,
        rates={"imu": 100.0, "cam": 50.0, "uwb": 0.4},
        obstacles=[{"shape": "box", "center": [2, 1.5, 1], "extents": [0.3, 0.3, 1.0]}],
        robots=[
            {"id": 0, "trajectory": STATIC},
            {"id": 1, "trajectory": {"kind": "circle", "center": [4, 0, 1], "radius": 1.0, "omega": 0.5}},
            {"id": 2, "trajectory": {"kind": "static", "center": [4, 3, 1]}},
            {"id": 3, "trajectory": {"kind": "circle", "center": [0, 4, 1], "radius": 0.5, "omega": -1.0}},
        ],
    ),
    # robot 1 drifts beyond the radio's 500 m from 5 s on: the range taken at 2.5 s
    # is exactly 1.5 radio periods old at the 6.25 s frame, and stale after it
    "range_goes_stale": dict(
        duration=8.0,
        rates={"imu": 100.0, "cam": 4.0, "uwb": 0.4},
        robots=[
            {"id": 0, "trajectory": STATIC},
            {"id": 1, "trajectory": {
                "kind": "circle", "center": [250, 0, 1], "radius": 250.5, "omega": 0.02, "phase": -0.15,
            }},
        ],
    ),
    # each camera also sees a reflection of its peer's beacon (`_with_ghost_spots`),
    # so a robot has two tracks decoded to one id in a frame; the later track's
    # bearing holds
    "two_tracks_decode_one_id": dict(
        id_mode="codec",
        duration=2.0,
        rates={"imu": 200.0, "cam": 200.0, "uwb": 50.0},
        robots=[
            {"id": 0, "trajectory": STATIC},
            {"id": 1, "trajectory": {"kind": "static", "center": [4, 0, 1]}},
        ],
    ),
    # robot 1 pitches through +/-90 deg; robot 2 hangs upside down right above robot 0
    "gimbal_lock_and_vertical": dict(
        pairs="all",
        duration=3.0,
        robots=[
            {"id": 0, "trajectory": STATIC},
            {"id": 1, "trajectory": {
                "kind": "static", "center": [3, 0, 1],
                "attitude": {"amp": [0, 1.5708, 0], "freq": [0, 0.5, 0]},
            }},
            {"id": 2, "trajectory": {
                "kind": "static", "center": [0.01, 0, 4], "attitude": {"rpy0": [3.1416, 0, 0]},
            }},
        ],
    ),
}


def _with_ghost_spots(step):
    """`SpotTracker.step` that also sees, 2 * GATE_PX below each spot, an IR
    reflection lit when the spot is; and the frames where two decoded tracks
    that saw a spot share an id."""
    doubled = []

    def stepped(self, t, detections):
        out = step(self, t, detections + [(u, v + 2 * GATE_PX, lit) for u, v, lit in detections])
        ids = [tr.decoded_id for tr in self.tracks.values() if tr.decoded_id is not None and tr.last_t == t]
        if len(set(ids)) < len(ids):
            doubled.append(t)
        return out

    return stepped, doubled


@pytest.mark.parametrize("name", list(RAW_CASES))
def test_raw_series_equal_per_tick_reference(name, monkeypatch):
    cfg = small_config(estimator="raw", **RAW_CASES[name])
    if name == "two_tracks_decode_one_id":
        stepped, doubled = _with_ghost_spots(SpotTracker.step)
        monkeypatch.setattr(SpotTracker, "step", stepped)
    reasons = []
    solve = relpose.runner.raw_estimate

    def recorded(*args):
        out = solve(*args)
        reasons.extend(out.reason.tolist())
        return out

    monkeypatch.setattr(relpose.runner, "raw_estimate", recorded)
    res = run_scenario(cfg)
    want = raw_series_reference(cfg, build_world(cfg))
    assert set(res.raw) == set(want)
    for pair, ser in res.raw.items():
        assert np.array_equal(np.column_stack((ser.t, ser.p, ser.q)).reshape(-1, 8), want[pair]), pair
    assert any(len(ser.t) for ser in res.raw.values())
    # the case reaches the branch it is named for
    if name == "range_goes_stale":
        assert 6.25 in res.raw[(0, 1)].t and 6.5 not in res.raw[(0, 1)].t
    elif name == "two_tracks_decode_one_id":
        assert doubled
    elif name == "radio_slower_than_a_chunk":
        assert any(ch.uwb_row.max() < 0 for ch in build_world(cfg).frames(cfg.duration))
    elif name == "gimbal_lock_and_vertical":
        assert VERTICAL in reasons and ACCEPTED in reasons
        mutual_locked = [
            ch.locked[1, c] for ch in build_world(cfg).frames(cfg.duration)
            for c in range(ch.lit.shape[0]) if ch.seen[0, c, 1] and ch.seen[1, c, 0]
        ]
        assert any(mutual_locked) and not all(mutual_locked)


def test_singular_innovation_skips_one_update(monkeypatch):
    # on the 40th update every solve of S fails, as a singular S makes it
    update = relpose.eskf.update
    calls = []

    def singular_solve(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    def singular_once(bank, measured):
        calls.append(bank.x[0])
        if len(calls) != 40:
            return update(bank, measured)
        with monkeypatch.context() as m:
            m.setattr(np.linalg, "solve", singular_solve)
            fix = update(bank, measured)
        assert fix.singular == [0] and fix.rows == []
        return fix

    monkeypatch.setattr(relpose.eskf, "update", singular_once)
    res = run_scenario(small_config(duration=2.0))
    prior = calls[39]
    ser = res.eskf[(0, 1)]
    (k,) = np.flatnonzero((ser.p == prior[:3]).all(axis=1))  # that tick is recorded, from the prior
    assert np.array_equal(ser.v[k], prior[3:6])
    assert max(ser.t) > ser.t[k] + 0.5  # the run went on past the bad tick


def test_gated_updates_leave_pose_graph_edges_stale(monkeypatch):
    # a gate that rejects every update: each filter accepts nothing after its
    # first measurement, so its edge leaves the pose graph 0.25 s later
    update, accepted = relpose.eskf.update, []

    def gated(bank, measured):
        fix = update(bank, measured)
        accepted.extend(fix.rows)
        return fix

    monkeypatch.setattr(relpose.eskf, "CHI2_9_999", 0.0)
    monkeypatch.setattr(relpose.eskf, "update", gated)
    cfg = config_from_dict(json.loads((SCENARIOS / "four_robot_pgo.json").read_text()))
    cfg.duration = 3.0
    res = run_scenario(cfg)
    assert accepted == [] and all(ser.t[0] == 0.0 and ser.t[-1] == 3.0 for ser in res.eskf.values())
    assert all(len(ser.t) > 0 and ser.t.max() <= 0.25 for ser in res.pgo.values())


def _predicted(bank_predict, log):
    """bank_predict, logging (pair, A's row, B's row) of each pair it steps:
    the pairs whose state it replaces."""

    def recorded(bank, rows, dt):
        before = list(bank.x)
        bank_predict(bank, rows, dt)
        for n, (a, b) in enumerate(bank.pairs):
            if bank.x[n] is not before[n]:
                log.append((n, rows[a], rows[b]))

    return recorded


def test_each_pair_predicts_once_per_imu_tick_from_both_rows(monkeypatch):
    cfg = small_config(
        pairs="all",
        duration=2.0,
        robots=[
            {"id": 0, "trajectory": STATIC},
            {"id": 1, "trajectory": {"kind": "circle", "center": [4, 0, 1], "radius": 1.0, "omega": 0.5}},
            {"id": 2, "trajectory": {"kind": "static", "center": [2, 3, 1]}},
        ],
    )
    chunk_of = World._chunk
    chunks, inputs = [], []

    def kept(self, grid, k0, k1):
        chunks.append(chunk_of(self, grid, k0, k1))
        return chunks[-1]

    monkeypatch.setattr(World, "_chunk", kept)
    monkeypatch.setattr(relpose.eskf, "predict", _predicted(relpose.eskf.predict, inputs))
    res = run_scenario(cfg)
    assert all(len(ser.t) for ser in res.eskf.values())
    # every noisy IMU row on the tape is distinct: a row names its robot and tick
    tape = np.concatenate([c.imu for c in chunks], axis=1)
    t_imu = np.concatenate([c.t[c.imu_row >= 0] for c in chunks])
    row_of = {row.tobytes(): (i, k) for i, rows in enumerate(tape) for k, row in enumerate(rows)}
    pairs = list(res.eskf)
    got = Counter()
    for n, row_a, row_b in inputs:
        tgt, k = row_of[np.array(row_a).tobytes()]
        obs, k_own = row_of[np.array(row_b).tobytes()]
        assert k_own == k
        assert pairs[n] == (obs, tgt)
        got[(obs, tgt), k] += 1
    # robot index = robot id here; a filter predicts from the IMU tick after its first row
    want = Counter({(pair, k): 1 for pair, ser in res.eskf.items() for k in np.flatnonzero(t_imu > ser.t[0])})
    assert got == want


def test_non_finite_imu_row_skips_the_prediction(tmp_path, monkeypatch):
    cfg = config_from_dict(json.loads((SCENARIOS / "two_robot_manual.json").read_text()))
    cfg.duration = 3.0
    imu_of = World._imu
    bad = int(round(0.05 * cfg.imu_rate))  # the IMU row at 0.05 s
    poisoned, inputs = [], []

    def one_nan_sample(self, R, a, w_body, rng):
        out = imu_of(self, R, a, w_body, rng)
        if not poisoned:  # robot 0's first chunk
            out[bad, 0] = np.nan
            poisoned.append(bad)
        return out

    monkeypatch.setattr(World, "_imu", one_nan_sample)
    monkeypatch.setattr(relpose.eskf, "predict", _predicted(relpose.eskf.predict, inputs))
    res = run_scenario(cfg)
    ser = res.eskf[(0, 1)]
    assert poisoned and ser.t[0] < bad / cfg.imu_rate  # the filter runs when the bad row comes
    assert len(ser.t) == 301
    for name in ("p", "v", "q", "P_diag"):
        assert np.isfinite(getattr(ser, name)).all(), name
    assert all(np.isfinite(row_a + row_b).all() for _, row_a, row_b in inputs)
    t_imu = np.arange(int(round(cfg.duration * cfg.imu_rate)) + 1) / cfg.imu_rate
    assert len(inputs) == np.count_nonzero(t_imu > ser.t[0]) - 1  # one prediction skipped
    write_outputs(res, tmp_path)
    metrics = json.loads((tmp_path / "metrics.json").read_text())
    assert metrics["pairs"]["0-1"]["median_pos_m"] < 0.2


def _csv_table(path: Path) -> np.ndarray:
    header, *lines = path.read_text().splitlines()
    rows = [[float(x) for x in line.split(",")] for line in lines]
    return np.array(rows, dtype=float).reshape(len(lines), header.count(",") + 1)


def test_ground_truth_export_ends_at_the_last_camera_tick(tmp_path):
    # 1.055 s is 211 ticks of the 200 Hz master clock but 105.5 camera periods
    d = json.loads((SCENARIOS / "two_robot_manual.json").read_text())
    cfg = config_from_dict(d | {"duration": 1.055})
    assert cfg.cam_rate == 100.0
    export_ground_truth(build_world(cfg), cfg.duration, tmp_path)
    t = _csv_table(tmp_path / "gt_robot0.csv")[:, 0]
    assert len(t) == 106 and t[-1] == 1.05


def test_metrics_recompute_from_written_columns(tmp_path):
    cfg = config_from_dict(json.loads((SCENARIOS / "four_robot_pgo.json").read_text()))
    cfg.duration = 2.0
    res = run_scenario(cfg)
    write_outputs(res, tmp_path)

    def series(name, q_cols):
        a = _csv_table(tmp_path / name)
        return PoseSeries(t=a[:, 0], p=a[:, 1:4], q=a[:, q_cols])

    from_csv = dataclasses.replace(
        res,
        raw={(o, g): series(f"raw_{o}_{g}.csv", slice(4, 8)) for o, g in res.raw},
        eskf={(o, g): series(f"eskf_{o}_{g}.csv", slice(7, 11)) for o, g in res.eskf},
        pgo={rid: series(f"pgo_robot{rid}.csv", slice(4, 8)) for rid in res.pgo},
    )
    written = json.loads((tmp_path / "metrics.json").read_text())
    assert all(written[group] for group in ("pairs", "raw", "pgo"))
    assert compute_metrics(from_csv) == written


def test_series_poses_view_reads_and_writes_p_and_q():
    rng = np.random.default_rng(5)
    q = np.array([quat_normalize(x) for x in rng.normal(size=(4, 4))])
    q[q[:, 0] < 0] *= -1
    ser = PoseSeries(t=np.arange(4) * 0.1, p=rng.normal(size=(4, 3)), q=q)
    poses = ser.poses
    R = rotmats_from_quats(q)
    assert len(poses) == 4
    for k, pose in enumerate(poses):
        assert np.array_equal(pose.t, ser.p[k]) and np.array_equal(pose.R, R[k])
    p = ser.p + [0.0, 0.0, 1.0]
    ser.poses = [Pose(x.R, x.t + [0.0, 0.0, 1.0]) for x in poses]
    assert np.array_equal(ser.p, p)
    assert np.allclose(ser.q, q, rtol=0.0, atol=1e-15)
    ser.poses = []
    assert ser.p.shape == (0, 3) and ser.q.shape == (0, 4)
