"""The world's array tape equals per-sample synthesis bit for bit.

`world_reference` holds the per-sample synthesis and the per-tick loop.
Each case builds two identical worlds and compares the chunks `World.frames`
yields for one with those `frames_reference` yields for the other, field by
field: the robot ids with `==`, and every array, tick times and sample rows
included, with `np.array_equal`, nan equal to nan. A whole-run test writes
every bundled scenario's output files both ways and compares their bytes.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from relpose.camera import DEFAULT_INTRINSICS, OutOfImage, ds_project
from relpose.geom import GimbalLock, euler_zyx_from_quat
from relpose.runner import run_scenario, write_outputs
from relpose.scenario import config_from_dict
from relpose.trajectory import AttitudeProfile, TrajectorySpec
from relpose.world import NoiseParams, Obstacle, SensorChunk, World
from world_reference import (
    ds_project_scalar,
    euler_zyx_from_quat_scalar,
    frames_reference,
    intersects_segment_scalar,
    zeroed,
)

SCENARIOS = sorted((Path(__file__).resolve().parents[1] / "scenarios").glob("*.json"))


def spec(kind="static", **kw):
    return TrajectorySpec(kind=kind, duration=30.0, **kw)


def rolling(amp_deg, freq=0.5, **kw):
    return AttitudeProfile(amp=tuple(np.deg2rad(amp_deg)), freq=(freq, freq, freq), **kw)


CIRCLE = spec("circle", center=(4, 0, 1), radius=1.0, omega=0.5)
# observer 0 at the origin; a box and a cylinder cross the sight lines to robots 1 and 2;
# robot 3 sits straight above robot 0, so its sight line is vertical
OBSTACLE_ROBOTS = {
    0: spec(center=(0, 0, 1)),
    1: spec("circle", center=(4, 0, 1), radius=1.5, omega=1.5),
    2: spec("circle", center=(0, 4, 1), radius=1.5, omega=-1.2),
    3: spec(center=(0, 0, 4)),
}
OBSTACLES = [
    Obstacle("box", (2.0, 0.0, 1.0), (0.3, 0.4, 0.5)),
    Obstacle("cylinder", (0.0, 2.0, 1.2), (0.4, 0.4, 0.6)),
    Obstacle("cylinder", (0.0, 0.0, 2.5), (0.2, 0.2, 0.3)),  # on the vertical line
    Obstacle("cylinder", (3.0, 3.0, 1.0), (0.2, 0.2, 5.0)),  # blocks nothing
]

CASES = {
    "obstacles": dict(robots=OBSTACLE_ROBOTS, obstacles=OBSTACLES, duration=4.0),
    "gimbal_lock": dict(
        robots={
            0: spec(center=(0, 0, 1)),
            1: spec(center=(3, 0, 1), attitude=AttitudeProfile(amp=(0.0, np.pi / 2, 0.0), freq=(0, 1, 0))),
        },
        duration=1.5,
    ),
    "beyond_uwb_range": dict(
        robots={
            0: spec(center=(0, 0, 1)),
            1: spec("circle", center=(250.0, 0, 1), radius=250.5, omega=0.5),
            2: spec(center=(600.0, 0, 1)),
        },
        duration=3.0,
    ),
    "out_of_view": dict(
        robots={
            0: spec(center=(0, 0, 1), attitude=rolling((120.0, 40.0, 0.0), yaw_rate=0.7)),
            1: CIRCLE,
            2: spec(center=(0.5, 0, -4)),  # below robot 0: behind its camera while level
        },
        duration=4.0,
    ),
    "all_zero_sigmas": dict(robots={0: spec(center=(0, 0, 1)), 1: CIRCLE}, noise=zeroed(NoiseParams()), seed=3),
    "zero_accel_uwb_attitude": dict(
        robots={0: spec(center=(0, 0, 1), attitude=rolling((5.0, 5.0, 5.0))), 1: CIRCLE},
        noise=NoiseParams(accel_density=0.0, uwb_sigma=0.0, attitude_rp_sigma=0.0),
        seed=4,
    ),
    "zero_gyro_pixel": dict(
        robots={0: spec(center=(0, 0, 1), attitude=rolling((5.0, 5.0, 5.0))), 1: CIRCLE},
        noise=NoiseParams(gyro_density=0.0, pixel_sigma=0.0),
        seed=5,
    ),
    "camera_slower_than_imu": dict(
        robots={0: spec(center=(0, 0, 1)), 1: CIRCLE},
        rates=dict(imu_rate=200.0, cam_rate=50.0, uwb_rate=25.0),
    ),
    "camera_slower_than_a_chunk": dict(
        robots={0: spec(center=(0, 0, 1)), 1: CIRCLE},
        rates=dict(imu_rate=100.0, cam_rate=0.5, uwb_rate=2.0),
        duration=4.5,
    ),
    "ends_mid_chunk": dict(
        robots={0: spec(center=(0, 0, 1)), 1: CIRCLE, 2: spec(center=(0, 5, 1))}, duration=2.37
    ),
}


def make_world(case: dict) -> World:
    return World(
        robots={rid: (s, rid) for rid, s in case["robots"].items()},
        noise=case.get("noise", NoiseParams()),
        obstacles=case.get("obstacles", []),
        **case.get("rates", dict(imu_rate=100.0, cam_rate=100.0, uwb_rate=50.0)),
        seed=case.get("seed", 11),
    )


def assert_same_chunks(got: list, want: list) -> None:
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for field in dataclasses.fields(SensorChunk):
            x, y = getattr(a, field.name), getattr(b, field.name)
            if isinstance(x, np.ndarray):
                assert x.shape == y.shape and x.dtype == y.dtype, field.name
                assert np.array_equal(x, y, equal_nan=x.dtype.kind == "f"), field.name
            else:
                assert x == y, field.name


@pytest.mark.parametrize("name", list(CASES))
def test_tape_equals_per_sample_synthesis(name):
    case = CASES[name]
    duration = case.get("duration", 2.0)
    got = list(make_world(case).frames(duration))
    want = list(frames_reference(make_world(case), duration))
    assert_same_chunks(got, want)
    # the case reaches the branch it is named for; camera rows with their tick times
    cam = [
        (t, ch.seen[:, c], ch.locked[:, c]) for ch in want for c, t in enumerate(ch.t[ch.cam_row >= 0].tolist())
    ]
    if name == "obstacles":
        seen = {(int(i), int(j)) for _, s, _ in cam for i, j in zip(*np.nonzero(s))}
        assert (0, 1) in seen and (0, 2) in seen and (1, 3) in seen
        assert (0, 3) not in seen  # the cylinder on the vertical sight line
        assert any(not s[0, 1] for _, s, _ in cam)  # the box
        assert any(not s[0, 2] for _, s, _ in cam)  # cylinder 2
    elif name == "gimbal_lock":
        assert any(locked[1] for _, _, locked in cam)
        assert any(not locked[1] for _, _, locked in cam)
    elif name == "beyond_uwb_range":
        peers = [set(np.flatnonzero(ranged).tolist()) for ch in want for ranged in ch.in_range[0]]
        assert {1} in [p - {2} for p in peers] and set() in peers and all(2 not in p for p in peers)
    elif name == "out_of_view":
        assert any(s[0].any() for _, s, _ in cam)
        assert any(not s[0].any() for _, s, _ in cam)
    elif name == "camera_slower_than_a_chunk":
        assert [t for t, _, _ in cam] == [0.0, 2.0, 4.0]


def test_occlusion_equals_per_segment_test():
    rng = np.random.default_rng(5)
    a = rng.uniform(-3, 3, (3000, 3))
    b = rng.uniform(-3, 3, (3000, 3))
    b[:200, 2] = a[:200, 2]  # parallel to the z faces
    b[200:400, 0] = a[200:400, 0]  # parallel to the x faces
    b[400:600, :2] = a[400:600, :2]  # vertical: no motion in the cylinder's plane
    for ob in (
        Obstacle("box", (0.2, -0.1, 0.3), (1.0, 0.5, 0.8)),
        Obstacle("cylinder", (0.2, -0.1, 0.3), (1.0, 1.0, 0.8)),
    ):
        got = ob.blocks(a, b)
        want = np.array([intersects_segment_scalar(ob, x, y) for x, y in zip(a, b)])
        assert got.any() and not got.all()
        assert got[:600].any() and not got[:600].all()
        np.testing.assert_array_equal(got, want)
        assert [ob.intersects_segment(x, y) for x, y in zip(a[:50], b[:50])] == want[:50].tolist()


def test_projection_equals_per_point_projection():
    rng = np.random.default_rng(6)
    for p in rng.normal(size=(2000, 3)):
        try:
            want = ds_project_scalar(p, DEFAULT_INTRINSICS)
        except OutOfImage:
            with pytest.raises(OutOfImage):
                ds_project(p, DEFAULT_INTRINSICS)
        else:
            assert ds_project(p, DEFAULT_INTRINSICS) == want


def test_roll_pitch_equal_per_quaternion_extraction():
    rng = np.random.default_rng(7)
    q = rng.normal(size=(2000, 4))
    q[:200] = [np.cos(np.pi / 4), 0.0, np.sin(np.pi / 4), 0.0]  # pitch 90 deg
    q[:200] += rng.normal(scale=1.5e-3, size=(200, 4))  # around the gimbal guard
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    locked = 0
    for qk in q:
        try:
            want = euler_zyx_from_quat_scalar(qk)
        except GimbalLock:
            locked += 1
            with pytest.raises(GimbalLock):
                euler_zyx_from_quat(qk)
        else:
            assert euler_zyx_from_quat(qk) == want
    assert 0 < locked < 200


@pytest.mark.parametrize("path", SCENARIOS, ids=[p.stem for p in SCENARIOS])
def test_run_outputs_equal_per_sample_synthesis(path, tmp_path, monkeypatch):
    d = json.loads(path.read_text())
    d["duration"] = 2.0
    write_outputs(run_scenario(config_from_dict(d)), tmp_path / "tape", d)
    monkeypatch.setattr(World, "frames", frames_reference)
    write_outputs(run_scenario(config_from_dict(d)), tmp_path / "reference", d)
    files = sorted(p.name for p in (tmp_path / "tape").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "reference").iterdir())
    assert any(f.startswith("raw_") for f in files)
    for name in files:
        assert (tmp_path / "tape" / name).read_bytes() == (tmp_path / "reference" / name).read_bytes(), name
