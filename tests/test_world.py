import numpy as np
import pytest

from relpose.camera import DEFAULT_INTRINSICS, ds_unproject
from relpose.geom import rotmat_from_quat
from relpose.trajectory import TrajectorySpec, AttitudeProfile, eval_trajectory
from relpose.world import GRAVITY, UWB_MAX_RANGE, NoiseParams, Obstacle, World
from world_reference import synth_detection, synth_imu, synth_uwb, zeroed

QUIET = zeroed(NoiseParams())


def two_robot_world(noise=QUIET, obstacles=None, **kw):
    robots = {
        0: (TrajectorySpec(kind="static", duration=10.0, center=(0, 0, 1)), 0),
        1: (TrajectorySpec(kind="circle", duration=10.0, center=(4, 0, 1), radius=1.0, omega=0.5), 1),
    }
    kw = dict(imu_rate=100.0, cam_rate=100.0, uwb_rate=50.0) | kw
    return World(robots=robots, noise=noise, obstacles=obstacles or [], **kw)


def test_noiseless_imu_measures_specific_force():
    w = two_robot_world()
    s = eval_trajectory(w.robots[1][0], 2.0)
    accel, gyro = synth_imu(s, QUIET, 0.01, np.random.default_rng(0))
    R = rotmat_from_quat(s.q)
    assert np.allclose(accel, R.T @ (s.a - GRAVITY), atol=1e-12)
    assert np.allclose(gyro, s.w_body, atol=1e-12)


def test_static_imu_reads_one_g():
    w = two_robot_world()
    s = eval_trajectory(w.robots[0][0], 0.0)
    accel, gyro = synth_imu(s, QUIET, 0.01, np.random.default_rng(0))
    assert np.allclose(accel, [0, 0, 9.81], atol=1e-12)
    assert np.allclose(gyro, 0.0)


def test_imu_noise_scales_with_rate():
    # discrete sigma = density / sqrt(dt): quarter dt doubles the noise
    noise = NoiseParams()
    s = eval_trajectory(two_robot_world().robots[0][0], 0.0)
    samples_a, samples_b = [], []
    rng_a, rng_b = np.random.default_rng(1), np.random.default_rng(1)
    for _ in range(4000):
        a, _ = synth_imu(s, noise, 0.01, rng_a)
        samples_a.append(a[0])
        a, _ = synth_imu(s, noise, 0.0025, rng_b)
        samples_b.append(a[0])
    ratio = np.std(samples_b) / np.std(samples_a)
    assert ratio == pytest.approx(2.0, rel=0.1)


def test_uwb_exact_when_quiet():
    d = synth_uwb([0, 0, 0], [3, 4, 0], QUIET, np.random.default_rng(0))
    assert d == pytest.approx(5.0)


def test_uwb_beyond_max_range_dropped():
    d = synth_uwb([0, 0, 0], [UWB_MAX_RANGE + 1, 0, 0], QUIET, np.random.default_rng(0))
    assert d is None


def test_uwb_clamped_at_zero():
    noise = NoiseParams(uwb_sigma=5.0)
    rng = np.random.default_rng(0)
    samples = [synth_uwb([0, 0, 0], [0.01, 0, 0], noise, rng) for _ in range(200)]
    assert min(samples) == 0.0


def test_detection_pixel_unprojects_to_true_bearing():
    w = two_robot_world()
    s0, s1 = eval_trajectory(w.robots[0][0], 1.0), eval_trajectory(w.robots[1][0], 1.0)
    px = synth_detection(s0.p, s0.q, s1.p, DEFAULT_INTRINSICS, [], QUIET, np.random.default_rng(0))
    assert px is not None
    (b,), ok = ds_unproject([px], DEFAULT_INTRINSICS)
    assert ok.tolist() == [True]
    expect = rotmat_from_quat(s0.q).T @ (s1.p - s0.p)
    expect /= np.linalg.norm(expect)
    assert np.allclose(b, expect, atol=1e-9)


def test_detection_occluded_by_box():
    box = Obstacle("box", (2.0, 0.0, 1.0), (0.5, 0.5, 0.5))
    px = synth_detection(
        [0, 0, 1], [1, 0, 0, 0], [4, 0, 1], DEFAULT_INTRINSICS, [box], QUIET, np.random.default_rng(0)
    )
    assert px is None


def test_detection_out_of_fov():
    # target straight behind the camera axis
    px = synth_detection(
        [0, 0, 1], [1, 0, 0, 0], [0, 0, -5], DEFAULT_INTRINSICS, [], QUIET, np.random.default_rng(0)
    )
    assert px is None


def test_box_segment_intersection():
    box = Obstacle("box", (0, 0, 0), (1, 1, 1))
    assert box.intersects_segment([-2, 0, 0], [2, 0, 0])
    assert not box.intersects_segment([-2, 3, 0], [2, 3, 0])
    assert not box.intersects_segment([2, 0, 0], [3, 0, 0])  # starts past the box


def test_cylinder_segment_intersection():
    cyl = Obstacle("cylinder", (0, 0, 0), (1, 1, 2))
    assert cyl.intersects_segment([-3, 0, 0], [3, 0, 0])
    assert not cyl.intersects_segment([-3, 2, 0], [3, 2, 0])  # misses in xy
    assert not cyl.intersects_segment([-3, 0, 5], [3, 0, 5])  # passes above


def test_obstacle_validation():
    with pytest.raises(ValueError):
        Obstacle("sphere", (0, 0, 0), (1, 1, 1))
    with pytest.raises(ValueError):
        Obstacle("box", (0, 0, 0), (1, -1, 1))


def test_world_rates_must_divide():
    with pytest.raises(ValueError):
        two_robot_world(imu_rate=30.0, cam_rate=100.0, uwb_rate=50.0)
    with pytest.raises(ValueError):  # a camera slower than the IMU must divide it too
        two_robot_world(imu_rate=200.0, cam_rate=75.0, uwb_rate=50.0)


def test_frames_schedule():
    w = two_robot_world(imu_rate=100.0, cam_rate=100.0, uwb_rate=50.0)
    chunks = list(w.frames(0.1))
    assert len(chunks) == 1 and chunks[0].t.size == 11
    assert chunks[0].imu_row.tolist() == list(range(11))
    assert chunks[0].uwb_row.tolist() == [k // 2 if k % 2 == 0 else -1 for k in range(11)]


def test_sensor_streams_deterministic():
    noise = NoiseParams()
    wa, wb = two_robot_world(noise, seed=42), two_robot_world(noise, seed=42)
    for ca, cb in zip(wa.frames(0.5), wb.frames(0.5), strict=True):
        rows = ("t", "imu_row", "uwb_row", "cam_row")
        for name in rows + ("imu", "ranges", "in_range", "pixels", "seen", "lit", "rp", "locked"):
            a, b = getattr(ca, name), getattr(cb, name)
            assert np.array_equal(a, b, equal_nan=a.dtype.kind == "f"), name


def test_detection_carries_led_lit_state():
    w = two_robot_world()
    lit_states = set()
    for ch in w.frames(0.2):
        for c in range(ch.lit.shape[0]):  # every camera row
            seen = ch.seen[0, c]
            assert not seen[0] and seen[1]
            assert np.isnan(ch.pixels[0, c, 0]).all()
            lit_states.add(bool(ch.lit[c, 1]))
    assert lit_states == {True, False}  # led 1 duty 0.2 toggles within 0.2 s


def test_attitude_rp_none_under_gimbal_lock():
    robots = {
        0: (TrajectorySpec(kind="static", duration=1.0), 0),
        1: (
            TrajectorySpec(
                kind="static",
                duration=1.0,
                center=(3, 0, 0),
                attitude=AttitudeProfile(rpy0=(0.0, np.deg2rad(89.95), 0.0)),
            ),
            1,
        ),
    }
    w = World(robots=robots, noise=QUIET, imu_rate=100, cam_rate=100, uwb_rate=50)
    ch = next(w.frames(0.0))
    c = ch.cam_row[0]
    assert ch.locked[:, c].tolist() == [False, True]
    assert np.isnan(ch.rp[1, c]).all() and np.isfinite(ch.rp[0, c]).all()


def test_relative_truth():
    w = two_robot_world()
    p, R = w.relative_truth(0, 1, 0.0)
    # observer 0 at (0,0,1) identity attitude; robot 1 starts at (5,0,1)
    assert np.allclose(p, [5.0, 0.0, 0.0])
    assert np.allclose(R, np.eye(3))


def test_noise_params_validation():
    with pytest.raises(ValueError):
        NoiseParams(uwb_sigma=-0.1)
