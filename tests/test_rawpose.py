import numpy as np
import pytest

from relpose.geom import (
    euler_zyx_from_quat,
    quat_from_euler_zyx,
    quat_from_rotmat,
    rotmat_from_quat,
    wrap_angle,
)
from relpose.rawpose import (
    MutualObservation,
    VerticalDegeneracy,
    gravity_align,
    projected_azimuth,
    raw_estimate,
    relative_position,
    relative_rotation,
    relative_yaw,
)
from quat_helpers import quats_equal_as_rotations

RNG = np.random.default_rng(2024)


def make_observation(q_a, q_b, p_a, p_b, t=0.0):
    """Build the noiseless mutual observation for two world poses."""
    R_a, R_b = rotmat_from_quat(q_a), rotmat_from_quat(q_b)
    d = np.linalg.norm(p_a - p_b)
    b_b2a = R_b.T @ (p_a - p_b) / d
    b_a2b = R_a.T @ (p_b - p_a) / d
    roll_a, pitch_a, _ = euler_zyx_from_quat(q_a)
    roll_b, pitch_b, _ = euler_zyx_from_quat(q_b)
    return MutualObservation(
        bearing_b_to_a=b_b2a,
        bearing_a_to_b=b_a2b,
        range_m=d,
        rp_a=(roll_a, pitch_a),
        rp_b=(roll_b, pitch_b),
        t=t,
    )


def random_pose(rng=RNG, pitch_lim=1.3):
    q = quat_from_euler_zyx(
        rng.uniform(-np.pi, np.pi), rng.uniform(-pitch_lim, pitch_lim), rng.uniform(-np.pi, np.pi)
    )
    return q, rng.uniform(-5, 5, 3)


def test_relative_position_scales_bearing():
    b = np.array([0.6, 0.8, 0.0])
    assert np.allclose(relative_position(b, 5.0), [3.0, 4.0, 0.0])


def test_gravity_align_levels_the_bearing():
    # after alignment the bearing must match the world bearing up to yaw:
    # its z-component equals the world z-component
    for _ in range(50):
        q, _ = random_pose()
        v_world = RNG.normal(size=3)
        v_world /= np.linalg.norm(v_world)
        v_body = rotmat_from_quat(q).T @ v_world
        roll, pitch, _ = euler_zyx_from_quat(q)
        aligned = gravity_align(v_body, (roll, pitch))
        assert aligned[2] == pytest.approx(v_world[2], abs=1e-10)


def test_projected_azimuth():
    assert projected_azimuth([1.0, 0.0, 0.0]) == pytest.approx(0.0)
    assert projected_azimuth([0.0, 1.0, 0.5]) == pytest.approx(np.pi / 2)


def test_projected_azimuth_vertical_raises():
    with pytest.raises(VerticalDegeneracy):
        projected_azimuth([0.001, 0.001, 0.999])


def test_relative_yaw_wrapping():
    assert relative_yaw(0.0, 0.0) == pytest.approx(np.pi)
    assert relative_yaw(np.pi / 2, -np.pi / 2) == pytest.approx(0.0, abs=1e-12)
    # always in (-pi, pi]
    for _ in range(50):
        y = relative_yaw(RNG.uniform(-np.pi, np.pi), RNG.uniform(-np.pi, np.pi))
        assert -np.pi < y <= np.pi


def test_relative_rotation_exact_noiseless():
    for _ in range(200):
        q_a, p_a = random_pose()
        q_b, p_b = random_pose()
        if np.linalg.norm((p_a - p_b)[:2]) < 0.1:
            continue
        obs = make_observation(q_a, q_b, p_a, p_b)
        R = relative_rotation(obs)
        expect = rotmat_from_quat(q_b).T @ rotmat_from_quat(q_a)
        assert np.allclose(R, expect, atol=1e-9)


def test_raw_estimate_full_pose():
    q_a, p_a = random_pose()
    q_b, p_b = random_pose()
    p_a[:2] = p_b[:2] + [2.0, 1.0]  # keep the sight line off vertical
    z = raw_estimate(make_observation(q_a, q_b, p_a, p_b, t=1.5))
    R_b = rotmat_from_quat(q_b)
    R_a = rotmat_from_quat(q_a)
    assert np.allclose(z.p_ba, R_b.T @ (p_a - p_b), atol=1e-9)
    assert np.allclose(z.p_ab, R_a.T @ (p_b - p_a), atol=1e-9)
    assert quats_equal_as_rotations(z.q_ba, quat_from_rotmat(R_b.T @ R_a), tol=1e-9)
    assert z.t == 1.5


def test_raw_estimate_vertical_degeneracy():
    q = quat_from_euler_zyx(0.0, 0.0, 0.0)
    p_b = np.array([0.0, 0.0, 0.0])
    p_a = np.array([0.0, 0.0, 3.0])  # directly overhead
    with pytest.raises(VerticalDegeneracy):
        raw_estimate(make_observation(q, q, p_a, p_b))


def test_mutual_observation_validation():
    with pytest.raises(ValueError):
        MutualObservation(
            bearing_b_to_a=np.array([1.0, 1.0, 0.0]),  # not unit
            bearing_a_to_b=np.array([1.0, 0.0, 0.0]),
            range_m=1.0,
            rp_a=(0.0, 0.0),
            rp_b=(0.0, 0.0),
        )
    with pytest.raises(ValueError):
        MutualObservation(
            bearing_b_to_a=np.array([1.0, 0.0, 0.0]),
            bearing_a_to_b=np.array([1.0, 0.0, 0.0]),
            range_m=-1.0,
            rp_a=(0.0, 0.0),
            rp_b=(0.0, 0.0),
        )


def test_yaw_only_case_reduces_to_azimuth_difference():
    # both robots level: relative rotation is a pure yaw
    yaw_a, yaw_b = 0.8, -0.4
    q_a = quat_from_euler_zyx(0.0, 0.0, yaw_a)
    q_b = quat_from_euler_zyx(0.0, 0.0, yaw_b)
    p_a, p_b = np.array([3.0, 1.0, 0.0]), np.array([0.0, 0.0, 0.0])
    R = relative_rotation(make_observation(q_a, q_b, p_a, p_b))
    _, _, psi = euler_zyx_from_quat(quat_from_rotmat(R))
    assert psi == pytest.approx(wrap_angle(yaw_a - yaw_b), abs=1e-10)
