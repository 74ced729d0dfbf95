import numpy as np
import pytest

from relpose.geom import euler_zyx_from_quat, quat_from_euler_zyx, quats_from_rotmats, rotmat_from_quat
from relpose.rawpose import (
    ACCEPTED,
    GIMBAL_LOCK,
    NON_FINITE,
    VERTICAL,
    VERTICAL_XY_THRESHOLD,
    raw_estimate,
)
from quat_helpers import quats_equal_as_rotations
from rawpose_reference import (
    MutualObservation,
    VerticalDegeneracy,
    gravity_align,
    projected_azimuth,
    raw_estimate_scalar,
    relative_position,
    relative_rotation,
    relative_yaw,
    rot_x,
    rot_y,
    wrap_angle,
)

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


def solve_rows(observations):
    """The batched solve of a list of observations, one row each."""
    return raw_estimate(
        [o.bearing_b_to_a for o in observations],
        [o.bearing_a_to_b for o in observations],
        [o.range_m for o in observations],
        [o.rp_a for o in observations],
        [o.rp_b for o in observations],
    )


def random_pose(rng=RNG, pitch_lim=1.3):
    q = quat_from_euler_zyx(
        rng.uniform(-np.pi, np.pi), rng.uniform(-pitch_lim, pitch_lim), rng.uniform(-np.pi, np.pi)
    )
    return q, rng.uniform(-5, 5, 3)


def unit_rows(x):
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def assert_rows_equal_reference(observations, out):
    """Each row equals the per-observation solve bit for bit, or is rejected as VERTICAL
    exactly where the per-observation solve raises VerticalDegeneracy."""
    for k, obs in enumerate(observations):
        try:
            z = raw_estimate_scalar(obs)
        except VerticalDegeneracy:
            assert out.reason[k] == VERTICAL, k
            continue
        assert out.reason[k] == ACCEPTED, k
        assert np.array_equal(out.p_ba[k], z.p_ba), k
        assert np.array_equal(out.p_ab[k], z.p_ab), k
        assert np.array_equal(out.q_ba[k], z.q_ba), k


def test_relative_position_scales_bearing():
    b = np.array([0.6, 0.8, 0.0])
    assert np.allclose(relative_position(b, 5.0), [3.0, 4.0, 0.0])
    out = raw_estimate([b], [-b], [5.0], [(0.0, 0.0)], [(0.0, 0.0)])
    assert out.p_ba.tolist() == [[0.6 * 5.0, 0.8 * 5.0, 0.0]]
    assert out.p_ab.tolist() == [[-0.6 * 5.0, -0.8 * 5.0, -0.0]]


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
    observations, expected = [], []
    while len(observations) < 200:
        q_a, p_a = random_pose()
        q_b, p_b = random_pose()
        if np.linalg.norm((p_a - p_b)[:2]) < 0.1:
            continue
        observations.append(make_observation(q_a, q_b, p_a, p_b))
        expected.append(rotmat_from_quat(q_b).T @ rotmat_from_quat(q_a))
    out = solve_rows(observations)
    assert (out.reason == ACCEPTED).all()
    for obs, q, expect in zip(observations, out.q_ba, expected):
        assert np.allclose(relative_rotation(obs), expect, atol=1e-9)
        assert np.allclose(rotmat_from_quat(q), expect, atol=1e-9)


def test_raw_estimate_full_pose():
    q_a, p_a = random_pose()
    q_b, p_b = random_pose()
    p_a[:2] = p_b[:2] + [2.0, 1.0]  # keep the sight line off vertical
    out = solve_rows([make_observation(q_a, q_b, p_a, p_b)])
    R_b = rotmat_from_quat(q_b)
    R_a = rotmat_from_quat(q_a)
    assert out.reason.tolist() == [ACCEPTED]
    assert np.allclose(out.p_ba[0], R_b.T @ (p_a - p_b), atol=1e-9)
    assert np.allclose(out.p_ab[0], R_a.T @ (p_b - p_a), atol=1e-9)
    assert quats_equal_as_rotations(out.q_ba[0], quats_from_rotmats(R_b.T @ R_a)[0], tol=1e-9)
    assert out.q_ba[0, 0] >= 0.0


def test_raw_estimate_vertical_degeneracy():
    q = quat_from_euler_zyx(0.0, 0.0, 0.0)
    p_b = np.array([0.0, 0.0, 0.0])
    p_a = np.array([0.0, 0.0, 3.0])  # directly overhead
    obs = make_observation(q, q, p_a, p_b)
    with pytest.raises(VerticalDegeneracy):
        raw_estimate_scalar(obs)
    assert solve_rows([obs]).reason.tolist() == [VERTICAL]


def test_raw_estimate_equals_reference_row_by_row():
    n = 2000
    observations = [
        MutualObservation(b_ba, b_ab, r, tuple(rp_a), tuple(rp_b))
        for b_ba, b_ab, r, rp_a, rp_b in zip(
            unit_rows(RNG.normal(size=(n, 3))),
            unit_rows(RNG.normal(size=(n, 3))),
            RNG.uniform(0.1, 60.0, n),
            RNG.uniform(-1.5, 1.5, (n, 2)),
            RNG.uniform(-1.5, 1.5, (n, 2)),
        )
    ]
    out = solve_rows(observations)
    assert (out.reason == ACCEPTED).all()
    assert_rows_equal_reference(observations, out)


def test_raw_estimate_at_the_vertical_threshold():
    # gravity-aligned bearings whose horizontal part is the threshold give or
    # take a few ulps, carried into random body attitudes; either robot's
    # bearing may be the near-vertical one
    n = 400
    rel = np.repeat([1.0 - 1e-12, 1.0 - 1e-15, 1.0, 1.0 + 1e-15, 1.0 + 1e-12], n // 5)
    h = VERTICAL_XY_THRESHOLD * rel
    az = RNG.uniform(-np.pi, np.pi, n)
    z = np.sqrt(1.0 - h * h) * np.where(RNG.random(n) < 0.5, 1.0, -1.0)
    aligned = np.column_stack((h * np.cos(az), h * np.sin(az), z))
    observations = []
    for k, (v, rp) in enumerate(zip(aligned, RNG.uniform(-1.2, 1.2, (n, 2)))):
        body = (rot_y(rp[1]) @ rot_x(rp[0])).T @ v
        other = unit_rows(RNG.normal(size=(1, 3)))[0]
        near_b = k % 2 == 0
        observations.append(MutualObservation(
            body if near_b else other, other if near_b else body, 3.0,
            (0.1, -0.2) if near_b else tuple(rp), tuple(rp) if near_b else (0.1, -0.2),
        ))
    out = solve_rows(observations)
    assert_rows_equal_reference(observations, out)
    # both sides of the threshold are reached
    assert (out.reason == VERTICAL).any() and (out.reason == ACCEPTED).any()


def test_raw_estimate_rejects_gimbal_lock_and_non_finite_rows():
    b = np.array([0.8, 0.1, np.sqrt(1 - 0.65)])
    guard = np.deg2rad(89.9)
    rows = [
        # (b_ba, b_ab, range, rp_a, rp_b, reason)
        (b, -b, 4.0, (0.1, 0.2), (0.0, -0.1), ACCEPTED),
        (b, -b, 4.0, (0.1, guard + 1e-9), (0.0, -0.1), GIMBAL_LOCK),
        (b, -b, 4.0, (0.1, 0.2), (0.0, -np.pi / 2), GIMBAL_LOCK),
        ([np.nan, 0.1, 0.5], -b, 4.0, (0.1, 0.2), (0.0, -0.1), NON_FINITE),
        (b, -b, np.inf, (0.1, 0.2), (0.0, -0.1), NON_FINITE),
        (b, -b, 4.0, (-np.inf, 0.2), (0.0, -0.1), NON_FINITE),
        (b, -b, 4.0, (0.1, np.nan), (0.0, np.pi / 2), NON_FINITE),  # non-finite before gimbal lock
        ([0.0, 0.0, 0.0], -b, 4.0, (0.1, 0.2), (0.0, -0.1), NON_FINITE),  # finite in, nan out
        ([0.0, 0.0, 1.0], -b, 4.0, (0.0, 0.0), (0.0, 0.0), VERTICAL),
    ]
    out = raw_estimate(*(np.array([row[k] for row in rows], dtype=float) for k in range(5)))
    assert out.reason.tolist() == [row[5] for row in rows]
    assert out.ok.tolist() == [row[5] == ACCEPTED for row in rows]
    assert np.isfinite(out.q_ba[0]).all()


def test_raw_estimate_zero_rows():
    out = raw_estimate(np.empty((0, 3)), np.empty((0, 3)), np.empty(0), np.empty((0, 2)), np.empty((0, 2)))
    assert out.p_ba.shape == (0, 3) and out.p_ab.shape == (0, 3) and out.q_ba.shape == (0, 4)
    assert out.reason.shape == (0,)


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
    out = solve_rows([make_observation(q_a, q_b, p_a, p_b)])
    _, _, psi = euler_zyx_from_quat(out.q_ba[0])
    assert psi == pytest.approx(wrap_angle(yaw_a - yaw_b), abs=1e-10)
