import numpy as np
import pytest
from scipy.spatial.transform import Rotation

import scalar_reference as ref
from relpose.geom import (
    GimbalLock,
    Pose,
    dot_rows,
    euler_zyx_from_quat,
    quat_conj,
    quat_from_euler_zyx,
    quat_from_rotvec,
    quat_mul,
    quat_normalize,
    quats_from_euler_zyx,
    quats_from_rotmats,
    quats_from_rotvecs,
    quats_mul,
    quats_normalize,
    rotation_angle_deg,
    rotmat_from_quat,
    rotmat_from_rotvec,
    rotvec_from_quat,
    skew,
)
from estimator_reference import orthonormalized, se3_exp
from quat_helpers import quat_angle_between, quat_identity, quats_equal_as_rotations
from rawpose_reference import quat_from_rotmat_scalar, rot_x, rot_y, rot_z, wrap_angle

RNG = np.random.default_rng(1234)


def random_quat(rng=RNG):
    q = rng.normal(size=4)
    return quat_normalize(q)


def test_quat_identity_is_noop():
    q = random_quat()
    assert np.allclose(quat_mul(quat_identity(), q), q)
    assert np.allclose(quat_mul(q, quat_identity()), q)


def test_quat_mul_matches_scipy():
    # scipy uses scalar-last; ours is scalar-first
    for _ in range(50):
        a, b = random_quat(), random_quat()
        ours = quat_mul(a, b)
        ra = Rotation.from_quat([a[1], a[2], a[3], a[0]])
        rb = Rotation.from_quat([b[1], b[2], b[3], b[0]])
        theirs = (ra * rb).as_quat()
        theirs = np.array([theirs[3], theirs[0], theirs[1], theirs[2]])
        assert quats_equal_as_rotations(ours, theirs, tol=1e-12)


def test_rotmat_matches_sandwich_product():
    for _ in range(20):
        q = random_quat()
        v = RNG.normal(size=3)
        qv = np.concatenate(([0.0], v))
        sandwich = quat_mul(quat_mul(q, quat_normalize(qv) * np.linalg.norm(qv)), quat_conj(q))
        # quat_mul renormalizes, so scale back
        rotated = rotmat_from_quat(q) @ v
        assert np.allclose(rotated / np.linalg.norm(v), sandwich[1:] / np.linalg.norm(sandwich[1:]), atol=1e-12)


def test_rotmat_from_quat_matches_scipy():
    for _ in range(50):
        q = random_quat()
        ours = rotmat_from_quat(q)
        theirs = Rotation.from_quat([q[1], q[2], q[3], q[0]]).as_matrix()
        assert np.allclose(ours, theirs, atol=1e-12)


def test_rotvec_round_trip():
    for _ in range(100):
        theta = RNG.normal(size=3)
        theta *= RNG.uniform(0, 3.0) / np.linalg.norm(theta)
        q = quat_from_rotvec(theta)
        assert np.allclose(rotvec_from_quat(q), theta, atol=1e-10)


def test_rotvec_small_angle_branch():
    theta = np.array([1e-10, -2e-10, 5e-11])
    q = quat_from_rotvec(theta)
    assert abs(np.linalg.norm(q) - 1.0) < 1e-15
    assert np.allclose(rotvec_from_quat(q), theta, atol=1e-18)


def test_rotvec_from_quat_picks_short_arc():
    q = quat_from_rotvec([0.0, 0.0, 0.3])
    assert np.allclose(rotvec_from_quat(-q), [0.0, 0.0, 0.3], atol=1e-12)


def test_quat_from_rotmat_round_trip():
    for _ in range(100):
        q = random_quat()
        q2 = quats_from_rotmats(rotmat_from_quat(q))[0]
        assert quats_equal_as_rotations(q, q2, tol=1e-12)
        assert q2[0] >= 0  # canonical representative


def test_quat_from_rotmat_near_pi_rotations():
    for axis in np.eye(3):
        R = rotmat_from_rotvec(np.pi * axis)
        q = quats_from_rotmats(R)[0]
        assert np.allclose(rotmat_from_quat(q), R, atol=1e-12)


def test_quats_from_rotmats_equal_per_matrix_reference():
    # random rotations, and rotations near pi about each axis, which take
    # Shepperd's three branches for a non-positive trace
    R = [rotmat_from_quat(random_quat()) for _ in range(500)]
    for axis in np.eye(3):
        for angle in np.pi - np.geomspace(1e-9, 0.5, 40):
            R.append(rotmat_from_rotvec(angle * (axis + RNG.normal(0.0, 0.05, 3))))
    R = np.array(R)
    got = quats_from_rotmats(R)
    want = [quat_from_rotmat_scalar(x) for x in R]
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert np.array_equal(quats_from_rotmats(R[0])[0], want[0])
    # each branch is taken
    d = np.diagonal(R, axis1=1, axis2=2)
    lead = np.where(d.sum(axis=1) > 0, 3, d.argmax(axis=1))
    assert set(lead.tolist()) == {0, 1, 2, 3}
    bad = R[:2].copy()
    bad[0, 1, 1] = np.nan
    bad[1, 0, 2] = np.inf
    assert not np.isfinite(quats_from_rotmats(bad)).all(axis=1).any()  # each row non-finite
    assert quats_from_rotmats(np.empty((0, 3, 3))).shape == (0, 4)


def test_elementary_rotations():
    a = 0.7
    assert np.allclose(rot_x(a), Rotation.from_euler("x", a).as_matrix())
    assert np.allclose(rot_y(a), Rotation.from_euler("y", a).as_matrix())
    assert np.allclose(rot_z(a), Rotation.from_euler("z", a).as_matrix())


def test_euler_zyx_composition_order():
    roll, pitch, yaw = 0.2, -0.4, 1.1
    R = rotmat_from_quat(quat_from_euler_zyx(roll, pitch, yaw))
    assert np.allclose(R, rot_z(yaw) @ rot_y(pitch) @ rot_x(roll), atol=1e-12)
    assert np.allclose(R, Rotation.from_euler("ZYX", [yaw, pitch, roll]).as_matrix(), atol=1e-12)


def test_euler_round_trip():
    for _ in range(100):
        roll = RNG.uniform(-np.pi, np.pi)
        pitch = RNG.uniform(-1.4, 1.4)
        yaw = RNG.uniform(-np.pi, np.pi)
        r2, p2, y2 = euler_zyx_from_quat(quat_from_euler_zyx(roll, pitch, yaw))
        assert np.allclose([r2, p2, y2], [roll, pitch, yaw], atol=1e-10)


def test_euler_gimbal_guard():
    q = quat_from_euler_zyx(0.1, np.deg2rad(89.95), 0.2)
    with pytest.raises(GimbalLock):
        euler_zyx_from_quat(q)
    # just outside the guard still works
    r, p, y = euler_zyx_from_quat(quat_from_euler_zyx(0.1, np.deg2rad(89.8), 0.2))
    assert abs(np.rad2deg(p) - 89.8) < 1e-6


def test_wrap_angle():
    assert wrap_angle(np.pi) == pytest.approx(np.pi)
    assert wrap_angle(-np.pi) == pytest.approx(np.pi)
    assert wrap_angle(3 * np.pi / 2) == pytest.approx(-np.pi / 2)
    assert wrap_angle(0.3) == pytest.approx(0.3)
    assert wrap_angle(2 * np.pi + 0.3) == pytest.approx(0.3)


def test_skew_cross_product():
    a, b = RNG.normal(size=3), RNG.normal(size=3)
    assert np.allclose(skew(a) @ b, np.cross(a, b))


def apply(T, p):
    return T.R @ p + T.t


def test_pose_compose_inverse_apply():
    for _ in range(20):
        T1 = Pose(rotmat_from_quat(random_quat()), RNG.normal(size=3))
        T2 = Pose(rotmat_from_quat(random_quat()), RNG.normal(size=3))
        p = RNG.normal(size=3)
        assert np.allclose(apply(T1.compose(T2), p), apply(T1, apply(T2, p)), atol=1e-12)
        back = apply(T1.inverse(), apply(T1, p))
        assert np.allclose(back, p, atol=1e-12)
        assert np.allclose(T1.compose(T1.inverse()).matrix(), np.eye(4), atol=1e-12)


def test_pose_matrix_round_trip():
    T = Pose(rotmat_from_quat(random_quat()), RNG.normal(size=3))
    M = T.matrix()
    T2 = Pose(M[:3, :3], M[:3, 3])
    assert np.allclose(T.R, T2.R) and np.allclose(T.t, T2.t)


def test_pose_orthonormalized():
    R = rotmat_from_quat(random_quat()) + 1e-4 * RNG.normal(size=(3, 3))
    fixed = orthonormalized(Pose(R, np.zeros(3)))
    assert np.allclose(fixed.R @ fixed.R.T, np.eye(3), atol=1e-12)
    assert np.linalg.det(fixed.R) == pytest.approx(1.0)


def test_se3_exp_rotation_only():
    theta = np.array([0.1, -0.2, 0.3])
    T = se3_exp(np.concatenate([np.zeros(3), theta]))
    assert np.allclose(T.R, rotmat_from_rotvec(theta), atol=1e-12)
    assert np.allclose(T.t, 0.0)


def test_se3_exp_translation_only():
    rho = np.array([1.0, 2.0, 3.0])
    T = se3_exp(np.concatenate([rho, np.zeros(3)]))
    assert np.allclose(T.R, np.eye(3))
    assert np.allclose(T.t, rho)


def test_se3_exp_matches_matrix_exponential():
    from scipy.linalg import expm

    for _ in range(20):
        xi = RNG.normal(size=6)
        Xi = np.zeros((4, 4))
        Xi[:3, :3] = skew(xi[3:])
        Xi[:3, 3] = xi[:3]
        assert np.allclose(se3_exp(xi).matrix(), expm(Xi), atol=1e-10)


def test_quat_angle_between():
    q = quat_from_rotvec([0.0, 0.0, 0.25])
    assert quat_angle_between(quat_identity(), q) == pytest.approx(0.25, abs=1e-12)
    # double cover: negated quaternion is the same rotation
    assert quat_angle_between(quat_identity(), -q) == pytest.approx(0.25, abs=1e-12)


def test_rotation_angle_deg():
    R = rotmat_from_rotvec(np.deg2rad(37.0) * np.array([0, 1.0, 0]))
    assert rotation_angle_deg(R) == pytest.approx(37.0, abs=1e-9)
    assert rotation_angle_deg(np.eye(3)) == pytest.approx(0.0)


def test_quat_normalize_rejects_zero():
    with pytest.raises(ValueError):
        quat_normalize([0.0, 0.0, 0.0, 0.0])


def _angles(rng, n):
    """Angles in +/-40 rad, with rows inside the first-order branch, exact
    zeros of either sign, and angles within one turn."""
    a = rng.uniform(-40.0, 40.0, n)
    kind = rng.integers(0, 4, n)
    a[kind == 0] = rng.uniform(-1e-8, 1e-8, int((kind == 0).sum()))
    a[kind == 1] = rng.choice([0.0, -0.0], int((kind == 1).sum()))
    a[kind == 2] = rng.uniform(-np.pi, np.pi, int((kind == 2).sum()))
    return a


def _bitwise(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def test_row_kernels_equal_one_quaternion_references():
    # each row of an array kernel, and each one-row helper, equals the
    # one-quaternion code as first written, values and sign bits
    rng = np.random.default_rng(22)
    n = 2000
    q = rng.normal(size=(n, 4)) * rng.choice([1e-3, 1.0, 1e3], (n, 1))
    assert np.array_equal(np.sqrt(dot_rows(q, q)), [np.linalg.norm(x) for x in q])
    for got, x in zip(quats_normalize(q), q):
        assert _bitwise(got, ref.quat_normalize(x)) and _bitwise(quat_normalize(x), got)

    a, b = rng.normal(size=(n, 4)), rng.normal(size=(n, 4))
    for got, x, y in zip(quats_mul(a, b), a, b):
        assert _bitwise(got, ref.quat_mul(x, y)) and _bitwise(quat_mul(x, y), got)

    theta = rng.normal(size=(n, 3)) * _angles(rng, n)[:, None]
    theta[:50] = rng.choice([0.0, -0.0], (50, 3))
    theta[50:150] = 0.0
    theta[50:150, rng.integers(0, 3)] = _angles(rng, 100)  # one-hot, +0.0 off the axis
    for got, x in zip(quats_from_rotvecs(theta), theta):
        assert _bitwise(got, ref.quat_from_rotvec(x)) and _bitwise(quat_from_rotvec(x), got), x

    rpy = np.column_stack([_angles(rng, n) for _ in range(3)])
    for got, x in zip(quats_from_euler_zyx(rpy), rpy):
        assert _bitwise(got, ref.quat_from_euler_zyx(*x)) and _bitwise(quat_from_euler_zyx(*x), got), x
