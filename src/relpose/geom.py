"""Rotation and pose algebra shared by the whole stack.

Conventions, fixed once and asserted in tests:

- Quaternions are Hamilton, scalar-first ``[w, x, y, z]``, unit norm.
- ``rotmat_from_quat(q) @ v`` equals the sandwich ``q (0,v) q*``.
- Euler angles are Z-Y-X (yaw, pitch, roll), intrinsic:
  ``R = rot_z(yaw) @ rot_y(pitch) @ rot_x(roll)``.
- World frame is z-up.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

GIMBAL_GUARD_DEG = 89.9


class GimbalLock(ValueError):
    """Pitch too close to +/-90 deg for a Z-Y-X Euler factorization."""


def quat_identity() -> np.ndarray:
    return np.array([1.0, 0.0, 0.0, 0.0])


def quat_normalize(q) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    n = np.linalg.norm(q)
    if n == 0.0:
        raise ValueError("zero quaternion cannot be normalized")
    return q / n


def quat_mul(a, b) -> np.ndarray:
    """Hamilton product a ⊗ b, renormalized."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    q = np.array(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ]
    )
    return quat_normalize(q)


def quat_conj(q) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    return np.array([q[0], -q[1], -q[2], -q[3]])


def quat_from_rotvec(theta) -> np.ndarray:
    """Exponential map: rotation vector (radians) -> unit quaternion."""
    theta = np.asarray(theta, dtype=float)
    angle = np.linalg.norm(theta)
    if angle < 1e-8:
        # first-order series; renormalize to keep the unit invariant
        return quat_normalize(np.concatenate(([1.0], 0.5 * theta)))
    axis = theta / angle
    half = 0.5 * angle
    return np.concatenate(([np.cos(half)], np.sin(half) * axis))


def rotvec_from_quat(q) -> np.ndarray:
    """Logarithm map: unit quaternion -> rotation vector in (-pi, pi]."""
    q = np.asarray(q, dtype=float)
    if q[0] < 0.0:
        q = -q  # pick the short arc
    vec = q[1:]
    s = np.linalg.norm(vec)
    w = min(q[0], 1.0)
    if s < 1e-12:
        return 2.0 * vec  # small-angle: q approx [1, theta/2]
    angle = 2.0 * np.arctan2(s, w)
    return (angle / s) * vec


def rotmat_from_quat(q) -> np.ndarray:
    """3x3 rotation of q; quaternion columns (4, n) give a (3, 3, n) stack."""
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def rotmats_from_quats(q) -> np.ndarray:
    """rotmat_from_quat of each row of q (n, 4), as a C-ordered (n, 3, 3) stack."""
    R = rotmat_from_quat(np.asarray(q, dtype=float).T)
    return np.ascontiguousarray(R.transpose(2, 0, 1))


def quat_from_rotmat(R) -> np.ndarray:
    """Shepperd's method; returns the w >= 0 representative."""
    R = np.asarray(R, dtype=float)
    tr = np.trace(R)
    if tr > 0:
        s = np.sqrt(tr + 1.0) * 2
        q = np.array(
            [0.25 * s, (R[2, 1] - R[1, 2]) / s, (R[0, 2] - R[2, 0]) / s, (R[1, 0] - R[0, 1]) / s]
        )
    elif R[0, 0] > R[1, 1] and R[0, 0] > R[2, 2]:
        s = np.sqrt(1.0 + R[0, 0] - R[1, 1] - R[2, 2]) * 2
        q = np.array(
            [(R[2, 1] - R[1, 2]) / s, 0.25 * s, (R[0, 1] + R[1, 0]) / s, (R[0, 2] + R[2, 0]) / s]
        )
    elif R[1, 1] > R[2, 2]:
        s = np.sqrt(1.0 + R[1, 1] - R[0, 0] - R[2, 2]) * 2
        q = np.array(
            [(R[0, 2] - R[2, 0]) / s, (R[0, 1] + R[1, 0]) / s, 0.25 * s, (R[1, 2] + R[2, 1]) / s]
        )
    else:
        s = np.sqrt(1.0 + R[2, 2] - R[0, 0] - R[1, 1]) * 2
        q = np.array(
            [(R[1, 0] - R[0, 1]) / s, (R[0, 2] + R[2, 0]) / s, (R[1, 2] + R[2, 1]) / s, 0.25 * s]
        )
    q = quat_normalize(q)
    return -q if q[0] < 0 else q


def rotmat_from_rotvec(theta) -> np.ndarray:
    return rotmat_from_quat(quat_from_rotvec(theta))


def quats_equal_as_rotations(a, b, tol: float = 1e-9) -> bool:
    """True when a and b encode the same rotation (double cover folded)."""
    d = abs(float(np.dot(a, b)))
    return bool(d > 1.0 - tol)


def quat_angle_between(a, b) -> float:
    """Geodesic angle in radians between two unit quaternions as rotations."""
    d = min(abs(float(np.dot(a, b))), 1.0)
    return 2.0 * np.arccos(d)


def skew(v) -> np.ndarray:
    x, y, z = v
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def rot_x(a: float) -> np.ndarray:
    c, s = np.cos(a), np.sin(a)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rot_y(a: float) -> np.ndarray:
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rot_z(a: float) -> np.ndarray:
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def quat_from_euler_zyx(roll: float, pitch: float, yaw: float) -> np.ndarray:
    """Compose R = Rz(yaw) Ry(pitch) Rx(roll) as a quaternion."""
    qz = quat_from_rotvec([0.0, 0.0, yaw])
    qy = quat_from_rotvec([0.0, pitch, 0.0])
    qx = quat_from_rotvec([roll, 0.0, 0.0])
    return quat_mul(quat_mul(qz, qy), qx)


def euler_zyx_from_quat(q) -> tuple[float, float, float]:
    """Extract (roll, pitch, yaw) with R = Rz(yaw) Ry(pitch) Rx(roll).

    Raises GimbalLock when |pitch| exceeds the guard (89.9 deg): the
    factorization is singular at +/-90 and roll/yaw become indistinct.
    """
    R = rotmat_from_quat(q)
    sp = -R[2, 0]
    sp = float(np.clip(sp, -1.0, 1.0))
    pitch = np.arcsin(sp)
    if abs(pitch) > np.deg2rad(GIMBAL_GUARD_DEG):
        raise GimbalLock(f"pitch {np.rad2deg(pitch):.2f} deg inside gimbal guard")
    roll = np.arctan2(R[2, 1], R[2, 2])
    yaw = np.arctan2(R[1, 0], R[0, 0])
    return float(roll), float(pitch), float(yaw)


def wrap_angle(a: float) -> float:
    """Wrap to (-pi, pi]."""
    w = np.arctan2(np.sin(a), np.cos(a))
    # atan2 returns [-pi, pi]; fold the open end
    if w <= -np.pi:
        w = np.pi
    return float(w)


@dataclass
class Pose:
    """Rigid transform: x_out = R @ x_in + t."""

    R: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        self.R = np.asarray(self.R, dtype=float).reshape(3, 3)
        self.t = np.asarray(self.t, dtype=float).reshape(3)

    @staticmethod
    def identity() -> "Pose":
        return Pose(np.eye(3), np.zeros(3))

    def matrix(self) -> np.ndarray:
        T = np.eye(4)
        T[:3, :3] = self.R
        T[:3, 3] = self.t
        return T

    @staticmethod
    def from_matrix(T) -> "Pose":
        T = np.asarray(T, dtype=float)
        return Pose(T[:3, :3].copy(), T[:3, 3].copy())

    def compose(self, other: "Pose") -> "Pose":
        return Pose(self.R @ other.R, self.R @ other.t + self.t)

    def inverse(self) -> "Pose":
        Rt = self.R.T
        return Pose(Rt, -Rt @ self.t)

    def apply(self, p) -> np.ndarray:
        return self.R @ np.asarray(p, dtype=float) + self.t

    def orthonormalized(self) -> "Pose":
        # project R back onto SO(3) via SVD
        u, _, vt = np.linalg.svd(self.R)
        R = u @ vt
        if np.linalg.det(R) < 0:
            R = u @ np.diag([1.0, 1.0, -1.0]) @ vt
        return Pose(R, self.t.copy())


def se3_exp(xi) -> Pose:
    """Exponential of a twist [rho(3), theta(3)] onto SE(3)."""
    xi = np.asarray(xi, dtype=float)
    rho, theta = xi[:3], xi[3:]
    R = rotmat_from_rotvec(theta)
    a = np.linalg.norm(theta)
    if a < 1e-8:
        V = np.eye(3) + 0.5 * skew(theta)
    else:
        K = skew(theta / a)
        V = np.eye(3) + ((1 - np.cos(a)) / a) * K + ((a - np.sin(a)) / a) * (K @ K)
    return Pose(R, V @ rho)


def rotation_angle_deg(R):
    """Geodesic angle of a rotation matrix, degrees, in [0, 180].

    A stack of matrices (n, 3, 3) gives an array of n angles.
    """
    R = np.asarray(R, dtype=float)
    c = ((R[..., 0, 0] + R[..., 1, 1]) + R[..., 2, 2] - 1.0) / 2.0  # the trace, summed as np.trace
    a = np.rad2deg(np.arccos(np.clip(c, -1.0, 1.0)))
    return float(a) if a.ndim == 0 else a
