"""Rotation and pose algebra shared by the whole stack.

Conventions, fixed once and asserted in tests:

- Quaternions are Hamilton, scalar-first ``[w, x, y, z]``, unit norm.
- ``rotmat_from_quat(q) @ v`` equals the sandwich ``q (0,v) q*``.
- Euler angles are Z-Y-X (yaw, pitch, roll), intrinsic:
  ``R = rot_z(yaw) @ rot_y(pitch) @ rot_x(roll)``.
- World frame is z-up.

Each rotation operation has one kernel over rows, named in the plural
(`quats_mul`, `quats_from_rotvecs`, `rotmats_from_quats`, ...); its singular
helper is the one-row case. Norms are row-wise dot products (`dot_rows`),
which equal `np.linalg.norm` of each row bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

GIMBAL_GUARD_DEG = 89.9


class GimbalLock(ValueError):
    """Pitch too close to +/-90 deg for a Z-Y-X Euler factorization."""


def dot_rows(x, y) -> np.ndarray:
    """Dot products (n,) of the rows of x and y (n, k) through matmul, as `x @ y`
    or `np.linalg.norm` takes them for one row."""
    return (x[:, None, :] @ y[:, :, None])[:, 0, 0]


def quats_normalize(q) -> np.ndarray:
    """Each row of q (n, 4) over its norm."""
    q = np.asarray(q, dtype=float)
    return q / np.sqrt(dot_rows(q, q))[:, None]


def quat_normalize(q) -> np.ndarray:
    """One row of `quats_normalize`; a zero quaternion raises ValueError."""
    q = np.reshape(np.asarray(q, dtype=float), (1, -1))
    if dot_rows(q, q)[0] == 0.0:
        raise ValueError("zero quaternion cannot be normalized")
    return quats_normalize(q)[0]


def quats_mul(a, b) -> np.ndarray:
    """Hamilton products a ⊗ b of the rows of a and b (n, 4), renormalized."""
    aw, ax, ay, az = np.asarray(a, dtype=float).T
    bw, bx, by, bz = np.asarray(b, dtype=float).T
    w = aw * bw - ax * bx - ay * by - az * bz
    x = aw * bx + ax * bw + ay * bz - az * by
    y = aw * by - ax * bz + ay * bw + az * bx
    z = aw * bz + ax * by - ay * bx + az * bw
    return quats_normalize(np.stack((w, x, y, z), axis=-1))


def quat_mul(a, b) -> np.ndarray:
    """Hamilton product a ⊗ b, renormalized: one row of `quats_mul`."""
    return quats_mul(np.reshape(a, (1, 4)), np.reshape(b, (1, 4)))[0]


def quat_conj(q) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    return np.array([q[0], -q[1], -q[2], -q[3]])


def quats_from_rotvecs(theta) -> np.ndarray:
    """Exponential map: rotation vectors theta (n, 3), radians, -> unit quaternions
    (n, 4); a row below 1e-8 rad takes the first-order series, renormalized."""
    theta = np.asarray(theta, dtype=float).reshape(-1, 3)
    angle = np.sqrt(dot_rows(theta, theta))
    q = np.empty((angle.size, 4))
    with np.errstate(invalid="ignore", divide="ignore"):
        half = 0.5 * angle
        q[:, 0] = np.cos(half)
        q[:, 1:] = np.sin(half)[:, None] * (theta / angle[:, None])
    small = angle < 1e-8
    if small.any():
        q[small] = quats_normalize(np.column_stack((np.ones(small.sum()), 0.5 * theta[small])))
    return q


def quat_from_rotvec(theta) -> np.ndarray:
    """Exponential map of one rotation vector: one row of `quats_from_rotvecs`."""
    return quats_from_rotvecs(np.reshape(theta, (1, 3)))[0]


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


def quats_from_rotmats(R) -> np.ndarray:
    """Unit quaternions (n, 4), w >= 0, of the rotations R (n, 3, 3) by Shepperd's method.

    Each row takes the branch and the float operations of the method on that
    matrix alone, and is normalized by `quats_normalize`. Non-finite matrices
    give non-finite rows.
    """
    R = np.asarray(R, dtype=float).reshape(-1, 3, 3)
    tr = (R[:, 0, 0] + R[:, 1, 1]) + R[:, 2, 2]  # as np.trace sums it
    d = np.diagonal(R, axis1=1, axis2=2)
    w_leads = tr > 0
    x_leads = ~w_leads & (d[:, 0] > d[:, 1]) & (d[:, 0] > d[:, 2])
    y_leads = ~w_leads & ~x_leads & (d[:, 1] > d[:, 2])
    z_leads = ~(w_leads | x_leads | y_leads)
    q = np.empty((R.shape[0], 4))
    # per branch: the leading component, then each other component k as
    # (R[i, j] + sign * R[j, i]) / s, in the order the branch computes them
    branches = (
        (w_leads, 0, ((1, 2, 1, -1), (2, 0, 2, -1), (3, 1, 0, -1))),
        (x_leads, 1, ((0, 2, 1, -1), (2, 0, 1, 1), (3, 0, 2, 1))),
        (y_leads, 2, ((0, 0, 2, -1), (1, 0, 1, 1), (3, 1, 2, 1))),
        (z_leads, 3, ((0, 1, 0, -1), (1, 0, 2, 1), (2, 1, 2, 1))),
    )
    with np.errstate(invalid="ignore", divide="ignore"):
        for mask, lead, others in branches:
            if not mask.any():
                continue
            Rm, dm = R[mask], d[mask]
            if lead == 0:
                s = np.sqrt(tr[mask] + 1.0) * 2
            else:
                a, b = (m for m in range(3) if m != lead - 1)
                s = np.sqrt(1.0 + dm[:, lead - 1] - dm[:, a] - dm[:, b]) * 2
            qm = np.empty((s.size, 4))
            qm[:, lead] = 0.25 * s
            for k, i, j, sign in others:
                qm[:, k] = (Rm[:, i, j] + Rm[:, j, i] if sign > 0 else Rm[:, i, j] - Rm[:, j, i]) / s
            q[mask] = qm
        q = quats_normalize(q)
    return np.where(q[:, :1] < 0, -q, q)


def rotmat_from_rotvec(theta) -> np.ndarray:
    return rotmat_from_quat(quat_from_rotvec(theta))


def skew(v) -> np.ndarray:
    x, y, z = v
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def quats_from_euler_zyx(rpy) -> np.ndarray:
    """R = Rz(yaw) Ry(pitch) Rx(roll) as quaternions, one per row (roll, pitch, yaw) of rpy (n, 3)."""
    rpy = np.asarray(rpy, dtype=float).reshape(-1, 3)
    # angle k on axis k and an exact +0.0 on the others: a -0.0 would flip sign bits of the result
    theta = np.zeros((3, rpy.shape[0], 3))
    theta[[0, 1, 2], :, [0, 1, 2]] = rpy.T
    qx, qy, qz = quats_from_rotvecs(theta.reshape(-1, 3)).reshape(3, -1, 4)
    return quats_mul(quats_mul(qz, qy), qx)


def quat_from_euler_zyx(roll: float, pitch: float, yaw: float) -> np.ndarray:
    """One row of `quats_from_euler_zyx`."""
    return quats_from_euler_zyx([[roll, pitch, yaw]])[0]


def euler_zyx_from_rotmats(R) -> tuple[np.ndarray, np.ndarray]:
    """(roll, pitch, yaw) of each rotation in R (n, 3, 3) as rows of (n, 3), with
    R = Rz(yaw) Ry(pitch) Rx(roll), and a mask (n,) of the gimbal-locked rows.

    A row is locked when |pitch| exceeds the guard (89.9 deg): the
    factorization is singular at +/-90 and roll/yaw become indistinct.
    """
    R = np.asarray(R, dtype=float)
    pitch = np.arcsin(np.clip(-R[:, 2, 0], -1.0, 1.0))
    roll = np.arctan2(R[:, 2, 1], R[:, 2, 2])
    yaw = np.arctan2(R[:, 1, 0], R[:, 0, 0])
    return np.stack((roll, pitch, yaw), axis=1), np.abs(pitch) > np.deg2rad(GIMBAL_GUARD_DEG)


def euler_zyx_from_quat(q) -> tuple[float, float, float]:
    """Extract (roll, pitch, yaw) of one quaternion. Raises GimbalLock inside the guard."""
    rpy, locked = euler_zyx_from_rotmats(rotmats_from_quats(np.reshape(q, (1, 4))))
    if locked[0]:
        raise GimbalLock(f"pitch {np.rad2deg(rpy[0, 1]):.2f} deg inside gimbal guard")
    roll, pitch, yaw = rpy[0].tolist()
    return roll, pitch, yaw


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

    def compose(self, other: "Pose") -> "Pose":
        return Pose(self.R @ other.R, self.R @ other.t + self.t)

    def inverse(self) -> "Pose":
        Rt = self.R.T
        return Pose(Rt, -Rt @ self.t)


def rotation_angle_deg(R):
    """Geodesic angle of a rotation matrix, degrees, in [0, 180].

    A stack of matrices (n, 3, 3) gives an array of n angles.
    """
    R = np.asarray(R, dtype=float)
    c = ((R[..., 0, 0] + R[..., 1, 1]) + R[..., 2, 2] - 1.0) / 2.0  # the trace, summed as np.trace
    a = np.rad2deg(np.arccos(np.clip(c, -1.0, 1.0)))
    return float(a) if a.ndim == 0 else a
