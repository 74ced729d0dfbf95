"""Ground truth and trajectory errors computed apart from relpose.

Everything here works from the benchmark's own config dicts and plain
numpy, vectorized over time: the closed forms of the static, circle and
Lissajous trajectories, the Z-Y-X Euler attitude profile, relative truth in
the observer's body frame, ATE, and the line-of-sight test against a box.
The checks compare the program's outputs against these values, so nothing
here may import relpose.
"""

from __future__ import annotations

import numpy as np

# schema defaults of a trajectory object (see relpose.scenario)
_DEFAULTS = {
    "center": (0.0, 0.0, 0.0),
    "radius": 1.0,
    "omega": 0.5,
    "phase": 0.0,
    "amplitude": (1.0, 1.0, 0.0),
    "freq": (0.1, 0.2, 0.0),
    "phase3": (0.0, 0.0, 0.0),
}
_ATTITUDE_DEFAULTS = {
    "rpy0": (0.0, 0.0, 0.0),
    "amp": (0.0, 0.0, 0.0),
    "freq": (0.0, 0.0, 0.0),
    "phase": (0.0, 0.0, 0.0),
    "yaw_rate": 0.0,
}


def _get(d: dict, defaults: dict, key: str) -> np.ndarray:
    return np.asarray(d.get(key, defaults[key]), dtype=float)


def position_velocity(traj: dict, t) -> tuple[np.ndarray, np.ndarray]:
    """World position and velocity, each (N, 3), at times t (N,)."""
    t = np.asarray(t, dtype=float)[:, None]
    c = _get(traj, _DEFAULTS, "center")
    kind = traj["kind"]
    if kind == "static":
        return np.broadcast_to(c, (t.shape[0], 3)).copy(), np.zeros((t.shape[0], 3))
    if kind == "circle":
        r, w = float(_get(traj, _DEFAULTS, "radius")), float(_get(traj, _DEFAULTS, "omega"))
        ang = w * t[:, 0] + float(_get(traj, _DEFAULTS, "phase"))
        zero = np.zeros_like(ang)
        p = c + r * np.stack([np.cos(ang), np.sin(ang), zero], axis=1)
        v = r * w * np.stack([-np.sin(ang), np.cos(ang), zero], axis=1)
        return p, v
    if kind == "lissajous":
        A = _get(traj, _DEFAULTS, "amplitude")
        w = 2.0 * np.pi * _get(traj, _DEFAULTS, "freq")
        arg = w * t + _get(traj, _DEFAULTS, "phase3")
        return c + A * np.sin(arg), A * w * np.cos(arg)
    raise ValueError(f"no closed form for trajectory kind {kind!r}")


def euler_angles(traj: dict, t) -> np.ndarray:
    """(N, 3) roll, pitch, yaw: rpy0 + amp sin(2 pi freq t + phase), plus the yaw ramp."""
    att = traj.get("attitude", {})
    t = np.asarray(t, dtype=float)[:, None]
    rpy = _get(att, _ATTITUDE_DEFAULTS, "rpy0") + _get(att, _ATTITUDE_DEFAULTS, "amp") * np.sin(
        2.0 * np.pi * _get(att, _ATTITUDE_DEFAULTS, "freq") * t + _get(att, _ATTITUDE_DEFAULTS, "phase")
    )
    rpy[:, 2] += float(att.get("yaw_rate", 0.0)) * t[:, 0]
    return rpy


def rotmat_zyx(rpy: np.ndarray) -> np.ndarray:
    """(N, 3, 3) R = Rz(yaw) Ry(pitch) Rx(roll), body frame in world."""
    sr, cr = np.sin(rpy[:, 0]), np.cos(rpy[:, 0])
    sp, cp = np.sin(rpy[:, 1]), np.cos(rpy[:, 1])
    sy, cy = np.sin(rpy[:, 2]), np.cos(rpy[:, 2])
    R = np.empty((rpy.shape[0], 3, 3))
    R[:, 0, 0] = cy * cp
    R[:, 0, 1] = cy * sp * sr - sy * cr
    R[:, 0, 2] = cy * sp * cr + sy * sr
    R[:, 1, 0] = sy * cp
    R[:, 1, 1] = sy * sp * sr + cy * cr
    R[:, 1, 2] = sy * sp * cr - cy * sr
    R[:, 2, 0] = -sp
    R[:, 2, 1] = cp * sr
    R[:, 2, 2] = cp * cr
    return R


def quat_zyx(rpy: np.ndarray) -> np.ndarray:
    """(N, 4) quaternion (w, x, y, z) of Rz(yaw) Ry(pitch) Rx(roll), from half angles."""
    h = 0.5 * rpy
    sr, cr = np.sin(h[:, 0]), np.cos(h[:, 0])
    sp, cp = np.sin(h[:, 1]), np.cos(h[:, 1])
    sy, cy = np.sin(h[:, 2]), np.cos(h[:, 2])
    return np.stack(
        [
            cr * cp * cy + sr * sp * sy,
            sr * cp * cy - cr * sp * sy,
            cr * sp * cy + sr * cp * sy,
            cr * cp * sy - sr * sp * cy,
        ],
        axis=1,
    )


def relative_truth(observer: dict, target: dict, t) -> tuple[np.ndarray, np.ndarray]:
    """Target position (N, 3) and rotation (N, 3, 3) in the observer's body frame."""
    po, _ = position_velocity(observer, t)
    pt, _ = position_velocity(target, t)
    Ro = rotmat_zyx(euler_angles(observer, t))
    Rt = rotmat_zyx(euler_angles(target, t))
    RoT = np.transpose(Ro, (0, 2, 1))
    return np.einsum("nij,nj->ni", RoT, pt - po), RoT @ Rt


def geodesic_deg(R: np.ndarray) -> np.ndarray:
    """(N,) rotation angle in degrees of each (3, 3) rotation, via atan2."""
    c = 0.5 * (np.trace(R, axis1=1, axis2=2) - 1.0)
    axis = np.stack(
        [R[:, 2, 1] - R[:, 1, 2], R[:, 0, 2] - R[:, 2, 0], R[:, 1, 0] - R[:, 0, 1]], axis=1
    )
    s = 0.5 * np.linalg.norm(axis, axis=1)
    return np.rad2deg(np.arctan2(s, c))


def errors(p_est, R_est, p_gt, R_gt) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample position error [m] and rotation error [deg]."""
    dp = np.linalg.norm(np.asarray(p_est) - p_gt, axis=1)
    dr = geodesic_deg(np.transpose(R_gt, (0, 2, 1)) @ np.asarray(R_est))
    return dp, dr


def rms(x: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.square(x))))


def box_blocks(center, extents, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(N,) True where segment a[n] -> b[n] meets the axis-aligned box (slab test)."""
    c = np.asarray(center, dtype=float)
    e = np.asarray(extents, dtype=float)
    d = b - a
    lo = np.zeros(a.shape[0])
    hi = np.ones(a.shape[0])
    blocked = np.ones(a.shape[0], dtype=bool)
    for k in range(3):
        flat = np.abs(d[:, k]) < 1e-15
        blocked &= ~(flat & (np.abs(a[:, k] - c[k]) > e[k]))
        with np.errstate(divide="ignore", invalid="ignore"):
            t0 = (c[k] - e[k] - a[:, k]) / d[:, k]
            t1 = (c[k] + e[k] - a[:, k]) / d[:, k]
        lo = np.where(flat, lo, np.maximum(lo, np.minimum(t0, t1)))
        hi = np.where(flat, hi, np.minimum(hi, np.maximum(t0, t1)))
    return blocked & (lo <= hi)
