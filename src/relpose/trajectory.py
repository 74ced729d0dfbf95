"""Analytic ground-truth trajectories with consistent derivatives.

Every kind is evaluated on arrays of times (`eval_trajectory_array`); the
scalar `eval_trajectory` is its one-row case.

Position kinds: static, circle, lissajous, waypoints (C2 cubic spline).
Attitude follows a sinusoid-per-axis Euler profile plus a linear yaw ramp,
which covers level flight, spinning, and aggressive roll/pitch sweeps. The
body angular rate comes from the exact Z-Y-X Euler-rate kinematics, so gyro
synthesis is consistent with the attitude to machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline


class OutOfDomain(ValueError):
    pass


@dataclass
class AttitudeProfile:
    """Euler-angle profile: angle(t) = base + amp*sin(2*pi*freq*t + phase)."""

    rpy0: tuple[float, float, float] = (0.0, 0.0, 0.0)
    amp: tuple[float, float, float] = (0.0, 0.0, 0.0)
    freq: tuple[float, float, float] = (0.0, 0.0, 0.0)
    phase: tuple[float, float, float] = (0.0, 0.0, 0.0)
    yaw_rate: float = 0.0  # rad/s, added to the yaw channel

    def angles(self, t) -> np.ndarray:
        """(roll, pitch, yaw) at t; shape (3,), or (n, 3) for n times."""
        t = np.asarray(t, dtype=float)[..., None]
        b = np.asarray(self.rpy0, dtype=float)
        a = np.asarray(self.amp, dtype=float)
        f = np.asarray(self.freq, dtype=float)
        ph = np.asarray(self.phase, dtype=float)
        out = b + a * np.sin(2 * np.pi * f * t + ph)
        out[..., 2] += self.yaw_rate * t[..., 0]
        return out

    def rates(self, t) -> np.ndarray:
        """Euler-angle rates at t; shape (3,), or (n, 3) for n times."""
        t = np.asarray(t, dtype=float)[..., None]
        a = np.asarray(self.amp, dtype=float)
        f = np.asarray(self.freq, dtype=float)
        ph = np.asarray(self.phase, dtype=float)
        out = a * 2 * np.pi * f * np.cos(2 * np.pi * f * t + ph)
        out[..., 2] += self.yaw_rate
        return out


@dataclass
class TrajectorySpec:
    kind: str  # static | circle | lissajous | waypoints
    duration: float
    center: tuple[float, float, float] = (0.0, 0.0, 0.0)
    radius: float = 1.0
    omega: float = 0.5  # rad/s, circle angular rate
    phase: float = 0.0  # circle start angle
    amplitude: tuple[float, float, float] = (1.0, 1.0, 0.0)
    freq: tuple[float, float, float] = (0.1, 0.2, 0.0)  # Hz per axis
    phase3: tuple[float, float, float] = (0.0, 0.0, 0.0)
    waypoints: list[tuple[float, tuple[float, float, float]]] = field(default_factory=list)
    attitude: AttitudeProfile = field(default_factory=AttitudeProfile)

    def __post_init__(self):
        if self.kind not in ("static", "circle", "lissajous", "waypoints"):
            raise ValueError(f"unknown trajectory kind {self.kind!r}")
        if self.kind == "waypoints":
            if len(self.waypoints) < 2:
                raise ValueError("waypoints kind needs at least 2 waypoints")
            ts = np.array([t for t, _ in self.waypoints])
            ps = np.array([p for _, p in self.waypoints])
            self._spline = CubicSpline(ts, ps, bc_type="clamped")


@dataclass
class TrajectoryState:
    """Truth at one time, or at n times with a leading axis of n rows."""

    p: np.ndarray  # world position, m
    v: np.ndarray  # world velocity, m/s
    a: np.ndarray  # world acceleration, m/s^2
    q: np.ndarray  # world->body attitude quaternion (body frame in world)
    w_body: np.ndarray  # body angular rate, rad/s

    def at(self, k) -> "TrajectoryState":
        """Rows k of an array state: one time for an int, n times for an index array."""
        return TrajectoryState(self.p[k], self.v[k], self.a[k], self.q[k], self.w_body[k])


# The row-wise helpers below repeat, element by element, the floating-point
# operations of the scalar geometry (quat_from_rotvec, quat_mul and
# quat_normalize in geom): every norm is a per-row dot product through
# matmul, so one row of the arrays equals the scalar result bit for bit.


def _normalize_rows(q: np.ndarray) -> np.ndarray:
    return q / np.sqrt(q[:, None, :] @ q[:, :, None])[:, 0]


def _axis_quats(angle: np.ndarray, axis: int) -> np.ndarray:
    """Rotations by `angle` about one coordinate axis: (cos(|a|/2), sin(|a|/2) sign(a))."""
    mag = np.abs(angle)
    s = np.sin(0.5 * mag)
    q = np.empty((angle.size, 4))
    q[:, 0] = np.cos(0.5 * mag)
    q[:, 1:] = (s * 0.0)[:, None]  # sin times the zero components of the unit axis
    q[:, 1 + axis] = s * np.sign(angle)
    small = mag < 1e-8
    if small.any():  # first-order series, renormalized
        lin = np.zeros((int(small.sum()), 4))
        lin[:, 0] = 1.0
        lin[:, 1 + axis] = 0.5 * angle[small]
        q[small] = _normalize_rows(lin)
    return q


def _quat_mul_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    aw, ax, ay, az = a.T
    bw, bx, by, bz = b.T
    q = np.stack(
        (
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ),
        axis=1,
    )
    return _normalize_rows(q)


def _quats_from_euler_zyx(rpy: np.ndarray) -> np.ndarray:
    """R = Rz(yaw) Ry(pitch) Rx(roll) as quaternions, one per row of rpy."""
    qz = _axis_quats(rpy[:, 2], 2)
    qy = _axis_quats(rpy[:, 1], 1)
    qx = _axis_quats(rpy[:, 0], 0)
    return _quat_mul_rows(_quat_mul_rows(qz, qy), qx)


def _euler_rates_to_body(rpy: np.ndarray, rpy_dot: np.ndarray) -> np.ndarray:
    """Z-Y-X Euler-angle rates -> body angular velocity, row by row."""
    roll, pitch = rpy[:, 0], rpy[:, 1]
    dr, dp, dy = rpy_dot.T
    sr, cr = np.sin(roll), np.cos(roll)
    sp, cp = np.sin(pitch), np.cos(pitch)
    return np.stack(
        (
            dr - dy * sp,
            dp * cr + dy * cp * sr,
            -dp * sr + dy * cp * cr,
        ),
        axis=1,
    )


def eval_trajectory_array(spec: TrajectorySpec, t) -> TrajectoryState:
    """Truth at each of the n times in t: p, v, a, w_body are (n, 3), q is (n, 4)."""
    t = np.asarray(t, dtype=float).reshape(-1)
    outside = (t < -1e-12) | (t > spec.duration + 1e-12)
    if outside.any():
        raise OutOfDomain(f"t={t[outside][0]} outside [0, {spec.duration}]")
    c = np.asarray(spec.center, dtype=float)
    if spec.kind == "static":
        p, v, a = np.tile(c, (t.size, 1)), np.zeros((t.size, 3)), np.zeros((t.size, 3))
    elif spec.kind == "circle":
        ang = spec.omega * t + spec.phase
        r, w = spec.radius, spec.omega
        cos, sin, zero = np.cos(ang), np.sin(ang), np.zeros_like(ang)
        p = c + r * np.stack((cos, sin, zero), axis=1)
        v = r * w * np.stack((-sin, cos, zero), axis=1)
        a = -r * w * w * np.stack((cos, sin, zero), axis=1)
    elif spec.kind == "lissajous":
        A = np.asarray(spec.amplitude, dtype=float)
        w = 2 * np.pi * np.asarray(spec.freq, dtype=float)
        ph = np.asarray(spec.phase3, dtype=float)
        arg = w * t[:, None] + ph
        p = c + A * np.sin(arg)
        v = A * w * np.cos(arg)
        a = -A * w * w * np.sin(arg)
    else:  # waypoints
        p = spec._spline(t)
        v = spec._spline(t, 1)
        a = spec._spline(t, 2)
    rpy = spec.attitude.angles(t)
    q = _quats_from_euler_zyx(rpy)
    w_body = _euler_rates_to_body(rpy, spec.attitude.rates(t))
    return TrajectoryState(p, v, a, q, w_body)


def eval_trajectory(spec: TrajectorySpec, t: float) -> TrajectoryState:
    """Position/velocity/acceleration + attitude/body-rate at time t."""
    return eval_trajectory_array(spec, [t]).at(0)
