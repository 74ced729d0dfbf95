"""Per-sample reference implementations that the array code must equal bit for bit.

`eval_trajectory_scalar` is the trajectory evaluator as it was written for
one time at a time, and `compute_metrics_per_sample` is the metrics block as
it was written around it: ground truth re-evaluated per recorded sample, and
one error row per sample from `np.linalg.norm` and `np.trace`.
"""

import numpy as np

from relpose.geom import quat_from_euler_zyx, rotmat_from_quat
from relpose.metrics import boxplot_stats
from relpose.trajectory import OutOfDomain, TrajectoryState


def _angles(att, t):
    b = np.asarray(att.rpy0, dtype=float)
    a = np.asarray(att.amp, dtype=float)
    f = np.asarray(att.freq, dtype=float)
    ph = np.asarray(att.phase, dtype=float)
    out = b + a * np.sin(2 * np.pi * f * t + ph)
    out[2] += att.yaw_rate * t
    return out


def _rates(att, t):
    a = np.asarray(att.amp, dtype=float)
    f = np.asarray(att.freq, dtype=float)
    ph = np.asarray(att.phase, dtype=float)
    out = a * 2 * np.pi * f * np.cos(2 * np.pi * f * t + ph)
    out[2] += att.yaw_rate
    return out


def _euler_rates_to_body(rpy, rpy_dot):
    roll, pitch, _ = rpy
    dr, dp, dy = rpy_dot
    sr, cr = np.sin(roll), np.cos(roll)
    sp, cp = np.sin(pitch), np.cos(pitch)
    return np.array(
        [
            dr - dy * sp,
            dp * cr + dy * cp * sr,
            -dp * sr + dy * cp * cr,
        ]
    )


def eval_trajectory_scalar(spec, t: float) -> TrajectoryState:
    if t < -1e-12 or t > spec.duration + 1e-12:
        raise OutOfDomain(f"t={t} outside [0, {spec.duration}]")
    c = np.asarray(spec.center, dtype=float)
    if spec.kind == "static":
        p, v, a = c.copy(), np.zeros(3), np.zeros(3)
    elif spec.kind == "circle":
        ang = spec.omega * t + spec.phase
        r, w = spec.radius, spec.omega
        p = c + r * np.array([np.cos(ang), np.sin(ang), 0.0])
        v = r * w * np.array([-np.sin(ang), np.cos(ang), 0.0])
        a = -r * w * w * np.array([np.cos(ang), np.sin(ang), 0.0])
    elif spec.kind == "lissajous":
        A = np.asarray(spec.amplitude, dtype=float)
        w = 2 * np.pi * np.asarray(spec.freq, dtype=float)
        ph = np.asarray(spec.phase3, dtype=float)
        p = c + A * np.sin(w * t + ph)
        v = A * w * np.cos(w * t + ph)
        a = -A * w * w * np.sin(w * t + ph)
    else:  # waypoints
        p = spec._spline(t)
        v = spec._spline(t, 1)
        a = spec._spline(t, 2)
    rpy = _angles(spec.attitude, t)
    q = quat_from_euler_zyx(rpy[0], rpy[1], rpy[2])
    w_body = _euler_rates_to_body(rpy, _rates(spec.attitude, t))
    return TrajectoryState(p, v, a, q, w_body)


def relative_truth_scalar(spec_obs, spec_tgt, t: float):
    so = eval_trajectory_scalar(spec_obs, t)
    st = eval_trajectory_scalar(spec_tgt, t)
    Ro = rotmat_from_quat(so.q)
    Rt = rotmat_from_quat(st.q)
    return Ro.T @ (st.p - so.p), Ro.T @ Rt


def rotation_angle_deg_scalar(R) -> float:
    c = (np.trace(R) - 1.0) / 2.0
    return float(np.rad2deg(np.arccos(np.clip(c, -1.0, 1.0))))


def error_series_per_sample(result, ser, obs: int, tgt: int) -> np.ndarray:
    """Rows of (t, position error, rotation error) of one recorded series, truth per sample."""
    specs = {rid: spec for rid, (spec, _) in result.world.robots.items()}
    rows = []
    for t, e in zip(ser.t, ser.poses):
        p, R = relative_truth_scalar(specs[obs], specs[tgt], t)
        rows.append((t, float(np.linalg.norm(e.t - p)), rotation_angle_deg_scalar(R.T @ e.R)))
    return np.array(rows)


def compute_metrics_per_sample(result) -> dict:
    """The metrics of a run with truth evaluated per sample, in the original layout."""

    def series(ser, obs, tgt):
        s = error_series_per_sample(result, ser, obs, tgt)
        return {
            "ate_pos_m": float(np.sqrt(np.mean(s[:, 1] ** 2))),
            "ate_rot_deg": float(np.sqrt(np.mean(s[:, 2] ** 2))),
            "median_pos_m": float(np.median(s[:, 1])),
            "median_rot_deg": float(np.median(s[:, 2])),
            "n_samples": int(s.shape[0]),
        }, s

    out: dict = {"pairs": {}, "pgo": {}}
    for (obs, tgt), ser in result.eskf.items():
        if len(ser.t) < 2:
            continue
        m, s = series(ser, obs, tgt)
        m["boxplot_pos"] = boxplot_stats(s[:, 1])
        m["boxplot_rot"] = boxplot_stats(s[:, 2])
        out["pairs"][f"{obs}-{tgt}"] = m
    for (obs, tgt), ser in result.raw.items():
        if len(ser.t) < 2:
            continue
        out.setdefault("raw", {})[f"{obs}-{tgt}"] = series(ser, obs, tgt)[0]
    for rid, ser in result.pgo.items():
        if len(ser.t) < 2:
            continue
        out["pgo"][str(rid)] = series(ser, result.config.ego, rid)[0]
    return out
