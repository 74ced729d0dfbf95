"""Trajectory error metrics: ATE position/rotation and per-sample series.

Estimates and ground truth already share the observer's frame, so there is
deliberately no alignment transform: aligning would hide the very error
being measured.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geom import Pose, rotation_angle_deg


class InsufficientOverlap(ValueError):
    pass


@dataclass
class AlignedPair:
    """Estimate and ground truth at the same instants, stacked row by row."""

    t: np.ndarray  # (n,)
    est_p: np.ndarray  # (n, 3)
    est_R: np.ndarray  # (n, 3, 3)
    gt_p: np.ndarray  # (n, 3)
    gt_R: np.ndarray  # (n, 3, 3)


@dataclass
class TrajectoryPair:
    """Timestamp-associated estimate/ground-truth pose series."""

    est_t: np.ndarray
    est: list[Pose]
    gt_t: np.ndarray
    gt: list[Pose]
    tolerance: float = 0.005  # seconds

    def matched(self) -> list[tuple[float, Pose, Pose]]:
        gt_t = np.asarray(self.gt_t, dtype=float)
        out = []
        for t, e in zip(self.est_t, self.est):
            k = int(np.argmin(np.abs(gt_t - t)))
            if abs(gt_t[k] - t) <= self.tolerance:
                out.append((float(t), e, self.gt[k]))
        if len(out) < 2:
            raise InsufficientOverlap(
                f"only {len(out)} matched samples within {self.tolerance}s"
            )
        return out

    def aligned(self) -> AlignedPair:
        t, est, gt = zip(*self.matched())
        return AlignedPair(
            np.array(t),
            np.array([e.t for e in est]),
            np.array([e.R for e in est]),
            np.array([g.t for g in gt]),
            np.array([g.R for g in gt]),
        )


def error_series(pair: TrajectoryPair | AlignedPair) -> np.ndarray:
    """Rows of (t, position error [m], rotation error [deg]), in one batched pass.

    The norm is a per-row dot product through matmul, which equals
    ``np.linalg.norm`` of each row bit for bit.
    """
    a = pair.aligned() if isinstance(pair, TrajectoryPair) else pair
    d = a.est_p - a.gt_p
    dp = np.sqrt(d[:, None, :] @ d[:, :, None])[:, 0, 0]
    dr = rotation_angle_deg(a.gt_R.transpose(0, 2, 1) @ a.est_R)
    return np.column_stack((a.t, dp, dr))


def _rms(x: np.ndarray) -> float:
    return float(np.sqrt(np.mean(x ** 2)))


def ate_pos(pair: TrajectoryPair | AlignedPair) -> float:
    """RMS of translational error norms, meters."""
    return _rms(error_series(pair)[:, 1])


def ate_rot(pair: TrajectoryPair | AlignedPair) -> float:
    """RMS of geodesic rotation angles, degrees."""
    return _rms(error_series(pair)[:, 2])


def summarize(s: np.ndarray, boxplots: bool = False) -> dict:
    """ATE, medians and sample count of one error series, plus boxplots on request."""
    out = {
        "ate_pos_m": _rms(s[:, 1]),
        "ate_rot_deg": _rms(s[:, 2]),
        "median_pos_m": float(np.median(s[:, 1])),
        "median_rot_deg": float(np.median(s[:, 2])),
    }
    if boxplots:
        out["boxplot_pos"] = boxplot_stats(s[:, 1])
        out["boxplot_rot"] = boxplot_stats(s[:, 2])
    out["n_samples"] = int(s.shape[0])
    return out


def boxplot_stats(values) -> dict:
    """{min, q1, median, q3, max, outliers} with 1.5*IQR whiskers."""
    v = np.sort(np.asarray(values, dtype=float))
    if v.size == 0:
        raise ValueError("no values")
    q1, med, q3 = np.percentile(v, [25, 50, 75])
    iqr = q3 - q1
    lo_fence, hi_fence = q1 - 1.5 * iqr, q3 + 1.5 * iqr
    inliers = v[(v >= lo_fence) & (v <= hi_fence)]
    return {
        "min": float(inliers[0]),
        "q1": float(q1),
        "median": float(med),
        "q3": float(q3),
        "max": float(inliers[-1]),
        "outliers": [float(x) for x in v[(v < lo_fence) | (v > hi_fence)]],
    }
