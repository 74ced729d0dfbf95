"""Trajectory error metrics: ATE position/rotation and per-sample series.

Estimates and ground truth already share the observer's frame, so there is
deliberately no alignment transform: aligning would hide the very error
being measured.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geom import dot_rows, rotation_angle_deg


@dataclass
class AlignedPair:
    """Estimate and ground truth at the same instants, stacked row by row."""

    t: np.ndarray  # (n,)
    est_p: np.ndarray  # (n, 3)
    est_R: np.ndarray  # (n, 3, 3)
    gt_p: np.ndarray  # (n, 3)
    gt_R: np.ndarray  # (n, 3, 3)


def error_series(a: AlignedPair) -> np.ndarray:
    """Rows of (t, position error [m], rotation error [deg]), in one batched pass.

    The norm is a row-wise dot product (`geom.dot_rows`), which equals
    ``np.linalg.norm`` of each row bit for bit.
    """
    d = a.est_p - a.gt_p
    dp = np.sqrt(dot_rows(d, d))
    dr = rotation_angle_deg(a.gt_R.transpose(0, 2, 1) @ a.est_R)
    return np.column_stack((a.t, dp, dr))


def _rms(x: np.ndarray) -> float:
    return float(np.sqrt(np.mean(x ** 2)))


def summarize(s: np.ndarray, boxplots: bool = False) -> dict:
    """ATE and medians of the finite rows of one error series, its row count, and boxplots on request.

    Rows with a non-finite error are left out of the figures and counted as
    "n_dropped", a key present only when some are. A series without a finite
    row has every figure None, which JSON writes as null.
    """
    kept = s[np.isfinite(s[:, 1:]).all(axis=1)]
    pos, rot = kept[:, 1], kept[:, 2]
    out = dict.fromkeys(("ate_pos_m", "ate_rot_deg", "median_pos_m", "median_rot_deg"))
    if boxplots:
        out.update(boxplot_pos=None, boxplot_rot=None)
    if kept.size:
        out.update(ate_pos_m=_rms(pos), ate_rot_deg=_rms(rot))
        out.update(median_pos_m=float(np.median(pos)), median_rot_deg=float(np.median(rot)))
        if boxplots:
            out.update(boxplot_pos=boxplot_stats(pos), boxplot_rot=boxplot_stats(rot))
    out["n_samples"] = len(s)
    if len(kept) < len(s):
        out["n_dropped"] = len(s) - len(kept)
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
