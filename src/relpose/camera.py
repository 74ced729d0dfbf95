"""Double Sphere fisheye projection model.

Forward model (camera frame, z forward):

    d1  = ||p||
    d2  = ||(x, y, xi*d1 + z)||
    den = alpha*d2 + (1 - alpha)*(xi*d1 + z)
    u   = fx * x / den + cx,   v = fy * y / den + cy

valid iff z > -w2 * d1 with

    w1 = alpha/(1-alpha) if alpha <= 0.5 else (1-alpha)/alpha
    w2 = (w1 + xi) / sqrt(2*w1*xi + xi^2 + 1)

plus a field-of-view cone cut (angle from the optical axis <= fov/2).
Unprojection inverts the model back to a unit bearing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geom import dot_rows


class OutOfImage(ValueError):
    """Point not representable: model validity or FOV cone violated."""


@dataclass(frozen=True)
class DsIntrinsics:
    fx: float
    fy: float
    cx: float
    cy: float
    xi: float
    alpha: float
    fov_deg: float = 185.0

    def __post_init__(self):
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal scales must be positive")
        if self.fov_deg > 185.0:
            raise ValueError(f"fov_deg must be <= 185, got {self.fov_deg}")


# plausible wide-FOV defaults for a 640x640 sensor; any set passing the
# round-trip tests over the FOV cone works
DEFAULT_INTRINSICS = DsIntrinsics(fx=285.0, fy=285.0, cx=320.0, cy=320.0, xi=-0.18, alpha=0.59)


def _w2(k: DsIntrinsics) -> float:
    if k.alpha <= 0.5:
        w1 = k.alpha / (1.0 - k.alpha)
    else:
        w1 = (1.0 - k.alpha) / k.alpha
    return (w1 + k.xi) / np.sqrt(2.0 * w1 * k.xi + k.xi**2 + 1.0)


def ds_project_array(p_cam, k: DsIntrinsics) -> tuple[np.ndarray, np.ndarray]:
    """Pixels (n, 2) of camera-frame points (n, 3), and a mask (n,) of the points
    the model images: off the camera center, valid, and inside the FOV cone.

    Rows off the mask are nan. Norms are row-wise dot products (`geom.dot_rows`),
    so every row equals the projection of that point alone bit for bit.
    """
    p = np.asarray(p_cam, dtype=float).reshape(-1, 3)
    d1 = np.sqrt(dot_rows(p, p))
    z = p[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        # the camera center fails the validity condition (0 <= 0)
        ok = ~(z <= -_w2(k) * d1)
        ok &= ~(np.arccos(np.clip(z / d1, -1.0, 1.0)) > 0.5 * np.deg2rad(k.fov_deg))
    x, y, z, d1 = p[ok, 0], p[ok, 1], z[ok], d1[ok]
    zeta = k.xi * d1 + z
    d2 = np.sqrt(x * x + y * y + zeta * zeta)
    den = k.alpha * d2 + (1.0 - k.alpha) * zeta
    uv = np.full((p.shape[0], 2), np.nan)
    uv[ok, 0] = k.fx * x / den + k.cx
    uv[ok, 1] = k.fy * y / den + k.cy
    return uv, ok


def ds_project(p_cam, k: DsIntrinsics) -> tuple[float, float]:
    """Project one camera-frame point to pixels. Raises OutOfImage."""
    uv, ok = ds_project_array(p_cam, k)
    if not ok[0]:
        raise OutOfImage("point at the camera center, invalid for the model, or outside the FOV cone")
    return float(uv[0, 0]), float(uv[0, 1])


def ds_unproject(uv, k: DsIntrinsics) -> tuple[np.ndarray, np.ndarray]:
    """Unit bearings (n, 3) of pixels (n, 2), and a mask (n,) of the pixels
    inside the model's unprojectable region.

    Rows off the mask (outside the unprojectable disk, or not finite) are nan.
    Norms are row-wise dot products (`geom.dot_rows`), so every row equals the
    unprojection of that pixel alone bit for bit.
    """
    uv = np.asarray(uv, dtype=float).reshape(-1, 2)
    mx = (uv[:, 0] - k.cx) / k.fx
    my = (uv[:, 1] - k.cy) / k.fy
    r2 = mx * mx + my * my
    ok = np.isfinite(r2)
    if k.alpha > 0.5:
        ok &= ~(r2 > 1.0 / (2.0 * k.alpha - 1.0))
    mx, my, r2 = mx[ok], my[ok], r2[ok]
    root = np.maximum(1.0 - (2.0 * k.alpha - 1.0) * r2, 0.0)
    mz = (1.0 - k.alpha * k.alpha * r2) / (k.alpha * np.sqrt(root) + 1.0 - k.alpha)
    coeff = (mz * k.xi + np.sqrt(mz * mz + (1.0 - k.xi * k.xi) * r2)) / (mz * mz + r2)
    ray = coeff[:, None] * np.column_stack((mx, my, mz)) - np.array([0.0, 0.0, k.xi])
    out = np.full((uv.shape[0], 3), np.nan)
    out[ok] = ray / np.sqrt(dot_rows(ray, ray))[:, None]
    return out, ok
