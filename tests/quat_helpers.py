"""Quaternion comparisons for tests: the double cover folded, as rotations."""

import numpy as np


def quat_identity() -> np.ndarray:
    return np.array([1.0, 0.0, 0.0, 0.0])


def quats_equal_as_rotations(a, b, tol: float = 1e-9) -> bool:
    """True when a and b encode the same rotation."""
    d = abs(float(np.dot(a, b)))
    return bool(d > 1.0 - tol)


def quat_angle_between(a, b) -> float:
    """Geodesic angle in radians between two unit quaternions as rotations."""
    d = min(abs(float(np.dot(a, b))), 1.0)
    return 2.0 * np.arccos(d)
