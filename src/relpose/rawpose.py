"""Closed-form 6-DOF relative pose from one frame of mutual observations.

Inputs per frame: the two mutual unit bearings (each robot sees the other's
beacon), the UWB range, and each robot's roll/pitch from its IMU. Gravity
alignment reduces the unknown relative rotation to a single yaw angle, which
the two projected bearing azimuths determine in closed form.

`raw_estimate` solves any number of frames at once, one per row. Each row
takes the same numpy calls on its own values as a solve of that frame alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geom import GIMBAL_GUARD_DEG, dot_rows, quats_from_rotmats

VERTICAL_XY_THRESHOLD = 0.01  # reject sight lines within ~0.6 deg of vertical

# why a row has no solution; ACCEPTED rows carry one
ACCEPTED, VERTICAL, GIMBAL_LOCK, NON_FINITE = range(4)


@dataclass
class RawSolve:
    """One solve per row: A's position in B's frame p_ba (n, 3), B's in A's p_ab (n, 3),
    A's rotation in B's frame q_ba (n, 4) with w >= 0, and a reason (n,), ACCEPTED or
    why the row was rejected. Rejected rows hold whatever their arithmetic gave."""

    p_ba: np.ndarray
    p_ab: np.ndarray
    q_ba: np.ndarray
    reason: np.ndarray

    @property
    def ok(self) -> np.ndarray:
        return self.reason == ACCEPTED


def _rotations(axis: int, a: np.ndarray) -> np.ndarray:
    """Rotations (n, 3, 3) by the angles a (n,) about coordinate axis 0 (x), 1 (y) or 2 (z)."""
    i, j = (axis + 1) % 3, (axis + 2) % 3
    c, s = np.cos(a), np.sin(a)
    R = np.zeros((a.size, 3, 3))
    R[:, axis, axis] = 1.0
    R[:, i, i], R[:, i, j], R[:, j, i], R[:, j, j] = c, -s, s, c
    return R


def _wrap(a: np.ndarray) -> np.ndarray:
    """Angles wrapped to (-pi, pi]."""
    w = np.arctan2(np.sin(a), np.cos(a))
    return np.where(w <= -np.pi, np.pi, w)


def _gravity_align(Ry: np.ndarray, Rx: np.ndarray, bearing: np.ndarray) -> np.ndarray:
    """Body-frame bearings (n, 3) in the gravity-aligned frame, Ry(pitch) Rx(roll) v,
    renormalized. The aligned frame shares the body yaw, with z opposite gravity."""
    v = ((Ry @ Rx) @ bearing[:, :, None])[:, :, 0]
    return v / np.sqrt(dot_rows(v, v))[:, None]


def raw_estimate(b_ba, b_ab, range_m, rp_a, rp_b) -> RawSolve:
    """Relative pose of A in B's frame from n frames of mutual measurements.

    b_ba (n, 3) is B's unit bearing to A in B's body frame, b_ab (n, 3) A's to B,
    range_m (n,) the UWB range, rp_a and rp_b (n, 2) each robot's (roll, pitch)
    in radians. A row is rejected, by the first reason that holds, as NON_FINITE
    when an input is not finite, as GIMBAL_LOCK when either pitch lies inside
    the gimbal guard, as VERTICAL when either gravity-aligned bearing is within
    VERTICAL_XY_THRESHOLD of vertical, where its azimuth is undefined, and as
    NON_FINITE when the result is not finite.
    """
    b_ba = np.asarray(b_ba, dtype=float).reshape(-1, 3)
    b_ab = np.asarray(b_ab, dtype=float).reshape(-1, 3)
    r = np.asarray(range_m, dtype=float).reshape(-1)
    rp_a = np.asarray(rp_a, dtype=float).reshape(-1, 2)
    rp_b = np.asarray(rp_b, dtype=float).reshape(-1, 2)
    roll_a, pitch_a, roll_b, pitch_b = rp_a[:, 0], rp_a[:, 1], rp_b[:, 0], rp_b[:, 1]
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        Rx_a, Ry_a = _rotations(0, roll_a), _rotations(1, pitch_a)
        Rx_b, Ry_b = _rotations(0, roll_b), _rotations(1, pitch_b)
        aligned_b = _gravity_align(Ry_b, Rx_b, b_ba)
        aligned_a = _gravity_align(Ry_a, Rx_a, b_ab)
        az_b = _wrap(np.arctan2(aligned_b[:, 1], aligned_b[:, 0]))
        az_a = _wrap(np.arctan2(aligned_a[:, 1], aligned_a[:, 0]))
        psi = _wrap(az_b - az_a + np.pi)
        Rz = _rotations(2, psi)
        R_ba = Rx_b.transpose(0, 2, 1) @ Ry_b.transpose(0, 2, 1) @ Rz @ Ry_a @ Rx_a
        p_ba, p_ab, q_ba = r[:, None] * b_ba, r[:, None] * b_ab, quats_from_rotmats(R_ba)
        finite_in = np.isfinite(np.column_stack((b_ba, b_ab, r, rp_a, rp_b))).all(axis=1)
        finite_out = np.isfinite(np.column_stack((p_ba, p_ab, q_ba))).all(axis=1)
        locked = np.maximum(np.abs(pitch_a), np.abs(pitch_b)) > np.deg2rad(GIMBAL_GUARD_DEG)
        vertical = (np.hypot(aligned_b[:, 0], aligned_b[:, 1]) < VERTICAL_XY_THRESHOLD) | (
            np.hypot(aligned_a[:, 0], aligned_a[:, 1]) < VERTICAL_XY_THRESHOLD
        )
    # the first reason that holds, in the order of the docstring
    reason = np.where(finite_out, ACCEPTED, NON_FINITE).astype(np.int8)
    reason[vertical] = VERTICAL
    reason[locked] = GIMBAL_LOCK
    reason[~finite_in] = NON_FINITE
    return RawSolve(p_ba, p_ab, q_ba, reason)
