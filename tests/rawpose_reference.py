"""Per-observation reference implementations that the batched forms must equal bit for bit.

These are the raw closed-form solve and the Double Sphere unprojection as
they were written for one observation at a time, on the elementary
rotations `rot_x`, `rot_y`, `rot_z`, `wrap_angle` and the one-matrix
quaternion extraction `quat_from_rotmat_scalar`: `MutualObservation` holds
one frame of mutual measurements, `raw_estimate_scalar` solves it (raising
`VerticalDegeneracy` on a near-vertical sight line), and
`ds_unproject_scalar` inverts one pixel (raising `InvalidPixel` outside the
unprojectable disk).
"""

from dataclasses import dataclass

import numpy as np

from relpose.camera import DsIntrinsics
from relpose.geom import quat_normalize
from relpose.rawpose import VERTICAL_XY_THRESHOLD
from estimator_reference import RawPoseMeasurement


def rot_x(a: float) -> np.ndarray:
    c, s = np.cos(a), np.sin(a)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rot_y(a: float) -> np.ndarray:
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rot_z(a: float) -> np.ndarray:
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def wrap_angle(a: float) -> float:
    """Wrap to (-pi, pi]."""
    w = np.arctan2(np.sin(a), np.cos(a))
    # atan2 returns [-pi, pi]; fold the open end
    if w <= -np.pi:
        w = np.pi
    return float(w)


def quat_from_rotmat_scalar(R) -> np.ndarray:
    """Shepperd's method on one matrix; returns the w >= 0 representative."""
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


class VerticalDegeneracy(ValueError):
    """Gravity-aligned bearing too close to +/-z: azimuth undefined."""


class InvalidPixel(ValueError):
    """Pixel outside the model's unprojectable region."""


@dataclass
class MutualObservation:
    """One frame of mutual measurements, observer B tracking A."""

    bearing_b_to_a: np.ndarray  # unit, in B's body frame
    bearing_a_to_b: np.ndarray  # unit, in A's body frame
    range_m: float
    rp_a: tuple[float, float]  # (roll, pitch), radians
    rp_b: tuple[float, float]
    t: float = 0.0

    def __post_init__(self):
        self.bearing_b_to_a = np.asarray(self.bearing_b_to_a, dtype=float)
        self.bearing_a_to_b = np.asarray(self.bearing_a_to_b, dtype=float)
        for b in (self.bearing_b_to_a, self.bearing_a_to_b):
            if abs(np.linalg.norm(b) - 1.0) > 1e-9:
                raise ValueError("bearings must be unit-norm")
        if self.range_m < 0:
            raise ValueError("range must be non-negative")


def relative_position(bearing, range_m: float) -> np.ndarray:
    """Bearing scaled by the UWB range."""
    return float(range_m) * np.asarray(bearing, dtype=float)


def gravity_align(bearing, rp: tuple[float, float]) -> np.ndarray:
    """Rotate a body-frame bearing into the gravity-aligned frame:
    v_aligned = Ry(pitch) Rx(roll) v_body, renormalized."""
    roll, pitch = rp
    v = rot_y(pitch) @ rot_x(roll) @ np.asarray(bearing, dtype=float)
    return v / np.linalg.norm(v)


def projected_azimuth(aligned_bearing) -> float:
    """Azimuth of the bearing projected onto the aligned x-o-y plane."""
    x, y = aligned_bearing[0], aligned_bearing[1]
    if np.hypot(x, y) < VERTICAL_XY_THRESHOLD:
        raise VerticalDegeneracy("sight line too close to vertical")
    return wrap_angle(float(np.arctan2(y, x)))


def relative_yaw(azimuth_in_b: float, azimuth_in_a: float) -> float:
    """Relative yaw from the two projected azimuths, wrapped to (-pi, pi]."""
    return wrap_angle(azimuth_in_b - azimuth_in_a + np.pi)


def relative_rotation(obs: MutualObservation) -> np.ndarray:
    """Rotation of A's body frame expressed in B's body frame."""
    aligned_b = gravity_align(obs.bearing_b_to_a, obs.rp_b)
    aligned_a = gravity_align(obs.bearing_a_to_b, obs.rp_a)
    psi = relative_yaw(projected_azimuth(aligned_b), projected_azimuth(aligned_a))
    roll_b, pitch_b = obs.rp_b
    roll_a, pitch_a = obs.rp_a
    return rot_x(roll_b).T @ rot_y(pitch_b).T @ rot_z(psi) @ rot_y(pitch_a) @ rot_x(roll_a)


def raw_estimate_scalar(obs: MutualObservation) -> RawPoseMeasurement:
    """Assemble the full raw measurement; raises on degenerate geometry."""
    R_ba = relative_rotation(obs)
    return RawPoseMeasurement(
        p_ba=relative_position(obs.bearing_b_to_a, obs.range_m),
        p_ab=relative_position(obs.bearing_a_to_b, obs.range_m),
        q_ba=quat_from_rotmat_scalar(R_ba),
        t=obs.t,
    )


def ds_unproject_scalar(uv, k: DsIntrinsics) -> np.ndarray:
    """Invert a pixel to a unit bearing. Raises InvalidPixel."""
    u, v = uv
    mx = (u - k.cx) / k.fx
    my = (v - k.cy) / k.fy
    r2 = mx * mx + my * my
    if k.alpha > 0.5 and r2 > 1.0 / (2.0 * k.alpha - 1.0):
        raise InvalidPixel("pixel outside the unprojectable disk")
    root = 1.0 - (2.0 * k.alpha - 1.0) * r2
    root = max(root, 0.0)
    mz = (1.0 - k.alpha * k.alpha * r2) / (k.alpha * np.sqrt(root) + 1.0 - k.alpha)
    coeff = (mz * k.xi + np.sqrt(mz * mz + (1.0 - k.xi * k.xi) * r2)) / (mz * mz + r2)
    ray = coeff * np.array([mx, my, mz]) - np.array([0.0, 0.0, k.xi])
    return ray / np.linalg.norm(ray)


def raw_series_reference(cfg, world) -> dict:
    """Each pair's raw measurements (t, p_ba, q_ba) as the per-tick runner formed them.

    Per camera frame, each robot resolves its bearings (oracle: every seen
    beacon; decoded: the decoded tracks that saw a spot this frame) with one
    scalar unprojection each; a pair is solved with the scalar solve when
    both robots see each other, neither is gimbal-locked, and the observer's
    last range to the target is at most 1.5 radio periods old.
    """
    from relpose.codec import SpotTracker
    from relpose.runner import _pairs_for

    ids = sorted(world.robots)
    led_to_robot = {led: rid for rid, (_, led) in world.robots.items()}
    trackers = {rid: SpotTracker(world.lib) for rid in ids}
    pairs = _pairs_for(cfg)
    last_uwb: dict = {}
    rows: dict = {pair: [] for pair in pairs}
    # each tick's time, chunk, radio row and camera row (-1: no sample)
    ticks = (
        (t, ch, uwb, cam) for ch in world.frames(cfg.duration)
        for t, uwb, cam in zip(ch.t.tolist(), ch.uwb_row.tolist(), ch.cam_row.tolist())
    )
    for t, ch, uwb, cam in ticks:
        if uwb >= 0:
            for i, rid in enumerate(ids):
                for j, other in enumerate(ids):
                    if ch.in_range[i, uwb, j]:
                        last_uwb[(rid, other)] = (t, float(ch.ranges[i, uwb, j]))
        if cam < 0:
            continue
        bearings, rp = {}, {}
        for i, rid in enumerate(ids):
            seen = [(ids[j], tuple(ch.pixels[i, cam, j].tolist()), bool(ch.lit[cam, j]))
                    for j in range(len(ids)) if ch.seen[i, cam, j]]
            if cfg.id_mode == "oracle":
                pixels = [(peer, px) for peer, px, _ in seen]
            else:
                trackers[rid].step(t, [(px[0], px[1], lit) for _, px, lit in seen])
                pixels = [
                    (led_to_robot.get(tr.decoded_id), tr.last_pixel)
                    for tr in trackers[rid].tracks.values()
                    if tr.decoded_id is not None and tr.last_t == t
                ]
            bearings[rid] = {}
            for peer, px in pixels:
                if peer is None or peer == rid:
                    continue
                try:
                    bearings[rid][peer] = ds_unproject_scalar(px, cfg.camera)
                except InvalidPixel:
                    pass
            rp[rid] = None if ch.locked[i, cam] else tuple(ch.rp[i, cam].tolist())
        for obs, tgt in pairs:
            rng = last_uwb.get((obs, tgt))
            if (
                tgt not in bearings[obs] or obs not in bearings[tgt]
                or rp[obs] is None or rp[tgt] is None
                or rng is None or t - rng[0] > 1.5 / cfg.uwb_rate
            ):
                continue
            try:
                z = raw_estimate_scalar(MutualObservation(
                    bearings[obs][tgt], bearings[tgt][obs], rng[1], rp[tgt], rp[obs], t
                ))
            except VerticalDegeneracy:
                continue
            rows[(obs, tgt)].append(np.concatenate(([t], z.p_ba, z.q_ba)))
    return {pair: np.array(r, dtype=float).reshape(-1, 8) for pair, r in rows.items()}
