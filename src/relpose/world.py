"""Deterministic multi-robot world: sensor synthesis, occlusion, message bus.

All randomness flows from one 64-bit seed through named child streams
(``numpy.random.SeedSequence``), so two runs with the same scenario and
seed produce bit-identical sensor streams regardless of robot count or
query order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .camera import DEFAULT_INTRINSICS, DsIntrinsics, OutOfImage, ds_project
from .codec import IdLibrary, lit_at
from .geom import GimbalLock, euler_zyx_from_quat, rotmat_from_quat, rotmats_from_quats
from .trajectory import TrajectorySpec, TrajectoryState, eval_trajectory, eval_trajectory_array

GRAVITY = np.array([0.0, 0.0, -9.81])
UWB_MAX_RANGE = 500.0  # meters; beyond this the range sample is dropped

# unit conversions for the datasheet-style densities
UG_TO_MS2 = 9.81e-6  # micro-g -> m/s^2


@dataclass
class NoiseParams:
    accel_density: float = 183.3  # micro-g / sqrt(Hz)
    gyro_density: float = 0.021  # deg/s / sqrt(Hz)
    uwb_sigma: float = 0.05  # m
    pixel_sigma: float = 1.0  # px
    attitude_rp_sigma: float = 0.2  # deg
    seed: int = 0

    def __post_init__(self):
        for name in ("accel_density", "gyro_density", "uwb_sigma", "pixel_sigma", "attitude_rp_sigma"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    @property
    def accel_density_si(self) -> float:
        return self.accel_density * UG_TO_MS2

    @property
    def gyro_density_si(self) -> float:
        return np.deg2rad(self.gyro_density)

    def zeroed(self) -> "NoiseParams":
        return NoiseParams(0.0, 0.0, 0.0, 0.0, 0.0, self.seed)


@dataclass
class Obstacle:
    """Axis-aligned box or vertical cylinder blocking lines of sight."""

    shape: str  # "box" | "cylinder"
    center: tuple[float, float, float]
    extents: tuple[float, float, float]  # box: half-sizes; cylinder: (radius, radius, half-height)

    def __post_init__(self):
        if self.shape not in ("box", "cylinder"):
            raise ValueError(f"unknown obstacle shape {self.shape!r}")
        if any(e <= 0 for e in self.extents):
            raise ValueError("extents must be positive")

    def intersects_segment(self, a, b) -> bool:
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        c = np.asarray(self.center, dtype=float)
        d = b - a
        if self.shape == "box":
            # slab test on the parameter interval [0, 1]
            lo, hi = 0.0, 1.0
            e = np.asarray(self.extents, dtype=float)
            for k in range(3):
                if abs(d[k]) < 1e-15:
                    if abs(a[k] - c[k]) > e[k]:
                        return False
                    continue
                t0 = (c[k] - e[k] - a[k]) / d[k]
                t1 = (c[k] + e[k] - a[k]) / d[k]
                if t0 > t1:
                    t0, t1 = t1, t0
                lo, hi = max(lo, t0), min(hi, t1)
                if lo > hi:
                    return False
            return True
        # vertical cylinder: quadratic in the xy plane, then z clip
        r = self.extents[0]
        hz = self.extents[2]
        axy = a[:2] - c[:2]
        dxy = d[:2]
        A = float(dxy @ dxy)
        B = 2.0 * float(axy @ dxy)
        C = float(axy @ axy) - r * r
        if A < 1e-15:
            if C > 0:
                return False
            ts = [0.0, 1.0]
        else:
            disc = B * B - 4 * A * C
            if disc < 0:
                return False
            sq = np.sqrt(disc)
            t0, t1 = (-B - sq) / (2 * A), (-B + sq) / (2 * A)
            lo, hi = max(t0, 0.0), min(t1, 1.0)
            if lo > hi:
                return False
            ts = [lo, hi]
        for t in ts:
            z = a[2] + t * d[2]
            if abs(z - c[2]) <= hz:
                return True
        # both crossings outside the z-range but on the same side?
        z0 = a[2] + ts[0] * d[2] - c[2]
        z1 = a[2] + ts[1] * d[2] - c[2]
        return bool(z0 * z1 < 0 and min(abs(z0), abs(z1)) <= hz + abs(z1 - z0))


def synth_imu(traj_state, noise: NoiseParams, dt: float, rng: np.random.Generator):
    """Body-frame specific force and angular rate with discrete white noise."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    R = rotmat_from_quat(traj_state.q)
    accel = R.T @ (traj_state.a - GRAVITY)
    gyro = traj_state.w_body.copy()
    sa = noise.accel_density_si / np.sqrt(dt)
    sw = noise.gyro_density_si / np.sqrt(dt)
    if sa > 0:
        accel = accel + rng.normal(0.0, sa, 3)
    if sw > 0:
        gyro = gyro + rng.normal(0.0, sw, 3)
    return accel, gyro


def synth_uwb(p_i, p_j, noise: NoiseParams, rng: np.random.Generator) -> float | None:
    """Noisy range, clamped at zero; None beyond the radio's max range."""
    d = float(np.linalg.norm(np.asarray(p_i, dtype=float) - np.asarray(p_j, dtype=float)))
    if d > UWB_MAX_RANGE:
        return None
    if noise.uwb_sigma > 0:
        d += float(rng.normal(0.0, noise.uwb_sigma))
    return max(d, 0.0)


def synth_detection(
    observer_p,
    observer_q,
    target_p,
    k: DsIntrinsics,
    obstacles: list[Obstacle],
    noise: NoiseParams,
    rng: np.random.Generator,
) -> tuple[float, float] | None:
    """Pixel of the target beacon in the observer camera, or None.

    None when the line of sight is occluded or the target leaves the
    model's validity region / FOV cone. The camera frame coincides with the
    observer body frame (z forward = body z... the beacon is treated as a
    point at the target body origin).
    """
    observer_p = np.asarray(observer_p, dtype=float)
    target_p = np.asarray(target_p, dtype=float)
    for ob in obstacles:
        if ob.intersects_segment(observer_p, target_p):
            return None
    R = rotmat_from_quat(observer_q)
    p_cam = R.T @ (target_p - observer_p)
    if np.linalg.norm(p_cam) == 0.0:
        return None
    try:
        u, v = ds_project(p_cam, k)
    except OutOfImage:
        return None
    if noise.pixel_sigma > 0:
        u += float(rng.normal(0.0, noise.pixel_sigma))
        v += float(rng.normal(0.0, noise.pixel_sigma))
    return (u, v)


def synth_attitude_rp(
    true_q, noise: NoiseParams, rng: np.random.Generator
) -> tuple[float, float]:
    """IMU-derived roll/pitch: truth plus independent Gaussian noise."""
    roll, pitch, _ = euler_zyx_from_quat(true_q)
    s = np.deg2rad(noise.attitude_rp_sigma)
    if s > 0:
        roll += float(rng.normal(0.0, s))
        pitch += float(rng.normal(0.0, s))
    return (roll, pitch)


class MessageBus:
    """In-process broadcast bus with fixed latency and i.i.d. loss.

    Per-sender delivery order is preserved. Polling is read-only per
    consumer cursor, so concurrent pollers are safe.
    """

    def __init__(self, latency: float = 0.0, loss_rate: float = 0.0, seed: int = 0):
        if not (0.0 <= loss_rate <= 1.0):
            raise ValueError("loss_rate must be in [0, 1]")
        self.latency = latency
        self.loss_rate = loss_rate
        self._rng = np.random.default_rng(seed)
        self._queue: list[tuple[float, int, object]] = []  # (deliver_at, sender, payload)
        self._cursor: dict[int, int] = {}

    def publish(self, sender: int, t: float, payload) -> None:
        if self.loss_rate > 0 and self._rng.random() < self.loss_rate:
            return
        self._queue.append((t + self.latency, sender, payload))

    def poll(self, robot: int, t: float) -> list[tuple[int, object]]:
        """Packets from other robots that became available since last poll."""
        start = self._cursor.get(robot, 0)
        out = []
        last = start
        for k in range(start, len(self._queue)):
            deliver_at, sender, payload = self._queue[k]
            if deliver_at > t + 1e-12:
                break
            last = k + 1
            if sender != robot:
                out.append((sender, payload))
        self._cursor[robot] = last
        return out


@dataclass
class RobotSensors:
    """One robot's synthesized samples at one tick (fields may be None)."""

    imu: tuple[np.ndarray, np.ndarray] | None = None
    uwb: list[tuple[int, float]] = field(default_factory=list)
    detections: list[tuple[int, tuple[float, float], bool]] = field(default_factory=list)
    attitude_rp: tuple[float, float] | None = None


def _relative_truth(obs: TrajectoryState, tgt: TrajectoryState) -> tuple[np.ndarray, np.ndarray]:
    """p (n, 3) and R (n, 3, 3) of the target in the observer body frame, row by row.

    Each row takes the same BLAS calls as ``Ro.T @ (pt - po)`` and
    ``Ro.T @ Rt`` on one sample, so it equals them bit for bit.
    """
    Ro_T = rotmats_from_quats(obs.q).transpose(0, 2, 1)
    return (Ro_T @ (tgt.p - obs.p)[:, :, None])[:, :, 0], Ro_T @ rotmats_from_quats(tgt.q)


@dataclass
class TruthGrid:
    """Every robot's ground truth on the master tick grid t_k = k / rate, as arrays."""

    rate: float
    t: np.ndarray
    states: dict[int, TrajectoryState]

    def ticks(self, t) -> np.ndarray:
        """Grid index of each time in t; ValueError for a time off the grid."""
        t = np.asarray(t, dtype=float)
        k = np.rint(t * self.rate).astype(np.intp)
        if k.size and (k.min() < 0 or k.max() >= self.t.size or np.abs(self.t[k] - t).max() > 1e-9):
            raise ValueError("times are not on the tick grid")
        return k

    def relative(self, observer: int, target: int, k) -> tuple[np.ndarray, np.ndarray]:
        """Ground-truth p (n, 3) and R (n, 3, 3) of target in the observer body frame at ticks k."""
        return _relative_truth(self.states[observer].at(k), self.states[target].at(k))


@dataclass
class SensorFrame:
    t: float
    robots: dict[int, RobotSensors]
    has_imu: bool
    has_cam: bool
    has_uwb: bool


class World:
    """Steps the ground-truth world and synthesizes all sensor streams.

    The master clock runs at the fastest configured rate, and every rate
    must divide it. Ground truth is evaluated once over the master tick grid
    (`truth_grid`); frames and metrics index its rows.
    """

    def __init__(
        self,
        robots: dict[int, tuple[TrajectorySpec, int]],  # id -> (trajectory, led id)
        noise: NoiseParams,
        intrinsics: DsIntrinsics = DEFAULT_INTRINSICS,
        obstacles: list[Obstacle] | None = None,
        lib: IdLibrary | None = None,
        imu_rate: float = 100.0,
        cam_rate: float = 200.0,
        uwb_rate: float = 50.0,
    ):
        self.robots = robots
        self.noise = noise
        self.k = intrinsics
        self.obstacles = obstacles or []
        self.lib = lib if lib is not None else IdLibrary()
        self.imu_rate, self.cam_rate, self.uwb_rate = imu_rate, cam_rate, uwb_rate
        self._master_rate = max(imu_rate, cam_rate, uwb_rate)
        for r in (imu_rate, cam_rate, uwb_rate):
            if abs(self._master_rate / r - round(self._master_rate / r)) > 1e-9:
                raise ValueError("imu/cam/uwb rates must divide the master (fastest) rate")
        # one independent child stream per robot per sensor: stable under
        # changes in query order
        ss = np.random.SeedSequence(noise.seed)
        ids = sorted(robots)
        streams = ss.spawn(4 * len(ids))
        self._rng: dict[tuple[int, str], np.random.Generator] = {}
        for i, rid in enumerate(ids):
            for j, sensor in enumerate(("imu", "uwb", "cam", "att")):
                self._rng[(rid, sensor)] = np.random.default_rng(streams[4 * i + j])
        self._grid: TruthGrid | None = None

    def truth_grid(self, duration: float) -> TruthGrid:
        """Truth of every robot on the master ticks of [0, duration], evaluated once."""
        n = int(round(duration * self._master_rate))
        if self._grid is None or self._grid.t.size != n + 1:
            t = np.arange(n + 1) / self._master_rate
            states = {rid: eval_trajectory_array(spec, t) for rid, (spec, _) in self.robots.items()}
            self._grid = TruthGrid(self._master_rate, t, states)
        return self._grid

    def truth(self, rid: int, t: float):
        return eval_trajectory(self.robots[rid][0], t)

    def relative_truth(self, observer: int, target: int, t: float):
        """Ground-truth (p, R) of target in the observer body frame at any time t."""
        p, R = _relative_truth(
            eval_trajectory_array(self.robots[observer][0], [t]),
            eval_trajectory_array(self.robots[target][0], [t]),
        )
        return p[0], R[0]

    def frames(self, duration: float):
        """Yield SensorFrames on the shared clock for the given duration."""
        imu_every = int(round(self._master_rate / self.imu_rate))
        uwb_every = int(round(self._master_rate / self.uwb_rate))
        cam_every = int(round(self._master_rate / self.cam_rate))
        ids = sorted(self.robots)
        grid = self.truth_grid(duration)
        for k in range(grid.t.size):
            t = k / self._master_rate
            has_imu = k % imu_every == 0
            has_cam = k % cam_every == 0
            has_uwb = k % uwb_every == 0
            states = {rid: grid.states[rid].at(k) for rid in ids}
            frame: dict[int, RobotSensors] = {}
            for rid in ids:
                s = RobotSensors()
                st = states[rid]
                if has_imu:
                    s.imu = synth_imu(st, self.noise, 1.0 / self.imu_rate, self._rng[(rid, "imu")])
                if has_uwb:
                    for other in ids:
                        if other == rid:
                            continue
                        rng = synth_uwb(st.p, states[other].p, self.noise, self._rng[(rid, "uwb")])
                        if rng is not None:
                            s.uwb.append((other, rng))
                if has_cam:
                    try:
                        s.attitude_rp = synth_attitude_rp(st.q, self.noise, self._rng[(rid, "att")])
                    except GimbalLock:
                        s.attitude_rp = None  # no roll/pitch this tick
                    for other in ids:
                        if other == rid:
                            continue
                        px = synth_detection(
                            st.p, st.q, states[other].p, self.k, self.obstacles,
                            self.noise, self._rng[(rid, "cam")],
                        )
                        if px is not None:
                            led = self.robots[other][1]
                            lit = lit_at(t, self.lib.duty_of(led), self.lib.period)
                            s.detections.append((other, px, lit))
                frame[rid] = s
            yield SensorFrame(t, frame, has_imu, has_cam, has_uwb)
