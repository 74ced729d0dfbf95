"""Deterministic multi-robot world: ground truth, sensor synthesis, occlusion.

All randomness flows from one 64-bit seed through named child streams
(``numpy.random.SeedSequence``), so two runs with the same scenario and
seed produce bit-identical sensor streams regardless of robot count or
query order.

Samples are synthesized as arrays over chunks of about one simulated second
(`SensorChunk`), and `World.frames` yields the chunks in order. Each
named stream draws a chunk's noise in one block, in the order per-sample
synthesis would draw it, so the streams do not depend on the chunking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .camera import DEFAULT_INTRINSICS, DsIntrinsics, ds_project_array
from .codec import IdLibrary, lit_at
from .geom import dot_rows, euler_zyx_from_rotmats, rotmats_from_quats
# nothing here calls eval_trajectory; relbench/tracer.py wraps it under this module's name
from .trajectory import TrajectorySpec, TrajectoryState, eval_trajectory, eval_trajectory_array  # noqa: F401

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

    def blocks(self, a, b) -> np.ndarray:
        """(n,) True where the segment a[i] -> b[i] meets the obstacle; a, b are (n, 3)."""
        a = np.asarray(a, dtype=float).reshape(-1, 3)
        d = np.asarray(b, dtype=float).reshape(-1, 3) - a
        c = np.asarray(self.center, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            if self.shape == "box":
                return self._box_blocks(a, d, c)
            return self._cylinder_blocks(a, d, c)

    def intersects_segment(self, a, b) -> bool:
        return bool(self.blocks(a, b)[0])

    def _box_blocks(self, a, d, c) -> np.ndarray:
        # slab test on the parameter interval [0, 1]
        e = np.asarray(self.extents, dtype=float)
        lo, hi = np.zeros(a.shape[0]), np.ones(a.shape[0])
        hit = np.ones(a.shape[0], dtype=bool)
        for k in range(3):
            flat = np.abs(d[:, k]) < 1e-15  # parallel to the slab: inside it or never
            hit &= ~flat | (np.abs(a[:, k] - c[k]) <= e[k])
            t0 = (c[k] - e[k] - a[:, k]) / d[:, k]
            t1 = (c[k] + e[k] - a[:, k]) / d[:, k]
            lo = np.where(flat, lo, np.maximum(lo, np.minimum(t0, t1)))
            hi = np.where(flat, hi, np.minimum(hi, np.maximum(t0, t1)))
        return hit & (lo <= hi)

    def _cylinder_blocks(self, a, d, c) -> np.ndarray:
        # vertical cylinder: quadratic in the xy plane, then z clip
        r, hz = self.extents[0], self.extents[2]
        axy, dxy = a[:, :2] - c[:2], d[:, :2]
        A = dot_rows(dxy, dxy)
        B = 2.0 * dot_rows(axy, dxy)
        C = dot_rows(axy, axy) - r * r
        disc = B * B - 4 * A * C
        sq = np.sqrt(disc)
        vertical = A < 1e-15  # no xy motion: the whole segment is inside the circle or outside
        lo = np.where(vertical, 0.0, np.maximum((-B - sq) / (2 * A), 0.0))
        hi = np.where(vertical, 1.0, np.minimum((-B + sq) / (2 * A), 1.0))
        meets_circle = np.where(vertical, C <= 0, (disc >= 0) & (lo <= hi))
        # z at the two crossings, relative to the center: inside the z-range,
        # or on opposite sides of it
        z0 = a[:, 2] + lo * d[:, 2] - c[2]
        z1 = a[:, 2] + hi * d[:, 2] - c[2]
        span = (z0 * z1 < 0) & (np.minimum(np.abs(z0), np.abs(z1)) <= hz + np.abs(z1 - z0))
        return meets_circle & ((np.abs(z0) <= hz) | (np.abs(z1) <= hz) | span)


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
class SensorChunk:
    """Every sensor sample of a run of master ticks, as arrays.

    Robots are indexed by their position in `ids`, in the first axis and, for
    the pairwise arrays, in the last. Each sensor has its own sample rows;
    `imu_row`, `uwb_row` and `cam_row` give each tick's row, -1 where that
    sensor does not sample. Values are nan where their mask is False.
    """

    ids: list[int]
    t: np.ndarray  # (n,) times of the master ticks
    imu_row: np.ndarray  # (n,)
    uwb_row: np.ndarray  # (n,)
    cam_row: np.ndarray  # (n,)
    imu: np.ndarray  # (R, n_imu, 6) body-frame specific force, then body rate
    ranges: np.ndarray  # (R, n_uwb, R) noisy range to each robot
    in_range: np.ndarray  # (R, n_uwb, R) ranged: another robot within UWB_MAX_RANGE
    pixels: np.ndarray  # (R, n_cam, R, 2) each robot's beacon in each camera
    seen: np.ndarray  # (R, n_cam, R) beacon in view and not occluded
    lit: np.ndarray  # (n_cam, R) each robot's LED on at each camera tick
    rp: np.ndarray  # (R, n_cam, 2) IMU-derived roll/pitch
    locked: np.ndarray  # (R, n_cam) gimbal-locked: no roll/pitch


def stride(fast: float, rate: float) -> int:
    """Ticks of a clock at `fast` Hz per sample at `rate` Hz; ValueError unless a whole number >= 1."""
    n = round(fast / rate)
    if n < 1 or abs(fast / rate - n) > 1e-9:
        raise ValueError(f"{rate:g} Hz does not divide {fast:g} Hz")
    return int(n)


class World:
    """Steps the ground-truth world and synthesizes all sensor streams.

    The master clock runs at the fastest configured rate, and every rate
    must divide it. Ground truth is evaluated once over the master tick grid
    (`truth_grid`); chunks and metrics index its rows.
    """

    def __init__(
        self,
        robots: dict[int, tuple[TrajectorySpec, int]],  # id -> (trajectory, led id)
        noise: NoiseParams,
        intrinsics: DsIntrinsics = DEFAULT_INTRINSICS,
        obstacles: list[Obstacle] | None = None,
        imu_rate: float = 100.0,
        cam_rate: float = 200.0,
        uwb_rate: float = 50.0,
        seed: int = 0,
    ):
        self.robots = robots
        self.noise = noise
        self.k = intrinsics
        self.obstacles = obstacles or []
        self.lib = IdLibrary()
        self.imu_rate, self.cam_rate, self.uwb_rate = imu_rate, cam_rate, uwb_rate
        self._master_rate = max(imu_rate, cam_rate, uwb_rate)
        # master ticks between two samples of the IMU, the radio and the camera
        self._every = tuple(stride(self._master_rate, r) for r in (imu_rate, uwb_rate, cam_rate))
        # one independent child stream per robot per sensor: stable under
        # changes in query order
        ss = np.random.SeedSequence(seed)
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

    def relative_truth(self, observer: int, target: int, t: float):
        """Ground-truth (p, R) of target in the observer body frame at any time t."""
        p, R = _relative_truth(
            eval_trajectory_array(self.robots[observer][0], [t]),
            eval_trajectory_array(self.robots[target][0], [t]),
        )
        return p[0], R[0]

    def frames(self, duration: float):
        """Yield the SensorChunks of the master ticks of [0, duration], about one
        simulated second each, each synthesized when it is asked for.

        The name is kept because relbench/tracer.py wraps `World.frames` by name.
        """
        grid = self.truth_grid(duration)
        step = max(int(round(self._master_rate)), 1)
        for k0 in range(0, grid.t.size, step):
            yield self._chunk(grid, k0, min(k0 + step, grid.t.size))

    def _chunk(self, grid: TruthGrid, k0: int, k1: int) -> SensorChunk:
        """The samples of master ticks [k0, k1), every sensor synthesized as arrays."""
        ids = sorted(self.robots)
        k = np.arange(k0, k1)
        masks = [k % every == 0 for every in self._every]
        i_imu, i_uwb, i_cam = (np.flatnonzero(m) for m in masks)
        t = grid.t[k0:k1]
        lit = np.stack(
            [lit_at(t[i_cam], self.lib.duty_of(self.robots[rid][1]), self.lib.period) for rid in ids], axis=1
        )
        q = np.concatenate([grid.states[rid].q[k0:k1] for rid in ids])
        rotmats = rotmats_from_quats(q).reshape(len(ids), k1 - k0, 3, 3)
        p_all = [grid.states[rid].p[k0:k1] for rid in ids]
        synth = []
        for i, (rid, R) in enumerate(zip(ids, rotmats)):
            s = grid.states[rid].at(slice(k0, k1))
            synth.append((
                self._imu(R[i_imu], s.a[i_imu], s.w_body[i_imu], self._rng[(rid, "imu")]),
                *self._ranges(i, [p[i_uwb] for p in p_all], self._rng[(rid, "uwb")]),
                *self._detections(i, R[i_cam], [p[i_cam] for p in p_all], self._rng[(rid, "cam")]),
                *self._attitude_rp(R[i_cam], self._rng[(rid, "att")]),
            ))
        imu, ranges, in_range, pixels, seen, rp, locked = (np.stack(x) for x in zip(*synth))
        rows = [np.where(m, np.cumsum(m) - 1, -1) for m in masks]
        return SensorChunk(ids, t, *rows, imu, ranges, in_range, pixels, seen, lit, rp, locked)

    def _imu(self, R, a, w_body, rng: np.random.Generator) -> np.ndarray:
        """Body-frame specific force and angular rate (n, 6) with discrete white noise.

        R (n, 3, 3) is the attitude, a (n, 3) the world acceleration, w_body (n, 3) the body rate.
        """
        dt = 1.0 / self.imu_rate
        out = np.empty((R.shape[0], 6))
        out[:, :3] = (R.transpose(0, 2, 1) @ (a - GRAVITY)[:, :, None])[:, :, 0]
        out[:, 3:] = w_body
        densities = [self.noise.accel_density_si, self.noise.gyro_density_si]
        sigma = np.repeat([d / np.sqrt(dt) for d in densities], 3)
        on = sigma > 0  # a zero sigma draws nothing
        if on.any():
            out[:, on] += rng.normal(0.0, sigma[on], (out.shape[0], int(on.sum())))
        return out

    def _ranges(self, i: int, p_all, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """Noisy ranges (n, R) from robot i to every robot at positions p_all (R of (n, 3)),
        clamped at zero, and the mask (n, R) of those measured: other robots within
        UWB_MAX_RANGE."""
        p = p_all[i]
        d = np.empty((p.shape[0], len(p_all)))
        for j, q in enumerate(p_all):
            d[:, j] = np.sqrt(dot_rows(p - q, p - q))
        ok = ~(d > UWB_MAX_RANGE)
        ok[:, i] = False
        if self.noise.uwb_sigma > 0:
            d[ok] += rng.normal(0.0, self.noise.uwb_sigma, int(ok.sum()))
        d = np.where(d < 0.0, 0.0, d)
        d[~ok] = np.nan
        return d, ok

    def _detections(self, i: int, R, p_all, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """Noisy pixels (n, R, 2) of every robot's beacon in the camera of robot i at
        attitudes R (n, 3, 3), and the mask (n, R) of those seen.

        A beacon is seen when no obstacle blocks the line of sight and it
        projects inside the camera model's validity region and FOV cone.
        """
        p = p_all[i]
        n = p.shape[0]
        R_T = R.transpose(0, 2, 1)
        uv = np.full((n, len(p_all), 2), np.nan)
        seen = np.zeros((n, len(p_all)), dtype=bool)
        for j, target in enumerate(p_all):
            if j == i:
                continue
            uv[:, j], seen[:, j] = ds_project_array((R_T @ (target - p)[:, :, None])[:, :, 0], self.k)
            for ob in self.obstacles:
                seen[:, j] &= ~ob.blocks(p, target)
        if self.noise.pixel_sigma > 0:
            uv[seen] += rng.normal(0.0, self.noise.pixel_sigma, (int(seen.sum()), 2))
        uv[~seen] = np.nan
        return uv, seen

    def _attitude_rp(self, R, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """IMU-derived roll/pitch (n, 2) of attitudes R (n, 3, 3): truth plus independent
        Gaussian noise; and the mask (n,) of gimbal-locked rows, which are nan."""
        rpy, locked = euler_zyx_from_rotmats(R)
        rp = rpy[:, :2]
        s = np.deg2rad(self.noise.attitude_rp_sigma)
        if s > 0:
            rp[~locked] += rng.normal(0.0, s, (int((~locked).sum()), 2))
        rp[locked] = np.nan
        return rp, locked
