"""Per-sample sensor synthesis that the world's array tape must equal bit for bit.

These are the simulator's functions as they were written for one sample at a
time: `synth_imu`, `synth_uwb`, `synth_detection` and `synth_attitude_rp`
draw their own noise per call, `intersects_segment_scalar` is the occlusion
test of one segment, `ds_project_scalar` and `euler_zyx_from_quat_scalar` the
projection and roll/pitch extraction of one point, and `frames_reference`
is the per-tick, per-sample loop built on them. It draws from the world's
own named streams, so a fresh world gives the stream `World.frames` would,
and it writes each sample into the arrays of a `SensorChunk` of the same
ticks, so it yields the same chunks.
"""

import numpy as np

from relpose.camera import DsIntrinsics, OutOfImage, _w2
from relpose.codec import lit_at
from relpose.geom import GIMBAL_GUARD_DEG, GimbalLock, rotmat_from_quat
from relpose.world import GRAVITY, UWB_MAX_RANGE, NoiseParams, SensorChunk


def zeroed(noise: NoiseParams) -> NoiseParams:
    """The same noise parameters with every sigma and density at zero."""
    return NoiseParams(0.0, 0.0, 0.0, 0.0, 0.0)


def intersects_segment_scalar(ob, a, b) -> bool:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(ob.center, dtype=float)
    d = b - a
    if ob.shape == "box":
        # slab test on the parameter interval [0, 1]
        lo, hi = 0.0, 1.0
        e = np.asarray(ob.extents, dtype=float)
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
    r = ob.extents[0]
    hz = ob.extents[2]
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


def ds_project_scalar(p_cam, k: DsIntrinsics) -> tuple[float, float]:
    p = np.asarray(p_cam, dtype=float)
    x, y, z = p
    d1 = np.linalg.norm(p)
    if d1 == 0.0:
        raise ValueError("cannot project the camera center")
    if z <= -_w2(k) * d1:
        raise OutOfImage("point violates the Double Sphere validity condition")
    half_fov = 0.5 * np.deg2rad(k.fov_deg)
    if np.arccos(np.clip(z / d1, -1.0, 1.0)) > half_fov:
        raise OutOfImage("point outside the FOV cone")
    zeta = k.xi * d1 + z
    d2 = np.sqrt(x * x + y * y + zeta * zeta)
    den = k.alpha * d2 + (1.0 - k.alpha) * zeta
    return float(k.fx * x / den + k.cx), float(k.fy * y / den + k.cy)


def euler_zyx_from_quat_scalar(q) -> tuple[float, float, float]:
    R = rotmat_from_quat(q)
    sp = -R[2, 0]
    sp = float(np.clip(sp, -1.0, 1.0))
    pitch = np.arcsin(sp)
    if abs(pitch) > np.deg2rad(GIMBAL_GUARD_DEG):
        raise GimbalLock(f"pitch {np.rad2deg(pitch):.2f} deg inside gimbal guard")
    roll = np.arctan2(R[2, 1], R[2, 2])
    yaw = np.arctan2(R[1, 0], R[0, 0])
    return float(roll), float(pitch), float(yaw)


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


def synth_detection(observer_p, observer_q, target_p, k, obstacles, noise, rng):
    """Pixel of the target beacon in the observer camera, or None when occluded or out of view."""
    observer_p = np.asarray(observer_p, dtype=float)
    target_p = np.asarray(target_p, dtype=float)
    for ob in obstacles:
        if intersects_segment_scalar(ob, observer_p, target_p):
            return None
    R = rotmat_from_quat(observer_q)
    p_cam = R.T @ (target_p - observer_p)
    if np.linalg.norm(p_cam) == 0.0:
        return None
    try:
        u, v = ds_project_scalar(p_cam, k)
    except OutOfImage:
        return None
    if noise.pixel_sigma > 0:
        u += float(rng.normal(0.0, noise.pixel_sigma))
        v += float(rng.normal(0.0, noise.pixel_sigma))
    return (u, v)


def synth_attitude_rp(true_q, noise: NoiseParams, rng: np.random.Generator) -> tuple[float, float]:
    """IMU-derived roll/pitch: truth plus independent Gaussian noise."""
    roll, pitch, _ = euler_zyx_from_quat_scalar(true_q)
    s = np.deg2rad(noise.attitude_rp_sigma)
    if s > 0:
        roll += float(rng.normal(0.0, s))
        pitch += float(rng.normal(0.0, s))
    return (roll, pitch)


def frames_reference(world, duration: float):
    """The chunks of `world`, synthesized one tick and one sample at a time."""
    master = max(world.imu_rate, world.cam_rate, world.uwb_rate)
    every = [int(round(master / rate)) for rate in (world.imu_rate, world.uwb_rate, world.cam_rate)]
    ids = sorted(world.robots)
    grid = world.truth_grid(duration)
    step = max(int(round(master)), 1)  # the world's chunk: about one simulated second
    for k0 in range(0, grid.t.size, step):
        ticks = range(k0, min(k0 + step, grid.t.size))
        rows, n = [[], [], []], [0, 0, 0]  # each tick's IMU, UWB and camera row, -1 for none
        for kk in ticks:
            for s, e in enumerate(every):
                rows[s].append(n[s] if kk % e == 0 else -1)
                n[s] += kk % e == 0
        n_imu, n_uwb, n_cam = n
        rows = [np.array(r) for r in rows]
        R = len(ids)
        chunk = SensorChunk(
            ids, grid.t[k0:ticks.stop], *rows,
            imu=np.empty((R, n_imu, 6)),
            ranges=np.full((R, n_uwb, R), np.nan),
            in_range=np.zeros((R, n_uwb, R), dtype=bool),
            pixels=np.full((R, n_cam, R, 2), np.nan),
            seen=np.zeros((R, n_cam, R), dtype=bool),
            lit=np.zeros((n_cam, R), dtype=bool),
            rp=np.full((R, n_cam, 2), np.nan),
            locked=np.zeros((R, n_cam), dtype=bool),
        )
        for kk, a, b, c in zip(ticks, *rows):
            t = kk / master
            states = [grid.states[rid].at(kk) for rid in ids]
            for i, rid in enumerate(ids):
                st = states[i]
                if a >= 0:
                    chunk.imu[i, a] = np.concatenate(
                        synth_imu(st, world.noise, 1.0 / world.imu_rate, world._rng[(rid, "imu")])
                    )
                if b >= 0:
                    for j in range(R):
                        if j == i:
                            continue
                        rng = synth_uwb(st.p, states[j].p, world.noise, world._rng[(rid, "uwb")])
                        if rng is not None:
                            chunk.ranges[i, b, j], chunk.in_range[i, b, j] = rng, True
                if c >= 0:
                    try:
                        chunk.rp[i, c] = synth_attitude_rp(st.q, world.noise, world._rng[(rid, "att")])
                    except GimbalLock:
                        chunk.locked[i, c] = True  # no roll/pitch this tick
                    chunk.lit[c, i] = lit_at(t, world.lib.duty_of(world.robots[rid][1]), world.lib.period)
                    for j in range(R):
                        if j == i:
                            continue
                        px = synth_detection(
                            st.p, st.q, states[j].p, world.k, world.obstacles,
                            world.noise, world._rng[(rid, "cam")],
                        )
                        if px is not None:
                            chunk.pixels[i, c, j], chunk.seen[i, c, j] = px, True
        yield chunk
