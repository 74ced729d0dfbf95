"""Scenario runner: simulate, estimate, record, export.

Walks the sensor tape one chunk at a time. Per chunk, the raw measurements are
formed in one array pass; then the run's bank of pair filters walks the
chunk's ticks, predicting every pair from both robots' rows of the chunk's IMU
array and correcting the pairs measured at each camera row; then, with PGO,
the pose graphs of the chunk's PGO camera frames are solved in the ego robot's
frame.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, eskf
from .camera import ds_unproject
from .codec import SpotTracker
from .eskf import FilterBank
from .geom import Pose, quats_from_rotmats, rotmats_from_quats
from .metrics import AlignedPair, error_series, summarize
# relbench/tracer.py wraps the solve under this module's name, relpose.runner.solve
from .pgo import initial_stack, solve
from .rawpose import RawSolve, raw_estimate
from .scenario import ScenarioConfig
from .world import SensorChunk, World, stride


@dataclass
class PoseSeries:
    """One estimate per row: times t (n,), positions p (n, 3), quaternions q (n, 4), w >= 0."""

    t: np.ndarray
    p: np.ndarray
    q: np.ndarray

    @property
    def poses(self) -> list[Pose]:
        """The rows as `Pose` objects, for callers outside the package."""
        return [Pose(R, p) for R, p in zip(rotmats_from_quats(self.q), self.p)]

    @poses.setter
    def poses(self, poses: list[Pose]) -> None:
        self.p = np.array([x.t for x in poses], dtype=float).reshape(-1, 3)
        self.q = quats_from_rotmats([x.R for x in poses])


@dataclass
class FilterSeries(PoseSeries):
    """A filter's series, plus velocity v (n, 3) and the covariance diagonal P_diag (n, 12)."""

    v: np.ndarray
    P_diag: np.ndarray


def _pose_series(rows: list) -> PoseSeries:
    """Rows of (t, p, q), 8 values each, as one series."""
    a = np.array(rows, dtype=float).reshape(-1, 8)
    return PoseSeries(t=a[:, 0], p=a[:, 1:4], q=a[:, 4:8])


def _filter_series(t: list, x: np.ndarray, P_diag: np.ndarray) -> FilterSeries:
    """A filter's series from its sample times, its states (m, 10: p, v, q)
    and its covariance diagonals (m, 12), with w >= 0."""
    a = np.array(x, dtype=float)
    q = a[:, 6:]
    q[q[:, 0] < 0] *= -1.0
    return FilterSeries(t=np.array(t, dtype=float), p=a[:, :3], q=q, v=a[:, 3:6], P_diag=P_diag)


@dataclass
class RunResult:
    config: ScenarioConfig
    world: World
    raw: dict[tuple[int, int], PoseSeries]
    eskf: dict[tuple[int, int], FilterSeries]
    pgo: dict[int, PoseSeries]
    pgo_converged: list[bool]
    metrics: dict

    def gt_pair(self, series: PoseSeries, observer: int, target: int) -> AlignedPair:
        """A recorded series next to the exact ground truth at its ticks."""
        grid = self.world.truth_grid(self.config.duration)
        t = np.asarray(series.t, dtype=float)
        gt_p, gt_R = grid.relative(observer, target, grid.ticks(t))
        return AlignedPair(t, series.p, rotmats_from_quats(series.q), gt_p, gt_R)


_UNSTARTED = (np.nan,) * 10  # a pair's recorded state before its first measurement


def _pairs_for(cfg: ScenarioConfig) -> list[tuple[int, int]]:
    ids = sorted(r[0] for r in cfg.robots)
    if cfg.pairs == "ego":
        return [(cfg.ego, j) for j in ids if j != cfg.ego]
    out = []
    for a in ids:
        for b in ids:
            if a < b:
                obs = cfg.ego if cfg.ego in (a, b) else a
                tgt = b if obs == a else a
                out.append((obs, tgt))
    return out


def build_world(cfg: ScenarioConfig) -> World:
    return World(
        robots={rid: (traj, led) for rid, traj, led in cfg.robots},
        noise=cfg.noise,
        intrinsics=cfg.camera,
        obstacles=cfg.obstacles,
        imu_rate=cfg.imu_rate,
        cam_rate=cfg.cam_rate,
        uwb_rate=cfg.uwb_rate,
        seed=cfg.seed,
    )


class _RawMeasurements:
    """Forms a chunk's raw measurements in one array pass, before its filters run.

    A raw measurement depends only on the tape and, with decoded IDs, on the
    trackers' ID assignment; neither depends on filter state. Per chunk:
    1. with decoded IDs, each robot's tracker steps through the chunk's camera
       frames, and the decoded tracks that saw a spot in a frame give that
       frame's pixels; oracle IDs take each seen beacon's pixel;
    2. every pixel is unprojected in one call;
    3. a pair has a measurement at a camera tick when both robots see each
       other, neither is gimbal-locked, and the observer's last range to the
       target is at most 1.5 radio periods old (the last range carries over
       from earlier chunks);
    4. one closed-form solve takes every selected row.
    """

    def __init__(self, cfg: ScenarioConfig, world: World, pairs: list[tuple[int, int]]):
        self.cfg = cfg
        self.pairs = pairs
        index = {rid: i for i, rid in enumerate(sorted(world.robots))}  # as the tape orders robots
        # robot indices of each pair's observer and target
        self.obs = np.array([index[obs] for obs, _ in pairs], dtype=np.intp)
        self.tgt = np.array([index[tgt] for _, tgt in pairs], dtype=np.intp)
        self.trackers = [SpotTracker(world.lib) for _ in index]
        self.led_index = {led: index[rid] for rid, (_, led) in world.robots.items()}
        # each pair's last range before the current chunk: time and value
        self.range_t = np.full(len(pairs), -np.inf)
        self.range_m = np.full(len(pairs), np.nan)

    def _decoded_pixels(self, chunk: SensorChunk, t_cam: np.ndarray) -> tuple[list, list]:
        """(observer, camera row, peer) keys and pixels of the decoded tracks that saw a spot."""
        keys, pixels = [], []
        px, seen, lit = chunk.pixels.tolist(), chunk.seen.tolist(), chunk.lit.tolist()
        for c, t in enumerate(t_cam.tolist()):
            for i, tracker in enumerate(self.trackers):
                tracker.step(t, [(*px[i][c][j], lit[c][j]) for j, s in enumerate(seen[i][c]) if s])
                for tr in tracker.tracks.values():
                    peer = self.led_index.get(tr.decoded_id)
                    if peer is not None and peer != i and tr.last_t == t:
                        keys.append((i, c, peer))
                        pixels.append(tr.last_pixel)
        return keys, pixels

    def _bearings(self, chunk: SensorChunk, t_cam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Unit bearings (R, n_cam, R, 3) from each robot to each peer, and their mask."""
        if self.cfg.id_mode == "oracle":
            keys, pixels = np.nonzero(chunk.seen), chunk.pixels[chunk.seen]
        else:
            keys, pixels = self._decoded_pixels(chunk, t_cam)
            keys = tuple(np.array(keys, dtype=np.intp).reshape(-1, 3).T)
        b, ok = ds_unproject(pixels, self.cfg.camera)
        shape = chunk.seen.shape
        flat = np.ravel_multi_index(keys, shape)[ok]
        # two decoded tracks of one peer in a frame: the later one's bearing holds
        _, last = np.unique(flat[::-1], return_index=True)
        keep = flat.size - 1 - last
        have = np.zeros(shape, dtype=bool)
        have.flat[flat[keep]] = True
        bearings = np.full(shape + (3,), np.nan)
        bearings.reshape(-1, 3)[flat[keep]] = b[ok][keep]
        return bearings, have

    def _ranges(self, chunk: SensorChunk, cam_ticks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Time and value (P, n_cam) of each pair's last range at or before each camera tick."""
        n = chunk.t.size
        uwb = np.flatnonzero(chunk.uwb_row >= 0)
        ranged = np.zeros((len(self.pairs), n), dtype=bool)
        value = np.full((len(self.pairs), n), np.nan)
        ranged[:, uwb] = chunk.in_range[self.obs, :, self.tgt]
        value[:, uwb] = chunk.ranges[self.obs, :, self.tgt]
        # the tick of the last range at or before each tick, -1 before the first;
        # the chunk's last column carries over to the next chunk
        latest = np.maximum.accumulate(np.where(ranged, np.arange(n), -1), axis=1)
        tick = np.concatenate((latest[:, cam_ticks], latest[:, -1:]), axis=1)
        have = tick >= 0
        t = np.where(have, chunk.t[tick], self.range_t[:, None])
        r = np.where(have, np.take_along_axis(value, np.maximum(tick, 0), axis=1), self.range_m[:, None])
        self.range_t, self.range_m = t[:, -1], r[:, -1]
        return t[:, :-1], r[:, :-1]

    def form(self, chunk: SensorChunk) -> tuple[np.ndarray, np.ndarray, np.ndarray, RawSolve]:
        """The chunk's solved rows: pair index (m,), camera row (m,), time (m,) and the solve."""
        obs, tgt = self.obs, self.tgt
        cam_ticks = np.flatnonzero(chunk.cam_row >= 0)
        t_cam = chunk.t[cam_ticks]
        bearings, have = self._bearings(chunk, t_cam)
        range_t, range_m = self._ranges(chunk, cam_ticks)
        mutual = have[obs, :, tgt] & have[tgt, :, obs] & ~chunk.locked[obs] & ~chunk.locked[tgt]
        k, c = np.nonzero(mutual & (t_cam - range_t <= 1.5 / self.cfg.uwb_rate))
        b, a = obs[k], tgt[k]  # B observes A
        solve = raw_estimate(
            bearings[b, c, a], bearings[a, c, b], range_m[k, c], chunk.rp[a, c], chunk.rp[b, c]
        )
        return k, c, t_cam[c], solve


def _solve_graphs(ego: int, pairs: list, snaps: list, pgo_rows: dict, pgo_converged: list) -> None:
    """Solve a chunk's snapshots (t, edge mask, the masked pairs' states as 10
    floats each), one stack per mask; a mask whose edges miss the ego gives no
    rows and converges."""
    groups: dict[tuple, list[int]] = {}
    for k, (_, edge, _) in enumerate(snaps):
        groups.setdefault(edge, []).append(k)
    robots = list(pgo_rows)
    X = np.zeros((len(snaps), len(robots), 4, 4))
    solved, converged = np.zeros(X.shape[:2], dtype=bool), np.ones(len(snaps), dtype=bool)
    for edge, rows in groups.items():
        x = np.array([snaps[k][2] for k in rows])
        stack = initial_stack(ego, [pair for pair, e in zip(pairs, edge) if e], x[..., :3], x[..., 6:])
        if stack is not None:
            free, T, edges = stack
            T, report = solve(T, edges)
            cols = np.ix_(rows, [robots.index(rid) for rid in free])
            X[cols], solved[cols], converged[rows] = T[:, :-1], True, report.graph_converged
    pgo_converged.extend(converged.tolist())
    t, q = np.array([s[0] for s in snaps]), quats_from_rotmats(X[..., :3, :3]).reshape(solved.shape + (4,))
    for c, rows in enumerate(pgo_rows.values()):
        k = solved[:, c]
        rows.append(np.column_stack((t[k], X[k, c, :3, 3], q[k, c])))


def run_scenario(cfg: ScenarioConfig) -> RunResult:
    """Simulate one scenario and run the configured estimator stack."""
    world = build_world(cfg)
    pairs = _pairs_for(cfg)
    run_eskf = cfg.estimator in ("eskf", "pgo")
    run_pgo = cfg.estimator == "pgo"

    raw = _RawMeasurements(cfg, world, pairs)
    bank = FilterBank(zip(raw.tgt.tolist(), raw.obs.tolist()), cfg.noise, 1.0 / cfg.imu_rate)
    last_meas_t = [-1e9] * len(pairs)  # each filter's last accepted measurement time

    # raw and PGO rows as (m, 8) blocks per chunk; per chunk, the bank's states
    # (NaN before a pair starts) and covariance diagonals at each camera tick,
    # from which the filters' series are cut
    raw_rows: list[list] = [[] for _ in pairs]
    cam_t: list[float] = []
    cam_x = [np.empty((0, len(pairs), 10))]
    cam_P = [np.empty((0, len(pairs), 12))]
    pgo_rows: dict[int, list] = {rid: [np.empty((0, 8))] for rid in sorted(world.robots) if rid != cfg.ego}
    pgo_converged: list[bool] = []

    edge_stale = 0.25  # drop PGO edges whose filter saw no measurement lately
    pgo_every = stride(cfg.cam_rate, cfg.pgo_rate) if run_pgo else None
    cam_tick = 0  # camera ticks before the chunk

    for chunk in world.frames(cfg.duration):
        k, c, t_rows, z = raw.form(chunk)
        ok = z.ok
        k, c, t_rows = k[ok], c[ok], t_rows[ok]
        block = np.column_stack((t_rows, z.p_ba[ok], z.q_ba[ok]))
        for n, rows in enumerate(raw_rows):
            rows.append(block[k == n])
        if not run_eskf:
            continue
        # each camera row's measurements as (pair, p_ba, p_ab and q_ba as 10 floats)
        n_cam = chunk.lit.shape[0]
        measured: list[list] = [[] for _ in range(n_cam)]
        for n, row, zn in zip(k.tolist(), c.tolist(), np.column_stack((z.p_ba, z.p_ab, z.q_ba))[ok].tolist()):
            measured[row].append((n, zn))
        # each IMU tick's rows, one per robot: 6 floats, None where not finite,
        # which skips the predictions of that robot's pairs
        imu = chunk.imu.tolist()
        for i, r in zip(*np.nonzero(~np.isfinite(chunk.imu).all(axis=2))):
            imu[i][r] = None
        imu = list(zip(*imu))
        ticks = zip(chunk.t.tolist(), chunk.imu_row.tolist(), chunk.cam_row.tolist())
        snaps = []  # the PGO camera rows' graphs: time, edge mask, the fresh pairs' states
        xs, Ps = [], []

        for t, r, row in ticks:
            if r >= 0:
                eskf.predict(bank, imu[r])
            if row < 0:
                continue
            if measured[row]:
                fresh = [n for n, _ in measured[row] if bank.x[n] is None]  # this update starts them
                fix = eskf.update(bank, measured[row])
                eskf.inject_and_reset(bank, fix)
                for n in fix.rows + fresh:  # gated and singular updates keep the prior
                    last_meas_t[n] = t
            cam_t.append(t)
            xs.append([_UNSTARTED if x is None else x for x in bank.x])
            Ps.append(np.diagonal(bank.P, axis1=1, axis2=2).copy())
            if run_pgo and (cam_tick + row) % pgo_every == 0:
                edge = tuple(t - last <= edge_stale for last in last_meas_t)
                if any(edge):
                    snaps.append((t, edge, [x for x, e in zip(bank.x, edge) if e]))
        cam_tick += n_cam
        cam_x.append(np.array(xs).reshape(-1, len(pairs), 10))
        cam_P.append(np.array(Ps).reshape(-1, len(pairs), 12))
        if snaps:
            _solve_graphs(cfg.ego, pairs, snaps, pgo_rows, pgo_converged)

    eskf_series = {}
    cam_x, cam_P = np.concatenate(cam_x), np.concatenate(cam_P)
    for n, pair in enumerate(pairs):  # a filter's series starts at its first measurement
        started = ~np.isnan(cam_x[:, n, 0])
        first = int(started.argmax()) if started.any() else len(cam_t)
        eskf_series[pair] = _filter_series(cam_t[first:], cam_x[first:, n], cam_P[first:, n])

    result = RunResult(
        config=cfg,
        world=world,
        raw={pair: _pose_series(np.concatenate(rows)) for pair, rows in zip(pairs, raw_rows)},
        eskf=eskf_series,
        pgo={rid: _pose_series(np.concatenate(rows)) for rid, rows in pgo_rows.items()},
        pgo_converged=pgo_converged,
        metrics={},
    )
    result.metrics = compute_metrics(result)
    return result


def compute_metrics(result: RunResult) -> dict:
    """ATE + median stats for every recorded series; boxplots for the filters."""
    ego = result.config.ego
    recorded = [("pairs", f"{o}-{g}", o, g, s) for (o, g), s in result.eskf.items()]
    recorded += [("raw", f"{o}-{g}", o, g, s) for (o, g), s in result.raw.items()]
    recorded += [("pgo", str(rid), ego, rid, s) for rid, s in result.pgo.items()]
    out: dict = {"pairs": {}, "pgo": {}}
    for group, key, obs, tgt, ser in recorded:
        if len(ser.t) < 2:
            continue
        s = error_series(result.gt_pair(ser, obs, tgt))
        out.setdefault(group, {})[key] = summarize(s, boxplots=group == "pairs")
    return out


def _write_csv(path: Path, header: list[str], columns) -> None:
    """One row per sample of the columns (1-D or 2-D arrays), every value as %.17g."""
    row = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(row % tuple(values) for values in np.column_stack(columns).tolist())


def export_ground_truth(world: World, duration: float, out_dir: Path) -> None:
    """Per-robot world-frame ground truth at the camera rate (SI units), up to the
    last camera tick of the run."""
    grid = world.truth_grid(duration)
    n = int(duration * world.cam_rate + 1e-9)
    ts = np.arange(n + 1) / world.cam_rate
    k = grid.ticks(ts)
    for rid in sorted(world.robots):
        s = grid.states[rid]
        _write_csv(
            out_dir / f"gt_robot{rid}.csv",
            ["t_s", "px_m", "py_m", "pz_m", "vx_ms", "vy_ms", "vz_ms", "qw", "qx", "qy", "qz"],
            (ts, s.p[k], s.v[k], s.q[k]),
        )


def write_outputs(result: RunResult, out_dir: str | Path, config_dict: dict | None = None) -> None:
    """Write all artifact files: CSVs, metrics JSON, run manifest."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    export_ground_truth(result.world, result.config.duration, out)
    pose_cols = ["t_s", "px_m", "py_m", "pz_m", "qw", "qx", "qy", "qz"]
    filter_cols = pose_cols[:4] + ["vx_ms", "vy_ms", "vz_ms"] + pose_cols[4:]
    filter_cols += [f"P{i}{i}" for i in range(12)]
    for (obs, tgt), s in result.raw.items():
        _write_csv(out / f"raw_{obs}_{tgt}.csv", pose_cols, (s.t, s.p, s.q))
    for (obs, tgt), s in result.eskf.items():
        _write_csv(out / f"eskf_{obs}_{tgt}.csv", filter_cols, (s.t, s.p, s.v, s.q, s.P_diag))
    for rid, s in result.pgo.items():
        _write_csv(out / f"pgo_robot{rid}.csv", pose_cols, (s.t, s.p, s.q))
    (out / "metrics.json").write_text(json.dumps(result.metrics, indent=2, sort_keys=True) + "\n")
    manifest = {
        "seed": result.config.seed,
        "relpose_version": __version__,
        "numpy_version": np.__version__,
        "pgo_all_converged": bool(all(result.pgo_converged)) if result.pgo_converged else None,
    }
    if config_dict is not None:
        canonical = json.dumps(config_dict, sort_keys=True).encode()
        manifest["config_sha256"] = hashlib.sha256(canonical).hexdigest()
    lines = [f"{k}: {manifest[k]}" for k in sorted(manifest)]
    (out / "manifest.txt").write_text("\n".join(lines) + "\n")
