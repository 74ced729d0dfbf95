"""Scenario runner: simulate, estimate, record, export.

Wires the world's sensor streams through the ID codec, the raw closed-form
solve, one relative-pose filter per observed pair, and (optionally) a
per-frame pose graph in the ego robot's frame. All inter-robot data flows
through the message bus.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .camera import InvalidPixel, ds_unproject
from .codec import SpotTracker
from .eskf import ImuPairInput, RelativePoseFilter, SingularInnovation
from .geom import GimbalLock, Pose, quat_from_rotmat, rotmat_from_quat, rotmats_from_quats
from .metrics import AlignedPair, error_series, summarize
from .pgo import edges_from_filters, solve
from .rawpose import MutualObservation, VerticalDegeneracy, raw_estimate
from .scenario import ScenarioConfig
from .world import MessageBus, World


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
        self.q = np.array([quat_from_rotmat(x.R) for x in poses], dtype=float).reshape(-1, 4)


@dataclass
class FilterSeries(PoseSeries):
    """A filter's series, plus velocity v (n, 3) and the covariance diagonal P_diag (n, 12)."""

    v: np.ndarray
    P_diag: np.ndarray


def _pose_series(rows: list) -> PoseSeries:
    """Rows of (t, p, q), 8 values each, as one series."""
    a = np.array(rows, dtype=float).reshape(-1, 8)
    return PoseSeries(t=a[:, 0], p=a[:, 1:4], q=a[:, 4:8])


def _filter_series(rows: list) -> FilterSeries:
    """Rows of (t, p, v, q, P_diag), 23 values each, as one series."""
    a = np.array(rows, dtype=float).reshape(-1, 23)
    return FilterSeries(t=a[:, 0], p=a[:, 1:4], q=a[:, 7:11], v=a[:, 4:7], P_diag=a[:, 11:])


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


def _resolve_bearings(cfg, tracker, led_to_robot, rid, t, detections) -> dict[int, np.ndarray]:
    """Unit bearings by peer id to the peers a robot sees at t.

    Oracle IDs take each detection's true peer. Decoded IDs take the decoded
    tracks that saw a spot this frame; a track alive on a stale pixel gives none.
    """
    if cfg.id_mode == "oracle":
        pixels = [(peer, px) for peer, px, _lit in detections]
    else:
        pixels = [
            (led_to_robot.get(tr.decoded_id), tr.last_pixel)
            for tr in tracker.tracks.values()
            if tr.decoded_id is not None and tr.last_t == t
        ]
    out: dict[int, np.ndarray] = {}
    for peer, px in pixels:
        if peer is None or peer == rid:
            continue
        try:
            out[peer] = ds_unproject(px, cfg.camera)
        except InvalidPixel:
            pass
    return out


def run_scenario(cfg: ScenarioConfig) -> RunResult:
    """Simulate one scenario and run the configured estimator stack."""
    world = build_world(cfg)
    ids = sorted(world.robots)
    led_to_robot = {led: rid for rid, (_, led) in world.robots.items()}
    pairs = _pairs_for(cfg)
    run_eskf = cfg.estimator in ("eskf", "pgo")
    run_pgo = cfg.estimator == "pgo"

    bus = MessageBus(ids, seed=cfg.seed ^ 0x5BD1E995)
    trackers = {rid: SpotTracker(world.lib) for rid in ids}
    filters = {pair: RelativePoseFilter() for pair in pairs}
    last_imu: dict[int, tuple] = {}
    neighbor_imu: dict[int, dict[int, tuple]] = {rid: {} for rid in ids}
    neighbor_cam: dict[int, dict[int, tuple]] = {rid: {} for rid in ids}
    last_uwb: dict[tuple[int, int], tuple[float, float]] = {}
    bearings: dict[int, dict[int, np.ndarray]] = {}  # this camera frame's, by robot
    last_meas_t: dict[tuple[int, int], float] = {}

    # one row of plain values per recorded sample; arrays are built after the loop
    raw_rows: dict[tuple[int, int], list] = {pair: [] for pair in pairs}
    eskf_rows: dict[tuple[int, int], list] = {pair: [] for pair in pairs}
    pgo_rows: dict[int, list] = {rid: [] for rid in ids if rid != cfg.ego}
    pgo_converged: list[bool] = []

    imu_dt = 1.0 / cfg.imu_rate
    uwb_stale = 1.5 / cfg.uwb_rate
    edge_stale = 0.25  # drop PGO edges whose filter saw no measurement lately
    pgo_every = max(int(round(cfg.cam_rate / cfg.pgo_rate)), 1)
    cam_tick = 0

    for frame in world.frames(cfg.duration):
        t = frame.t
        # -- publish stage -------------------------------------------------
        if frame.has_imu:
            for rid in ids:
                last_imu[rid] = frame.robots[rid].imu
                bus.publish(rid, t, ("imu", frame.robots[rid].imu))
        if frame.has_uwb:
            for rid in ids:
                for other, rng in frame.robots[rid].uwb:
                    last_uwb[(rid, other)] = (t, rng)
        if frame.has_cam:
            for rid in ids:
                s = frame.robots[rid]
                if cfg.id_mode == "codec":
                    trackers[rid].step(t, [(px[0], px[1], lit) for _, px, lit in s.detections])
                bearings[rid] = _resolve_bearings(
                    cfg, trackers[rid], led_to_robot, rid, t, s.detections
                )
                bus.publish(rid, t, ("cam", s.attitude_rp, bearings[rid]))

        # -- deliver -------------------------------------------------------
        for rid in ids:
            for sender, payload in bus.poll(rid, t):
                if payload[0] == "imu":
                    neighbor_imu[rid][sender] = (t, payload[1])
                else:
                    neighbor_cam[rid][sender] = (t, payload[1], payload[2])

        # -- estimate ------------------------------------------------------
        if frame.has_imu and run_eskf:
            for (obs, tgt), f in filters.items():
                own = last_imu.get(obs)
                peer = neighbor_imu[obs].get(tgt)
                if own is None or peer is None or abs(peer[0] - t) > 1e-9:
                    continue
                a_b, w_b = own
                a_a, w_a = peer[1]
                f.process_imu(ImuPairInput(a_a, w_a, a_b, w_b, imu_dt))

        if frame.has_cam:
            for (obs, tgt), f in filters.items():
                mine = bearings[obs]
                theirs = neighbor_cam[obs].get(tgt)
                rp_obs = frame.robots[obs].attitude_rp
                if (
                    tgt not in mine
                    or theirs is None
                    or abs(theirs[0] - t) > 0.010
                    or theirs[1] is None
                    or obs not in theirs[2]
                    or rp_obs is None
                ):
                    pass
                else:
                    rng = last_uwb.get((obs, tgt))
                    if rng is not None and t - rng[0] <= uwb_stale:
                        try:
                            z = raw_estimate(
                                MutualObservation(
                                    bearing_b_to_a=mine[tgt],
                                    bearing_a_to_b=theirs[2][obs],
                                    range_m=rng[1],
                                    rp_a=theirs[1],
                                    rp_b=rp_obs,
                                    t=t,
                                )
                            )
                        except (VerticalDegeneracy, GimbalLock):
                            z = None
                        if z is not None:
                            raw_rows[(obs, tgt)].append(np.concatenate(([t], z.p_ba, z.q_ba)))
                            if run_eskf:
                                try:
                                    f.process_measurement(z)
                                except SingularInnovation:
                                    pass  # skip this update; the filter keeps its prior
                                else:
                                    last_meas_t[(obs, tgt)] = t
                if run_eskf and f.initialized:
                    st = f.state
                    q = -st.q if st.q[0] < 0 else st.q
                    eskf_rows[(obs, tgt)].append(
                        np.concatenate(([t], st.p, st.v, q, np.diag(f.belief.P)))
                    )

            if run_pgo and cam_tick % pgo_every == 0:
                estimates = {}
                for (obs, tgt), f in filters.items():
                    if f.initialized and t - last_meas_t.get((obs, tgt), -1e9) <= edge_stale:
                        estimates[(obs, tgt)] = Pose(rotmat_from_quat(f.state.q), f.state.p)
                if estimates:
                    graph = edges_from_filters(cfg.ego, estimates)
                    poses, report = solve(graph)
                    pgo_converged.append(report.converged)
                    for rid, pose in poses.items():
                        if rid != cfg.ego and rid in pgo_rows:
                            pgo_rows[rid].append(
                                np.concatenate(([t], pose.t, quat_from_rotmat(pose.R)))
                            )
            cam_tick += 1

    result = RunResult(
        config=cfg,
        world=world,
        raw={pair: _pose_series(rows) for pair, rows in raw_rows.items()},
        eskf={pair: _filter_series(rows) for pair, rows in eskf_rows.items()},
        pgo={rid: _pose_series(rows) for rid, rows in pgo_rows.items()},
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
    """Per-robot world-frame ground truth at the camera rate (SI units)."""
    grid = world.truth_grid(duration)
    n = int(round(duration * world.cam_rate))
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
