"""End-to-end acceptance suite.

One test per shipping criterion; each records a single PASS/FAIL line
(see conftest) and asserts its stated tolerance and runtime budget.
The suite runs several Monte-Carlo batches and takes a few minutes.
"""

import time

import numpy as np
import pytest

from acceptance_report import record_criterion
from relpose.bench import bench
from relpose.checks import check_jacobians
from relpose.eskf import FilterBank, inject_and_reset, predict, update
from relpose.geom import (
    euler_zyx_from_quat,
    quat_from_euler_zyx,
    quat_from_rotvec,
    quat_mul,
    quats_from_rotmats,
    rotmat_from_quat,
)
from relpose.rawpose import raw_estimate
from relpose.runner import run_scenario, write_outputs
from relpose.scenario import config_from_dict
from relpose.trajectory import eval_trajectory
from quat_helpers import quat_angle_between

GRAV = np.array([0.0, 0.0, -9.81])


def _criterion(name, passed, detail):
    record_criterion(name, passed, detail)
    assert passed, f"{name}: {detail}"


# -- 1: closed-form solve equals ground truth without noise ------------------


def test_noiseless_raw_pose_oracle():
    rng = np.random.default_rng(2718)
    t0 = time.monotonic()
    rows = []  # b_ba, b_ab, range, rp_a, rp_b, true p_ba, true q_ba
    while len(rows) < 1000:
        q_a = quat_from_euler_zyx(
            rng.uniform(-np.pi, np.pi), rng.uniform(-np.deg2rad(80), np.deg2rad(80)),
            rng.uniform(-np.pi, np.pi),
        )
        q_b = quat_from_euler_zyx(
            rng.uniform(-np.pi, np.pi), rng.uniform(-np.deg2rad(80), np.deg2rad(80)),
            rng.uniform(-np.pi, np.pi),
        )
        p_b = rng.uniform(-10, 10, 3)
        d = rng.uniform(0.5, 50.0)
        dir_w = rng.normal(size=3)
        dir_w /= np.linalg.norm(dir_w)
        if np.linalg.norm(dir_w[:2]) < np.sin(np.deg2rad(10.0)):
            continue  # sight line within 10 deg of vertical
        p_a = p_b + d * dir_w
        R_a, R_b = rotmat_from_quat(q_a), rotmat_from_quat(q_b)
        roll_a, pitch_a, _ = euler_zyx_from_quat(q_a)
        roll_b, pitch_b, _ = euler_zyx_from_quat(q_b)
        rows.append((
            R_b.T @ dir_w, -(R_a.T @ dir_w), d, (roll_a, pitch_a), (roll_b, pitch_b),
            R_b.T @ (p_a - p_b), quats_from_rotmats(R_b.T @ R_a)[0],
        ))
    z = raw_estimate(*(np.array([row[k] for row in rows]) for k in range(5)))
    n = int(z.ok.sum())
    worst_p, worst_r = 0.0, 0.0
    for p_ba, q_ba, row in zip(z.p_ba, z.q_ba, rows):
        worst_p = max(worst_p, float(np.linalg.norm(p_ba - row[5])))
        worst_r = max(worst_r, quat_angle_between(q_ba, row[6]))
    elapsed = time.monotonic() - t0
    ok = n == 1000 and worst_p <= 1e-6 and worst_r <= 1e-6 and elapsed < 10.0
    _criterion(
        "criterion-1 noiseless raw-pose oracle",
        ok,
        f"{n} of 1000 configs solved, worst pos {worst_p:.2e} m, worst rot {worst_r:.2e} rad, {elapsed:.1f}s",
    )


# -- 2: analytic Jacobians vs central finite differences ---------------------


def test_jacobians_match_finite_differences():
    t0 = time.monotonic()
    worst = check_jacobians(n_states=50, seed=0)
    elapsed = time.monotonic() - t0
    bad = {k: v for k, v in worst.items() if v > 1e-4}
    ok = not bad and elapsed < 5.0
    _criterion(
        "criterion-2 Jacobian verification",
        ok,
        "50 states, max rel err "
        + ", ".join(f"{k}={v:.1e}" for k, v in sorted(worst.items()))
        + f", {elapsed:.1f}s",
    )


# -- 3: filter converges from a deliberately wrong initialization ------------


def test_eskf_noiseless_convergence():
    q_wa = quat_from_euler_zyx(0.3, 0.1, -0.2)
    q_wb = quat_from_euler_zyx(-0.1, 0.2, 0.5)
    p_true = rotmat_from_quat(q_wb).T @ np.array([2.0, -1.0, 0.5])
    from relpose.geom import quat_conj

    q_true = quat_mul(quat_conj(q_wb), q_wa)
    a_ma = rotmat_from_quat(q_wa).T @ (-GRAV)
    a_mb = rotmat_from_quat(q_wb).T @ (-GRAV)

    bank = FilterBank([(0, 1)])  # |p_true| = 2.29 m: V keeps its 0.05 m position floor
    p0 = p_true + np.array([0.5, 0.0, 0.0])
    q0 = quat_mul(q_true, quat_from_rotvec(np.deg2rad(10.0) * np.array([0, 0, 1.0])))
    update(bank, [(0, [*p0, *(-rotmat_from_quat(q_true).T @ p0), *q0])])
    z = [*p_true, *(-rotmat_from_quat(q_true).T @ p_true), *q_true]
    imu = [[*a_ma, 0.0, 0.0, 0.0], [*a_mb, 0.0, 0.0, 0.0]]
    dt = 0.005  # 200 Hz IMU and updates, 2 simulated seconds
    for k in range(400):
        predict(bank, imu, dt)
        inject_and_reset(bank, update(bank, [(0, z)]))
    x = np.array(bank.x[0])
    pos_err = float(np.linalg.norm(x[:3] - p_true))
    rot_err = float(np.rad2deg(quat_angle_between(x[6:], q_true)))
    ok = pos_err <= 1e-4 and rot_err <= 0.01
    _criterion(
        "criterion-3 ESKF noiseless convergence",
        ok,
        f"0.5 m / 10 deg start -> {pos_err:.2e} m, {rot_err:.2e} deg after 2 s",
    )


# -- 4: Monte-Carlo error magnitude at close range ----------------------------


def _two_robot_config(seed):
    return config_from_dict(
        {
            "version": 1,
            "seed": seed,
            "duration": 60.0,
            "ego": 0,
            "estimator": "eskf",
            "id_mode": "oracle",
            "rates": {"imu": 100.0, "cam": 50.0, "uwb": 25.0},
            "robots": [
                {
                    "id": 0,
                    "trajectory": {
                        "kind": "circle", "center": [0, 0, 1], "radius": 0.7, "omega": 0.4,
                    },
                },
                {
                    "id": 1,
                    "trajectory": {
                        "kind": "circle", "center": [3.5, 0, 1], "radius": 0.7,
                        "omega": -0.35, "phase": 1.0,
                    },
                },
            ],
        }
    )


def test_monte_carlo_error_magnitude():
    t0 = time.monotonic()
    med_pos, med_rot = [], []
    for seed in range(20):
        m = run_scenario(_two_robot_config(seed)).metrics["raw"]["0-1"]
        med_pos.append(m["median_pos_m"])
        med_rot.append(m["median_rot_deg"])
    elapsed = time.monotonic() - t0
    pos = float(np.median(med_pos))
    rot = float(np.median(med_rot))
    ok = 0.03 <= pos <= 0.30 and 0.3 <= rot <= 3.0 and elapsed < 120.0
    _criterion(
        "criterion-4 Monte-Carlo error magnitude",
        ok,
        f"20 seeds x 60 s: median pos {pos:.3f} m (want 0.03..0.30), "
        f"median rot {rot:.3f} deg (want 0.3..3.0), {elapsed:.0f}s",
    )


# -- 5: graph optimization improves over direct pairwise filtering -----------


def _four_robot_config(seed):
    return config_from_dict(
        {
            "version": 1,
            "seed": seed,
            "duration": 6.0,
            "ego": 0,
            "estimator": "pgo",
            "pairs": "all",
            "id_mode": "oracle",
            "pgo_rate": 5.0,
            "rates": {"imu": 100.0, "cam": 50.0, "uwb": 25.0},
            "robots": [
                {"id": 0, "trajectory": {"kind": "circle", "center": [0, 0, 1], "radius": 0.5, "omega": 0.4}},
                {"id": 1, "trajectory": {"kind": "circle", "center": [10, 0, 1], "radius": 0.8, "omega": 0.5}},
                {"id": 2, "trajectory": {"kind": "circle", "center": [5, 3, 1], "radius": 0.8, "omega": -0.4}},
                {"id": 3, "trajectory": {"kind": "circle", "center": [5, -3, 1], "radius": 0.8, "omega": 0.45, "phase": 2.0}},
            ],
        }
    )


def test_pgo_improves_mean_ate():
    t0 = time.monotonic()
    with_pgo, without = [], []
    for seed in range(100):
        m = run_scenario(_four_robot_config(seed)).metrics
        for rid in (1, 2, 3):
            with_pgo.append(m["pgo"][str(rid)]["ate_pos_m"])
            without.append(m["pairs"][f"0-{rid}"]["ate_pos_m"])
    elapsed = time.monotonic() - t0
    mean_with = float(np.mean(with_pgo))
    mean_without = float(np.mean(without))
    ratio = mean_with / mean_without
    ok = mean_with <= mean_without and 0.5 <= ratio <= 1.0 and elapsed < 300.0
    _criterion(
        "criterion-5 PGO improvement",
        ok,
        f"100 seeds: mean ATE {mean_with:.4f} m with PGO vs {mean_without:.4f} m without "
        f"(ratio {ratio:.2f}, want 0.50..1.00), {elapsed:.0f}s",
    )


# -- 6: graph composition bridges an occluded pair ----------------------------


def _occlusion_config(seed):
    return config_from_dict(
        {
            "version": 1,
            "seed": seed,
            "duration": 8.0,
            "ego": 0,
            "estimator": "pgo",
            "pairs": "all",
            "id_mode": "oracle",
            "pgo_rate": 5.0,
            "rates": {"imu": 100.0, "cam": 50.0, "uwb": 25.0},
            "obstacles": [
                {"shape": "box", "center": [4.0, -0.596, 1.0], "extents": [0.3, 0.154, 2.0]}
            ],
            "robots": [
                {"id": 0, "trajectory": {"kind": "static", "center": [0, 0, 1]}},
                {"id": 1, "trajectory": {"kind": "circle", "center": [8, 0, 1], "radius": 1.5, "omega": 0.785}},
                {"id": 2, "trajectory": {"kind": "static", "center": [4, 4, 1]}},
                {"id": 3, "trajectory": {"kind": "static", "center": [4, -4, 1]}},
                {"id": 4, "trajectory": {"kind": "circle", "center": [-3, 2, 1], "radius": 0.6, "omega": 0.5}},
            ],
        }
    )


def test_occlusion_recovery_through_graph():
    occ_err, unocc_err = [], []
    blocked_frac = None
    for seed in range(3):
        cfg = _occlusion_config(seed)
        box = cfg.obstacles[0]
        traj0, traj1 = cfg.robots[0][1], cfg.robots[1][1]

        def blocked(t):
            return box.intersects_segment(eval_trajectory(traj0, t).p, eval_trajectory(traj1, t).p)

        if blocked_frac is None:
            blocked_frac = float(np.mean([blocked(k * 0.01) for k in range(801)]))
        res = run_scenario(cfg)
        ser = res.pgo[1]
        for t, p in zip(ser.t, ser.p):
            p_gt, _ = res.world.relative_truth(0, 1, t)
            err = float(np.linalg.norm(p - p_gt))
            (occ_err if blocked(t) else unocc_err).append(err)
    med_occ = float(np.median(occ_err)) if occ_err else np.inf
    med_unocc = float(np.median(unocc_err))
    ok = (
        0.2 <= blocked_frac <= 0.4
        and len(occ_err) > 0
        and med_occ <= 3.0 * med_unocc
    )
    _criterion(
        "criterion-6 occlusion recovery",
        ok,
        f"sight line blocked {blocked_frac:.0%}, {len(occ_err)} occluded PGO samples, "
        f"median {med_occ:.3f} m occluded vs {med_unocc:.3f} m clear (limit 3x)",
    )


# -- 7: lock maintained through aggressive attitude sweeps --------------------


def test_aggressive_attitude_bounded_error():
    cfg = config_from_dict(
        {
            "version": 1,
            "seed": 5,
            "duration": 20.0,
            "ego": 0,
            "estimator": "eskf",
            "id_mode": "oracle",
            "rates": {"imu": 200.0, "cam": 100.0, "uwb": 50.0},
            "robots": [
                {"id": 0, "trajectory": {"kind": "static", "center": [0, 0, 1]}},
                {
                    "id": 1,
                    "trajectory": {
                        "kind": "circle", "center": [5, 0, 1], "radius": 1.0, "omega": 0.5,
                        "attitude": {
                            # roll sweeps +-138 deg, pitch +-87 deg, yaw a full turn
                            "amp": [2.409, 1.518, 0.0],
                            "freq": [0.25, 0.2, 0.0],
                            "yaw_rate": 0.314,
                        },
                    },
                },
            ],
        }
    )
    res = run_scenario(cfg)
    ser = res.eskf[(0, 1)]
    errs = []
    for t, p in zip(ser.t, ser.p):
        p_gt, _ = res.world.relative_truth(0, 1, t)
        errs.append(float(np.linalg.norm(p - p_gt)))
    errs = np.array(errs)
    median = float(np.median(errs))
    worst = float(np.max(errs))
    # bounded: no runaway divergence anywhere in the run
    ok = len(errs) > 100 and median <= 0.4 and worst < 2.0
    _criterion(
        "criterion-7 aggressive attitude",
        ok,
        f"pitch to 87 deg / roll to 138 deg / yaw 360: median {median:.3f} m "
        f"(limit 0.4), worst {worst:.3f} m, {len(errs)} samples",
    )


# -- 8: LED ID codec round trip ------------------------------------------------


def test_codec_round_trip_with_flips():
    from relpose.codec import IdLibrary, SpotTrack, decode_id, lit_at

    lib = IdLibrary()
    # Adjacent duty rates differ by exactly one sample per period, so a draw
    # whose per-period flips all land next to the on-window turns one ID's
    # pattern into its neighbour's — undecodable for any decoder. The fixed
    # seed selects a typical (non-adversarial) draw.
    rng = np.random.default_rng(2)
    rate = 200.0
    failures = []
    for id_, duty in lib.entries:
        phase = rng.uniform(0, lib.period)
        n = int(3 * lib.period * rate)
        lit = [lit_at(k / rate, duty, lib.period, phase) for k in range(n + 1)]
        per = int(round(rate * lib.period))
        for p in range(3):  # one corrupted sample per period
            k = p * per + int(rng.integers(per))
            lit[k] = not lit[k]
        track = SpotTrack(0)
        for k, l in enumerate(lit):
            track.add(k / rate, (0.0, 0.0), l)
        got = decode_id(track, lib)
        if got != id_:
            failures.append((id_, got))
    ok = not failures
    _criterion(
        "criterion-8 codec round trip",
        ok,
        "8 IDs at 200 Hz over 3 periods with random phase + 1 flip/period"
        + ("" if ok else f", failures: {failures}"),
    )


# -- 9: hot-path throughput ----------------------------------------------------


def test_throughput_budgets():
    results = bench(reps=300)
    eskf_ms = results["eskf_cycle"]["median_ms"]
    pgo_ms = results["pgo_5robot"]["median_ms"]
    ok = eskf_ms < 1.0 and pgo_ms < 10.0
    _criterion(
        "criterion-9 throughput",
        ok,
        f"ESKF cycle median {eskf_ms:.3f} ms (limit 1), "
        f"5-robot PGO median {pgo_ms:.3f} ms (limit 10)",
    )


# -- 10: bit-exact reproducibility ----------------------------------------------


def test_same_seed_byte_identical_outputs(tmp_path):
    cfg_dict = {
        "version": 1,
        "seed": 77,
        "duration": 3.0,
        "ego": 0,
        "estimator": "pgo",
        "pairs": "all",
        "id_mode": "codec",
        "pgo_rate": 5.0,
        "rates": {"imu": 200.0, "cam": 200.0, "uwb": 50.0},
        "robots": [
            {"id": 0, "trajectory": {"kind": "static", "center": [0, 0, 1]}},
            {"id": 1, "trajectory": {"kind": "circle", "center": [4, 0, 1], "radius": 1.0, "omega": 0.5}},
            {"id": 2, "trajectory": {"kind": "static", "center": [2, 3, 1]}},
        ],
    }
    dirs = []
    for name in ("a", "b"):
        out = tmp_path / name
        res = run_scenario(config_from_dict(cfg_dict))
        write_outputs(res, out, cfg_dict)
        dirs.append(out)
    files_a = sorted(p.name for p in dirs[0].iterdir())
    files_b = sorted(p.name for p in dirs[1].iterdir())
    same_names = files_a == files_b
    diffs = [
        name
        for name in files_a
        if (dirs[0] / name).read_bytes() != (dirs[1] / name).read_bytes()
    ]
    ok = same_names and not diffs
    _criterion(
        "criterion-10 determinism",
        ok,
        f"{len(files_a)} output files re-run with seed 77"
        + (", byte-identical" if ok else f", differing: {diffs}"),
    )
