"""Output checks of one operation, made apart from the program.

Every check raises CheckFailed; the benchmark then counts the operation as
failed. Truth and errors come from `truth`, never from relpose.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

import truth

ATE_TOL = 1e-9
# acceptance criterion 4: median raw error bands
RAW_POS_BAND = (0.03, 0.30)  # m
RAW_ROT_BAND = (0.3, 3.0)  # deg
# Criterion 5 (PGO no worse than ego-pair ESKF) is a Monte-Carlo mean over
# seeds. On one seed of team_pgo the ratio of mean ATEs ranged 0.61-0.97 over
# 36 seeds, and single robots reached 1.5, so one operation is held to this
# bound: it catches a broken graph, not an unlucky seed.
PGO_OVER_ESKF_MAX = 1.25
# first raw sample of the codec workload: after MIN_PERIODS LED periods, and
# no more than this many periods later
FIRST_DECODE_SLACK_PERIODS = 3


class CheckFailed(AssertionError):
    """An output of the program disagrees with the benchmark's own checks."""


def _require(ok: bool, msg: str) -> None:
    if not ok:
        raise CheckFailed(msg)


def _robots(cfg: dict) -> dict[int, dict]:
    return {int(r["id"]): r["trajectory"] for r in cfg["robots"]}


def _arrays(ser):
    t = np.asarray(ser.t, dtype=float)
    p = np.array([pose.t for pose in ser.poses], dtype=float).reshape(-1, 3)
    R = np.array([pose.R for pose in ser.poses], dtype=float).reshape(-1, 3, 3)
    return t, p, R


def series_stats(cfg: dict, result) -> dict[tuple[str, str], dict]:
    """Recompute ATE and medians of every recorded series against closed-form truth.

    Keys mirror the program's metrics: ("pairs" | "raw", "obs-tgt") and
    ("pgo", "rid"). Each recomputed value must equal the program's metrics
    entry within ATE_TOL, and every series with two or more samples must
    have exactly one entry.
    """
    robots = _robots(cfg)
    ego = int(cfg.get("ego", cfg["robots"][0]["id"]))
    recorded = [("pairs", f"{o}-{g}", o, g, s) for (o, g), s in result.eskf.items()]
    recorded += [("raw", f"{o}-{g}", o, g, s) for (o, g), s in result.raw.items()]
    recorded += [("pgo", str(rid), ego, rid, s) for rid, s in result.pgo.items()]
    stats: dict[tuple[str, str], dict] = {}
    for group, key, obs, tgt, ser in recorded:
        if len(ser.t) < 2:
            continue
        t, p, R = _arrays(ser)
        p_gt, R_gt = truth.relative_truth(robots[obs], robots[tgt], t)
        dp, dr = truth.errors(p, R, p_gt, R_gt)
        s = {
            "ate_pos_m": truth.rms(dp),
            "ate_rot_deg": truth.rms(dr),
            "median_pos_m": float(np.median(dp)),
            "median_rot_deg": float(np.median(dr)),
            "n_samples": int(t.size),
            "t": t,
        }
        stats[(group, key)] = s
        m = result.metrics.get(group, {}).get(key)
        _require(m is not None, f"metrics[{group!r}][{key!r}] missing for a recorded series")
        for name in ("ate_pos_m", "ate_rot_deg", "median_pos_m", "median_rot_deg"):
            _require(
                abs(m[name] - s[name]) <= ATE_TOL,
                f"metrics[{group!r}][{key!r}][{name!r}] = {m[name]!r}, "
                f"closed-form truth gives {s[name]!r}",
            )
        _require(m["n_samples"] == s["n_samples"], f"metrics[{group!r}][{key!r}] n_samples")
    for group in ("pairs", "raw", "pgo"):
        for key in result.metrics.get(group, {}):
            _require((group, key) in stats, f"metrics[{group!r}][{key!r}] has no series")
    return stats


def check_pair_eskf(cfg: dict, result, stats: dict) -> None:
    raw, eskf = stats.get(("raw", "0-1")), stats.get(("pairs", "0-1"))
    _require(raw is not None and eskf is not None, "pair 0-1 lacks a raw or ESKF series")
    lo, hi = RAW_POS_BAND
    _require(lo <= raw["median_pos_m"] <= hi, f"median raw position error {raw['median_pos_m']:.4f} m")
    lo, hi = RAW_ROT_BAND
    _require(lo <= raw["median_rot_deg"] <= hi, f"median raw rotation error {raw['median_rot_deg']:.4f} deg")
    _require(
        eskf["ate_pos_m"] < raw["ate_pos_m"],
        f"ESKF ATE {eskf['ate_pos_m']:.4f} m not below raw ATE {raw['ate_pos_m']:.4f} m",
    )


def check_team_pgo(cfg: dict, result, stats: dict) -> None:
    ego = int(cfg["ego"])
    others = sorted(int(r["id"]) for r in cfg["robots"] if int(r["id"]) != ego)
    pgo = [stats.get(("pgo", str(rid))) for rid in others]
    eskf = [stats.get(("pairs", f"{ego}-{rid}")) for rid in others]
    _require(all(s is not None for s in pgo + eskf), "a robot lacks a PGO or ego-pair ESKF series")
    mean_pgo = float(np.mean([s["ate_pos_m"] for s in pgo]))
    mean_eskf = float(np.mean([s["ate_pos_m"] for s in eskf]))
    _require(
        mean_pgo <= PGO_OVER_ESKF_MAX * mean_eskf,
        f"mean PGO ATE {mean_pgo:.4f} m above {PGO_OVER_ESKF_MAX} x "
        f"mean ego-pair ESKF ATE {mean_eskf:.4f} m",
    )
    _require(len(result.pgo_converged) > 0, "no pose-graph solve ran")
    n_bad = result.pgo_converged.count(False)
    _require(n_bad == 0, f"{n_bad} of {len(result.pgo_converged)} PGO solves did not converge")
    # criterion 6: robot 1 keeps PGO estimates while its sight line to the ego is blocked
    robots = _robots(cfg)
    t = stats[("pgo", "1")]["t"]
    p_ego, _ = truth.position_velocity(robots[ego], t)
    p_one, _ = truth.position_velocity(robots[1], t)
    blocked = np.zeros(t.size, dtype=bool)
    for ob in cfg["obstacles"]:
        blocked |= truth.box_blocks(ob["center"], ob["extents"], p_ego, p_one)
    _require(blocked.any(), "robot 1 has no PGO estimate while its sight line is blocked")


def _csv_rows(path: Path) -> np.ndarray:
    """The numeric rows of a CSV file with one header line."""
    _require(path.is_file(), f"{path.name} missing")
    lines = path.read_text().splitlines()
    _require(len(lines) >= 1, f"{path.name} is empty")
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]], dtype=float)
    return rows.reshape(len(lines) - 1, lines[0].count(",") + 1)


def check_codec_cli(cfg: dict, result, stats: dict, out_dir: Path, min_periods: int, period: float) -> None:
    ego = int(cfg["ego"])
    robots = _robots(cfg)
    raw = stats.get(("raw", f"{ego}-1"))
    _require(raw is not None, "no raw series for pair 0-1")
    first, earliest = float(raw["t"][0]), min_periods * period
    _require(
        earliest - 1e-9 <= first <= earliest + FIRST_DECODE_SLACK_PERIODS * period + 1e-9,
        f"first raw sample at {first:.3f} s, expected in "
        f"[{earliest:.3f}, {earliest + FIRST_DECODE_SLACK_PERIODS * period:.3f}] s",
    )

    expected = {"metrics.json", "manifest.txt"} | {f"gt_robot{rid}.csv" for rid in robots}
    series = {f"raw_{o}_{g}.csv": s for (o, g), s in result.raw.items()}
    series |= {f"eskf_{o}_{g}.csv": s for (o, g), s in result.eskf.items()}
    series |= {f"pgo_robot{rid}.csv": s for rid, s in result.pgo.items()}
    expected |= set(series)
    present = {p.name for p in out_dir.iterdir()}
    _require(present == expected, f"output files differ: missing {sorted(expected - present)}, "
             f"extra {sorted(present - expected)}")
    for name, ser in series.items():
        rows = _csv_rows(out_dir / name)
        _require(rows.shape[0] == len(ser.t), f"{name}: {rows.shape[0]} rows for {len(ser.t)} samples")
        _require(np.array_equal(rows[:, 0], np.asarray(ser.t, dtype=float)), f"{name}: t column")

    cam_rate = float(cfg["rates"]["cam"])
    n = int(round(float(cfg["duration"]) * cam_rate))
    t = np.arange(n + 1) / cam_rate
    for rid, traj in robots.items():
        name = f"gt_robot{rid}.csv"
        rows = _csv_rows(out_dir / name)
        _require(rows.shape == (n + 1, 11), f"{name}: shape {rows.shape}, expected {(n + 1, 11)}")
        p, v = truth.position_velocity(traj, t)
        q = truth.quat_zyx(truth.euler_angles(traj, t))
        _require(np.allclose(rows[:, 0], t, rtol=0.0, atol=1e-12), f"{name}: t column")
        _require(np.allclose(rows[:, 1:4], p, rtol=0.0, atol=ATE_TOL), f"{name}: position")
        _require(np.allclose(rows[:, 4:7], v, rtol=0.0, atol=ATE_TOL), f"{name}: velocity")
        # q and -q are the same attitude
        dq = np.minimum(
            np.abs(rows[:, 7:11] - q).max(axis=1), np.abs(rows[:, 7:11] + q).max(axis=1)
        )
        _require(float(dq.max()) <= ATE_TOL, f"{name}: attitude off by {float(dq.max()):.2e}")

    written = json.loads((out_dir / "metrics.json").read_text())
    _require(written == json.loads(json.dumps(result.metrics)), "metrics.json differs from the run's metrics")


def directory_digest(out_dir: Path) -> str:
    """SHA-256 over every file name and its bytes, in name order."""
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()
