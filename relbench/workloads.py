"""The benchmark's workloads: generated configs, one operation, its checks.

An operation is one scenario run for one seed, driven through the public
API as `relpose run` drives it, plus the checks on its outputs. The configs
are written here rather than read from `scenarios/`, so that editing a
bundled scenario does not change what the benchmark measures.
"""

from __future__ import annotations

import copy
import json
import time
from dataclasses import dataclass
from pathlib import Path

import relpose.runner as runner
import relpose.scenario as scenario
from relpose.codec import MIN_PERIODS, IdLibrary

import checks

# acceptance criterion 4: the Monte-Carlo two-robot evaluation loop
PAIR_ESKF = {
    "version": 1,
    "duration": 60.0,
    "ego": 0,
    "estimator": "eskf",
    "id_mode": "oracle",
    "rates": {"imu": 100.0, "cam": 50.0, "uwb": 25.0},
    "robots": [
        {"id": 0, "trajectory": {"kind": "circle", "center": [0, 0, 1], "radius": 0.7, "omega": 0.4}},
        {
            "id": 1,
            "trajectory": {
                "kind": "circle", "center": [3.5, 0, 1], "radius": 0.7, "omega": -0.35, "phase": 1.0,
            },
        },
    ],
}

# the geometry of scenarios/occlusion_five_robot.json, 8 s, graph solved every camera frame
TEAM_PGO = {
    "version": 1,
    "duration": 8.0,
    "ego": 0,
    "estimator": "pgo",
    "pairs": "all",
    "id_mode": "oracle",
    "pgo_rate": 50.0,
    "rates": {"imu": 100.0, "cam": 50.0, "uwb": 25.0},
    "obstacles": [{"shape": "box", "center": [4.0, -0.596, 1.0], "extents": [0.3, 0.154, 2.0]}],
    "robots": [
        {"id": 0, "led": 0, "trajectory": {"kind": "static", "center": [0.0, 0.0, 1.0]}},
        {
            "id": 1,
            "led": 1,
            "trajectory": {"kind": "circle", "center": [8.0, 0.0, 1.0], "radius": 1.5, "omega": 0.785},
        },
        {"id": 2, "led": 2, "trajectory": {"kind": "static", "center": [4.0, 4.0, 1.0]}},
        {"id": 3, "led": 3, "trajectory": {"kind": "static", "center": [4.0, -4.0, 1.0]}},
        {
            "id": 4,
            "led": 4,
            "trajectory": {"kind": "circle", "center": [-3.0, 2.0, 1.0], "radius": 0.6, "omega": 0.5},
        },
    ],
}

# scenarios/two_robot_auto.json: LED IDs decoded on line from a 200 Hz camera
CODEC_CLI = {
    "version": 1,
    "duration": 20.0,
    "ego": 0,
    "estimator": "eskf",
    "pairs": "ego",
    "id_mode": "codec",
    "rates": {"imu": 200.0, "cam": 200.0, "uwb": 50.0},
    "robots": [
        {
            "id": 0,
            "led": 0,
            "trajectory": {
                "kind": "circle", "center": [0.0, 0.0, 1.0], "radius": 1.5, "omega": 0.4,
                "attitude": {"yaw_rate": 0.1},
            },
        },
        {
            "id": 1,
            "led": 1,
            "trajectory": {
                "kind": "lissajous",
                "center": [6.0, 0.0, 1.0],
                "amplitude": [1.0, 1.5, 0.0],
                "freq": [0.15, 0.1, 0.2],
                "attitude": {"amp": [0.05, 0.05, 0.0], "freq": [0.3, 0.25, 0.0], "yaw_rate": -0.1},
            },
        },
    ],
}


@dataclass(frozen=True)
class Workload:
    name: str
    base: dict
    writes: bool  # write_outputs to a fresh directory, as `relpose run --out` does
    ops_per_round: int  # codec_cli runs each seed twice and compares the bytes written

    def config(self, seed: int) -> dict:
        d = copy.deepcopy(self.base)
        d["seed"] = seed
        return d


WORKLOADS = {
    w.name: w
    for w in (
        Workload("pair_eskf", PAIR_ESKF, writes=False, ops_per_round=1),
        Workload("team_pgo", TEAM_PGO, writes=False, ops_per_round=1),
        Workload("codec_cli", CODEC_CLI, writes=True, ops_per_round=2),
    )
}


def op_seed(run_seed: int, round_index: int) -> int:
    """Seed of the operations of one round: a function of the run's --seed alone."""
    return run_seed * 1000 + round_index


def write_config(wl: Workload, seed: int, work: Path) -> Path:
    path = work / f"{wl.name}-seed{seed}.json"
    path.write_text(json.dumps(wl.config(seed), indent=2))
    return path


def setup(wl: Workload, seed: int, work: Path):
    """Build and validate the workload's config as an operation will load it."""
    return scenario.load_config(write_config(wl, seed, work))


@dataclass
class Op:
    seed: int
    op_s: float  # load_config + run_scenario (+ write_outputs)
    run_s: float  # run_scenario alone
    sim_s: float
    result: object
    out_dir: Path | None


def run_op(wl: Workload, seed: int, config_path: Path, out_dir: Path | None) -> Op:
    """One scenario run through the public API; the modules are looked up at
    call time so that the traced run's wrappers apply."""
    t0 = time.perf_counter()
    cfg = scenario.load_config(config_path)
    t1 = time.perf_counter()
    result = runner.run_scenario(cfg)
    t2 = time.perf_counter()
    if wl.writes:
        runner.write_outputs(result, out_dir, json.loads(config_path.read_text()))
    t3 = time.perf_counter()
    return Op(seed, t3 - t0, t2 - t1, cfg.duration, result, out_dir)


def check_op(wl: Workload, op: Op) -> None:
    """Raise checks.CheckFailed unless every output of the operation is right."""
    cfg = wl.config(op.seed)
    stats = checks.series_stats(cfg, op.result)
    if wl.name == "pair_eskf":
        checks.check_pair_eskf(cfg, op.result, stats)
    elif wl.name == "team_pgo":
        checks.check_team_pgo(cfg, op.result, stats)
    else:
        checks.check_codec_cli(
            cfg, op.result, stats, op.out_dir, MIN_PERIODS, IdLibrary().period
        )
