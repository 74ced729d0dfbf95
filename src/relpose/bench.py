"""Wall-clock timing of the three estimator hot paths."""

from __future__ import annotations

import time

import numpy as np

from .eskf import ImuPairInput, RelativePoseFilter
from .geom import Pose, quat_from_rotvec, rotmat_from_rotvec
from .pgo import Edge, PoseGraph, solve
from .rawpose import MutualObservation, RawPoseMeasurement, raw_estimate


def _timeit(fn, reps: int) -> dict[str, float]:
    samples = np.empty(reps)
    for k in range(reps):
        t0 = time.perf_counter()
        fn()
        samples[k] = time.perf_counter() - t0
    return {
        "median_ms": float(np.median(samples) * 1e3),
        "p99_ms": float(np.percentile(samples, 99) * 1e3),
        "reps": reps,
    }


def bench(reps: int = 1000, seed: int = 0) -> dict[str, dict[str, float]]:
    rng = np.random.default_rng(seed)

    obs = MutualObservation(
        bearing_b_to_a=np.array([0.8, 0.1, np.sqrt(1 - 0.65)]),
        bearing_a_to_b=np.array([-0.7, 0.2, np.sqrt(1 - 0.53)]),
        range_m=4.2,
        rp_a=(0.1, -0.05),
        rp_b=(-0.02, 0.08),
    )
    out = {"raw_estimate": _timeit(lambda: raw_estimate(obs), reps)}

    f = RelativePoseFilter()
    z = RawPoseMeasurement(
        p_ba=np.array([3.0, 1.0, 0.2]),
        p_ab=np.array([-3.0, -1.0, -0.2]),
        q_ba=quat_from_rotvec([0.0, 0.0, 0.3]),
    )
    f.process_measurement(z)
    u = ImuPairInput(
        a_ma=np.array([0.1, 0.0, 9.81]),
        w_ma=np.array([0.01, 0.0, 0.2]),
        a_mb=np.array([0.0, 0.05, 9.81]),
        w_mb=np.array([0.0, 0.02, -0.1]),
        dt=0.01,
    )

    def eskf_cycle():
        f.process_imu(u)
        f.process_measurement(z)

    out["eskf_cycle"] = _timeit(eskf_cycle, reps)

    # 5-robot fully connected graph with noisy consistent edges
    truth = {0: Pose.identity()}
    for rid in range(1, 5):
        truth[rid] = Pose(rotmat_from_rotvec(rng.normal(0, 0.4, 3)), rng.normal(0, 3.0, 3))
    edges = []
    for i in range(5):
        for j in range(i + 1, 5):
            T = truth[i].inverse().compose(truth[j])
            T = T.compose(Pose(rotmat_from_rotvec(rng.normal(0, 0.01, 3)), rng.normal(0, 0.02, 3)))
            edges.append(Edge(i, j, T))
    nodes = {
        rid: Pose(
            rotmat_from_rotvec(rng.normal(0, 0.05, 3)) @ truth[rid].R,
            truth[rid].t + rng.normal(0, 0.05, 3),
        )
        for rid in truth
    }

    def pgo_solve():
        g = PoseGraph(ego=0, nodes=dict(nodes), edges=list(edges))
        solve(g)

    out["pgo_5robot"] = _timeit(pgo_solve, max(reps // 4, 100))
    return out
