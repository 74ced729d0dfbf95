"""Wall-clock timing of the three estimator hot paths.

The raw solve runs as the runner calls it, on a batch of rows (here 50, one
second of a 50 Hz camera), and is reported per row.
"""

from __future__ import annotations

import time

import numpy as np

from .eskf import ImuPairInput, RelativePoseFilter
from .geom import Pose, quat_from_rotvec, quats_from_rotmats, rotmat_from_rotvec
from .pgo import initial_stack, solve
from .rawpose import RawPoseMeasurement, raw_estimate

RAW_ROWS = 50


def _timeit(fn, reps: int, per: int = 1) -> dict[str, float]:
    """Median and p99 wall time of fn over reps calls, divided by per."""
    samples = np.empty(reps)
    for k in range(reps):
        t0 = time.perf_counter()
        fn()
        samples[k] = (time.perf_counter() - t0) / per
    return {
        "median_ms": float(np.median(samples) * 1e3),
        "p99_ms": float(np.percentile(samples, 99) * 1e3),
        "reps": reps,
    }


def bench(reps: int = 1000, seed: int = 0) -> dict[str, dict[str, float]]:
    rng = np.random.default_rng(seed)

    b = rng.normal(size=(2, RAW_ROWS, 3))
    b /= np.linalg.norm(b, axis=2, keepdims=True)
    ranges = rng.uniform(1.0, 10.0, RAW_ROWS)
    rp = rng.uniform(-0.3, 0.3, (2, RAW_ROWS, 2))
    out = {"raw_estimate_row": _timeit(lambda: raw_estimate(*b, ranges, *rp), reps, RAW_ROWS)}

    f = RelativePoseFilter()
    z = RawPoseMeasurement(
        p_ba=np.array([3.0, 1.0, 0.2]),
        p_ab=np.array([-3.0, -1.0, -0.2]),
        q_ba=quat_from_rotvec([0.0, 0.0, 0.3]),
    )
    f.process_measurement(z)
    # plain floats, as the runner passes each IMU row
    u = ImuPairInput(
        a_ma=[0.1, 0.0, 9.81], w_ma=[0.01, 0.0, 0.2], a_mb=[0.0, 0.05, 9.81], w_mb=[0.0, 0.02, -0.1], dt=0.01
    )

    def eskf_cycle():
        f.process_imu(u)
        f.process_measurement(z)

    out["eskf_cycle"] = _timeit(eskf_cycle, reps)

    # 5-robot fully connected graph with noisy consistent edges, as a stack of one
    truth = {0: Pose.identity()}
    for rid in range(1, 5):
        truth[rid] = Pose(rotmat_from_rotvec(rng.normal(0, 0.4, 3)), rng.normal(0, 3.0, 3))
    pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    edges = []
    for i, j in pairs:
        T = truth[i].inverse().compose(truth[j])
        edges.append(T.compose(Pose(rotmat_from_rotvec(rng.normal(0, 0.01, 3)), rng.normal(0, 0.02, 3))))
    nodes = [  # perturbed truth; the ego's draw is made but the ego stays pinned
        Pose(rotmat_from_rotvec(rng.normal(0, 0.05, 3)) @ x.R, x.t + rng.normal(0, 0.05, 3)).matrix()
        for x in truth.values()
    ]
    p, q = np.array([[e.t for e in edges]]), quats_from_rotmats([e.R for e in edges])[None]
    _, T0, stack = initial_stack(0, pairs, p, q)
    T0[0, :-1] = nodes[1:]  # the free robots 1-4; the ego's slot is last
    stack.T_hat[0] = [e.matrix() for e in edges]  # the edges exactly, not through quaternions

    out["pgo_5robot"] = _timeit(lambda: solve(T0, stack), max(reps // 4, 100))
    return out
