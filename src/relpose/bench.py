"""Wall-clock timing of the three estimator hot paths.

The raw solve runs as the runner calls it, on a batch of rows (here 50, one
second of a 50 Hz camera), and is reported per row. The filter step (predict,
then a measurement update and reset that the gate accepts) is timed on a bank
of one pair and on a bank of ten, the pairs of a five-robot team.
"""

from __future__ import annotations

import time

import numpy as np

from .eskf import FilterBank, inject_and_reset, predict, update
from .geom import (
    Pose,
    quat_conj,
    quat_from_rotvec,
    quat_mul,
    quats_from_rotmats,
    rotmat_from_quat,
    rotmat_from_rotvec,
)
from .pgo import initial_stack, solve
from .rawpose import raw_estimate

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


def _at_rest(q, p, pairs) -> tuple[list, list]:
    """Each robot's IMU row (gravity alone) when robot i rests at position p[i]
    with attitude q[i], and each pair (A, B)'s exact measurement. The filter
    predicts the relative poses of robots at rest exactly, so the gate passes
    every measurement of every step."""
    R = [rotmat_from_quat(x) for x in q]
    imu = [[*(Ri.T @ [0.0, 0.0, 9.81]).tolist(), 0.0, 0.0, 0.0] for Ri in R]
    measured = []
    for n, (a, b) in enumerate(pairs):
        d = np.subtract(p[a], p[b])
        z = np.concatenate((R[b].T @ d, -R[a].T @ d, quat_mul(quat_conj(q[b]), q[a])))
        measured.append((n, z.tolist()))
    return imu, measured


def bench(reps: int = 1000, seed: int = 0) -> dict[str, dict[str, float]]:
    """Median and p99 wall time of each hot path over reps calls (at least one)."""
    if reps < 1:
        raise ValueError(f"reps must be at least 1, got {reps}")
    rng = np.random.default_rng(seed)

    b = rng.normal(size=(2, RAW_ROWS, 3))
    b /= np.linalg.norm(b, axis=2, keepdims=True)
    ranges = rng.uniform(1.0, 10.0, RAW_ROWS)
    rp = rng.uniform(-0.3, 0.3, (2, RAW_ROWS, 2))
    out = {"raw_estimate_row": _timeit(lambda: raw_estimate(*b, ranges, *rp), reps, RAW_ROWS)}

    # B level at the origin, A 3.2 m away yawed 0.3 rad, both at rest
    q = [[1.0, 0.0, 0.0, 0.0], quat_from_rotvec([0.0, 0.0, 0.3])]
    imu, measured = _at_rest(q, [[0.0] * 3, [3.0, 1.0, 0.2]], [(1, 0)])
    one = FilterBank([(1, 0)])
    update(one, measured)  # starts the filter

    def eskf_cycle():
        predict(one, imu, 0.01)
        inject_and_reset(one, update(one, measured))

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

    # the ten pair filters of a five-robot team at rest, stepped as one bank
    rng = np.random.default_rng([seed, 10])
    pairs = [(a, b) for b in range(5) for a in range(b + 1, 5)]
    q = [quat_from_rotvec(rng.normal(0.0, 0.3, 3)) for _ in range(5)]
    imu, measured = _at_rest(q, rng.normal(0.0, 3.0, (5, 3)), pairs)
    bank = FilterBank(pairs)
    update(bank, measured)  # starts every filter

    def eskf_bank10():
        predict(bank, imu, 0.01)
        inject_and_reset(bank, update(bank, measured))

    out["eskf_bank10"] = _timeit(eskf_bank10, reps)
    return out
