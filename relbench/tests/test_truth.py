"""The benchmark's closed-form truth agrees with the program's trajectories."""

import numpy as np
import pytest

import truth
import workloads
from relpose.geom import rotation_angle_deg, rotmat_from_quat
from relpose.scenario import config_from_dict
from relpose.trajectory import eval_trajectory
from relpose.world import Obstacle, World

# every trajectory the workloads use: static, circle, and Lissajous with an attitude profile
TRAJECTORIES = [
    (wl.name, r["id"], r["trajectory"], wl.base)
    for wl in workloads.WORKLOADS.values()
    for r in wl.base["robots"]
]


def _spec(base, rid):
    cfg = config_from_dict(dict(base, seed=0))
    return next(spec for i, spec, _ in cfg.robots if i == rid)


@pytest.mark.parametrize("name,rid,traj,base", TRAJECTORIES, ids=[f"{n}-{r}" for n, r, _, _ in TRAJECTORIES])
def test_truth_matches_eval_trajectory(name, rid, traj, base):
    spec = _spec(base, rid)
    t = np.linspace(0.0, base["duration"], 97)
    p, v = truth.position_velocity(traj, t)
    rpy = truth.euler_angles(traj, t)
    R = truth.rotmat_zyx(rpy)
    q = truth.quat_zyx(rpy)
    for k, tk in enumerate(t):
        s = eval_trajectory(spec, float(tk))
        np.testing.assert_allclose(p[k], s.p, rtol=0, atol=1e-12)
        np.testing.assert_allclose(v[k], s.v, rtol=0, atol=1e-12)
        np.testing.assert_allclose(R[k], rotmat_from_quat(s.q), rtol=0, atol=1e-12)
        assert min(np.abs(q[k] - s.q).max(), np.abs(q[k] + s.q).max()) <= 1e-12


@pytest.mark.parametrize("wl", list(workloads.WORKLOADS.values()), ids=list(workloads.WORKLOADS))
def test_relative_truth_matches_world(wl):
    cfg = config_from_dict(wl.config(0))
    world = World({rid: (traj, led) for rid, traj, led in cfg.robots}, cfg.noise)
    robots = {r["id"]: r["trajectory"] for r in wl.base["robots"]}
    ids = sorted(robots)
    t = np.linspace(0.0, wl.base["duration"], 31)
    for obs in ids:
        for tgt in ids:
            if obs == tgt:
                continue
            p, R = truth.relative_truth(robots[obs], robots[tgt], t)
            for k, tk in enumerate(t):
                p_w, R_w = world.relative_truth(obs, tgt, float(tk))
                np.testing.assert_allclose(p[k], p_w, rtol=0, atol=1e-12)
                np.testing.assert_allclose(R[k], R_w, rtol=0, atol=1e-12)


def test_box_blocks_matches_obstacle():
    rng = np.random.default_rng(5)
    ob = workloads.TEAM_PGO["obstacles"][0]
    box = Obstacle("box", tuple(ob["center"]), tuple(ob["extents"]))
    c = np.asarray(ob["center"])
    a = c + rng.uniform(-3, 3, (2000, 3))
    b = c + rng.uniform(-3, 3, (2000, 3))
    b[:50, 2] = a[:50, 2]  # segments parallel to a face
    got = truth.box_blocks(ob["center"], ob["extents"], a, b)
    want = np.array([box.intersects_segment(x, y) for x, y in zip(a, b)])
    assert got.any() and not got.all()
    np.testing.assert_array_equal(got, want)


def test_geodesic_matches_rotation_angle():
    rng = np.random.default_rng(9)
    rpy = rng.uniform(-1.0, 1.0, (200, 3))
    R = truth.rotmat_zyx(rpy)
    got = truth.geodesic_deg(R)
    want = np.array([rotation_angle_deg(Rk) for Rk in R])
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)
