import numpy as np
import pytest

from relpose.geom import Pose, quat_normalize, rotmat_from_quat, rotmat_from_rotvec, se3_exp
from relpose.pgo import (
    Edge,
    PoseGraph,
    dump_graph,
    edges_from_filters,
    load_graph,
    residual,
    solve,
)

RNG = np.random.default_rng(31)


def random_pose(rng=RNG, scale=3.0):
    return Pose(rotmat_from_quat(quat_normalize(rng.normal(size=4))), rng.uniform(-scale, scale, 3))


def rel_pose(X_i: Pose, X_j: Pose) -> Pose:
    """Pose of j expressed in i's frame, both given in the common frame."""
    return X_i.inverse().compose(X_j)


def make_graph(truth: dict[int, Pose], pairs, perturb=0.0, init_perturb=0.0, rng=RNG):
    estimates = {}
    for i, j in pairs:
        T = rel_pose(truth[i], truth[j])
        if perturb:
            T = T.compose(se3_exp(rng.normal(0, perturb, 6))).orthonormalized()
        estimates[(i, j)] = T
    g = edges_from_filters(0, estimates)
    if init_perturb:
        for n in g.nodes:
            if n != 0:
                g.nodes[n] = g.nodes[n].compose(se3_exp(rng.normal(0, init_perturb, 6))).orthonormalized()
    return g


def pose_error(a: Pose, b: Pose):
    dp = np.linalg.norm(a.t - b.t)
    dR = np.arccos(np.clip((np.trace(a.R.T @ b.R) - 1) / 2, -1, 1))
    return dp, dR


def test_residual_zero_for_consistent_edge():
    X_i, X_j = random_pose(), random_pose()
    assert residual(X_i, X_j, rel_pose(X_i, X_j)) == pytest.approx(0.0, abs=1e-20)


def test_residual_positive_for_inconsistent_edge():
    X_i, X_j = random_pose(), random_pose()
    bad = rel_pose(X_i, X_j).compose(se3_exp([0.1, 0, 0, 0, 0, 0.1]))
    assert residual(X_i, X_j, bad) > 1e-4


def test_solve_recovers_exact_poses():
    truth = {0: Pose.identity(), 1: random_pose(), 2: random_pose(), 3: random_pose()}
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (1, 3)]
    g = make_graph(truth, pairs, init_perturb=0.3)
    poses, report = solve(g)
    assert report.converged
    for n in (1, 2, 3):
        dp, dR = pose_error(poses[n], truth[n])
        assert dp < 1e-6 and dR < 1e-6


def test_solve_keeps_ego_pinned():
    truth = {0: Pose.identity(), 1: random_pose()}
    g = make_graph(truth, [(0, 1)], perturb=0.05)
    poses, _ = solve(g)
    assert np.allclose(poses[0].matrix(), np.eye(4))


def test_solve_reduces_cost_on_noisy_graph():
    truth = {0: Pose.identity(), 1: random_pose(), 2: random_pose(), 3: random_pose()}
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)]
    g = make_graph(truth, pairs, perturb=0.03, init_perturb=0.2)
    poses, report = solve(g)
    assert report.final_cost < report.initial_cost
    assert report.converged


def test_solve_averages_redundant_edges():
    # two edges between the same pair, symmetric disturbances: the solution
    # must be better than trusting either edge alone
    truth = {0: Pose.identity(), 1: Pose(np.eye(3), np.array([2.0, 0, 0]))}
    d = np.array([0.2, 0, 0])
    g = PoseGraph(
        ego=0,
        nodes={0: Pose.identity(), 1: Pose(np.eye(3), truth[1].t + d)},
        edges=[
            Edge(0, 1, Pose(np.eye(3), truth[1].t + d)),
            Edge(0, 1, Pose(np.eye(3), truth[1].t - d)),
        ],
    )
    poses, _ = solve(g)
    assert np.linalg.norm(poses[1].t - truth[1].t) < 0.05


def test_huber_downweights_outlier_edge():
    truth = {0: Pose.identity(), 1: random_pose(rng=np.random.default_rng(5))}
    good = rel_pose(truth[0], truth[1])
    bad = Pose(good.R, good.t + np.array([5.0, 0.0, 0.0]))
    g = PoseGraph(
        ego=0,
        nodes={0: Pose.identity(), 1: good},
        edges=[Edge(0, 1, good), Edge(0, 1, good), Edge(0, 1, good), Edge(0, 1, bad)],
    )
    poses, _ = solve(g)
    dp, _ = pose_error(poses[1], truth[1])
    assert dp < 0.3  # a quadratic loss would be pulled ~1.25 m


def test_unreachable_node_excluded():
    g = PoseGraph(
        ego=0,
        nodes={0: Pose.identity(), 1: random_pose(), 7: random_pose()},
        edges=[Edge(0, 1, random_pose())],
    )
    poses, report = solve(g)
    assert report.excluded == [7]
    assert 7 not in poses


def test_self_edge_rejected():
    with pytest.raises(ValueError):
        PoseGraph(ego=0, nodes={0: Pose.identity()}, edges=[Edge(1, 1, Pose.identity())])


def test_empty_graph_trivial():
    g = PoseGraph(ego=0, nodes={})
    poses, report = solve(g)
    assert report.converged
    assert np.allclose(poses[0].matrix(), np.eye(4))


def test_edges_from_filters_initializes_by_composition():
    truth = {0: Pose.identity(), 1: random_pose(), 2: random_pose()}
    # robot 2 only observed from robot 1: init must chain 0->1->2
    estimates = {(0, 1): rel_pose(truth[0], truth[1]), (1, 2): rel_pose(truth[1], truth[2])}
    g = edges_from_filters(0, estimates)
    dp, dR = pose_error(g.nodes[2], truth[2])
    assert dp < 1e-9 and dR < 1e-9


def test_edges_from_filters_reverse_edge_inverts():
    truth = {0: Pose.identity(), 1: random_pose()}
    estimates = {(1, 0): rel_pose(truth[1], truth[0])}  # robot 1 observes ego
    g = edges_from_filters(0, estimates)
    dp, dR = pose_error(g.nodes[1], truth[1])
    assert dp < 1e-9 and dR < 1e-9


def test_dump_load_round_trip():
    truth = {0: Pose.identity(), 1: random_pose(), 2: random_pose()}
    g = make_graph(truth, [(0, 1), (1, 2)], perturb=0.01)
    g2 = load_graph(dump_graph(g))
    assert g2.ego == g.ego
    assert set(g2.nodes) == set(g.nodes)
    for n in g.nodes:
        assert np.allclose(g2.nodes[n].matrix(), g.nodes[n].matrix(), atol=1e-12)
    assert len(g2.edges) == len(g.edges)
    for e1, e2 in zip(g.edges, g2.edges):
        assert (e1.i, e1.j, e1.weight) == (e2.i, e2.j, e2.weight)
        assert np.allclose(e1.T_hat.matrix(), e2.T_hat.matrix(), atol=1e-12)


def test_load_graph_rejects_junk():
    with pytest.raises(ValueError):
        load_graph("NODE 0 0 0 0 1 0 0 0\n")  # no EGO line
    with pytest.raises(ValueError):
        load_graph("FOO bar\n")
