import json
from pathlib import Path

import numpy as np
import pytest

from estimator_reference import edges_from_filters, orthonormalized, se3_exp, stack_of_one
from relpose import pgo, runner
from relpose.geom import (
    Pose,
    quat_normalize,
    quats_from_rotmats,
    rotmat_from_quat,
)
from relpose.pgo import residual
from relpose.scenario import config_from_dict

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

RNG = np.random.default_rng(31)


def random_pose(rng=RNG, scale=3.0):
    return Pose(rotmat_from_quat(quat_normalize(rng.normal(size=4))), rng.uniform(-scale, scale, 3))


def rel_pose(X_i: Pose, X_j: Pose) -> Pose:
    """Pose of j expressed in i's frame, both given in the common frame."""
    return X_i.inverse().compose(X_j)


def make_stack(truth: dict[int, Pose], pairs, perturb=0.0, init_perturb=0.0, rng=RNG):
    """`pgo.initial_stack` of one graph of the pairs' relative poses, its free nodes perturbed."""
    p, q = np.zeros((1, len(pairs), 3)), np.zeros((1, len(pairs), 4))
    for k, (i, j) in enumerate(pairs):
        T = rel_pose(truth[i], truth[j])
        if perturb:
            T = orthonormalized(T.compose(se3_exp(rng.normal(0, perturb, 6))))
        p[0, k], q[0, k] = T.t, quats_from_rotmats(T.R)[0]
    free, T0, edges = pgo.initial_stack(0, pairs, p, q)
    if init_perturb:
        for s in range(len(free)):
            x = Pose(T0[0, s, :3, :3], T0[0, s, :3, 3])
            T0[0, s] = orthonormalized(x.compose(se3_exp(rng.normal(0, init_perturb, 6)))).matrix()
    return free, T0, edges


def solve(free, T0, edges):
    """`pgo.solve` of a stack of one, and its poses by robot id, the ego's included."""
    T, report = pgo.solve(T0, edges)
    return {rid: Pose(T[0, s, :3, :3], T[0, s, :3, 3]) for s, rid in enumerate(free + [0])}, report


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
    poses, report = solve(*make_stack(truth, pairs, init_perturb=0.3))
    assert report.converged
    for n in (1, 2, 3):
        dp, dR = pose_error(poses[n], truth[n])
        assert dp < 1e-6 and dR < 1e-6


def test_solve_keeps_ego_pinned():
    truth = {0: Pose.identity(), 1: random_pose()}
    poses, _ = solve(*make_stack(truth, [(0, 1)], perturb=0.05, init_perturb=0.05))
    assert np.array_equal(poses[0].matrix(), np.eye(4))


def test_solve_reduces_cost_on_noisy_graph():
    truth = {0: Pose.identity(), 1: random_pose(), 2: random_pose(), 3: random_pose()}
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)]
    _, report = solve(*make_stack(truth, pairs, perturb=0.03, init_perturb=0.2))
    assert report.final_cost < report.initial_cost
    assert report.converged


def test_solve_averages_redundant_edges():
    # two edges between the same pair, symmetric disturbances: the solution
    # must be better than trusting either edge alone
    truth = {0: Pose.identity(), 1: Pose(np.eye(3), np.array([2.0, 0, 0]))}
    d = np.array([0.2, 0, 0])
    p, q = np.array([[truth[1].t + d, truth[1].t - d]]), np.array([[[1.0, 0, 0, 0]] * 2])
    free, T0, edges = pgo.initial_stack(0, [(0, 1), (0, 1)], p, q)
    assert np.array_equal(T0[0, 0, :3, 3], truth[1].t + d)  # the first edge initializes robot 1
    poses, _ = solve(free, T0, edges)
    assert np.linalg.norm(poses[1].t - truth[1].t) < 0.05


def test_huber_downweights_outlier_edge():
    truth = {0: Pose.identity(), 1: random_pose(rng=np.random.default_rng(5))}
    good = rel_pose(truth[0], truth[1])
    p = np.array([[good.t] * 3 + [good.t + np.array([5.0, 0.0, 0.0])]])
    q = np.tile(quats_from_rotmats(good.R)[0], (1, 4, 1))
    poses, _ = solve(*pgo.initial_stack(0, [(0, 1)] * 4, p, q))
    dp, _ = pose_error(poses[1], truth[1])
    assert dp < 0.3  # a quadratic loss would be pulled ~1.25 m


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


# -- stacked solves against one-graph solves --------------------------------------
# The runner solves a chunk's graphs one stack per edge mask. Every graph of a
# stack must get the initial nodes that `edges_from_filters` composes, and the
# iterations, converged flag, robots and poses, bit for bit, that `pgo.solve`
# gives it alone, as a stack of one.

PAIRS5 = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
FULL = [True] * len(PAIRS5)


def only(*pairs):
    return [pair in pairs for pair in PAIRS5]


def snapshots(masks, noise=None, seed=0):
    """p (F, P, 3) and q (F, P, 4): noisy pair estimates of a five-robot team, one frame per mask."""
    rng = np.random.default_rng(seed)
    truth = {0: Pose.identity(), **{rid: random_pose(rng) for rid in range(1, 5)}}
    noise = [0.05] * len(masks) if noise is None else noise
    p, q = np.zeros((len(masks), len(PAIRS5), 3)), np.zeros((len(masks), len(PAIRS5), 4))
    for f, sigma in enumerate(noise):
        for k, (i, j) in enumerate(PAIRS5):
            T = rel_pose(truth[i], truth[j]).compose(se3_exp(rng.normal(0, sigma, 6)))
            # a filter's quaternion may have either sign
            p[f, k], q[f, k] = T.t, quats_from_rotmats(T.R)[0] * rng.choice([-1.0, 1.0])
    return p, q


def estimates(mask, p, q):
    return {pair: Pose(rotmat_from_quat(q[k]), p[k]) for k, pair in enumerate(PAIRS5) if mask[k]}


def initial_stack(mask, p, q):
    """`pgo.initial_stack` of the masked pairs of frames p, q."""
    mask = np.array(mask)
    return pgo.initial_stack(0, [pair for pair, m in zip(PAIRS5, mask) if m], p[:, mask], q[:, mask])


def alone(mask, p, q):
    """`pgo.solve` of one frame's graph as a stack of one: its free robots, poses and report."""
    stack = stack_of_one(edges_from_filters(0, estimates(mask, p, q)))
    return stack and (stack[0], *pgo.solve(*stack[1:]))


def assert_stacks_match_one_graph_solves(masks, p, q):
    groups = {}
    for f, mask in enumerate(masks):
        groups.setdefault(tuple(mask), []).append(f)
    for mask, frames in groups.items():
        initial = [edges_from_filters(0, estimates(mask, p[f], q[f])).nodes for f in frames]
        solved = [alone(mask, p[f], q[f]) for f in frames]
        stack = initial_stack(mask, p[frames], q[frames])
        if stack is None:  # no edge reaches the ego: nothing to solve
            assert solved == [None] * len(frames)
            continue
        free, T0, edges = stack
        T, report = pgo.solve(T0, edges)
        assert report.iterations == report.graph_iterations.sum()
        assert report.converged == report.graph_converged.all()
        for b, (nodes, (free_alone, T_alone, report_alone)) in enumerate(zip(initial, solved)):
            assert free_alone == free and sorted(nodes) == [0] + free
            assert report.graph_iterations[b] == report_alone.iterations
            assert report.graph_converged[b] == report_alone.converged
            assert report.initial_cost[b] == report_alone.initial_cost[0]
            assert report.final_cost[b] == report_alone.final_cost[0]
            assert np.array_equal(T[b], T_alone[0])
            for s, rid in enumerate(free):
                assert np.array_equal(T0[b, s], nodes[rid].matrix())


def test_stack_of_two_topologies_matches_one_graph_solves():
    # the chain reaches robots 1 and 3 through inverted edges
    chain = only((0, 2), (1, 2), (1, 4), (3, 4))
    masks = [FULL, chain, FULL, FULL, chain]
    assert_stacks_match_one_graph_solves(masks, *snapshots(masks))


def test_stack_with_masks_that_miss_the_ego():
    masks = [only((1, 2), (3, 4)), only((0, 1), (2, 3)), only((0, 1), (2, 3)), only((0, 2), (2, 4), (1, 3))]
    p, q = snapshots(masks)
    assert initial_stack(masks[0], p, q) is None
    assert initial_stack(masks[1], p, q)[0] == [1]
    assert_stacks_match_one_graph_solves(masks, p, q)


def test_stack_stops_each_graph_at_max_iters(monkeypatch):
    monkeypatch.setattr(pgo, "MAX_ITERS", 2)
    masks = [FULL] * 4
    noise = [0.05, 0.0, 0.05, 0.0]  # exact edges converge in the first iteration
    p, q = snapshots(masks, noise)
    assert_stacks_match_one_graph_solves(masks, p, q)
    _, report = pgo.solve(*initial_stack(FULL, p, q)[1:])
    assert report.graph_iterations.tolist() == [2, 1, 2, 1]
    assert report.graph_converged.tolist() == [False, True, False, True]


def test_stack_keeps_a_singular_try_to_its_graph(monkeypatch):
    masks = [FULL] * 3
    p, q = snapshots(masks)
    solve_systems = np.linalg.solve
    first = []

    def spy(A, b):
        first.append(A[0].copy())
        return solve_systems(A, b)

    monkeypatch.setattr(np.linalg, "solve", spy)
    alone(FULL, p[1], q[1])
    raised = []

    def singular(A, b):  # graph 1's first damped system is singular
        if any(np.array_equal(a, first[0]) for a in A):
            raised.append(len(A))
            raise np.linalg.LinAlgError("Singular matrix")
        return solve_systems(A, b)

    monkeypatch.setattr(np.linalg, "solve", singular)
    assert_stacks_match_one_graph_solves(masks, p, q)
    # graph 1 alone; then the stack of three, and graph 1 when the stack solves its systems one by one
    assert raised == [1, 3, 1]


def test_stack_of_one():
    assert_stacks_match_one_graph_solves([FULL], *snapshots([FULL]))


def test_team_run_solves_its_recorded_graphs_as_one_graph_solves(monkeypatch):
    cfg = config_from_dict(json.loads((SCENARIOS / "occlusion_five_robot.json").read_text()))
    cfg.duration, cfg.pgo_rate = 2.5, cfg.cam_rate
    assert runner._pairs_for(cfg) == PAIRS5
    recorded = []
    solve_graphs = runner._solve_graphs

    def record(ego, pairs, snaps, *out):
        recorded.extend(snaps)
        solve_graphs(ego, pairs, snaps, *out)

    monkeypatch.setattr(runner, "_solve_graphs", record)
    res = runner.run_scenario(cfg)
    t, masks = [s[0] for s in recorded], [s[1] for s in recorded]
    p, q = np.zeros((len(recorded), len(PAIRS5), 3)), np.zeros((len(recorded), len(PAIRS5), 4))
    for f, (_, mask, states) in enumerate(recorded):  # a snapshot holds its masked pairs' states
        p[f, list(mask)], q[f, list(mask)] = [s[:3] for s in states], [s[6:] for s in states]
    assert len(recorded) == 126  # every camera frame of [0, 2.5] s
    assert_stacks_match_one_graph_solves(masks, p, q)
    # the run's rows and flags are the one-graph solves', frame by frame
    rows, converged = {rid: [] for rid in res.pgo}, []
    for f, mask in enumerate(masks):
        free, T, report = alone(mask, p[f], q[f]) or ([], None, None)
        converged.append(report is None or report.converged)
        for s, rid in enumerate(free):
            rows[rid].append((t[f], Pose(T[0, s, :3, :3], T[0, s, :3, 3])))
    assert res.pgo_converged == converged
    for rid, expected in rows.items():
        assert np.array_equal(res.pgo[rid].t, [tt for tt, _ in expected])
        assert np.array_equal(res.pgo[rid].p, [pose.t for _, pose in expected])
        assert np.array_equal(res.pgo[rid].q, quats_from_rotmats([pose.R for _, pose in expected]))
