"""The structured filter step and pose-graph solve against their first versions.

`estimator_reference` holds the filter step and the solver as they were
written around the `geom` helpers and per-edge loops; the code in
`relpose.eskf` and `relpose.pgo` must reproduce them to 1e-12.
"""

import numpy as np
import pytest

import estimator_reference as ref
from relpose import eskf, pgo
from relpose.geom import Pose, quat_normalize, rotmat_from_quat

TOL = dict(rtol=1e-12, atol=1e-12)


def _close(a, b):
    np.testing.assert_allclose(a, b, **TOL)


def _random_step(rng, k):
    state = ref.NominalState(
        p=rng.normal(0, 3.0, 3),
        v=rng.normal(0, 1.0, 3),
        q=quat_normalize(rng.normal(size=4)),
        t=float(rng.uniform(0, 10)),
    )
    A = rng.normal(size=(12, 12))
    P = 0.01 * (A @ A.T) + 0.01 * np.eye(12)
    # every third input has a still observer: the first-order branch of Exp
    w_mb = rng.normal(0, 1.0, 3) if k % 3 else np.zeros(3)
    a_ma, w_ma, a_mb = rng.normal(0, 5.0, 3), rng.normal(0, 1.0, 3), rng.normal(0, 5.0, 3)
    # the input noise predict adds is a diagonal per dt: check it over a range of steps
    u = ref.ImuPairInput(a_ma, w_ma, a_mb, w_mb, float(rng.uniform(0.001, 0.05)))
    p_ab = -rotmat_from_quat(state.q).T @ state.p
    if k % 10 == 9:
        p_ab = p_ab + 10.0  # far outside the chi-square gate
    z = ref.RawPoseMeasurement(
        p_ba=state.p + rng.normal(0, 0.1, 3),
        p_ab=p_ab + rng.normal(0, 0.1, 3),
        q_ba=quat_normalize(state.q + rng.normal(0, 0.05, 4)),
        t=state.t,
    )
    return state, ref.ErrorBelief(np.zeros(12), P), u, z


def test_filter_step_matches_reference():
    # a bank of one against the reference step; the bank keeps no error mean,
    # which is zero outside the update->reset window
    rng = np.random.default_rng(7)
    gated = set()
    for k in range(50):
        state, belief, u, z = _random_step(rng, k)

        bank = ref.bank_of_one(state, belief.P)
        eskf.predict(bank, ref.imu_rows(u), u.dt)
        s_new = ref.state_of(bank, t=state.t + u.dt)
        s_ref, b_ref = ref.predict(state, belief, u)
        for a, b in [(s_new.p, s_ref.p), (s_new.v, s_ref.v), (s_new.q, s_ref.q), (bank.P[0], b_ref.P)]:
            _close(a, b)
        x, (ra, rb) = ref.floats(state), ref.imu_rows(u)
        _close(eskf.compute_Fx(x, ra, rb, u.dt), ref.compute_Fx(state, u, u.dt))
        _close(eskf.compute_Fi(x[6:], rb, u.dt), ref.compute_Fi(state, u, u.dt))
        _close(eskf.compute_H(x), ref.compute_H(state))

        prior = ref.ErrorBelief(np.zeros(12), bank.P[0].copy())
        fix = eskf.update(bank, [(0, ref.z_floats(z))])
        u_ref = ref.update(s_new, prior, z)
        assert (fix.rows == []) == (u_ref is prior)
        if u_ref is prior:
            gated.add(k)
            continue
        _close(np.array(fix.delta[0]), u_ref.delta_mean)
        _close(fix.P[0], u_ref.P)

        eskf.inject_and_reset(bank, fix)
        r_ref = ref.inject_and_reset(s_new, ref.ErrorBelief(np.array(fix.delta[0]), fix.P[0]))
        r_new = ref.state_of(bank)
        for a, b in [(r_new.p, r_ref[0].p), (r_new.v, r_ref[0].v), (r_new.q, r_ref[0].q),
                     (bank.P[0], r_ref[1].P)]:
            _close(a, b)
        _close(eskf.reset_jacobian(fix.delta[0]), ref.reset_jacobian(np.array(fix.delta[0])))
    assert {9, 19, 29, 39, 49} <= gated and len(gated) < 25  # both branches ran


def test_gated_measurement_returns_input_belief():
    # the gate leaves the pair as it was, as the reference returns its input belief
    rng = np.random.default_rng(8)
    state, _, _, _ = _random_step(rng, 0)
    belief = ref.ErrorBelief(np.zeros(12), np.eye(12) * 1e-6)
    z = ref.RawPoseMeasurement(state.p + 10.0, rng.normal(0, 3.0, 3), state.q)
    assert ref.update(state, belief, z) is belief
    bank = ref.bank_of_one(state, belief.P)
    x = bank.x[0]
    fix = eskf.update(bank, [(0, ref.z_floats(z))])
    assert fix.rows == [] and fix.singular == []
    eskf.inject_and_reset(bank, fix)
    assert bank.x[0] is x and np.array_equal(bank.P[0], belief.P)


def test_singular_innovation_as_reference():
    # p = 0, q = identity: P's theta_A block cancels the rotation noise in S
    state = ref.NominalState(p=np.zeros(3), v=np.zeros(3), q=np.array([1.0, 0, 0, 0]))
    P = np.zeros((12, 12))
    P[6:9, 6:9] = -(eskf.ROT_SIGMA**2) * np.eye(3)
    z = ref.RawPoseMeasurement(np.zeros(3), np.zeros(3), state.q.copy())
    with pytest.raises(ref.SingularInnovation):
        ref.update(state, ref.ErrorBelief(np.zeros(12), P), z)
    fix = eskf.update(ref.bank_of_one(state, P), [(0, ref.z_floats(z))])
    assert fix.singular == [0] and fix.rows == []


# -- pose graph -----------------------------------------------------------------


def _random_pose(rng, scale=3.0):
    return Pose(rotmat_from_quat(quat_normalize(rng.normal(size=4))), rng.uniform(-scale, scale, 3))


def _graph(rng, n_nodes, pairs, outlier=None, unreachable=False):
    truth = {k: Pose.identity() if k == 0 else _random_pose(rng) for k in range(n_nodes)}
    edges = []
    for i, j in pairs:
        T = truth[i].inverse().compose(truth[j]).compose(ref.se3_exp(rng.normal(0, 0.03, 6)))
        if (i, j) == outlier:
            T = Pose(T.R, T.t + np.array([4.0, -3.0, 2.0]))
        edges.append(ref.Edge(i, j, ref.orthonormalized(T), float(rng.uniform(0.5, 2.0))))
    nodes = {k: ref.orthonormalized(truth[k].compose(ref.se3_exp(rng.normal(0, 0.1, 6)))) for k in truth}
    if unreachable:
        nodes[n_nodes] = _random_pose(rng)
    return nodes, edges


def _graphs():
    rng = np.random.default_rng(11)
    cases = []
    for n in (3, 4, 5, 6):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.7 or i == 0]
        cases.append(("random", _graph(rng, n, pairs)))
    chain = [(0, 1), (1, 2), (2, 3)]
    cases.append(("unreachable", _graph(rng, 4, chain + [(0, 2)], unreachable=True)))
    cases.append(("outlier", _graph(rng, 4, chain + [(0, 3), (1, 3)], outlier=(1, 3))))
    cases.append(("ego edges only", _graph(rng, 4, [(0, 1), (2, 0), (0, 3)])))
    cases.append(("one edge", _graph(rng, 2, [(1, 0)])))
    return cases


@pytest.mark.parametrize("name,graph", _graphs(), ids=[c[0] for c in _graphs()])
def test_solve_matches_reference(name, graph):
    nodes, edges = graph
    free, T0, stacked = ref.stack_of_one(ref.PoseGraph(0, dict(nodes), list(edges)))
    T, report = pgo.solve(T0, stacked)
    poses = {rid: Pose(T[0, s, :3, :3], T[0, s, :3, 3]) for s, rid in enumerate(free + [0])}
    poses_ref, report_ref = ref.solve(ref.PoseGraph(0, dict(nodes), list(edges)))
    excluded = sorted(set(nodes) - set(poses))
    assert (report.iterations, report.converged, excluded) == (
        report_ref.iterations, report_ref.converged, report_ref.excluded
    )
    assert report.iterations > 0
    _close(report.initial_cost, [report_ref.initial_cost])
    _close(report.final_cost, [report_ref.final_cost])
    assert sorted(poses) == sorted(poses_ref)
    for k in poses:
        _close(poses[k].matrix(), poses_ref[k].matrix())
    if name == "unreachable":
        assert excluded == [len(nodes) - 1]
    if name == "outlier":
        # the outlier edge sits on the linear branch of the Huber loss
        T = poses[1].inverse().compose(poses[3])
        assert edges[-1].weight * pgo.residual(poses[1], poses[3], edges[-1].T_hat) > 0.25
        assert np.linalg.norm(T.t - edges[-1].T_hat.t) > 1.0


@pytest.mark.parametrize("name,graph", _graphs(), ids=[c[0] for c in _graphs()])
def test_batched_cost_is_the_sum_of_edge_residuals(name, graph):
    nodes, edges = graph
    order = sorted(nodes)
    slot = {n: k for k, n in enumerate(order)}
    stacked = pgo._Edges(
        ii=np.array([slot[e.i] for e in edges]),
        jj=np.array([slot[e.j] for e in edges]),
        T_hat=pgo._stack([e.T_hat.R for e in edges], [e.T_hat.t for e in edges]),
        weight=np.array([e.weight for e in edges]),
    )
    _, _, r2 = pgo._residuals(pgo._stack([nodes[n].R for n in order], [nodes[n].t for n in order]), stacked)
    _close(pgo._robust_cost(r2, pgo.HUBER_DELTA), ref.robust_cost(edges, nodes))
