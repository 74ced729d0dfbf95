"""The filter step and the pose-graph solve as they were first written.

`predict`, `update`, `inject_and_reset` and `solve` build every rotation
through the `geom` helpers, assemble the filter Jacobians block by block and
linearize each pose-graph edge in its own Python loop. They are the reference
that the structured code in `relpose.eskf` and `relpose.pgo` must match, and
they read the same measurement noise, gate and solver constants from those
modules. The process noise is built here from the `NoiseParams` densities
(`input_noise`), as a full Fi QI Fi', not as the bank's diagonal shortcut.
`edges_from_filters` builds one frame's pose graph from `Pose` objects, as
the runner did before it stacked a chunk's graphs (`pgo.initial_stack`), and
`stack_of_one` hands such a graph to `pgo.solve`. `se3_exp` and
`orthonormalized` are the one-pose retraction the reference solve takes, and
that `pgo` takes for a stack of poses.

The reference filter works on one pair's `NominalState` (arrays p, v, q),
`ErrorBelief`, `ImuPairInput` and `RawPoseMeasurement`. The filter bank
keeps a pair's state as 10 floats and each robot's IMU row as 6: `floats`,
`bank_of_one`, `state_of`, `imu_rows` and `z_floats` move a pair, its inputs
and its measurements between the two forms.
"""

from dataclasses import dataclass, field

import numpy as np

from relpose.eskf import CHI2_9_999, ROT_SIGMA, FilterBank
from relpose.geom import (
    Pose,
    quat_conj,
    quat_from_rotvec,
    quat_mul,
    quat_normalize,
    rotmat_from_quat,
    rotmat_from_rotvec,
    rotvec_from_quat,
    skew,
)
from relpose.pgo import _GEN, HUBER_DELTA, MAX_ITERS, REL_TOL, _Edges, residual
from relpose.world import NoiseParams


@dataclass
class NominalState:
    """One pair's nominal state as arrays."""

    p: np.ndarray
    v: np.ndarray
    q: np.ndarray
    t: float = 0.0


@dataclass
class ImuPairInput:
    """Both robots' IMU samples over one step of dt."""

    a_ma: np.ndarray  # A's specific force, body frame, m/s^2
    w_ma: np.ndarray  # A's angular rate, rad/s
    a_mb: np.ndarray
    w_mb: np.ndarray
    dt: float


@dataclass
class RawPoseMeasurement:
    """Measurement vector for the filter: positions both ways + rotation."""

    p_ba: np.ndarray  # position of A in B's frame, meters
    p_ab: np.ndarray  # position of B in A's frame, meters
    q_ba: np.ndarray  # unit quaternion of A's frame in B's frame
    t: float = 0.0


@dataclass
class ErrorBelief:
    delta_mean: np.ndarray  # 12-vector, zero outside the update->reset window
    P: np.ndarray  # 12x12


class SingularInnovation(np.linalg.LinAlgError):
    """HPH' + V not invertible."""


def floats(state) -> tuple:
    """A `NominalState` as the 10 floats (p, v, q) the filter bank keeps."""
    return (*state.p.tolist(), *state.v.tolist(), *state.q.tolist())


def bank_of_one(state, P, dt=0.01) -> FilterBank:
    """A bank whose one pair (A's IMU row 0, B's row 1) has this state and P,
    stepping every dt s with the default `NoiseParams`."""
    bank = FilterBank([(0, 1)], NoiseParams(), dt)
    bank.x[0] = floats(state)
    bank.P[0] = P
    return bank


def state_of(bank, n=0, t=0.0) -> NominalState:
    x = np.array(bank.x[n])
    return NominalState(x[:3], x[3:6], x[6:], t)


def imu_rows(u) -> list:
    """`ImuPairInput` u as the IMU rows of a bank of one: A's, then B's."""
    return [[*map(float, u.a_ma), *map(float, u.w_ma)], [*map(float, u.a_mb), *map(float, u.w_mb)]]


def z_floats(z) -> list:
    """A `RawPoseMeasurement` as the 10 floats the filter bank takes."""
    return [*z.p_ba.tolist(), *z.p_ab.tolist(), *z.q_ba.tolist()]


def input_noise(dt, noise=NoiseParams()):
    """Covariance of [a_nA, w_nA, a_nB, w_nB] over a step of dt: each axis's
    discrete white noise has variance density^2 / dt."""
    a, w = noise.accel_density_si**2 / dt, noise.gyro_density_si**2 / dt
    return np.diag([a] * 3 + [w] * 3 + [a] * 3 + [w] * 3)


def compute_Fx(state, u, dt):
    Rq = rotmat_from_quat(state.q)
    Ra_T = rotmat_from_rotvec(u.w_ma * dt).T
    Rb_T = rotmat_from_rotvec(u.w_mb * dt).T
    F = np.zeros((12, 12))
    F[0:3, 0:3] = Rb_T
    F[0:3, 3:6] = Rb_T * dt
    F[3:6, 3:6] = Rb_T
    F[3:6, 6:9] = -Rb_T @ Rq @ skew(u.a_ma) * dt
    F[3:6, 9:12] = Rb_T @ skew(u.a_mb) * dt
    F[6:9, 6:9] = Ra_T
    F[9:12, 9:12] = Rb_T
    return F


def compute_Fi(state, u, dt):
    Rq = rotmat_from_quat(state.q)
    Rb_T = rotmat_from_rotvec(u.w_mb * dt).T
    Fi = np.zeros((12, 12))
    Fi[3:6, 0:3] = -Rb_T @ Rq * dt
    Fi[6:9, 3:6] = -np.eye(3) * dt
    Fi[3:6, 6:9] = Rb_T * dt
    Fi[9:12, 9:12] = -np.eye(3) * dt
    return Fi


def predict(state, belief, u):
    dt = u.dt
    Rq = rotmat_from_quat(state.q)
    rel_acc = Rq @ u.a_ma - u.a_mb
    Rb_T = rotmat_from_rotvec(u.w_mb * dt).T
    p = Rb_T @ (state.p + state.v * dt + 0.5 * rel_acc * dt * dt)
    v = Rb_T @ (state.v + rel_acc * dt)
    q = quat_mul(
        quat_mul(quat_conj(quat_from_rotvec(u.w_mb * dt)), state.q),
        quat_from_rotvec(u.w_ma * dt),
    )
    Fx = compute_Fx(state, u, dt)
    Fi = compute_Fi(state, u, dt)
    delta = Fx @ belief.delta_mean
    P = Fx @ belief.P @ Fx.T + Fi @ input_noise(dt) @ Fi.T
    P = 0.5 * (P + P.T)
    return NominalState(p, v, quat_normalize(q), state.t + dt), ErrorBelief(delta, P)


def compute_H(state):
    Rq = rotmat_from_quat(state.q)
    H = np.zeros((9, 12))
    H[0:3, 0:3] = np.eye(3)
    H[0:3, 9:12] = skew(state.p)
    H[3:6, 0:3] = -Rq.T
    H[3:6, 6:9] = -skew(Rq.T @ state.p)
    H[6:9, 6:9] = np.eye(3)
    H[6:9, 9:12] = -Rq.T
    return H


def innovation(state, z):
    Rq = rotmat_from_quat(state.q)
    rot_res = rotvec_from_quat(quat_mul(quat_conj(state.q), z.q_ba))
    return np.concatenate([z.p_ba - state.p, z.p_ab - (-Rq.T @ state.p), rot_res])


def update(state, belief, z):
    H = compute_H(state)
    sp2 = max(0.05, 0.02 * float(np.linalg.norm(z.p_ba))) ** 2
    V = np.diag([sp2] * 6 + [ROT_SIGMA**2] * 3)
    S = H @ belief.P @ H.T + V
    y = innovation(state, z)
    try:
        Sinv_y = np.linalg.solve(S, y)
        Sinv_Ht = np.linalg.solve(S, H @ belief.P)
    except np.linalg.LinAlgError as e:
        raise SingularInnovation(str(e)) from e
    if float(y @ Sinv_y) > CHI2_9_999:
        return belief
    K = Sinv_Ht.T
    delta = K @ y
    P = (np.eye(12) - K @ H) @ belief.P
    P = 0.5 * (P + P.T)
    return ErrorBelief(delta, P)


def reset_jacobian(delta_hat):
    Rb_T = rotmat_from_rotvec(delta_hat[9:12]).T
    G = np.zeros((12, 12))
    G[0:3, 0:3] = Rb_T
    G[3:6, 3:6] = Rb_T
    G[6:9, 6:9] = np.eye(3) - skew(0.5 * delta_hat[6:9])
    G[9:12, 9:12] = np.eye(3) - skew(0.5 * delta_hat[9:12])
    return G


def true_state(state, belief):
    d = belief.delta_mean
    Rb_T = rotmat_from_rotvec(d[9:12]).T
    p = Rb_T @ (state.p + d[0:3])
    v = Rb_T @ (state.v + d[3:6])
    q = quat_mul(
        quat_mul(quat_conj(quat_from_rotvec(d[9:12])), state.q), quat_from_rotvec(d[6:9])
    )
    return NominalState(p, v, quat_normalize(q), state.t)


def inject_and_reset(state, belief):
    new_state = true_state(state, belief)
    G = reset_jacobian(belief.delta_mean)
    P = G @ belief.P @ G.T
    return new_state, ErrorBelief(np.zeros(12), 0.5 * (P + P.T))


def se3_exp(xi) -> Pose:
    """Exponential of a twist [rho(3), theta(3)] onto SE(3)."""
    xi = np.asarray(xi, dtype=float)
    rho, theta = xi[:3], xi[3:]
    R = rotmat_from_rotvec(theta)
    a = np.linalg.norm(theta)
    if a < 1e-8:
        V = np.eye(3) + 0.5 * skew(theta)
    else:
        K = skew(theta / a)
        V = np.eye(3) + ((1 - np.cos(a)) / a) * K + ((a - np.sin(a)) / a) * (K @ K)
    return Pose(R, V @ rho)


def orthonormalized(T: Pose) -> Pose:
    """T with its rotation projected back onto SO(3) by SVD."""
    u, _, vt = np.linalg.svd(T.R)
    R = u @ vt
    if np.linalg.det(R) < 0:
        R = u @ np.diag([1.0, 1.0, -1.0]) @ vt
    return Pose(R, T.t.copy())


@dataclass
class Edge:
    i: int
    j: int
    T_hat: Pose
    weight: float = 1.0


@dataclass
class PoseGraph:
    ego: int
    nodes: dict
    edges: list = field(default_factory=list)

    def __post_init__(self):
        if self.ego not in self.nodes:
            self.nodes[self.ego] = Pose.identity()


@dataclass
class SolveReport:
    initial_cost: float
    final_cost: float
    iterations: int
    converged: bool
    excluded: list = field(default_factory=list)


def _huber_weight(r2, delta):
    s = np.sqrt(max(r2, 1e-300))
    return 1.0 if s <= delta else delta / s


def robust_cost(edges, poses):
    """Sum over edges of Huber(weight * residual), one edge at a time."""
    c = 0.0
    for e in edges:
        r2 = e.weight * residual(poses[e.i], poses[e.j], e.T_hat)
        s = np.sqrt(max(r2, 0.0))
        d = HUBER_DELTA
        c += r2 if s <= d else 2.0 * d * s - d * d
    return c


def connected_nodes(graph):
    """Nodes reachable from the ego through edges."""
    adj = {}
    for e in graph.edges:
        adj.setdefault(e.i, set()).add(e.j)
        adj.setdefault(e.j, set()).add(e.i)
    seen = {graph.ego}
    stack = [graph.ego]
    while stack:
        for n in adj.get(stack.pop(), ()):
            if n not in seen:
                seen.add(n)
                stack.append(n)
    return seen


def solve(graph):
    reachable = connected_nodes(graph)
    excluded = sorted(set(graph.nodes) - reachable)
    free = sorted(n for n in reachable if n != graph.ego)
    poses = {n: Pose(graph.nodes[n].R.copy(), graph.nodes[n].t.copy()) for n in reachable}
    poses[graph.ego] = Pose.identity()
    edges = [e for e in graph.edges if e.i in reachable and e.j in reachable]
    if not free or not edges:
        return poses, SolveReport(0.0, 0.0, 0, True, excluded)

    idx = {n: k for k, n in enumerate(free)}
    n_params = 6 * len(free)
    cost = robust_cost(edges, poses)
    initial_cost = cost
    lam = 1e-6
    converged = False
    it = 0
    for it in range(1, MAX_ITERS + 1):
        JtJ = np.zeros((n_params, n_params))
        Jtr = np.zeros(n_params)
        for e in edges:
            Ti = poses[e.i].matrix()
            Tj_inv = poses[e.j].inverse().matrix()
            Th = e.T_hat.matrix()
            M = Th @ Tj_inv @ Ti
            E = M - np.eye(4)
            r2 = e.weight * float(np.sum(E * E))
            w = e.weight * _huber_weight(r2, HUBER_DELTA)
            r = E.reshape(-1)
            blocks = []
            if e.i != graph.ego:
                Ji = np.stack([(M @ _GEN[k]).reshape(-1) for k in range(6)], axis=1)
                blocks.append((idx[e.i], Ji))
            if e.j != graph.ego:
                Jj = np.stack(
                    [(-Th @ _GEN[k] @ Tj_inv @ Ti).reshape(-1) for k in range(6)], axis=1
                )
                blocks.append((idx[e.j], Jj))
            for bi, Jb in blocks:
                Jtr[6 * bi : 6 * bi + 6] += w * (Jb.T @ r)
                for bj, Jb2 in blocks:
                    JtJ[6 * bi : 6 * bi + 6, 6 * bj : 6 * bj + 6] += w * (Jb.T @ Jb2)

        accepted = False
        for _ in range(12):
            A = JtJ + lam * np.diag(np.maximum(np.diag(JtJ), 1e-12))
            try:
                step = np.linalg.solve(A, -Jtr)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            trial = dict(poses)
            for n in free:
                k = idx[n]
                trial[n] = orthonormalized(poses[n].compose(se3_exp(step[6 * k : 6 * k + 6])))
            trial_cost = robust_cost(edges, trial)
            if trial_cost < cost:
                poses = trial
                lam = max(lam * 0.3, 1e-12)
                accepted = True
                improvement = cost - trial_cost
                cost = trial_cost
                break
            lam *= 10.0
        if not accepted:
            converged = True
            break
        if improvement <= REL_TOL * max(cost, 1e-300) or cost < 1e-24:
            converged = True
            break

    return poses, SolveReport(initial_cost, cost, it, converged, excluded)


def edges_from_filters(ego, estimates):
    """Build an ego-frame graph from pairwise estimates.

    estimates[(i, j)] is the pose of robot j in robot i's frame (the output
    frame of robot i's filter tracking j). Ego-observed robots initialize
    from the direct estimate; others are initialized by composing along any
    available edge path from the ego.
    """
    nodes = {ego: Pose.identity()}
    edges = [Edge(i, j, T) for (i, j), T in estimates.items()]
    # init by BFS composition from ego
    adj = {}
    for (i, j), T in estimates.items():
        adj.setdefault(i, []).append((j, T))
        adj.setdefault(j, []).append((i, T.inverse()))
    frontier = [ego]
    while frontier:
        cur = frontier.pop(0)
        for nb, T in adj.get(cur, ()):
            if nb not in nodes:
                nodes[nb] = nodes[cur].compose(T)
                frontier.append(nb)
    return PoseGraph(ego=ego, nodes=nodes, edges=edges)


def stack_of_one(graph):
    """The graph as `pgo.solve` takes it: the robots its edges reach from the ego (free, in id
    order), their nodes (1, n+1, 4, 4) with the ego's last, and the edges among them; None if the
    edges reach no robot."""
    reach = connected_nodes(graph)
    free = sorted(reach - {graph.ego})
    if not free:
        return None
    slot = {rid: s for s, rid in enumerate(free + [graph.ego])}
    edges = [e for e in graph.edges if e.i in reach]
    T = np.stack([graph.nodes[rid].matrix() for rid in free] + [np.eye(4)])[None]
    return free, T, _Edges(
        np.array([slot[e.i] for e in edges], dtype=np.intp),
        np.array([slot[e.j] for e in edges], dtype=np.intp),
        np.stack([e.T_hat.matrix() for e in edges])[None],
        np.array([[e.weight for e in edges]], dtype=float),
    )
