"""Single-frame pose-graph optimization over a robot team.

Nodes are robot poses in the ego robot's frame (ego fixed to identity);
edges are measured pairwise relative poses. The residual per edge is the
squared Frobenius norm of (T_hat_ij * X_j^-1 * X_i - I) over homogeneous
4x4 matrices; an edge is exactly consistent when T_hat_ij equals the pose
of robot j expressed in robot i's frame. Solved by Levenberg-Marquardt on
the SE(3) manifold with analytic Jacobians and Huber reweighting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geom import Pose

# SE(3) right-perturbation generators: d/deps Exp(eps e_k) at 0, 4x4
_GEN = np.zeros((6, 4, 4))
for _k in range(3):
    _GEN[_k, _k, 3] = 1.0  # translation
_GEN[3, 2, 1], _GEN[3, 1, 2] = 1.0, -1.0  # rot x
_GEN[4, 0, 2], _GEN[4, 2, 0] = 1.0, -1.0  # rot y
_GEN[5, 1, 0], _GEN[5, 0, 1] = 1.0, -1.0  # rot z
_SKEW = _GEN[3:, :3, :3].reshape(3, 9)  # [v]x = v @ _SKEW
_EYE3 = np.eye(3)
_DIAG4 = np.arange(4)
_SMALL_ANGLE = (1.0, 0.5, 0.5, 0.0)  # the se3_exp coefficients below 1e-8 rad

HUBER_DELTA = 0.5  # residual r2 above which an edge's loss turns linear in sqrt(r2)
MAX_ITERS = 25  # LM iterations per solve
REL_TOL = 1e-10  # converged when an accepted step lowers the cost by less than this fraction


@dataclass
class Edge:
    i: int
    j: int
    T_hat: Pose
    weight: float = 1.0


@dataclass
class PoseGraph:
    ego: int
    nodes: dict[int, Pose]
    edges: list[Edge] = field(default_factory=list)

    def __post_init__(self):
        if self.ego not in self.nodes:
            self.nodes[self.ego] = Pose.identity()
        for e in self.edges:
            if e.i == e.j:
                raise ValueError("self-edges are not allowed")

    def connected_nodes(self) -> set[int]:
        """Nodes reachable from the ego through edges."""
        adj: dict[int, set[int]] = {}
        for e in self.edges:
            adj.setdefault(e.i, set()).add(e.j)
            adj.setdefault(e.j, set()).add(e.i)
        seen = {self.ego}
        stack = [self.ego]
        while stack:
            for n in adj.get(stack.pop(), ()):
                if n not in seen:
                    seen.add(n)
                    stack.append(n)
        return seen


@dataclass
class SolveReport:
    initial_cost: float
    final_cost: float
    iterations: int
    converged: bool
    excluded: list[int] = field(default_factory=list)


def residual(X_i: Pose, X_j: Pose, T_hat_ij: Pose) -> float:
    """Chordal residual ||T_hat_ij (X_j^-1 X_i) - I||_F^2."""
    E = T_hat_ij.matrix() @ X_j.inverse().matrix() @ X_i.matrix() - np.eye(4)
    return float(np.sum(E * E))


# -- stacked edges --------------------------------------------------------------
# The solver keeps the nodes as one (n, 4, 4) stack of homogeneous matrices
# and the edges as index arrays into it, so that every residual, Jacobian and
# trial cost of an iteration is a handful of batched array operations.


@dataclass
class _Edges:
    ii: np.ndarray  # (E,) node slot of X_i
    jj: np.ndarray  # (E,) node slot of X_j
    T_hat: np.ndarray  # (E, 4, 4)
    weight: np.ndarray  # (E,)


def _stack(poses) -> np.ndarray:
    """(n, 4, 4) homogeneous matrices of a sequence of poses."""
    T = np.zeros((len(poses), 4, 4))
    T[:, :3, :3] = [p.R for p in poses]
    T[:, :3, 3] = [p.t for p in poses]
    T[:, 3, 3] = 1.0
    return T


def _inverse(T: np.ndarray) -> np.ndarray:
    R_T = T[:, :3, :3].transpose(0, 2, 1)
    T_inv = np.zeros_like(T)
    T_inv[:, :3, :3] = R_T
    T_inv[:, :3, 3] = -(R_T @ T[:, :3, 3:])[:, :, 0]
    T_inv[:, 3, 3] = 1.0
    return T_inv


def _residuals(T: np.ndarray, edges: _Edges) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """N = X_j^-1 X_i, E = T_hat N - I and the weighted r2 of every edge."""
    N = _inverse(T)[edges.jj] @ T[edges.ii]
    E = edges.T_hat @ N
    E[:, _DIAG4, _DIAG4] -= 1.0
    r2 = edges.weight * np.einsum("eab,eab->e", E, E)
    return N, E, r2


def _robust_cost(r2: np.ndarray, delta: float) -> float:
    """Sum of Huber(r2): r2 inside delta, 2 delta sqrt(r2) - delta^2 outside."""
    s = np.sqrt(np.maximum(r2, 0.0))
    return float(np.where(s <= delta, r2, 2.0 * delta * s - delta * delta).sum())


def _se3_exp(xi: np.ndarray) -> np.ndarray:
    """(n, 4, 4) homogeneous matrices of `geom.se3_exp` of each row of xi (n, 6).

    With K = [theta / a]x and a = |theta|: R = I + sin(a) K + (1 - cos a) K^2
    and t = (I + (1 - cos a)/a K + (a - sin a)/a K^2) rho. Below 1e-8 rad,
    K = [theta]x and both maps are taken to first order, as `geom` does.
    """
    n = len(xi)
    theta = xi[:, 3:]
    a = np.sqrt(np.einsum("ij,ij->i", theta, theta))
    small = a < 1e-8
    a[small] = 1.0
    K = ((theta / a[:, None]) @ _SKEW).reshape(n, 3, 3)
    sin, one_cos = np.sin(a), 1.0 - np.cos(a)
    coef = np.stack((sin, one_cos, one_cos / a, (a - sin) / a), axis=1)
    coef[small] = _SMALL_ANGLE
    # [R - I; V - I] = coef (2x2) @ [K; K^2], row by row
    KK = np.stack((K, K @ K), axis=1).reshape(n, 2, 9)
    RV = (coef.reshape(n, 2, 2) @ KK).reshape(n, 2, 3, 3) + _EYE3
    out = np.zeros((n, 4, 4))
    out[:, :3, :3] = RV[:, 0]
    out[:, :3, 3] = (RV[:, 1] @ xi[:, :3, None])[:, :, 0]
    out[:, 3, 3] = 1.0
    return out


def _retract(T: np.ndarray, step: np.ndarray) -> np.ndarray:
    """X Exp(step) for every node, its rotation re-orthonormalized by SVD."""
    out = T @ _se3_exp(step)
    u, _, vt = np.linalg.svd(out[:, :3, :3])
    R = u @ vt
    flip = np.linalg.det(R) < 0
    if flip.any():
        u[flip, :, 2] *= -1.0
        R[flip] = u[flip] @ vt[flip]
    out[:, :3, :3] = R
    return out


def solve(graph: PoseGraph) -> tuple[dict[int, Pose], SolveReport]:
    """LM over the free (non-ego) poses; ego stays pinned to identity.

    Returns optimized poses and a report. Nodes unreachable from the ego
    are excluded (listed in the report).
    """
    reachable = graph.connected_nodes()
    excluded = sorted(set(graph.nodes) - reachable)
    free = sorted(n for n in reachable if n != graph.ego)
    edge_list = [e for e in graph.edges if e.i in reachable and e.j in reachable]
    if not free or not edge_list:
        poses = {n: Pose(graph.nodes[n].R.copy(), graph.nodes[n].t.copy()) for n in reachable}
        poses[graph.ego] = Pose.identity()
        return poses, SolveReport(0.0, 0.0, 0, True, excluded)

    # slots 0..n-1 hold the free nodes, slot n the ego
    n = len(free)
    slot = {node: k for k, node in enumerate(free)}
    slot[graph.ego] = n
    T = _stack([graph.nodes[node] for node in free] + [Pose.identity()])
    edges = _Edges(
        ii=np.array([slot[e.i] for e in edge_list]),
        jj=np.array([slot[e.j] for e in edge_list]),
        T_hat=_stack([e.T_hat for e in edge_list]),
        weight=np.array([e.weight for e in edge_list], dtype=float),
    )
    rows = np.arange(len(edge_list))
    delta = HUBER_DELTA

    N, E, r2 = _residuals(T, edges)
    cost = _robust_cost(r2, delta)
    initial_cost = cost
    lam = 1e-6
    converged = False
    it = 0
    for it in range(1, MAX_ITERS + 1):
        # analytic Jacobians of every edge w.r.t. X_i <- X_i Exp(eps) and
        # X_j <- X_j Exp(eps): dE = M G_k and dE = -T_hat G_k N, M = T_hat N
        M = E.copy()
        M[:, _DIAG4, _DIAG4] += 1.0
        J = np.zeros((n + 1, 6, len(edge_list), 16))
        J[edges.ii, :, rows] = (M[:, None] @ _GEN).reshape(-1, 6, 16)
        J[edges.jj, :, rows] = -(edges.T_hat[:, None] @ _GEN @ N[:, None]).reshape(-1, 6, 16)
        J = J[:n].reshape(6 * n, -1)  # one row per parameter; the ego slot has none
        # IRLS Huber weights, one per residual entry
        s = np.sqrt(np.maximum(r2, 1e-300))
        w = np.repeat(edges.weight * np.where(s <= delta, 1.0, delta / s), 16)
        Jw = J * w
        JtJ = Jw @ J.T
        Jtr = Jw @ E.reshape(-1)

        accepted = False
        for _ in range(12):
            A = JtJ + lam * np.diag(np.maximum(np.diag(JtJ), 1e-12))
            try:
                step = np.linalg.solve(A, -Jtr)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            trial = T.copy()
            trial[:n] = _retract(T[:n], step.reshape(n, 6))
            trial_N, trial_E, trial_r2 = _residuals(trial, edges)
            trial_cost = _robust_cost(trial_r2, delta)
            if trial_cost < cost:
                T, N, E, r2 = trial, trial_N, trial_E, trial_r2
                lam = max(lam * 0.3, 1e-12)
                accepted = True
                improvement = cost - trial_cost
                cost = trial_cost
                break
            lam *= 10.0
        if not accepted:
            converged = True  # no descent direction left
            break
        if improvement <= REL_TOL * max(cost, 1e-300) or cost < 1e-24:
            converged = True
            break

    poses = {
        node: Pose(T[slot[node], :3, :3], T[slot[node], :3, 3]) for node in reachable
    }
    poses[graph.ego] = Pose.identity()
    return poses, SolveReport(initial_cost, cost, it, converged, excluded)


def edges_from_filters(ego: int, estimates: dict[tuple[int, int], Pose]) -> PoseGraph:
    """Build an ego-frame graph from pairwise estimates.

    estimates[(i, j)] is the pose of robot j in robot i's frame (the output
    frame of robot i's filter tracking j). Ego-observed robots initialize
    from the direct estimate; others are initialized by composing along any
    available edge path from the ego.
    """
    nodes: dict[int, Pose] = {ego: Pose.identity()}
    edges = [Edge(i, j, T) for (i, j), T in estimates.items()]
    # init by BFS composition from ego
    adj: dict[int, list[tuple[int, Pose]]] = {}
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


def dump_graph(graph: PoseGraph) -> str:
    """Line-based text dump: NODE id tx ty tz qw qx qy qz / EDGE i j ... w."""
    from .geom import quat_from_rotmat

    lines = [f"EGO {graph.ego}"]
    for n in sorted(graph.nodes):
        p = graph.nodes[n]
        q = quat_from_rotmat(p.R)
        vals = " ".join(f"{x:.17g}" for x in (*p.t, *q))
        lines.append(f"NODE {n} {vals}")
    for e in graph.edges:
        q = quat_from_rotmat(e.T_hat.R)
        vals = " ".join(f"{x:.17g}" for x in (*e.T_hat.t, *q))
        lines.append(f"EDGE {e.i} {e.j} {vals} {e.weight:.17g}")
    return "\n".join(lines) + "\n"


def load_graph(text: str) -> PoseGraph:
    from .geom import rotmat_from_quat

    ego = None
    nodes: dict[int, Pose] = {}
    edges: list[Edge] = []
    for line in text.strip().splitlines():
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "EGO":
            ego = int(parts[1])
        elif parts[0] == "NODE":
            n = int(parts[1])
            t = np.array([float(x) for x in parts[2:5]])
            q = np.array([float(x) for x in parts[5:9]])
            nodes[n] = Pose(rotmat_from_quat(q), t)
        elif parts[0] == "EDGE":
            i, j = int(parts[1]), int(parts[2])
            t = np.array([float(x) for x in parts[3:6]])
            q = np.array([float(x) for x in parts[6:10]])
            edges.append(Edge(i, j, Pose(rotmat_from_quat(q), t), float(parts[10])))
        else:
            raise ValueError(f"unrecognized graph line: {line!r}")
    if ego is None:
        raise ValueError("graph dump missing EGO line")
    return PoseGraph(ego=ego, nodes=nodes, edges=edges)
