"""Pose-graph optimization over a robot team, solved as stacks of graphs.

Nodes are robot poses in the ego robot's frame (ego fixed to identity);
edges are measured pairwise relative poses. The residual per edge is the
squared Frobenius norm of (T_hat_ij * X_j^-1 * X_i - I) over homogeneous
4x4 matrices; an edge is exactly consistent when T_hat_ij equals the pose
of robot j expressed in robot i's frame. Solved by Levenberg-Marquardt on
the SE(3) manifold with analytic Jacobians and Huber reweighting.

`initial_stack` builds a stack of graphs with the same edges from pair
estimates, and `solve` solves each graph of it as it would solve that graph
alone. The runner stacks a chunk's graphs per edge mask; one graph is a
stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geom import Pose, rotmats_from_quats

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
_SMALL_ANGLE = (1.0, 0.5, 0.5, 0.0)  # below 1e-8 rad: the first-order coefficients of the reference se3_exp

HUBER_DELTA = 0.5  # residual r2 above which an edge's loss turns linear in sqrt(r2)
MAX_ITERS = 25  # LM iterations per solve
REL_TOL = 1e-10  # converged when an accepted step lowers the cost by less than this fraction
JACOBIAN_BYTES = 1 << 18  # a stack builds its dense Jacobians at most this many bytes at a time


@dataclass
class SolveReport:
    """A stack's totals, then the per-graph arrays (B,) they sum up."""
    iterations: int  # summed over the graphs
    converged: bool  # every graph converged
    graph_iterations: np.ndarray
    graph_converged: np.ndarray
    initial_cost: np.ndarray
    final_cost: np.ndarray


def residual(X_i: Pose, X_j: Pose, T_hat_ij: Pose) -> float:
    """Chordal residual ||T_hat_ij (X_j^-1 X_i) - I||_F^2."""
    E = T_hat_ij.matrix() @ X_j.inverse().matrix() @ X_i.matrix() - np.eye(4)
    return float(np.sum(E * E))


# -- stacked edges --------------------------------------------------------------
# Each graph's nodes are one (n, 4, 4) stack of homogeneous matrices, its edges
# index arrays into it, and the graphs are stacked: every residual, Jacobian and
# trial cost of an iteration is a handful of batched array operations.


@dataclass
class _Edges:
    ii: np.ndarray  # (E,) node slot of X_i
    jj: np.ndarray  # (E,) node slot of X_j
    T_hat: np.ndarray  # (..., E, 4, 4)
    weight: np.ndarray  # (..., E)


def _stack(R, t) -> np.ndarray:
    """(..., 4, 4) homogeneous matrices of rotations R (..., 3, 3) and translations t (..., 3)."""
    T = np.zeros(np.shape(R)[:-2] + (4, 4))
    T[..., :3, :3], T[..., :3, 3], T[..., 3, 3] = R, t, 1.0
    return T


def _inverse(T: np.ndarray) -> np.ndarray:
    R_T = T[..., :3, :3].swapaxes(-1, -2)
    T_inv = np.zeros_like(T)
    T_inv[..., :3, :3] = R_T
    T_inv[..., :3, 3] = -(R_T @ T[..., :3, 3:])[..., 0]
    T_inv[..., 3, 3] = 1.0
    return T_inv


def _residuals(T: np.ndarray, edges: _Edges) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """N = X_j^-1 X_i, E = T_hat N - I and the weighted r2 of every edge."""
    N = _inverse(T)[..., edges.jj, :, :] @ T[..., edges.ii, :, :]
    E = edges.T_hat @ N
    E[..., _DIAG4, _DIAG4] -= 1.0
    r2 = edges.weight * np.einsum("...ab,...ab->...", E, E)
    return N, E, r2


def _robust_cost(r2: np.ndarray, delta: float) -> np.ndarray:
    """Sum over the last axis of Huber(r2): r2 inside delta, 2 delta sqrt(r2) - delta^2 outside."""
    s = np.sqrt(np.maximum(r2, 0.0))
    return np.where(s <= delta, r2, 2.0 * delta * s - delta * delta).sum(axis=-1)


def _se3_exp(xi: np.ndarray) -> np.ndarray:
    """(n, 4, 4) homogeneous matrices of the SE(3) exponential of each twist
    [rho, theta] in the rows of xi (n, 6), as `se3_exp` in the test reference
    (`tests/estimator_reference.py`) takes it for one twist.

    With K = [theta / a]x and a = |theta|: R = I + sin(a) K + (1 - cos a) K^2
    and t = (I + (1 - cos a)/a K + (a - sin a)/a K^2) rho. Below 1e-8 rad,
    K = [theta]x and both maps are taken to first order, as the reference does.
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


def _normal_equations(N, E, r2, edges: _Edges, n: int) -> tuple[np.ndarray, np.ndarray]:
    """J^T W J (b, 6n, 6n) and J^T W r (b, 6n) of b graphs, W the IRLS Huber weights.

    Analytic Jacobians of every edge w.r.t. X_i <- X_i Exp(eps) and
    X_j <- X_j Exp(eps): dE = M G_k and dE = -T_hat G_k N, M = T_hat N.
    """
    b, m = r2.shape
    M = E.copy()
    M[..., _DIAG4, _DIAG4] += 1.0
    dE_i = (M[:, :, None] @ _GEN).reshape(b, m, 6, 16)
    dE_j = -(edges.T_hat[:, :, None] @ _GEN @ N[:, :, None]).reshape(b, m, 6, 16)
    # one row per parameter, one column per residual entry; the ego slot has no rows
    J = np.zeros((b, n, 6, m, 16))
    for slots, dE in ((edges.ii, dE_i), (edges.jj, dE_j)):
        free = slots < n
        J[:, slots[free], :, np.flatnonzero(free)] = dE[:, free].swapaxes(0, 1)
    J = J.reshape(b, 6 * n, 16 * m)
    s = np.sqrt(np.maximum(r2, 1e-300))
    Jw = J * np.repeat(edges.weight * np.where(s <= HUBER_DELTA, 1.0, HUBER_DELTA / s), 16, axis=1)[:, None]
    return Jw @ J.transpose(0, 2, 1), (Jw @ E.reshape(b, -1, 1))[:, :, 0]


def _damped_steps(A: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each system's solution of A x = rhs, and which were not singular; one singular
    matrix makes the batched solve raise, and each system is then solved alone."""
    try:
        return np.linalg.solve(A, rhs[:, :, None])[:, :, 0], np.ones(len(A), dtype=bool)
    except np.linalg.LinAlgError:
        if len(A) == 1:
            return np.zeros_like(rhs), np.zeros(1, dtype=bool)
        steps, ok = zip(*(_damped_steps(A[k : k + 1], rhs[k : k + 1]) for k in range(len(A))))
        return np.concatenate(steps), np.concatenate(ok)


def solve(T: np.ndarray, edges: _Edges) -> tuple[np.ndarray, SolveReport]:
    """LM over a stack of B graphs with the same edges: nodes T (B, n+1, 4, 4), the ego's last.

    Each graph keeps its own damping, tries, iteration count and stop tests,
    as masks over the stack, and takes the steps it takes alone.
    """
    T = T.copy()
    B, n = T.shape[0], T.shape[1] - 1
    N, E, r2 = _residuals(T, edges)
    cost = _robust_cost(r2, HUBER_DELTA)
    initial_cost, lam = cost.copy(), np.full(B, 1e-6)
    iterations, converged = np.zeros(B, dtype=int), np.zeros(B, dtype=bool)
    ii, jj, diag = edges.ii, edges.jj, np.arange(6 * n)
    per_slice = max(JACOBIAN_BYTES // (6 * n * 16 * len(ii) * 8), 1)
    live = np.arange(B)  # the graphs still iterating
    for it in range(1, MAX_ITERS + 1):
        iterations[live] = it
        b = live.size
        JtJ, Jtr = np.empty((b, 6 * n, 6 * n)), np.empty((b, 6 * n))
        for k in range(0, b, per_slice):  # the dense Jacobians of a slice at a time
            g, rows = live[k : k + per_slice], slice(k, k + per_slice)
            stacked = _Edges(ii, jj, edges.T_hat[g], edges.weight[g])
            JtJ[rows], Jtr[rows] = _normal_equations(N[g], E[g], r2[g], stacked, n)
        D = np.zeros_like(JtJ)
        D[:, diag, diag] = np.maximum(JtJ[:, diag, diag], 1e-12)
        gain = np.full(b, np.nan)  # NaN until a step is accepted, then its cost decrease (> 0)
        trying = np.arange(b)  # rows of `live` without an accepted step
        for _ in range(12):
            g = live[trying]
            step, ok = _damped_steps(JtJ[trying] + lam[g, None, None] * D[trying], -Jtr[trying])
            lam[g[~ok]] *= 10.0
            g, rows = g[ok], trying[ok]
            trial = T[g]
            free = _retract(trial[:, :n].reshape(-1, 4, 4), step[ok].reshape(-1, 6))
            trial[:, :n] = free.reshape(-1, n, 4, 4)
            trial_N, trial_E, trial_r2 = _residuals(trial, _Edges(ii, jj, edges.T_hat[g], edges.weight[g]))
            trial_cost = _robust_cost(trial_r2, HUBER_DELTA)
            down = trial_cost < cost[g]
            a = g[down]
            gain[rows[down]] = cost[a] - trial_cost[down]
            T[a], N[a], E[a] = trial[down], trial_N[down], trial_E[down]
            r2[a], cost[a] = trial_r2[down], trial_cost[down]
            lam[a] = np.maximum(lam[a] * 0.3, 1e-12)
            lam[g[~down]] *= 10.0
            trying = trying[np.isnan(gain[trying])]
            if not trying.size:
                break
        # converged: no descent direction left, or too small a decrease
        c = cost[live]
        done = np.isnan(gain) | (gain <= REL_TOL * np.maximum(c, 1e-300)) | (c < 1e-24)
        converged[live[done]] = True
        live = live[~done]
        if not live.size:
            break
    totals = int(iterations.sum()), bool(converged.all())
    return T, SolveReport(*totals, iterations, converged, initial_cost, cost)


def _topology(ego: int, pairs: list) -> tuple | None:
    """The robots the edges (i, j) reach from the ego, in id order; the BFS steps (parent,
    child, edge, inverted) that first reach them, adjacency in edge order, first in first out;
    the edges among them and their node slots ii, jj, the ego's last. None if they reach none."""
    adj: dict[int, list] = {}
    for k, (i, j) in enumerate(pairs):
        adj.setdefault(i, []).append((j, k, False))
        adj.setdefault(j, []).append((i, k, True))
    seen, tree, frontier = {ego}, [], [ego]
    while frontier:
        cur = frontier.pop(0)
        for nb, k, inverted in adj.get(cur, ()):
            if nb not in seen:
                seen.add(nb)
                tree.append((cur, nb, k, inverted))
                frontier.append(nb)
    free = sorted(seen - {ego})
    slot = {rid: s for s, rid in enumerate(free + [ego])}
    used = [k for k, (i, _) in enumerate(pairs) if i in seen]
    ii, jj = (np.array([slot[pairs[k][end]] for k in used], dtype=np.intp) for end in (0, 1))
    return (free, tree, used, ii, jj) if free else None


def initial_stack(ego: int, pairs: list, p: np.ndarray, q: np.ndarray) -> tuple | None:
    """The free robots, initial nodes (B, n+1, 4, 4) and edges of B graphs of the edges `pairs`.

    Pair (i, j) measures robot j in robot i's frame: p (B, P, 3), q (B, P, 4). Nodes are composed
    along the BFS tree as `Pose.compose` and `Pose.inverse` compose them. None if no edge reaches the ego.
    """
    topo = _topology(ego, pairs)
    if topo is None:
        return None
    (free, tree, used, ii, jj), B = topo, len(p)
    R = rotmats_from_quats(q.reshape(-1, 4)).reshape(B, -1, 3, 3)
    nodes = {ego: (np.tile(_EYE3, (B, 1, 1)), np.zeros((B, 3)))}
    for parent, child, k, inverted in tree:
        R_k, t_k = R[:, k], p[:, k]
        if inverted:
            R_k = R_k.swapaxes(1, 2)
            t_k = (-R_k @ t_k[:, :, None])[:, :, 0]
        R_p, t_p = nodes[parent]
        nodes[child] = (R_p @ R_k, (R_p @ t_k[:, :, None])[:, :, 0] + t_p)
    R_n, t_n = (np.stack([nodes[rid][c] for rid in free + [ego]], axis=1) for c in (0, 1))
    edges = _Edges(ii, jj, _stack(R[:, used], p[:, used]), np.ones((B, len(used))))
    return free, _stack(R_n, t_n), edges
