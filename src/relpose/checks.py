"""Finite-difference verification of the filter's analytic Jacobians.

Each analytic matrix is checked against central differences of the map it
linearizes, implemented here element-by-element and independently of the
block assembly in `eskf`. The maps take a pair's state x as the array
[p, v, q] (10), each robot's IMU row as [specific force, angular rate] (6)
and error states as 12-vectors; the Jacobians take the same values as the
floats that the filter bank steps.
"""

from __future__ import annotations

import numpy as np

from .eskf import compute_Fi, compute_Fx, compute_H, reset_jacobian
from .geom import (
    quat_conj,
    quat_from_rotvec,
    quat_mul,
    quat_normalize,
    rotmat_from_quat,
    rotmat_from_rotvec,
    rotvec_from_quat,
    skew,
)


def error_propagation_map(
    x: np.ndarray, ra: np.ndarray, rb: np.ndarray, dt: float, delta: np.ndarray, u_noise: np.ndarray
) -> np.ndarray:
    """One discrete step of the error-state dynamics (noise included)."""
    dp, dv = delta[0:3], delta[3:6]
    dth_a, dth_b = delta[6:9], delta[9:12]
    a_na, w_na = u_noise[0:3], u_noise[3:6]
    a_nb, w_nb = u_noise[6:9], u_noise[9:12]
    Rq = rotmat_from_quat(x[6:10])
    Ra_T = rotmat_from_rotvec(ra[3:6] * dt).T
    Rb_T = rotmat_from_rotvec(rb[3:6] * dt).T
    alpha = -Rq @ skew(ra[0:3]) @ dth_a + skew(rb[0:3]) @ dth_b - Rq @ a_na + a_nb
    out = np.empty(12)
    out[0:3] = Rb_T @ (dp + dv * dt)
    out[3:6] = Rb_T @ (dv + alpha * dt)
    out[6:9] = Ra_T @ dth_a - w_na * dt
    out[9:12] = Rb_T @ dth_b - w_nb * dt
    return out


def measurement_map(x: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """h(x ⊕ delta) with the rotation expressed as a residual vs nominal q."""
    p, q = x[0:3], x[6:10]
    dp, dth_a, dth_b = delta[0:3], delta[6:9], delta[9:12]
    Rb_T = rotmat_from_rotvec(dth_b).T
    p_t = Rb_T @ (p + dp)
    q_t = quat_mul(quat_mul(quat_conj(quat_from_rotvec(dth_b)), q), quat_from_rotvec(dth_a))
    R_t = rotmat_from_quat(q_t)
    rot_res = rotvec_from_quat(quat_mul(quat_conj(q), q_t))
    return np.concatenate([p_t, -R_t.T @ p_t, rot_res])


def reset_map(delta: np.ndarray, delta_hat: np.ndarray) -> np.ndarray:
    """Remap an error-state sample after injecting delta_hat."""
    dth_a_hat, dth_b_hat = delta_hat[6:9], delta_hat[9:12]
    out = np.empty(12)
    Rb_T = rotmat_from_rotvec(dth_b_hat).T
    out[0:3] = Rb_T @ (delta[0:3] - delta_hat[0:3])
    out[3:6] = Rb_T @ (delta[3:6] - delta_hat[3:6])
    out[6:9] = -dth_a_hat + (np.eye(3) - skew(0.5 * dth_a_hat)) @ delta[6:9]
    out[9:12] = -dth_b_hat + (np.eye(3) - skew(0.5 * dth_b_hat)) @ delta[9:12]
    return out


def _central_diff(fn, x0: np.ndarray, m: int, h: float = 1e-6) -> np.ndarray:
    J = np.zeros((m, x0.size))
    for k in range(x0.size):
        e = np.zeros_like(x0)
        e[k] = h
        J[:, k] = (fn(x0 + e) - fn(x0 - e)) / (2 * h)
    return J


def _rel_err(J_analytic: np.ndarray, J_fd: np.ndarray) -> float:
    """Largest entry error relative to the largest FD entry; infinite when
    either matrix has a non-finite entry."""
    if not (np.isfinite(J_analytic).all() and np.isfinite(J_fd).all()):
        return np.inf
    scale = max(float(np.max(np.abs(J_fd))), 1e-9)
    return float(np.max(np.abs(J_analytic - J_fd)) / scale)


def _random_state_input(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A pair's state x and A's and B's IMU rows, drawn as p, v, q, then a_A, w_A, a_B, w_B."""
    p, v = rng.normal(0, 2.0, 3), rng.normal(0, 1.0, 3)
    x = np.concatenate([p, v, quat_normalize(rng.normal(0, 1.0, 4))])
    ra = np.concatenate([rng.normal(0, 5.0, 3), rng.normal(0, 1.0, 3)])
    rb = np.concatenate([rng.normal(0, 5.0, 3), rng.normal(0, 1.0, 3)])
    return x, ra, rb


TOLERANCE = 1e-4  # the largest relative FD error a Jacobian passes with


def check_jacobians(n_states: int = 50, seed: int = 0) -> dict[str, float]:
    """Max relative FD error per Jacobian over n_states random states (at least
    one); a non-finite entry counts as an infinite error."""
    if n_states < 1:
        raise ValueError(f"n_states must be at least 1, got {n_states}")
    rng = np.random.default_rng(seed)
    worst = {"Fx": 0.0, "Fi": 0.0, "H": 0.0, "G": 0.0}
    dt, zero = 0.01, np.zeros(12)
    for _ in range(n_states):
        x, ra, rb = _random_state_input(rng)
        xf, raf, rbf = x.tolist(), ra.tolist(), rb.tolist()

        fd = _central_diff(lambda d: error_propagation_map(x, ra, rb, dt, d, zero), zero, 12)
        worst["Fx"] = max(worst["Fx"], _rel_err(compute_Fx(xf, raf, rbf, dt), fd))

        fd = _central_diff(lambda n: error_propagation_map(x, ra, rb, dt, zero, n), zero, 12)
        worst["Fi"] = max(worst["Fi"], _rel_err(compute_Fi(xf[6:], rbf, dt), fd))

        fd = _central_diff(lambda d: measurement_map(x, d), zero, 9)
        worst["H"] = max(worst["H"], _rel_err(compute_H(xf), fd))

        delta_hat = np.concatenate([rng.normal(0, 0.05, 6), rng.uniform(-0.1, 0.1, 6)])
        fd = _central_diff(lambda d: reset_map(d, delta_hat), delta_hat.copy(), 12)
        worst["G"] = max(worst["G"], _rel_err(reset_jacobian(delta_hat.tolist()), fd))
    return worst
