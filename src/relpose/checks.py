"""Finite-difference verification of the filter's analytic Jacobians.

Each analytic matrix is checked against central differences of the map it
linearizes, implemented here element-by-element and independently of the
block assembly in `eskf`.
"""

from __future__ import annotations

import numpy as np

from .eskf import (
    ImuPairInput,
    NominalState,
    compute_Fi,
    compute_Fx,
    compute_H,
    reset_jacobian,
    reset_map,
)
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
    state: NominalState, u: ImuPairInput, delta: np.ndarray, u_noise: np.ndarray
) -> np.ndarray:
    """One discrete step of the error-state dynamics (noise included)."""
    dt = u.dt
    dp, dv = delta[0:3], delta[3:6]
    dth_a, dth_b = delta[6:9], delta[9:12]
    a_na, w_na = u_noise[0:3], u_noise[3:6]
    a_nb, w_nb = u_noise[6:9], u_noise[9:12]
    Rq = rotmat_from_quat(state.q)
    Ra_T = rotmat_from_rotvec(u.w_ma * dt).T
    Rb_T = rotmat_from_rotvec(u.w_mb * dt).T
    alpha = -Rq @ skew(u.a_ma) @ dth_a + skew(u.a_mb) @ dth_b - Rq @ a_na + a_nb
    out = np.empty(12)
    out[0:3] = Rb_T @ (dp + dv * dt)
    out[3:6] = Rb_T @ (dv + alpha * dt)
    out[6:9] = Ra_T @ dth_a - w_na * dt
    out[9:12] = Rb_T @ dth_b - w_nb * dt
    return out


def measurement_map(state: NominalState, delta: np.ndarray) -> np.ndarray:
    """h(x ⊕ delta) with the rotation expressed as a residual vs nominal q."""
    dp, dth_a, dth_b = delta[0:3], delta[6:9], delta[9:12]
    Rb_T = rotmat_from_rotvec(dth_b).T
    p_t = Rb_T @ (state.p + dp)
    q_t = quat_mul(
        quat_mul(quat_conj(quat_from_rotvec(dth_b)), state.q), quat_from_rotvec(dth_a)
    )
    R_t = rotmat_from_quat(q_t)
    rot_res = rotvec_from_quat(quat_mul(quat_conj(state.q), q_t))
    return np.concatenate([p_t, -R_t.T @ p_t, rot_res])


def _central_diff(fn, x0: np.ndarray, m: int, h: float = 1e-6) -> np.ndarray:
    J = np.zeros((m, x0.size))
    for k in range(x0.size):
        e = np.zeros_like(x0)
        e[k] = h
        J[:, k] = (fn(x0 + e) - fn(x0 - e)) / (2 * h)
    return J


def _rel_err(J_analytic: np.ndarray, J_fd: np.ndarray) -> float:
    scale = max(float(np.max(np.abs(J_fd))), 1e-9)
    return float(np.max(np.abs(J_analytic - J_fd)) / scale)


def _random_state_input(rng: np.random.Generator) -> tuple[NominalState, ImuPairInput]:
    state = NominalState(
        p=rng.normal(0, 2.0, 3),
        v=rng.normal(0, 1.0, 3),
        q=quat_normalize(rng.normal(0, 1.0, 4)),
    )
    u = ImuPairInput(
        a_ma=rng.normal(0, 5.0, 3),
        w_ma=rng.normal(0, 1.0, 3),
        a_mb=rng.normal(0, 5.0, 3),
        w_mb=rng.normal(0, 1.0, 3),
        dt=0.01,
    )
    return state, u


def check_jacobians(n_states: int = 50, seed: int = 0) -> dict[str, float]:
    """Max relative FD error per Jacobian over n_states random states (at least one)."""
    if n_states < 1:
        raise ValueError(f"n_states must be at least 1, got {n_states}")
    rng = np.random.default_rng(seed)
    worst = {"Fx": 0.0, "Fi": 0.0, "H": 0.0, "G": 0.0}
    for _ in range(n_states):
        state, u = _random_state_input(rng)

        fd = _central_diff(
            lambda d: error_propagation_map(state, u, d, np.zeros(12)), np.zeros(12), 12
        )
        worst["Fx"] = max(worst["Fx"], _rel_err(compute_Fx(state, u), fd))

        fd = _central_diff(
            lambda n: error_propagation_map(state, u, np.zeros(12), n), np.zeros(12), 12
        )
        worst["Fi"] = max(worst["Fi"], _rel_err(compute_Fi(state, u), fd))

        fd = _central_diff(lambda d: measurement_map(state, d), np.zeros(12), 9)
        worst["H"] = max(worst["H"], _rel_err(compute_H(state), fd))

        delta_hat = np.concatenate(
            [rng.normal(0, 0.05, 6), rng.uniform(-0.1, 0.1, 6)]
        )
        fd = _central_diff(lambda d: reset_map(d, delta_hat), delta_hat.copy(), 12)
        worst["G"] = max(worst["G"], _rel_err(reset_jacobian(delta_hat), fd))
    return worst
