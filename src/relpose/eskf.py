"""Error-state Kalman filter in the observer's moving body frame.

State of robot A expressed in observer B's (rotating, accelerating) body
frame: position p, velocity v, orientation quaternion q. The 12-dim error
state is [dp, dv, dtheta_A, dtheta_B]; the two small-angle errors live on
the A- and B-side of the nominal quaternion respectively:

    p_t = R{dtheta_B}^T (p + dp)
    v_t = R{dtheta_B}^T (v + dv)
    q_t = dq_B^* ⊗ q ⊗ dq_A

Prediction consumes both robots' IMU samples; correction consumes a raw
relative-pose measurement (positions both ways + relative quaternion). The
orientation part of the measurement enters as a rotation-vector residual of
q_nominal^-1 ⊗ q_measured (the quaternion itself has no additive noise on
the manifold).
"""

from __future__ import annotations

import functools
import math
import struct
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .geom import rotmat_from_rotvec, skew
from .rawpose import RawPoseMeasurement

# chi^2 inverse CDF at 0.999 with 9 dof, for innovation gating
CHI2_9_999 = 27.877164871256568

# input-noise variances of each accel and gyro axis of both robots,
# discretized for dt = 0.01 s: accel 183.3 ug/sqrt(Hz), gyro 0.021 (deg/s)/sqrt(Hz)
ACCEL_VAR = (183.3e-6 * 9.81) ** 2 / 0.01
GYRO_VAR = np.deg2rad(0.021) ** 2 / 0.01

# error covariance at initialization from a raw measurement
INIT_P = np.diag([0.25] * 3 + [0.1] * 3 + [np.deg2rad(5.0) ** 2] * 6)

# measurement noise: sigma max(0.05, 0.02 * range) m on the six position
# components, ROT_SIGMA on the rotation residual, uncorrelated
ROT_SIGMA = np.deg2rad(1.5)
_ROT_VAR = ROT_SIGMA**2


class SingularInnovation(np.linalg.LinAlgError):
    """HPH' + V not invertible."""


@dataclass
class NominalState:
    p: np.ndarray
    v: np.ndarray
    q: np.ndarray
    t: float = 0.0


@dataclass
class ErrorBelief:
    delta_mean: np.ndarray  # 12-vector, zero outside the update->reset window
    P: np.ndarray  # 12x12


@dataclass
class ImuPairInput:
    """Both robots' IMU samples over one step, as 3-sequences of floats
    (lists or tuples are fastest; arrays give the same result)."""

    a_ma: Sequence[float]  # A's specific force, body frame, m/s^2
    w_ma: Sequence[float]  # A's angular rate, rad/s
    a_mb: Sequence[float]
    w_mb: Sequence[float]
    dt: float

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")


def init_from_raw(z: RawPoseMeasurement) -> tuple[NominalState, ErrorBelief]:
    state = NominalState(p=z.p_ba.copy(), v=np.zeros(3), q=z.q_ba.copy(), t=z.t)
    return state, ErrorBelief(np.zeros(12), INIT_P.copy())


# -- float-level kernel ------------------------------------------------------
# One filter step needs a few quaternion products and exponentials, the
# rotation matrices they give and a few 3x3 products. On Python floats each
# is a handful of multiplications, where every numpy call on a 3-vector
# costs about a microsecond. Quaternions are (w, x, y, z) tuples and 3x3
# matrices row-major 9-tuples; the 12x12 algebra stays in numpy, through
# `ndarray.dot`, which costs less per call than `@` at these sizes.


def _qexp(x: float, y: float, z: float) -> tuple:
    """Unit quaternion of the rotation vector (x, y, z), first order below 1e-8 rad."""
    a2 = x * x + y * y + z * z
    a = math.sqrt(a2)
    if a < 1e-8:
        n = math.sqrt(1.0 + 0.25 * a2)
        return (1.0 / n, 0.5 * x / n, 0.5 * y / n, 0.5 * z / n)
    s = math.sin(0.5 * a) / a
    return (math.cos(0.5 * a), s * x, s * y, s * z)


def _qmul(a, b) -> tuple:
    """Hamilton product a ⊗ b, not renormalized."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    )


def _qunit(q) -> tuple:
    w, x, y, z = q
    n = math.sqrt(w * w + x * x + y * y + z * z)
    return (w / n, x / n, y / n, z / n)


def _qconj(q) -> tuple:
    return (q[0], -q[1], -q[2], -q[3])


def _qsandwich(dq_b, q, dq_a) -> np.ndarray:
    """dq_b^* ⊗ q ⊗ dq_a, renormalized, as an array."""
    return np.array(_qunit(_qmul(_qmul(_qconj(dq_b), q), dq_a)))


def _qlog(q) -> tuple:
    """Rotation vector of a unit quaternion, short arc."""
    w, x, y, z = q
    if w < 0.0:
        w, x, y, z = -w, -x, -y, -z
    s = math.sqrt(x * x + y * y + z * z)
    if s < 1e-12:
        return (2.0 * x, 2.0 * y, 2.0 * z)
    k = 2.0 * math.atan2(s, min(w, 1.0)) / s
    return (k * x, k * y, k * z)


def _rot(q, transpose: bool = False) -> tuple:
    """R{q} (or its transpose) of a unit quaternion."""
    w, x, y, z = q
    xx, yy, zz = x * x, y * y, z * z
    xy, xz, yz = x * y, x * z, y * z
    wx, wy, wz = w * x, w * y, w * z
    if transpose:
        wx, wy, wz = -wx, -wy, -wz
    return (
        1 - 2 * (yy + zz), 2 * (xy - wz), 2 * (xz + wy),
        2 * (xy + wz), 1 - 2 * (xx + zz), 2 * (yz - wx),
        2 * (xz - wy), 2 * (yz + wx), 1 - 2 * (xx + yy),
    )


def _mat(A, B) -> tuple:
    """A @ B."""
    a0, a1, a2, a3, a4, a5, a6, a7, a8 = A
    b0, b1, b2, b3, b4, b5, b6, b7, b8 = B
    return (
        a0 * b0 + a1 * b3 + a2 * b6, a0 * b1 + a1 * b4 + a2 * b7, a0 * b2 + a1 * b5 + a2 * b8,
        a3 * b0 + a4 * b3 + a5 * b6, a3 * b1 + a4 * b4 + a5 * b7, a3 * b2 + a4 * b5 + a5 * b8,
        a6 * b0 + a7 * b3 + a8 * b6, a6 * b1 + a7 * b4 + a8 * b7, a6 * b2 + a7 * b5 + a8 * b8,
    )


def _vec(A, v) -> tuple:
    """A @ v."""
    a0, a1, a2, a3, a4, a5, a6, a7, a8 = A
    x, y, z = v
    return (a0 * x + a1 * y + a2 * z, a3 * x + a4 * y + a5 * z, a6 * x + a7 * y + a8 * z)


def _mat_skew(A, v) -> tuple:
    """A @ [v]x: each row of A crossed with v."""
    a0, a1, a2, a3, a4, a5, a6, a7, a8 = A
    x, y, z = v
    return (
        a1 * z - a2 * y, a2 * x - a0 * z, a0 * y - a1 * x,
        a4 * z - a5 * y, a5 * x - a3 * z, a3 * y - a4 * x,
        a7 * z - a8 * y, a8 * x - a6 * z, a6 * y - a7 * x,
    )


def _skew(v) -> tuple:
    x, y, z = v
    return (0.0, -z, y, z, 0.0, -x, -y, x, 0.0)


def _eye_minus_half_skew(x: float, y: float, z: float) -> tuple:
    """I - [(x, y, z) / 2]x."""
    x, y, z = 0.5 * x, 0.5 * y, 0.5 * z
    return (1.0, z, -y, -z, 1.0, x, y, -x, 1.0)


def _scaled(A, s: float) -> tuple:
    a0, a1, a2, a3, a4, a5, a6, a7, a8 = A
    return (a0 * s, a1 * s, a2 * s, a3 * s, a4 * s, a5 * s, a6 * s, a7 * s, a8 * s)


def _blocks(rows: int, cols: int, at):
    """A function of one flat tuple of floats that returns a rows x cols matrix,
    zero but for its 3x3 blocks at (block row, block column), which it takes
    from the tuple block by block and row-major inside each.

    The floats go through one packed buffer: converting them one by one into
    an array costs about twice as much.
    """
    index = np.array([(3 * r + i) * cols + 3 * c + j for r, c in at for i in range(3) for j in range(3)])
    pack = struct.Struct(f"{index.size}d").pack

    def matrix(values) -> np.ndarray:
        M = np.zeros(rows * cols)
        M[index] = np.frombuffer(pack(*values))
        return M.reshape(rows, cols)

    return matrix


# -- propagation --------------------------------------------------------------

# Fx and Fi from their blocks, in the order `_linearize` and `compute_Fi` list them
_Fx = _blocks(12, 12, [(0, 0), (0, 1), (1, 1), (1, 2), (1, 3), (2, 2), (3, 3)])
_Fi = _blocks(12, 12, [(1, 0), (2, 1), (1, 2), (3, 3)])


def _linearize(q: list, u: ImuPairInput) -> tuple:
    """The rotations of one IMU step from the nominal quaternion q, and the
    error-state transition built from them.

    Returns (dq_a, dq_b, Rq, Rb_T, Fx) with dq_a = Exp(w_mA dt),
    dq_b = Exp(w_mB dt), Rq = R{q} and Rb_T = R{dq_b}^T as tuples, and the
    12x12 error-state transition Fx. Block structure after Solà, "Quaternion
    kinematics for the error-state Kalman filter" (arXiv:1711.02508),
    sections 5 and 7.
    """
    dt = u.dt
    wx, wy, wz = u.w_ma
    dq_a = _qexp(wx * dt, wy * dt, wz * dt)
    wx, wy, wz = u.w_mb
    dq_b = _qexp(wx * dt, wy * dt, wz * dt)
    Rq = _rot(q)
    Rb_T = _rot(dq_b, transpose=True)
    Rb_T_dt = _scaled(Rb_T, dt)
    ax, ay, az = u.a_ma
    Fx = _Fx(
        Rb_T + Rb_T_dt  # dp row
        + Rb_T + _mat_skew(_mat(Rb_T_dt, Rq), (-ax, -ay, -az)) + _mat_skew(Rb_T_dt, u.a_mb)  # dv row
        + _rot(dq_a, transpose=True)  # dth_A
        + Rb_T  # dth_B
    )
    return dq_a, dq_b, Rq, Rb_T, Fx


@functools.lru_cache(maxsize=16)
def _input_noise(dt: float) -> np.ndarray:
    """Fi QI Fi' of a step of dt: dt^2 diag(0, 2 ACCEL_VAR, GYRO_VAR, GYRO_VAR), 3 each.

    QI is isotropic per block, and A's accel noise enters the velocity
    through dt R_b^T R_q, dt times a rotation, as B's enters through dt R_b^T.
    """
    D = np.diag([0.0] * 3 + [2.0 * ACCEL_VAR * dt * dt] * 3 + [GYRO_VAR * dt * dt] * 6)
    D.flags.writeable = False  # shared by every call with this dt
    return D


def predict(
    state: NominalState, belief: ErrorBelief, u: ImuPairInput
) -> tuple[NominalState, ErrorBelief]:
    """Propagate nominal state and error covariance over one IMU interval."""
    dt = u.dt
    q = state.q.tolist()
    dq_a, dq_b, Rq, Rb_T, Fx = _linearize(q, u)
    ax, ay, az = _vec(Rq, u.a_ma)
    bx, by, bz = u.a_mb
    ax, ay, az = ax - bx, ay - by, az - bz  # relative acceleration
    px, py, pz = state.p.tolist()
    vx, vy, vz = state.v.tolist()
    h = 0.5 * dt * dt
    p = _vec(Rb_T, (px + vx * dt + ax * h, py + vy * dt + ay * h, pz + vz * dt + az * h))
    v = _vec(Rb_T, (vx + ax * dt, vy + ay * dt, vz + az * dt))
    P = Fx.dot(belief.P).dot(Fx.T)
    P += _input_noise(dt)  # Fx P Fx' + Fi QI Fi'
    return (
        NominalState(np.array(p), np.array(v), _qsandwich(dq_b, q, dq_a), state.t + dt),
        ErrorBelief(Fx.dot(belief.delta_mean), 0.5 * (P + P.T)),  # delta is zero in steady operation
    )


def compute_Fx(state: NominalState, u: ImuPairInput) -> np.ndarray:
    """Discrete error-state transition Jacobian, as `predict` propagates with."""
    return _linearize(state.q.tolist(), u)[4]


def compute_Fi(state: NominalState, u: ImuPairInput) -> np.ndarray:
    """Jacobian w.r.t. the input noise [a_nA, w_nA, a_nB, w_nB]; `predict` adds
    its Fi QI Fi' as a constant diagonal (`_input_noise`)."""
    dt = u.dt
    wx, wy, wz = u.w_mb
    Rb_T_dt = _scaled(_rot(_qexp(wx * dt, wy * dt, wz * dt), transpose=True), dt)
    m_dt = (-dt, 0.0, 0.0, 0.0, -dt, 0.0, 0.0, 0.0, -dt)
    return _Fi(
        _scaled(_mat(Rb_T_dt, _rot(state.q.tolist())), -1.0)  # accel noise of A
        + m_dt  # gyro noise of A
        + Rb_T_dt  # accel noise of B
        + m_dt  # gyro noise of B
    )


# -- correction ---------------------------------------------------------------

_H = _blocks(9, 12, [(0, 0), (0, 3), (1, 0), (1, 2), (2, 2), (2, 3)])
_I3 = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)


def _measurement_jacobian(p, Rq_T, Rq_T_p) -> np.ndarray:
    neg_Rq_T = _scaled(Rq_T, -1.0)
    return _H(
        # p_BA: p_t = R{dth_B}^T (p + dp) ~ p + dp + [p]x dth_B
        _I3 + _skew(p)
        # p_AB: -R{q_t}^T p_t ~ -R^T p - R^T dp - [R^T p]x dth_A
        + neg_Rq_T + _skew([-c for c in Rq_T_p])
        # rotation residual rotvec(q^-1 ⊗ q_t) ~ dth_A - R^T dth_B
        + _I3 + neg_Rq_T
    )


def _model(state: NominalState) -> tuple:
    """q, p, R{q}^T and R{q}^T p of the nominal state, as tuples."""
    q = state.q.tolist()
    p = state.p.tolist()
    Rq_T = _rot(q, transpose=True)
    return q, p, Rq_T, _vec(Rq_T, p)


def compute_H(state: NominalState) -> np.ndarray:
    """9x12 measurement Jacobian w.r.t. the error state at delta = 0."""
    _, p, Rq_T, Rq_T_p = _model(state)
    return _measurement_jacobian(p, Rq_T, Rq_T_p)


def _innovation(q, p, Rq_T_p, z: RawPoseMeasurement) -> tuple:
    b0, b1, b2 = z.p_ba.tolist()
    a0, a1, a2 = z.p_ab.tolist()
    rot = _qlog(_qunit(_qmul(_qconj(q), z.q_ba.tolist())))
    return (b0 - p[0], b1 - p[1], b2 - p[2],
            a0 + Rq_T_p[0], a1 + Rq_T_p[1], a2 + Rq_T_p[2], *rot)


def innovation(state: NominalState, z: RawPoseMeasurement) -> np.ndarray:
    """9-vector residual z ⊖ h(x): positions subtract, rotations compose."""
    q, p, _, Rq_T_p = _model(state)
    return np.array(_innovation(q, p, Rq_T_p, z))


def update(state: NominalState, belief: ErrorBelief, z: RawPoseMeasurement) -> ErrorBelief:
    """Kalman correction; returns belief with populated delta_mean.

    Raises SingularInnovation when HPH'+V is not invertible. Returns the
    input belief unchanged when the innovation fails the chi-square gate.
    The returned P is symmetrized by `inject_and_reset`, which always follows.
    """
    q, p, Rq_T, Rq_T_p = _model(state)
    H = _measurement_jacobian(p, Rq_T, Rq_T_p)
    rhs = np.empty((9, 13))  # [y | HP]: one factorization of S for S^-1 y and S^-1 HP
    y, HP = rhs[:, 0], rhs[:, 1:]
    y[:] = _innovation(q, p, Rq_T_p, z)
    np.matmul(H, belief.P, out=HP)
    S = HP.dot(H.T)
    # + V, diagonal: range-scaled position noise, then rotation noise
    x, yy, zz = z.p_ba.tolist()
    sp2 = max(0.05, 0.02 * math.sqrt(x * x + yy * yy + zz * zz)) ** 2
    S.reshape(-1)[::10] += (sp2, sp2, sp2, sp2, sp2, sp2, _ROT_VAR, _ROT_VAR, _ROT_VAR)
    try:
        X = np.linalg.solve(S, rhs)
    except np.linalg.LinAlgError as e:
        raise SingularInnovation(str(e)) from e
    if float(y.dot(X[:, 0])) > CHI2_9_999:
        return belief
    K = X[:, 1:].T  # = P H' S^-1
    return ErrorBelief(K.dot(y), belief.P - K.dot(HP))


# -- injection and reset ------------------------------------------------------

_G = _blocks(12, 12, [(0, 0), (1, 1), (2, 2), (3, 3)])


def _inject(state: NominalState, d: np.ndarray) -> tuple[NominalState, list, tuple]:
    """x ⊕ d, with d as a list and the R{dth_B}^T it applied."""
    d = d.tolist()
    dq_b = _qexp(*d[9:12])
    Rb_T = _rot(dq_b, transpose=True)
    px, py, pz = state.p.tolist()
    vx, vy, vz = state.v.tolist()
    p = _vec(Rb_T, (px + d[0], py + d[1], pz + d[2]))
    v = _vec(Rb_T, (vx + d[3], vy + d[4], vz + d[5]))
    q = _qsandwich(dq_b, state.q.tolist(), _qexp(*d[6:9]))
    return NominalState(np.array(p), np.array(v), q, state.t), d, Rb_T


def _reset_jacobian(d: list, Rb_T: tuple) -> np.ndarray:
    """Block-diagonal G: Rb_T, Rb_T, I - [dth_A/2]x, I - [dth_B/2]x."""
    return _G(Rb_T + Rb_T + _eye_minus_half_skew(*d[6:9]) + _eye_minus_half_skew(*d[9:12]))


def inject_and_reset(state: NominalState, belief: ErrorBelief) -> tuple[NominalState, ErrorBelief]:
    """Fold delta_mean into the nominal state, then zero it and remap P."""
    new_state, d, Rb_T = _inject(state, belief.delta_mean)
    G = _reset_jacobian(d, Rb_T)
    P = G.dot(belief.P).dot(G.T)
    return new_state, ErrorBelief(np.zeros(12), 0.5 * (P + P.T))


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


def reset_jacobian(delta_hat: np.ndarray) -> np.ndarray:
    """Jacobian of reset_map w.r.t. delta, as `inject_and_reset` remaps P with."""
    d = delta_hat.tolist()
    return _reset_jacobian(d, _rot(_qexp(*d[9:12]), transpose=True))


class RelativePoseFilter:
    """Convenience wrapper serializing predict/update for one neighbor."""

    def __init__(self):
        self.state: NominalState | None = None
        self.belief: ErrorBelief | None = None

    @property
    def initialized(self) -> bool:
        return self.state is not None

    def process_imu(self, u: ImuPairInput) -> None:
        if self.state is None:
            return
        self.state, self.belief = predict(self.state, self.belief, u)

    def process_measurement(self, z: RawPoseMeasurement) -> None:
        if self.state is None:
            self.state, self.belief = init_from_raw(z)
            return
        self.belief = update(self.state, self.belief, z)
        self.state, self.belief = inject_and_reset(self.state, self.belief)
