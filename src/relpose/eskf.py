"""Error-state Kalman filter in the observer's moving body frame, one bank of pairs.

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
the manifold). Structure after Solà, "Quaternion kinematics for the
error-state Kalman filter" (arXiv:1711.02508).

A `FilterBank` holds every pair filter of a run; a single pair is a bank of
one. `predict`, `update` and `inject_and_reset` step the whole bank: each
pair's nominal state stays in Python floats, and the 12x12 algebra of the
pairs taking part runs once, over one (K, 12, 12) stack. Each pair's result
does not depend on the other pairs of its bank, bit for bit.
"""

from __future__ import annotations

import functools
import math
import struct
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

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


# -- float-level kernel ------------------------------------------------------
# One filter step needs a few quaternion products and exponentials, the
# rotation matrices they give and a few 3x3 products. On Python floats each
# is a handful of multiplications, where every numpy call on a 3-vector
# costs about a microsecond. Quaternions are (w, x, y, z) tuples, 3x3
# matrices row-major 9-tuples, and a pair's nominal state x the 10 floats
# (p, v, q); the 12x12 algebra runs in numpy, once per step for the bank.


def _qexp(x: float, y: float, z: float) -> tuple:
    """Unit quaternion of the rotation vector (x, y, z), first order below 1e-8 rad."""
    a2 = x * x + y * y + z * z
    a = math.sqrt(a2)
    if a < 1e-8:
        n = math.sqrt(1.0 + 0.25 * a2)
        return (1.0 / n, 0.5 * x / n, 0.5 * y / n, 0.5 * z / n)
    s = math.sin(0.5 * a) / a
    return (math.cos(0.5 * a), s * x, s * y, s * z)


def _qsandwich(b, q, a) -> tuple:
    """b^* ⊗ q ⊗ a, renormalized."""
    bw, bx, by, bz = b
    qw, qx, qy, qz = q
    bx, by, bz = -bx, -by, -bz
    rw = bw * qw - bx * qx - by * qy - bz * qz
    rx = bw * qx + bx * qw + by * qz - bz * qy
    ry = bw * qy - bx * qz + by * qw + bz * qx
    rz = bw * qz + bx * qy - by * qx + bz * qw
    aw, ax, ay, az = a
    w = rw * aw - rx * ax - ry * ay - rz * az
    x = rw * ax + rx * aw + ry * az - rz * ay
    y = rw * ay - rx * az + ry * aw + rz * ax
    z = rw * az + rx * ay - ry * ax + rz * aw
    n = math.sqrt(w * w + x * x + y * y + z * z)
    return (w / n, x / n, y / n, z / n)


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


def _scaled(A, s: float) -> tuple:
    a0, a1, a2, a3, a4, a5, a6, a7, a8 = A
    return (a0 * s, a1 * s, a2 * s, a3 * s, a4 * s, a5 * s, a6 * s, a7 * s, a8 * s)


def _blocks(rows: int, cols: int, at, tail: int = 0, tail_at=()):
    """A function of (values, m) that returns the transposes of a stack of m
    rows x cols matrices, zero but for their 3x3 blocks at (block row, block
    column), and with `tail`, an (m, tail) array, zero but at the positions
    tail_at. Per matrix, `values` lists its blocks block by block, row-major
    inside each, then its tail values in the order of tail_at.

    The floats go through one packed buffer and one scatter: converting them
    one by one into an array costs about twice as much. The stack comes
    transposed because `matmul` takes a transposed view as its first operand
    at no cost, but copies it as its second: M P M' is (M')' P M'.
    """
    size = rows * cols
    index = [(3 * c + j) * rows + 3 * r + i for r, c in at for i in range(3) for j in range(3)]
    index = np.array(index + [size + k for k in tail_at])
    width = size + tail

    @functools.lru_cache(maxsize=64)
    def layout(m: int) -> tuple:
        return (index + width * np.arange(m)[:, None]).ravel(), struct.Struct(f"{m * index.size}d").pack

    def stack(values, m: int):
        spread, pack = layout(m)
        flat = np.zeros(m * width)
        flat[spread] = np.frombuffer(pack(*values))
        if not tail:
            return flat.reshape(m, cols, rows)
        flat = flat.reshape(m, width)
        return flat[:, :size].reshape(m, cols, rows), flat[:, size:]

    return stack


class FilterBank:
    """The relative-pose filters of a run, one per pair (A, B): pair n's
    nominal state x[n] (p, v, q as 10 floats; None until its first
    measurement) and its error covariance P[n]. The error mean is zero
    outside the update->reset window, so the bank keeps none."""

    def __init__(self, pairs):
        """pairs: per filter, the indices of target A's and observer B's IMU rows."""
        self.pairs = [(int(a), int(b)) for a, b in pairs]
        self.x: list[tuple | None] = [None] * len(self.pairs)
        self.P = np.zeros((len(self.pairs), 12, 12))
        self._every = list(range(len(self.pairs)))

    def _take(self, rows: list) -> np.ndarray:
        """P of the pairs in rows (ascending): the stack itself when every pair is in."""
        return self.P if rows == self._every else self.P[rows]

    def _put(self, rows: list, P: np.ndarray) -> None:
        if rows == self._every:
            self.P = P
        else:
            self.P[rows] = P


# -- propagation --------------------------------------------------------------

# Fx and Fi from their blocks, in the order `_propagate` and `compute_Fi` list them
_Fx = _blocks(12, 12, [(0, 0), (0, 1), (1, 1), (1, 2), (1, 3), (2, 2), (3, 3)])
_Fi = _blocks(12, 12, [(1, 0), (2, 1), (1, 2), (3, 3)])


def _propagate(x: tuple, ra, rb, dt: float) -> tuple[tuple, tuple]:
    """One IMU step of one pair: the new nominal state, and the blocks of the
    error-state transition Fx (Solà, sections 5 and 7) that `_Fx` assembles.

    ra and rb are A's and B's IMU rows; dq_a = Exp(w_mA dt), dq_b = Exp(w_mB dt),
    Rq = R{q} and Rb_T = R{dq_b}^T.
    """
    ax, ay, az, wx, wy, wz = ra
    dq_a = _qexp(wx * dt, wy * dt, wz * dt)
    bx, by, bz, wx, wy, wz = rb
    dq_b = _qexp(wx * dt, wy * dt, wz * dt)
    px, py, pz, vx, vy, vz, *q = x
    Rq = _rot(q)
    Rb_T = _rot(dq_b, True)
    Rb_T_dt = _scaled(Rb_T, dt)
    fx = (
        *Rb_T, *Rb_T_dt,  # dp row
        *Rb_T, *_mat_skew(_mat(Rb_T_dt, Rq), (-ax, -ay, -az)), *_mat_skew(Rb_T_dt, (bx, by, bz)),  # dv row
        *_rot(dq_a, True),  # dth_A
        *Rb_T,  # dth_B
    )
    cx, cy, cz = _vec(Rq, (ax, ay, az))
    cx, cy, cz = cx - bx, cy - by, cz - bz  # relative acceleration
    h = 0.5 * dt * dt
    p = _vec(Rb_T, (px + vx * dt + cx * h, py + vy * dt + cy * h, pz + vz * dt + cz * h))
    v = _vec(Rb_T, (vx + cx * dt, vy + cy * dt, vz + cz * dt))
    return (*p, *v, *_qsandwich(dq_b, q, dq_a)), fx


@functools.lru_cache(maxsize=16)
def _input_noise(dt: float) -> np.ndarray:
    """Fi QI Fi' of a step of dt: dt^2 diag(0, 2 ACCEL_VAR, GYRO_VAR, GYRO_VAR), 3 each.

    QI is isotropic per block, and A's accel noise enters the velocity
    through dt R_b^T R_q, dt times a rotation, as B's enters through dt R_b^T.
    """
    D = np.diag([0.0] * 3 + [2.0 * ACCEL_VAR * dt * dt] * 3 + [GYRO_VAR * dt * dt] * 6)
    D.flags.writeable = False  # shared by every call with this dt
    return D


def predict(bank: FilterBank, rows: Sequence, dt: float) -> None:
    """Propagate every started pair whose two IMU rows are finite over one IMU
    interval: P <- Fx P Fx' + Fi QI Fi'. rows holds each robot's IMU row at
    this tick (6 floats), or None where it is not finite.

    P is not symmetrized here: `inject_and_reset` does it once per correction.
    """
    x, on, fx = bank.x, [], []
    for n, (a, b) in enumerate(bank.pairs):
        ra, rb = rows[a], rows[b]
        if x[n] is None or ra is None or rb is None:
            continue
        x[n], f = _propagate(x[n], ra, rb, dt)
        fx += f
        on.append(n)
    if on:
        Fx_T = _Fx(fx, len(on))
        P = Fx_T.swapaxes(1, 2) @ bank._take(on) @ Fx_T
        P += _input_noise(dt)
        bank._put(on, P)


def compute_Fx(x: Sequence[float], ra: Sequence[float], rb: Sequence[float], dt: float) -> np.ndarray:
    """Discrete error-state transition Jacobian of one pair's state x (10 floats)
    over IMU rows ra and rb (6 floats each), as `predict` propagates with."""
    return _Fx(_propagate(x, ra, rb, dt)[1], 1)[0].T


def compute_Fi(q: Sequence[float], rb: Sequence[float], dt: float) -> np.ndarray:
    """Jacobian w.r.t. the input noise [a_nA, w_nA, a_nB, w_nB] of a pair with
    nominal quaternion q over B's IMU row rb; `predict` adds its Fi QI Fi' as a
    constant diagonal (`_input_noise`)."""
    wx, wy, wz = rb[3:6]
    Rb_T_dt = _scaled(_rot(_qexp(wx * dt, wy * dt, wz * dt), transpose=True), dt)
    m_dt = (-dt, 0.0, 0.0, 0.0, -dt, 0.0, 0.0, 0.0, -dt)
    return _Fi(
        _scaled(_mat(Rb_T_dt, _rot(q)), -1.0)  # accel noise of A
        + m_dt  # gyro noise of A
        + Rb_T_dt  # accel noise of B
        + m_dt,  # gyro noise of B
        1,
    )[0].T


# -- correction ---------------------------------------------------------------

# H, then [y | HP] (9 x 13) with HP left for `update` to fill, then the diagonal 9 x 9 V
_H = _blocks(
    9, 12, [(0, 0), (0, 3), (1, 0), (1, 2), (2, 2), (2, 3)], 198, [*range(0, 117, 13), *range(117, 198, 10)]
)
_I3 = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)
_Q1 = (1.0, 0.0, 0.0, 0.0)
_ORIGIN = (0.0,) * 6 + _Q1  # p = v = 0, q = 1: a state, or a measurement, that a Jacobian does not read


def _measure(x: tuple, z: Sequence[float]) -> tuple:
    """The blocks of H at delta = 0, the innovation y = z ⊖ h(x) and V's
    diagonal, of one pair's measurement z (p_ba, p_ab, q_ba as 10 floats)."""
    p0, p1, p2, _, _, _, *q = x
    Rq_T = _rot(q, True)
    c0, c1, c2 = _vec(Rq_T, (p0, p1, p2))  # R{q}^T p
    r0, r1, r2, r3, r4, r5, r6, r7, r8 = Rq_T
    b0, b1, b2, a0, a1, a2, *q_ba = z
    sp2 = max(0.05, 0.02 * math.sqrt(b0 * b0 + b1 * b1 + b2 * b2)) ** 2
    return (
        # p_BA: p_t = R{dth_B}^T (p + dp) ~ p + dp + [p]x dth_B
        *_I3, 0.0, -p2, p1, p2, 0.0, -p0, -p1, p0, 0.0,
        # p_AB: -R{q_t}^T p_t ~ -R^T p - R^T dp - [R^T p]x dth_A
        -r0, -r1, -r2, -r3, -r4, -r5, -r6, -r7, -r8, 0.0, c2, -c1, -c2, 0.0, c0, c1, -c0, 0.0,
        # rotation residual rotvec(q^-1 ⊗ q_t) ~ dth_A - R^T dth_B
        *_I3, -r0, -r1, -r2, -r3, -r4, -r5, -r6, -r7, -r8,
        # y: positions subtract, rotations compose
        b0 - p0, b1 - p1, b2 - p2, a0 + c0, a1 + c1, a2 + c2,
        *_qlog(_qsandwich(q, _Q1, q_ba)),  # q^-1 ⊗ q_ba
        # V: range-scaled position noise, then rotation noise
        sp2, sp2, sp2, sp2, sp2, sp2, _ROT_VAR, _ROT_VAR, _ROT_VAR,
    )


def compute_H(x: Sequence[float]) -> np.ndarray:
    """9x12 measurement Jacobian w.r.t. the error state at delta = 0, of one
    pair's state x (10 floats)."""
    return _H(_measure(x, _ORIGIN), 1)[0][0].T


@dataclass(slots=True)
class Correction:
    """What `update` hands `inject_and_reset`: the pairs it corrects (ascending),
    their error means delta (12 floats each) and covariances P (m, 12, 12),
    and the pairs it skipped because HPH' + V was singular."""

    rows: list
    delta: list
    P: np.ndarray
    singular: list


def _solve_each(S: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, list]:
    """S^-1 rhs pair by pair, zero where S is singular, and the singular indices."""
    X, singular = np.zeros_like(rhs), []
    for i in range(len(S)):
        try:
            X[i] = np.linalg.solve(S[i], rhs[i])
        except np.linalg.LinAlgError:
            singular.append(i)
    return X, singular


def update(bank: FilterBank, measured: Sequence) -> Correction:
    """Kalman correction of every pair in measured, (pair, z) with z = p_ba,
    p_ab, q_ba as 10 floats, pairs ascending. A pair not started yet starts
    from its measurement instead: p = p_ba, v = 0, q = q_ba, P = INIT_P.

    A pair whose innovation fails the chi-square gate, or whose HPH' + V is
    singular, keeps its prior; the latter are listed in `Correction.singular`.
    The corrected P is symmetrized by `inject_and_reset`, which always follows.
    """
    x, rows, values = bank.x, [], []
    for n, z in measured:
        if x[n] is None:
            x[n] = (*z[:3], 0.0, 0.0, 0.0, *z[6:10])
            bank.P[n] = INIT_P
        else:
            rows.append(n)
            values += _measure(x[n], z)
    m = len(rows)
    if not m:
        return Correction([], [], np.empty((0, 12, 12)), [])
    H_T, tail = _H(values, m)
    rhs = tail[:, :117].reshape(m, 9, 13)  # [y | HP]: one factorization of S for S^-1 y and S^-1 HP
    P, HP = bank._take(rows), rhs[:, :, 1:]
    np.matmul(H_T.swapaxes(1, 2), P, out=HP)
    S = HP @ H_T
    S += tail[:, 117:].reshape(m, 9, 9)
    try:
        X, singular = np.linalg.solve(S, rhs), []
    except np.linalg.LinAlgError:
        X, singular = _solve_each(S, rhs)
    # y' X = [y' S^-1 y | (K y)'] with K = P H' S^-1 = (S^-1 HP)': the NIS, then delta
    yX = (rhs[:, None, :, 0] @ X).tolist()
    keep = [i for i in range(m) if not yX[i][0][0] > CHI2_9_999 and i not in singular]
    P = P - X[:, :, 1:].swapaxes(1, 2) @ HP
    if len(keep) < m:
        P = P[keep]
    return Correction([rows[i] for i in keep], [yX[i][0][1:] for i in keep], P, [rows[i] for i in singular])


# -- injection and reset ------------------------------------------------------

_G = _blocks(12, 12, [(0, 0), (1, 1), (2, 2), (3, 3)])


def _inject(x: tuple, d: list) -> tuple[tuple, tuple]:
    """x ⊕ d of one pair, and the blocks of its reset Jacobian G: Rb_T, Rb_T,
    I - [dth_A/2]x, I - [dth_B/2]x, with Rb_T = R{dth_B}^T."""
    px, py, pz, vx, vy, vz, *q = x
    d0, d1, d2, d3, d4, d5, a0, a1, a2, b0, b1, b2 = d
    dq_b = _qexp(b0, b1, b2)
    Rb_T = _rot(dq_b, True)
    p = _vec(Rb_T, (px + d0, py + d1, pz + d2))
    v = _vec(Rb_T, (vx + d3, vy + d4, vz + d5))
    a0, a1, a2, b0, b1, b2 = 0.5 * a0, 0.5 * a1, 0.5 * a2, 0.5 * b0, 0.5 * b1, 0.5 * b2
    return (*p, *v, *_qsandwich(dq_b, q, _qexp(*d[6:9]))), (
        *Rb_T, *Rb_T, 1.0, a2, -a1, -a2, 1.0, a0, a1, -a0, 1.0, 1.0, b2, -b1, -b2, 1.0, b0, b1, -b0, 1.0
    )


def inject_and_reset(bank: FilterBank, fix: Correction) -> None:
    """Fold each corrected pair's delta into its nominal state, then remap
    and symmetrize its P; the error mean is zero again."""
    if not fix.rows:
        return
    x, g = bank.x, []
    for n, d in zip(fix.rows, fix.delta):
        x[n], gn = _inject(x[n], d)
        g += gn
    G_T = _G(g, len(fix.rows))
    P = G_T.swapaxes(1, 2) @ fix.P @ G_T
    bank._put(fix.rows, 0.5 * (P + P.swapaxes(1, 2)))


def reset_jacobian(delta: Sequence[float]) -> np.ndarray:
    """Jacobian of the error-state remap after injecting delta (12 floats), as
    `inject_and_reset` remaps P with."""
    return _G(_inject(_ORIGIN, delta)[1], 1)[0].T
