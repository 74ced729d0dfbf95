import numpy as np
import pytest

from relpose.eskf import (
    CHI2_9_999,
    INIT_P,
    ROT_SIGMA,
    Correction,
    FilterBank,
    compute_Fi,
    compute_Fx,
    compute_H,
    inject_and_reset,
    predict,
    reset_jacobian,
    update,
)
from estimator_reference import (
    ErrorBelief,
    ImuPairInput,
    NominalState,
    RawPoseMeasurement,
    bank_of_one,
    floats,
    imu_rows,
    innovation,
    state_of,
    true_state,
    z_floats,
)
from relpose.checks import measurement_map, reset_map
from relpose.geom import (
    quat_conj,
    quat_from_euler_zyx,
    quat_from_rotvec,
    quat_mul,
    quat_normalize,
    rotmat_from_quat,
    rotvec_from_quat,
)
from quat_helpers import quat_angle_between

RNG = np.random.default_rng(555)
GRAV = np.array([0.0, 0.0, -9.81])


def random_state(rng=RNG):
    return NominalState(
        p=rng.uniform(-5, 5, 3),
        v=rng.uniform(-1, 1, 3),
        q=quat_normalize(rng.normal(size=4)),
    )


def random_input(rng=RNG, dt=0.01):
    return ImuPairInput(
        a_ma=rng.uniform(-12, 12, 3),
        w_ma=rng.uniform(-2, 2, 3),
        a_mb=rng.uniform(-12, 12, 3),
        w_mb=rng.uniform(-2, 2, 3),
        dt=dt,
    )


def simulate_pair(q_wa, q_wb, p_wa, p_wb):
    """Static world poses -> relative truth + the IMU inputs they imply."""
    R_a, R_b = rotmat_from_quat(q_wa), rotmat_from_quat(q_wb)
    p_rel = R_b.T @ (p_wa - p_wb)
    q_rel = quat_mul(
        quat_mul(quat_normalize(np.array([q_wb[0], *(-q_wb[1:])])), q_wa),
        np.array([1.0, 0, 0, 0]),
    )
    u = ImuPairInput(
        a_ma=R_a.T @ (-GRAV), w_ma=np.zeros(3), a_mb=R_b.T @ (-GRAV), w_mb=np.zeros(3), dt=0.01
    )
    return p_rel, q_rel, u


def test_predict_preserves_static_truth():
    # two static robots: the exact relative pose must be a fixed point
    q_wa = quat_from_euler_zyx(0.3, -0.2, 1.0)
    q_wb = quat_from_euler_zyx(-0.1, 0.15, -0.6)
    p_rel, q_rel, u = simulate_pair(q_wa, q_wb, np.array([2.0, 1.0, 0.5]), np.zeros(3))
    bank = bank_of_one(NominalState(p=p_rel.copy(), v=np.zeros(3), q=q_rel.copy()), INIT_P)
    for _ in range(500):
        predict(bank, imu_rows(u), u.dt)
    state = state_of(bank)
    assert np.allclose(state.p, p_rel, atol=1e-9)
    assert np.allclose(state.v, 0.0, atol=1e-9)
    assert quat_angle_between(state.q, q_rel) < 1e-9


def test_predict_inflates_covariance():
    bank = bank_of_one(random_state(), INIT_P)
    before = np.trace(bank.P[0])
    u = random_input()
    predict(bank, imu_rows(u), u.dt)
    assert np.trace(bank.P[0]) > before
    assert np.allclose(bank.P[0], bank.P[0].T)


def test_predict_constant_angular_rate_rotates_frame():
    # observer spinning about z at 1 rad/s; target static ahead
    w = np.array([0.0, 0.0, 1.0])
    u = ImuPairInput(a_ma=-GRAV, w_ma=np.zeros(3), a_mb=-GRAV, w_mb=w, dt=0.001)
    state = NominalState(p=np.array([3.0, 0.0, 0.0]), v=np.zeros(3), q=np.array([1.0, 0, 0, 0]))
    bank = bank_of_one(state, INIT_P)
    for _ in range(1000):  # 1 s
        predict(bank, imu_rows(u), u.dt)
    # after 1 rad of observer yaw the target appears rotated by -1 rad
    state = state_of(bank)
    expect_p = np.array([np.cos(1.0), -np.sin(1.0), 0.0]) * 3.0
    assert np.allclose(state.p, expect_p, atol=1e-3)
    assert quat_angle_between(state.q, quat_from_rotvec(-w)) < 1e-3


def test_update_at_exact_measurement_gives_zero_delta():
    state = random_state()
    Rq = rotmat_from_quat(state.q)
    z = RawPoseMeasurement(p_ba=state.p.copy(), p_ab=-Rq.T @ state.p, q_ba=state.q.copy())
    fix = update(bank_of_one(state, INIT_P), [(0, z_floats(z))])
    assert fix.rows == [0]
    assert np.allclose(fix.delta[0], 0.0, atol=1e-12)


def test_update_pulls_toward_measurement():
    state = NominalState(p=np.array([2.0, 0.0, 0.0]), v=np.zeros(3), q=np.array([1.0, 0, 0, 0]))
    bank = bank_of_one(state, INIT_P)
    z = RawPoseMeasurement(
        p_ba=np.array([2.3, 0.0, 0.0]),
        p_ab=np.array([-2.3, 0.0, 0.0]),
        q_ba=np.array([1.0, 0, 0, 0]),
    )
    fix = update(bank, [(0, z_floats(z))])
    assert fix.rows == [0]
    assert fix.delta[0][0] > 0.1  # moved toward the measurement
    assert np.trace(fix.P[0]) < np.trace(INIT_P)


def nis(state, belief, z):
    """y' S^-1 y with S = H P H' + V, V built here from its stated sigmas."""
    H = compute_H(floats(state))
    sp = max(0.05, 0.02 * np.linalg.norm(z.p_ba))
    S = H @ belief.P @ H.T + np.diag([sp**2] * 6 + [ROT_SIGMA**2] * 3)
    y = innovation(state, z)
    return float(y @ np.linalg.solve(S, y))


def test_update_gate_rejects_outlier():
    state = NominalState(p=np.array([2.0, 0.0, 0.0]), v=np.zeros(3), q=np.array([1.0, 0, 0, 0]))
    # tight covariance so a 10 m jump fails the chi-square gate
    belief = ErrorBelief(np.zeros(12), np.eye(12) * 1e-6)
    z = RawPoseMeasurement(
        p_ba=np.array([12.0, 0.0, 0.0]),
        p_ab=np.array([-12.0, 0.0, 0.0]),
        q_ba=np.array([1.0, 0, 0, 0]),
    )
    assert nis(state, belief, z) > CHI2_9_999
    bank = bank_of_one(state, belief.P)
    x, P = bank.x[0], bank.P.copy()
    fix = update(bank, [(0, z_floats(z))])
    assert fix.rows == [] and fix.singular == []
    inject_and_reset(bank, fix)
    assert bank.x[0] is x  # the pair keeps its prior
    assert np.array_equal(bank.P, P)


@pytest.mark.parametrize("range_m", [1.0, 2.0, 4.0, 10.0])
def test_update_gates_on_nis(range_m):
    # position jumps on both sides of the gate, at ranges where V is floored
    # (below 2.5 m) and range-scaled (above)
    state = NominalState(p=np.array([range_m, 0.0, 0.0]), v=np.zeros(3), q=np.array([1.0, 0, 0, 0]))
    belief = ErrorBelief(np.zeros(12), np.eye(12) * 1e-4)
    outcomes = set()
    for jump in np.linspace(0.0, 0.4 * max(1.0, range_m / 2.5), 41):
        p = np.array([range_m + jump, 0.5 * jump, 0.0])
        z = RawPoseMeasurement(p_ba=p, p_ab=-p, q_ba=np.array([1.0, 0, 0, 0]))
        gated = update(bank_of_one(state, belief.P), [(0, z_floats(z))]).rows == []
        assert gated == (nis(state, belief, z) > CHI2_9_999)
        outcomes.add(gated)
    assert outcomes == {True, False}


def test_chi2_gate_constant():
    from scipy.stats import chi2

    assert CHI2_9_999 == pytest.approx(chi2.ppf(0.999, df=9), rel=1e-12)


def test_true_state_composition():
    state = random_state()
    d = np.zeros(12)
    d[0:3] = [0.1, -0.2, 0.3]
    belief = ErrorBelief(d, np.eye(12))
    ts = true_state(state, belief)
    assert np.allclose(ts.p, state.p + d[0:3])  # no B-rotation when dtheta_B = 0
    d2 = np.zeros(12)
    d2[9:12] = [0.0, 0.0, 0.1]
    ts2 = true_state(state, ErrorBelief(d2, np.eye(12)))
    from relpose.geom import rotmat_from_rotvec

    assert np.allclose(ts2.p, rotmat_from_rotvec(d2[9:12]).T @ state.p, atol=1e-12)


def test_inject_and_reset_zeroes_delta():
    # the bank keeps no error mean: injecting delta moves the nominal state to
    # x (+) delta and remaps P through G, symmetrized
    state = random_state()
    d = RNG.uniform(-0.05, 0.05, 12)
    belief = ErrorBelief(d, INIT_P)
    bank = bank_of_one(state, np.zeros((12, 12)))
    inject_and_reset(bank, Correction([0], [d.tolist()], INIT_P[None].copy(), []))
    new_state = state_of(bank)
    expect = true_state(state, belief)
    assert np.allclose(new_state.p, expect.p)
    assert quat_angle_between(new_state.q, expect.q) < 1e-12
    G = reset_jacobian(d)
    assert np.allclose(bank.P[0], G @ INIT_P @ G.T, rtol=0.0, atol=1e-15)
    assert np.array_equal(bank.P[0], bank.P[0].T)


def test_reset_map_consistency():
    # composing x (+) delta must equal (x (+) delta_hat) (+) reset(delta),
    # to first order in the angles
    state = random_state()
    delta_hat = RNG.uniform(-0.01, 0.01, 12)
    delta = delta_hat + RNG.uniform(-0.001, 0.001, 12)
    direct = true_state(state, ErrorBelief(delta, np.eye(12)))
    mid = true_state(state, ErrorBelief(delta_hat, np.eye(12)))
    remapped = true_state(mid, ErrorBelief(reset_map(delta, delta_hat), np.eye(12)))
    assert np.allclose(remapped.p, direct.p, atol=1e-7)
    assert np.allclose(remapped.v, direct.v, atol=1e-7)
    assert quat_angle_between(remapped.q, direct.q) < 1e-6


def test_reset_jacobian_matches_reset_map():
    delta_hat = RNG.uniform(-0.05, 0.05, 12)
    G = reset_jacobian(delta_hat)
    h = 1e-6
    J_fd = np.zeros((12, 12))
    for k in range(12):
        e = np.zeros(12)
        e[k] = h
        J_fd[:, k] = (reset_map(delta_hat + e, delta_hat) - reset_map(delta_hat - e, delta_hat)) / (2 * h)
    assert np.max(np.abs(G - J_fd)) < 1e-9


def test_reset_jacobian_identity_at_zero():
    assert np.allclose(reset_jacobian(np.zeros(12)), np.eye(12))


def test_compute_H_against_finite_differences():
    x = np.array(floats(random_state()))
    H = compute_H(x.tolist())
    h = 1e-6
    J_fd = np.zeros((9, 12))
    for k in range(12):
        e = np.zeros(12)
        e[k] = h
        J_fd[:, k] = (measurement_map(x, e) - measurement_map(x, -e)) / (2 * h)
    assert np.max(np.abs(H - J_fd)) < 1e-6


def test_Fx_Fi_shapes_and_structure():
    state = random_state()
    u = random_input()
    ra, rb = imu_rows(u)
    Fx = compute_Fx(floats(state), ra, rb, u.dt)
    Fi = compute_Fi(state.q.tolist(), rb, u.dt)
    assert Fx.shape == (12, 12) and Fi.shape == (12, 12)
    # position error never reacts directly to IMU noise within a step
    assert np.allclose(Fi[0:3, :], 0.0)
    # A-side angle error does not affect the position error directly
    assert np.allclose(Fx[0:3, 6:9], 0.0)


def test_Fx_linearizes_the_step_predict_takes():
    # predict(x (+) delta) against predict(x) (+) Fx delta: what is left of a
    # small delta is the truncation of the first-order discretization, which
    # falls as dt^2; a wrong block of Fx would leave an O(dt) mismatch
    rng = np.random.default_rng(18)

    def step(state, rows, dt):
        bank = bank_of_one(state, INIT_P)
        predict(bank, rows, dt)
        return state_of(bank)

    for _ in range(3):
        state = random_state(rng)
        rows = imu_rows(random_input(rng))
        d = rng.normal(size=12)
        d *= 1e-4 / np.linalg.norm(d)
        mismatch = []
        for dt in (0.02, 0.01, 0.005, 0.0025):
            moved = step(true_state(state, ErrorBelief(d, None)), rows, dt)
            x1 = step(state, rows, dt)
            linear = true_state(x1, ErrorBelief(compute_Fx(floats(state), *rows, dt) @ d, None))
            rot = rotvec_from_quat(quat_mul(quat_conj(moved.q), linear.q))
            mismatch.append(np.linalg.norm([*(moved.p - linear.p), *(moved.v - linear.v), *rot]) / 1e-4)
        ratios = np.array(mismatch[:-1]) / mismatch[1:]
        assert np.all((ratios > 3.5) & (ratios < 4.5)), (mismatch, ratios)


def test_Fi_linearizes_the_step_predict_takes():
    # predict on IMU rows less a noise n = [a_nA, w_nA, a_nB, w_nB] against
    # predict(x) (+) Fi n: as for Fx, the truncation falls as dt^2 and a
    # wrong block of Fi would leave an O(dt) mismatch
    rng = np.random.default_rng(19)

    def step(state, rows, dt):
        bank = bank_of_one(state, INIT_P)
        predict(bank, rows, dt)
        return state_of(bank)

    for _ in range(3):
        state = random_state(rng)
        rows = imu_rows(random_input(rng))
        n = rng.normal(size=12)
        n *= 1e-4 / np.linalg.norm(n)
        noisy = [list(np.subtract(rows[0], n[:6])), list(np.subtract(rows[1], n[6:]))]
        mismatch = []
        for dt in (0.02, 0.01, 0.005, 0.0025):
            moved = step(state, noisy, dt)
            x1 = step(state, rows, dt)
            linear = true_state(x1, ErrorBelief(compute_Fi(floats(state)[6:], rows[1], dt) @ n, None))
            rot = rotvec_from_quat(quat_mul(quat_conj(moved.q), linear.q))
            mismatch.append(np.linalg.norm([*(moved.p - linear.p), *(moved.v - linear.v), *rot]) / 1e-4)
        ratios = np.array(mismatch[:-1]) / mismatch[1:]
        assert np.all((ratios > 3.5) & (ratios < 4.5)), (mismatch, ratios)


def test_singular_innovation_keeps_prior():
    # with p = 0 and q = identity the rotation rows of H are [0 0 I -I], so
    # P's theta_A block -ROT_SIGMA^2 I cancels the rotation noise in S exactly
    state = NominalState(p=np.zeros(3), v=np.zeros(3), q=np.array([1.0, 0, 0, 0]))
    P = np.zeros((12, 12))
    P[6:9, 6:9] = -(ROT_SIGMA**2) * np.eye(3)
    z = RawPoseMeasurement(p_ba=np.zeros(3), p_ab=np.zeros(3), q_ba=state.q.copy())
    H = compute_H(floats(state))
    assert np.array_equal((H @ P @ H.T)[6:9, 6:9], -(ROT_SIGMA**2) * np.eye(3))
    bank = bank_of_one(state, P)
    x = bank.x[0]
    fix = update(bank, [(0, z_floats(z))])
    assert fix.singular == [0] and fix.rows == []
    inject_and_reset(bank, fix)
    assert bank.x[0] is x and np.array_equal(bank.P[0], P)  # the pair keeps its prior


def test_filter_takes_imu_rows_as_lists_or_arrays():
    # the runner passes each IMU row as a float list; arrays must give the same bits
    rng = np.random.default_rng(11)
    rows = rng.normal(0.0, 0.5, (40, 2, 6))
    rows[:, :, 2] += 9.81
    z = [2.0, 0.5, 0.1, -2.0, -0.5, -0.1, 1.0, 0.0, 0.0, 0.0]
    out = []
    for tape in (rows, rows.tolist()):
        bank = FilterBank([(0, 1)])
        update(bank, [(0, z)])
        for k, ab in enumerate(tape):
            predict(bank, ab, 0.01)
            if k % 4 == 3:
                inject_and_reset(bank, update(bank, [(0, z)]))
        out.append(bank)
    arrays, lists = out
    assert np.array_equal(arrays.x[0], lists.x[0])
    assert np.array_equal(arrays.P, lists.P)
    assert not np.array_equal(arrays.x[0][:3], z[:3])  # the filter moved


def test_pair_starts_at_its_first_measurement():
    bank = FilterBank([(0, 1)])
    assert bank.x == [None]
    u = random_input()
    predict(bank, imu_rows(u), u.dt)  # silently ignored before the first measurement
    assert bank.x == [None] and not bank.P.any()
    z = [1.0, 0.0, 0.0, -1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0]
    fix = update(bank, [(0, z)])  # starts the pair: nothing to correct
    assert fix.rows == [] and fix.singular == []
    assert bank.x[0] == (1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0)
    assert np.array_equal(bank.P[0], INIT_P)


def test_first_measurement_is_copied_into_the_bank():
    z = [1.0, 0.0, 0.0, -1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0]
    bank = FilterBank([(0, 1), (0, 1)])
    update(bank, [(1, z)])
    z[0] = 99.0
    assert bank.x[0] is None and bank.x[1][0] == 1.0
    assert not bank.P[0].any() and np.array_equal(bank.P[1], INIT_P)
    bank.P[1, 0, 0] = 5.0
    assert INIT_P[0, 0] == 0.25  # the bank holds its own copy


# -- the bank: each pair's walk is its walk alone ---------------------------------

# ten pairs over six robots: (A's IMU row, B's IMU row)
BANK_PAIRS = [(1, 0), (2, 0), (3, 0), (4, 0), (5, 0), (2, 1), (3, 1), (4, 1), (5, 2), (4, 3)]
ME, NEVER, GATED, SINGULAR = 7, 0, 2, 9  # robot 5's rows (pairs 4 and 8) are sometimes not finite


def test_a_pair_walks_the_same_in_a_bank_of_ten():
    rng = np.random.default_rng(20)
    bank, alone = FilterBank(BANK_PAIRS), FilterBank([(0, 1)])
    a, b = BANK_PAIRS[ME]

    def measure(x):
        """A measurement near state x (10 floats), consistent with itself."""
        q = quat_normalize(np.array(x[6:]) + rng.normal(0.0, 0.002, 4))
        p = np.array(x[:3]) + rng.normal(0.0, 0.02, 3)
        return [*p, *(-rotmat_from_quat(q).T @ p), *q]

    starts = {n: [*rng.normal(0.0, 3.0, 3), *rng.normal(0.0, 3.0, 3), 1.0, 0.0, 0.0, 0.0] for n in range(10)}
    skipped = gated = singular = 0
    for k in range(400):
        rows = [(rng.normal(0.0, 0.3, 6) + [0.0, 0.0, 9.81, 0.0, 0.0, 0.0]).tolist() for _ in range(6)]
        if k % 7 == 3:
            rows[5] = None
            skipped += 1
        before = list(bank.x)
        predict(bank, rows, 0.01)
        predict(alone, [rows[a], rows[b]], 0.01)
        if rows[5] is None:
            assert bank.x[4] is before[4] and bank.x[8] is before[8]
        if k % 2:
            if k == 201:  # p = 0, q = I and a P that cancels the rotation noise: S is singular
                bank.x[SINGULAR] = (0.0,) * 6 + (1.0, 0.0, 0.0, 0.0)
                bank.P[SINGULAR] = 0.0
                bank.P[SINGULAR, 6:9, 6:9] = -(ROT_SIGMA**2) * np.eye(3)
            measured = []
            for n in range(1, 10):
                if n == ME and k % 10 == 9:
                    continue  # some ticks without the pair's own measurement
                x = bank.x[n]
                if x is None:
                    z = starts[n]
                elif n == SINGULAR and k == 201:
                    z = [0.0] * 6 + [1.0, 0.0, 0.0, 0.0]
                elif n == GATED and k > 100:
                    z = measure(x)
                    z[0] += 50.0  # far outside the gate
                else:
                    z = measure(x)
                measured.append((n, z))
            fix = update(bank, measured)
            gated += GATED in [n for n, _ in measured] and GATED not in fix.rows + fix.singular
            singular += fix.singular == [SINGULAR]
            inject_and_reset(bank, fix)
            mine = [z for n, z in measured if n == ME]
            if mine:
                inject_and_reset(alone, update(alone, [(0, mine[0])]))
        assert bank.x[ME] == alone.x[0], k
        assert np.array_equal(bank.P[ME], alone.P[0]), k
    assert bank.x[NEVER] is None and not bank.P[NEVER].any()
    assert skipped > 50 and gated > 100 and singular == 1
    assert alone.x[0] is not None


def test_prediction_alone_keeps_P_symmetric():
    # predict does not symmetrize P; over a long stretch without a
    # correction the asymmetry must stay at rounding level, a few ulp of |P|
    # per step at most
    rng = np.random.default_rng(21)
    bank = FilterBank([(0, 1)])
    update(bank, [(0, [2.0, 1.0, 0.5, -2.0, -1.0, -0.5, 1.0, 0.0, 0.0, 0.0])])
    steps = 2000
    for _ in range(steps):
        rows = rng.normal(0.0, [0.5, 0.5, 0.5, 0.3, 0.3, 0.3], (2, 6)) + [0.0, 0.0, 9.81, 0.0, 0.0, 0.0]
        predict(bank, rows.tolist(), 0.01)
    P = bank.P[0]
    assert np.abs(P - P.T).max() <= steps * 4 * np.finfo(float).eps * np.abs(P).max()
