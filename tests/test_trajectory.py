import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import relpose
from relpose.geom import quat_conj, quat_mul, rotvec_from_quat
from relpose.trajectory import (
    AttitudeProfile,
    OutOfDomain,
    TrajectorySpec,
    eval_trajectory,
    eval_trajectory_array,
)
from scalar_reference import eval_trajectory_scalar

SPECS = [
    TrajectorySpec(kind="static", duration=10.0, center=(1.0, -2.0, 3.0)),
    TrajectorySpec(kind="circle", duration=10.0, center=(0, 0, 1), radius=2.0, omega=0.7, phase=0.3),
    TrajectorySpec(
        kind="lissajous",
        duration=10.0,
        center=(1, 1, 1),
        amplitude=(1.0, 0.5, 0.3),
        freq=(0.2, 0.3, 0.15),
        phase3=(0.1, 0.0, 0.4),
    ),
    TrajectorySpec(
        kind="waypoints",
        duration=10.0,
        waypoints=[(0.0, (0, 0, 0)), (3.0, (1, 2, 0.5)), (7.0, (-1, 1, 1)), (10.0, (0, 0, 0))],
    ),
]

ATT = AttitudeProfile(rpy0=(0.1, -0.05, 0.2), amp=(0.3, 0.2, 0.1), freq=(0.25, 0.4, 0.1), yaw_rate=0.2)


@pytest.mark.parametrize("spec", SPECS, ids=[s.kind for s in SPECS])
def test_velocity_is_position_derivative(spec):
    h = 1e-6
    for t in np.linspace(0.5, 9.5, 13):
        s = eval_trajectory(spec, t)
        fd = (eval_trajectory(spec, t + h).p - eval_trajectory(spec, t - h).p) / (2 * h)
        assert np.allclose(s.v, fd, atol=1e-5)


@pytest.mark.parametrize("spec", SPECS, ids=[s.kind for s in SPECS])
def test_acceleration_is_velocity_derivative(spec):
    h = 1e-6
    for t in np.linspace(0.5, 9.5, 13):
        s = eval_trajectory(spec, t)
        fd = (eval_trajectory(spec, t + h).v - eval_trajectory(spec, t - h).v) / (2 * h)
        assert np.allclose(s.a, fd, atol=1e-4)


def test_body_rate_matches_quaternion_derivative():
    spec = TrajectorySpec(kind="static", duration=10.0, attitude=ATT)
    h = 1e-6
    for t in np.linspace(0.5, 9.5, 13):
        s = eval_trajectory(spec, t)
        q0 = eval_trajectory(spec, t - h).q
        q1 = eval_trajectory(spec, t + h).q
        # body rate from the right-sided difference: w = Log(q0^-1 q1) / 2h
        w_fd = rotvec_from_quat(quat_mul(quat_conj(q0), q1)) / (2 * h)
        assert np.allclose(s.w_body, w_fd, atol=1e-5)


def test_static_has_zero_motion():
    s = eval_trajectory(SPECS[0], 4.2)
    assert np.allclose(s.p, [1.0, -2.0, 3.0])
    assert np.allclose(s.v, 0) and np.allclose(s.a, 0) and np.allclose(s.w_body, 0)


def test_circle_radius_and_speed():
    spec = SPECS[1]
    for t in (0.0, 2.5, 7.1):
        s = eval_trajectory(spec, t)
        assert np.linalg.norm(s.p - spec.center) == pytest.approx(spec.radius)
        assert np.linalg.norm(s.v) == pytest.approx(spec.radius * spec.omega)


def test_waypoints_interpolate_knots():
    spec = SPECS[3]
    for t, p in spec.waypoints:
        s = eval_trajectory(spec, t)
        assert np.allclose(s.p, p, atol=1e-9)
    # clamped spline: zero velocity at the ends
    assert np.allclose(eval_trajectory(spec, 0.0).v, 0.0, atol=1e-9)
    assert np.allclose(eval_trajectory(spec, 10.0).v, 0.0, atol=1e-9)


def test_out_of_domain():
    with pytest.raises(OutOfDomain):
        eval_trajectory(SPECS[0], -0.5)
    with pytest.raises(OutOfDomain):
        eval_trajectory(SPECS[0], 10.5)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        TrajectorySpec(kind="spiral", duration=1.0)


def test_waypoints_need_two_knots():
    with pytest.raises(ValueError):
        TrajectorySpec(kind="waypoints", duration=1.0, waypoints=[(0.0, (0, 0, 0))])


def test_attitude_profile_angles_and_rates():
    h = 1e-6
    for t in np.linspace(0, 5, 7):
        fd = (ATT.angles(t + h) - ATT.angles(t - h)) / (2 * h)
        assert np.allclose(ATT.rates(t), fd, atol=1e-5)


def test_yaw_ramp():
    att = AttitudeProfile(yaw_rate=0.5)
    assert att.angles(2.0)[2] == pytest.approx(1.0)
    assert att.rates(2.0)[2] == pytest.approx(0.5)


# level, negative angles and rates, an aggressive sweep through zero, and
# angles exactly zero or inside the first-order branch below 1e-8 rad
ATTITUDES = [
    AttitudeProfile(),
    AttitudeProfile(rpy0=(-0.3, -0.1, -1.0), amp=(0.5, -0.4, 0.2), freq=(0.3, 0.2, 0.1),
                    phase=(0.0, 1.0, -2.0), yaw_rate=-0.7),
    AttitudeProfile(amp=(2.409, 1.518, 0.0), freq=(0.25, 0.2, 0.0), yaw_rate=0.314),
    AttitudeProfile(rpy0=(3e-9, -5e-9, 0.0), yaw_rate=-1e-10),
    AttitudeProfile(yaw_rate=-1.3),  # yaw alone, past 2 pi
]


@pytest.mark.parametrize("att", ATTITUDES, ids=["level", "negative", "sweep", "small", "spin"])
@pytest.mark.parametrize("spec", SPECS, ids=[s.kind for s in SPECS])
def test_array_evaluator_equals_scalar_reference(spec, att):
    spec = replace(spec, attitude=att)
    t = np.arange(2001) / 200.0  # includes t = 0, where every profile angle is its base
    got = eval_trajectory_array(spec, t)
    for k in range(0, t.size, 7):
        want = eval_trajectory_scalar(spec, float(t[k]))
        for name in ("p", "v", "a", "q", "w_body"):
            g, w = getattr(got, name)[k], getattr(want, name)
            assert np.array_equal(g, w) and np.array_equal(np.signbit(g), np.signbit(w)), (name, t[k])


def test_scalar_evaluator_is_one_row():
    spec = replace(SPECS[2], attitude=ATTITUDES[1])
    row = eval_trajectory(spec, 3.7)
    want = eval_trajectory_scalar(spec, 3.7)
    for name in ("p", "v", "a", "q", "w_body"):
        assert np.array_equal(getattr(row, name), getattr(want, name))


def test_array_out_of_domain():
    with pytest.raises(OutOfDomain, match="-0.5"):
        eval_trajectory_array(SPECS[0], np.array([0.0, -0.5, 1.0]))
    with pytest.raises(OutOfDomain, match="10.5"):
        eval_trajectory_array(SPECS[0], np.array([0.0, 10.0, 10.5]))
    assert eval_trajectory_array(SPECS[0], np.array([0.0, 10.0])).p.shape == (2, 3)


def test_scipy_imported_only_for_waypoint_paths():
    # scipy's interpolate takes most of a cold `import relpose.runner`; only
    # the waypoints kind needs it
    env = dict(os.environ)
    pkg_root = str(Path(relpose.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [pkg_root, env.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        "import relpose.runner, relpose.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "from relpose.trajectory import TrajectorySpec\n"
        "TrajectorySpec(kind='waypoints', duration=1.0, waypoints=[(0.0, (0, 0, 0)), (1.0, (1, 0, 0))])\n"
        "print('scipy.interpolate' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "True"]
