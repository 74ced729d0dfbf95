import json
import re

import numpy as np
import pytest

from relpose.camera import DsIntrinsics
from relpose.runner import build_world
from relpose.scenario import ConfigError, ScenarioConfig, config_from_dict, load_config
from relpose.trajectory import AttitudeProfile, TrajectorySpec
from relpose.world import NoiseParams, Obstacle


def minimal_dict(**extra):
    d = {
        "version": 1,
        "duration": 5.0,
        "robots": [
            {"id": 0, "trajectory": {"kind": "static", "center": [0, 0, 1]}},
            {"id": 1, "trajectory": {"kind": "static", "center": [3, 0, 1]}},
        ],
    }
    d.update(extra)
    return d


def test_minimal_config():
    cfg = config_from_dict(minimal_dict())
    assert cfg.duration == 5.0
    assert cfg.ego == 0
    assert cfg.estimator == "eskf"
    assert [r[0] for r in cfg.robots] == [0, 1]
    assert cfg.robots[0][2] == 0  # led defaults to the robot id


def test_version_required():
    d = minimal_dict()
    d["version"] = 2
    with pytest.raises(ConfigError, match="version"):
        config_from_dict(d)
    del d["version"]
    with pytest.raises(ConfigError, match="version"):
        config_from_dict(d)


def test_missing_fields():
    with pytest.raises(ConfigError, match="duration"):
        config_from_dict({"version": 1, "robots": minimal_dict()["robots"]})
    with pytest.raises(ConfigError, match="robots"):
        config_from_dict({"version": 1, "duration": 5.0})


def test_robot_validation():
    d = minimal_dict()
    d["robots"] = d["robots"][:1]
    with pytest.raises(ConfigError, match="at least 2"):
        config_from_dict(d)
    d = minimal_dict()
    d["robots"][1]["id"] = 0
    with pytest.raises(ConfigError, match="unique"):
        config_from_dict(d)
    d = minimal_dict(ego=5)
    with pytest.raises(ConfigError, match="ego"):
        config_from_dict(d)


def test_unknown_led_rejected():
    d = minimal_dict()
    d["robots"][1]["led"] = 9
    with pytest.raises(ConfigError, match="robot 1 has led 9"):
        config_from_dict(d)
    d = minimal_dict()
    d["robots"][0]["id"] = 8  # the led defaults to the robot id
    with pytest.raises(ConfigError, match="robot 8 has led 8"):
        config_from_dict(minimal_dict(ego=8, robots=d["robots"]))
    d = minimal_dict()
    d["robots"][1]["led"] = 7  # the library's last id
    assert config_from_dict(d).robots[1][2] == 7


def test_repeated_led_rejected():
    d = minimal_dict()
    d["robots"].append({"id": 2, "led": 1, "trajectory": {"kind": "static", "center": [0, 3, 1]}})
    with pytest.raises(ConfigError, match="robots 1 and 2 both have led 1"):
        config_from_dict(d)
    d = minimal_dict()
    d["robots"][0]["led"] = 1  # robot 1's led defaults to its id
    with pytest.raises(ConfigError, match="robots 0 and 1 both have led 1"):
        config_from_dict(d)
    d["robots"][1]["led"] = 0  # swapped ids are distinct
    assert [r[2] for r in config_from_dict(d).robots] == [1, 0]


def test_enum_fields_validated():
    with pytest.raises(ConfigError, match="estimator"):
        config_from_dict(minimal_dict(estimator="magic"))
    with pytest.raises(ConfigError, match="pairs"):
        config_from_dict(minimal_dict(pairs="some"))
    with pytest.raises(ConfigError, match="id_mode"):
        config_from_dict(minimal_dict(id_mode="psychic"))


def test_bad_trajectory_kind():
    d = minimal_dict()
    d["robots"][0]["trajectory"]["kind"] = "zigzag"
    with pytest.raises(ConfigError, match="trajectory"):
        config_from_dict(d)


def test_trajectory_missing_kind():
    d = minimal_dict()
    del d["robots"][0]["trajectory"]["kind"]
    with pytest.raises(ConfigError, match="kind"):
        config_from_dict(d)


def test_attitude_unknown_field_rejected():
    d = minimal_dict()
    d["robots"][0]["trajectory"]["attitude"] = {"wobble": 3}
    with pytest.raises(ConfigError, match="attitude"):
        config_from_dict(d)


def test_camera_and_noise_override():
    d = minimal_dict(
        camera={"fx": 300, "fy": 300, "cx": 100, "cy": 100, "xi": 0.0, "alpha": 0.5},
        noise={"uwb_sigma": 0.1},
    )
    cfg = config_from_dict(d)
    assert cfg.camera.fx == 300
    assert cfg.noise.uwb_sigma == 0.1
    assert cfg.noise.pixel_sigma == 1.0  # untouched default


def test_seed_propagates_to_noise():
    cfg = config_from_dict(minimal_dict(seed=123))
    assert cfg.seed == 123

    def first_imu(cfg):
        chunk = next(build_world(cfg).frames(cfg.duration))
        return chunk.imu[0, chunk.imu_row[0], :3]

    same = config_from_dict(minimal_dict(seed=123))
    other = config_from_dict(minimal_dict(seed=124))
    assert np.array_equal(first_imu(cfg), first_imu(same))
    assert not np.array_equal(first_imu(cfg), first_imu(other))


def test_seed_inside_noise_rejected():
    # the seed is top-level only; a second copy in "noise" could disagree with it
    with pytest.raises(ConfigError, match="noise"):
        config_from_dict(minimal_dict(noise={"seed": 5}))


def test_obstacles_parsed():
    d = minimal_dict(obstacles=[{"shape": "box", "center": [1, 0, 1], "extents": [0.5, 0.5, 1]}])
    cfg = config_from_dict(d)
    assert len(cfg.obstacles) == 1
    assert cfg.obstacles[0].shape == "box"
    with pytest.raises(ConfigError, match="obstacles"):
        config_from_dict(minimal_dict(obstacles=[{"shape": "box"}]))


def test_rates_parsed():
    cfg = config_from_dict(minimal_dict(rates={"imu": 400.0, "cam": 100.0, "uwb": 20.0}))
    assert (cfg.imu_rate, cfg.cam_rate, cfg.uwb_rate) == (400.0, 100.0, 20.0)
    with pytest.raises(ConfigError, match="imu_rate"):
        config_from_dict(minimal_dict(rates={"imu": -1.0}))


def test_rates_must_divide_the_fastest():
    with pytest.raises(ConfigError, match="rates: 30 Hz does not divide 100 Hz"):
        config_from_dict(minimal_dict(rates={"imu": 100.0, "cam": 30.0, "uwb": 50.0}))


def test_duration_must_be_a_whole_number_of_master_ticks():
    rates = {"imu": 200.0, "cam": 100.0, "uwb": 50.0}  # scenarios/two_robot_manual.json
    for duration in (1.006, 1.0025):  # 201.2 and 200.5 ticks of the 200 Hz master clock
        with pytest.raises(ConfigError, match=f"duration: {duration:g} s is not a whole number of 200 Hz"):
            config_from_dict(minimal_dict(duration=duration, rates=rates))
    for duration in (1.005, 1.055, 20.01, 0.1):  # 201, 211, 4002 and 20 ticks
        assert config_from_dict(minimal_dict(duration=duration, rates=rates)).duration == duration


def test_pgo_rate_must_divide_the_camera_rate():
    rates = {"imu": 100.0, "cam": 100.0, "uwb": 50.0}
    for pgo_rate in (40.0, 200.0):  # every 2.5th and every half camera frame
        with pytest.raises(ConfigError, match="pgo_rate"):
            config_from_dict(minimal_dict(estimator="pgo", rates=rates, pgo_rate=pgo_rate))
    assert config_from_dict(minimal_dict(estimator="pgo", rates=rates, pgo_rate=25.0)).pgo_rate == 25.0
    assert config_from_dict(minimal_dict(estimator="eskf", rates=rates, pgo_rate=40.0)).pgo_rate == 40.0


def test_negative_seed_rejected():
    with pytest.raises(ConfigError, match="seed"):
        config_from_dict(minimal_dict(seed=-1))


def test_trajectory_shorter_than_the_run_rejected():
    d = minimal_dict(duration=2.0)
    d["robots"][1]["trajectory"]["duration"] = 1.0
    with pytest.raises(ConfigError, match="robot 1's trajectory ends at 1 s"):
        config_from_dict(d)
    d["robots"][1]["trajectory"]["duration"] = 3.0
    assert config_from_dict(d).robots[1][1].duration == 3.0


def test_waypoints_must_span_the_trajectory():
    for knots in ([0.0, 1.0], [0.5, 2.0]):
        d = minimal_dict(duration=2.0)
        d["robots"][1]["trajectory"] = {"kind": "waypoints", "waypoints": [[t, [3, 0, 1]] for t in knots]}
        with pytest.raises(ConfigError, match="waypoints span"):
            config_from_dict(d)
    d["robots"][1]["trajectory"]["waypoints"] = [[0.0, [3, 0, 1]], [2.0, [4, 0, 1]]]
    assert config_from_dict(d).robots[1][1].kind == "waypoints"


def test_unknown_fields_rejected():
    # a misspelt field is an error, not ignored while its default runs
    with pytest.raises(ConfigError, match=r"config: unknown fields \['estimater'\]"):
        config_from_dict(minimal_dict(estimater="pgo"))
    with pytest.raises(ConfigError, match=r"rates: unknown fields \['camera'\]"):
        config_from_dict(minimal_dict(rates={"imu": 100.0, "camera": 100.0}))
    d = minimal_dict()
    d["robots"][1]["LED"] = 3
    with pytest.raises(ConfigError, match=r"robots\[1\]: unknown fields \['LED'\]"):
        config_from_dict(d)
    obstacle = {"shape": "box", "center": [1, 0, 1], "extents": [0.5, 0.5, 1], "radius": 2}
    with pytest.raises(ConfigError, match=r"obstacles\[0\]: unknown fields \['radius'\]"):
        config_from_dict(minimal_dict(obstacles=[obstacle]))
    with pytest.raises(ConfigError, match=r"noise: unknown fields \['pixel'\]"):
        config_from_dict(minimal_dict(noise={"pixel": 2.0}))


def test_non_integral_ids_rejected():
    for extra, message in [
        ({"seed": 1.5}, "seed: expected an integer, got 1.5"),
        ({"seed": True}, "seed: expected an integer, got True"),
        ({"ego": 0.5}, "ego: expected an integer, got 0.5"),
        ({"ego": "0"}, "ego: expected an integer, got '0'"),
    ]:
        with pytest.raises(ConfigError, match=re.escape(message)):
            config_from_dict(minimal_dict(**extra))
    for field, value in [("id", "one"), ("id", 1.5), ("led", 2.5), ("led", None)]:
        d = minimal_dict()
        d["robots"][1][field] = value
        with pytest.raises(ConfigError, match=re.escape(f"robots[1].{field}: expected an integer, got {value!r}")):
            config_from_dict(d)
    cfg = config_from_dict(minimal_dict(seed=7.0, ego=1.0))  # whole floats are integers
    assert (cfg.seed, cfg.ego) == (7, 1) and type(cfg.seed) is int


def test_non_numeric_values_rejected():
    # each of these is an error at load, not a traceback or a failure late in the run
    for extra, message in [
        ({"duration": "ten"}, "duration: expected a finite number, got 'ten'"),
        ({"duration": float("nan")}, "duration: expected a finite number, got nan"),
        ({"pgo_rate": "x"}, "pgo_rate: expected a finite number, got 'x'"),
        ({"rates": {"imu": "fast"}}, "rates.imu: expected a finite number, got 'fast'"),
        ({"rates": {"cam": float("inf")}}, "rates.cam: expected a finite number, got inf"),
        ({"noise": {"uwb_sigma": "x"}}, "noise.uwb_sigma: expected a finite number, got 'x'"),
        ({"camera": {"fx": 285, "fy": 285, "cx": "a", "cy": 320, "xi": 0, "alpha": 0.5}}, "camera.cx: expected"),
        ({"robots": []}, "robots: at least 2 robots required"),
    ]:
        with pytest.raises(ConfigError, match=re.escape(message)):
            config_from_dict(minimal_dict(**extra))
    nan, inf = float("nan"), float("inf")
    for field, value, message in [
        ("radius", "big", "trajectory.radius: expected a finite number, got 'big'"),
        ("center", ["a", 0, 1], "trajectory.center[0]: expected a finite number, got 'a'"),
        # each of these ran something else without an error
        ("center", "123", "trajectory.center: expected a list of 3 values, got '123'"),
        ("center", ["0", "0", "1"], "trajectory.center[0]: expected a finite number, got '0'"),
        ("center", [True, 0, 1], "trajectory.center[0]: expected a finite number, got True"),
        ("center", [0, nan, 1], "trajectory.center[1]: expected a finite number, got nan"),
        ("amplitude", [1.0, inf, 0.0], "trajectory.amplitude[1]: expected a finite number, got inf"),
        ("attitude", {"yaw_rate": "0.1"}, "trajectory.attitude.yaw_rate: expected a finite number, got '0.1'"),
        ("attitude", None, "trajectory.attitude: expected an object, got None"),
        (
            "waypoints",
            [[0.0, [0, 0, "1"]], [5.0, [1, 0, 1]]],
            "trajectory.waypoints[0][1][2]: expected a finite number, got '1'",
        ),
        # each of these stopped with a traceback
        ("center", [0.0, 1.0], "trajectory.center: expected a list of 3 values, got [0.0, 1.0]"),
        ("attitude", {"rpy0": [0.0, 0.1]}, "trajectory.attitude.rpy0: expected a list of 3 values, got [0.0, 0.1]"),
    ]:
        d = minimal_dict()
        d["robots"][1]["trajectory"] |= {"kind": "circle", field: value}
        with pytest.raises(ConfigError, match=re.escape(message)):
            config_from_dict(d)


def test_misshapen_values_rejected():
    # each of these is an error at load
    for extra, message in [
        ({"robots": 5}, "robots: expected a list, got 5"),
        ({"obstacles": 5}, "obstacles: expected a list, got 5"),
        ({"obstacles": [{"shape": "box"}]}, "center: missing from obstacles[0]"),
        ({"version": True}, "version: expected an integer, got True"),
        # a NaN ran, and a short vector stopped with a traceback
        (
            {"obstacles": [{"shape": "box", "center": [float("nan"), 0, 1], "extents": [0.5, 0.5, 1]}]},
            "obstacles[0].center[0]: expected a finite number, got nan",
        ),
        (
            {"obstacles": [{"shape": "box", "center": [3, 0], "extents": [0.5, 0.5, 1]}]},
            "obstacles[0].center: expected a list of 3 values, got [3, 0]",
        ),
    ]:
        with pytest.raises(ConfigError, match=re.escape(message)):
            config_from_dict(minimal_dict(**extra))
    d = minimal_dict()
    d["robots"][1]["trajectory"] = "static"
    with pytest.raises(ConfigError, match="trajectory: expected an object, got 'static'"):
        config_from_dict(d)
    del d["robots"][1]["trajectory"]
    with pytest.raises(ConfigError, match=re.escape("trajectory: missing from robots[1]")):
        config_from_dict(d)
    with pytest.raises(ConfigError, match="config: expected an object"):
        config_from_dict([minimal_dict()])


def test_every_schema_field_is_read():
    # each field set away from its default; integers where floats go must load as floats
    attitude = {"rpy0": [0.1, -0.1, 1], "amp": [0.05, 0.04, 0], "freq": [0.3, 0.2, 0.1], "phase": [1, 2, 3]}
    d = {
        "version": 1,
        "seed": 11,
        "duration": 3,
        "ego": 2,
        "estimator": "pgo",
        "pairs": "all",
        "id_mode": "oracle",
        "pgo_rate": 20,
        "rates": {"imu": 400, "cam": 200, "uwb": 100},
        "camera": {"fx": 300, "fy": 310, "cx": 330, "cy": 315, "xi": -0.1, "alpha": 0.6, "fov_deg": 180},
        "noise": {"accel_density": 100, "gyro_density": 0.03, "uwb_sigma": 0.1, "pixel_sigma": 2,
                  "attitude_rp_sigma": 0.5},
        "obstacles": [
            {"shape": "box", "center": [4, 0, 1], "extents": [0.3, 0.2, 2]},
            {"shape": "cylinder", "center": [2, 2, 0], "extents": [0.5, 0.5, 1.5]},
        ],
        "robots": [
            {"id": 2, "led": 5, "trajectory": {"kind": "static", "center": [0, 0, 1], "attitude": attitude}},
            {
                "id": 4,
                "trajectory": {
                    "kind": "circle", "duration": 4, "center": [8, 0, 1], "radius": 1.5, "omega": -0.7,
                    "phase": 1, "attitude": {"yaw_rate": 0.2},
                },
            },
            {
                "id": 1,
                "led": 7,
                "trajectory": {
                    "kind": "lissajous", "center": [0, 6, 1], "amplitude": [1, 2, 0.5], "freq": [0.2, 0.1, 0.3],
                    "phase3": [0, 1, 2], "attitude": {"amp": [0.1, 0.1, 0], "freq": [0.5, 0.5, 0]},
                },
            },
            {
                "id": 0,
                "led": 3,
                "trajectory": {
                    "kind": "waypoints", "waypoints": [[0, [1, 1, 1]], [1.5, [2, 1, 1]], [3, [2, 2, 1]]],
                    "attitude": {"phase": [0.5, 0, 0], "freq": [1, 0, 0], "amp": [0.2, 0, 0]},
                },
            },
        ],
    }
    expected = ScenarioConfig(
        robots=[
            (2, TrajectorySpec("static", 3.0, center=(0.0, 0.0, 1.0), attitude=AttitudeProfile(
                rpy0=(0.1, -0.1, 1.0), amp=(0.05, 0.04, 0.0), freq=(0.3, 0.2, 0.1), phase=(1.0, 2.0, 3.0),
            )), 5),
            (4, TrajectorySpec(
                "circle", 4.0, center=(8.0, 0.0, 1.0), radius=1.5, omega=-0.7, phase=1.0,
                attitude=AttitudeProfile(yaw_rate=0.2),
            ), 4),
            (1, TrajectorySpec(
                "lissajous", 3.0, center=(0.0, 6.0, 1.0), amplitude=(1.0, 2.0, 0.5), freq=(0.2, 0.1, 0.3),
                phase3=(0.0, 1.0, 2.0), attitude=AttitudeProfile(amp=(0.1, 0.1, 0.0), freq=(0.5, 0.5, 0.0)),
            ), 7),
            (0, TrajectorySpec(
                "waypoints", 3.0, waypoints=[(0.0, (1.0, 1.0, 1.0)), (1.5, (2.0, 1.0, 1.0)), (3.0, (2.0, 2.0, 1.0))],
                attitude=AttitudeProfile(phase=(0.5, 0.0, 0.0), freq=(1.0, 0.0, 0.0), amp=(0.2, 0.0, 0.0)),
            ), 3),
        ],
        duration=3.0,
        seed=11,
        ego=2,
        estimator="pgo",
        pairs="all",
        id_mode="oracle",
        pgo_rate=20.0,
        imu_rate=400.0,
        cam_rate=200.0,
        uwb_rate=100.0,
        camera=DsIntrinsics(fx=300.0, fy=310.0, cx=330.0, cy=315.0, xi=-0.1, alpha=0.6, fov_deg=180.0),
        noise=NoiseParams(
            accel_density=100.0, gyro_density=0.03, uwb_sigma=0.1, pixel_sigma=2.0, attitude_rp_sigma=0.5
        ),
        obstacles=[
            Obstacle("box", (4.0, 0.0, 1.0), (0.3, 0.2, 2.0)),
            Obstacle("cylinder", (2.0, 2.0, 0.0), (0.5, 0.5, 1.5)),
        ],
    )
    cfg = config_from_dict(d)
    assert cfg == expected
    assert repr(cfg) == repr(expected)  # tells 1 from 1.0 and a list from a tuple


def test_load_config_json_errors(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        load_config(p)
    good = tmp_path / "ok.json"
    good.write_text(json.dumps(minimal_dict()))
    assert load_config(good).duration == 5.0


def test_bundled_scenarios_parse():
    from pathlib import Path

    root = Path(__file__).resolve().parents[1] / "scenarios"
    found = sorted(root.glob("*.json"))
    assert len(found) >= 6
    for p in found:
        cfg = load_config(p)
        assert cfg.duration > 0
