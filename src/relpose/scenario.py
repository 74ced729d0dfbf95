"""Scenario configuration: schema, validation, JSON loading.

Schema (JSON, ``version: 1``) — all fields with defaults may be omitted:

    {
      "version": 1,
      "seed": 42,                  // >= 0, seeds the sensor noise
      "duration": 10.0,            // seconds, a whole number of ticks of the fastest rate
      "ego": 0,                    // observer whose frame PGO fixes
      "estimator": "eskf",         // "raw" | "eskf" | "pgo"
      "pairs": "ego",              // "ego" | "all" (which filters run)
      "id_mode": "codec",          // "codec" | "oracle"
      "pgo_rate": 10.0,            // Hz, divides the camera rate
      "rates": {"imu": 100.0, "cam": 200.0, "uwb": 50.0},  // each divides the fastest
      "camera": {"fx":285,"fy":285,"cx":320,"cy":320,
                 "xi":-0.18,"alpha":0.59,"fov_deg":185},
      "noise": {"accel_density":183.3,"gyro_density":0.021,"uwb_sigma":0.05,
                "pixel_sigma":1.0,"attitude_rp_sigma":0.2},
      "obstacles": [{"shape":"box","center":[x,y,z],"extents":[ex,ey,ez]}],
      "robots": [{"id":0,"led":0,"trajectory":{...}}, ...]
    }

Trajectory objects mirror `relpose.trajectory.TrajectorySpec`; the nested
"attitude" object mirrors `AttitudeProfile` (angles in radians). An unknown
field, a non-numeric value or a non-integral seed, ego, id or led is a
`ConfigError`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from .camera import DEFAULT_INTRINSICS, DsIntrinsics
from .codec import IdLibrary
from .trajectory import AttitudeProfile, TrajectorySpec
from .world import NoiseParams, Obstacle, stride


class ConfigError(ValueError):
    """Invalid scenario config; the message names the offending field."""


@dataclass
class ScenarioConfig:
    robots: list[tuple[int, TrajectorySpec, int]]  # (id, trajectory, led id)
    duration: float
    seed: int = 0
    ego: int = 0
    estimator: str = "eskf"  # raw | eskf | pgo
    pairs: str = "ego"  # ego | all
    id_mode: str = "codec"  # codec | oracle
    pgo_rate: float = 10.0
    imu_rate: float = 100.0
    cam_rate: float = 200.0
    uwb_rate: float = 50.0
    camera: DsIntrinsics = DEFAULT_INTRINSICS
    noise: NoiseParams = field(default_factory=NoiseParams)
    obstacles: list[Obstacle] = field(default_factory=list)

    def __post_init__(self):
        ids = [r[0] for r in self.robots]
        if len(ids) < 2:
            raise ConfigError("robots: at least 2 robots required")
        if len(set(ids)) != len(ids):
            raise ConfigError("robots: ids must be unique")
        if self.ego not in ids:
            raise ConfigError(f"ego: robot {self.ego} not in robots")
        leds = sorted(i for i, _ in IdLibrary().entries)
        owner: dict[int, int] = {}
        for rid, _, led in self.robots:
            if led not in leds:
                raise ConfigError(f"robots: robot {rid} has led {led}, not an LED id of the library {leds}")
            if led in owner:
                raise ConfigError(f"robots: robots {owner[led]} and {rid} both have led {led}")
            owner[led] = rid
        if self.estimator not in ("raw", "eskf", "pgo"):
            raise ConfigError(f"estimator: unknown value {self.estimator!r}")
        if self.pairs not in ("ego", "all"):
            raise ConfigError(f"pairs: unknown value {self.pairs!r}")
        if self.id_mode not in ("codec", "oracle"):
            raise ConfigError(f"id_mode: unknown value {self.id_mode!r}")
        for name in ("duration", "pgo_rate", "imu_rate", "cam_rate", "uwb_rate"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name}: must be positive")
        master = max(self.imu_rate, self.cam_rate, self.uwb_rate)
        clocks = [("rates", master, r) for r in (self.imu_rate, self.cam_rate, self.uwb_rate)]
        if self.estimator == "pgo":  # the graph is solved on every k-th camera frame
            clocks.append(("pgo_rate", self.cam_rate, self.pgo_rate))
        for name, fast, rate in clocks:
            try:
                stride(fast, rate)
            except ValueError as e:
                raise ConfigError(f"{name}: {e}") from e
        ticks = self.duration * master  # the run ends on a master tick
        if abs(ticks - round(ticks)) > 1e-9 * max(ticks, 1.0):
            raise ConfigError(
                f"duration: {self.duration:g} s is not a whole number of {master:g} Hz master ticks"
            )
        if self.seed < 0:
            raise ConfigError(f"seed: must be >= 0, got {self.seed}")
        for rid, spec, _ in self.robots:
            if spec.duration < self.duration:
                raise ConfigError(f"robots: robot {rid}'s trajectory ends at {spec.duration:g} s, before the run")


def _check_fields(d, known: set, where: str, required: tuple = ()) -> dict:
    """d itself; ConfigError unless it is an object with the required fields and no unknown one."""
    if not isinstance(d, dict):
        raise ConfigError(f"{where}: expected an object, got {d!r}")
    for k in required:
        if k not in d:
            raise ConfigError(f"{k}: missing from {where}")
    bad = set(d) - known
    if bad:
        raise ConfigError(f"{where}: unknown fields {sorted(bad)}")
    return d


def _number(x, name: str, integer: bool = False):
    """x as a float, or as an int; ConfigError unless it is a finite number, a whole one for an int."""
    try:
        ok = isinstance(x, int) or math.isfinite(x) and (not integer or x.is_integer())
        if ok and not isinstance(x, bool):
            return int(x) if integer else float(x)
    except (TypeError, OverflowError):
        pass
    raise ConfigError(f"{name}: expected {'an integer' if integer else 'a finite number'}, got {x!r}")


def _from_numbers(cls, d, where: str):
    """Dataclass cls built from an object of some of its float fields."""
    _check_fields(d, {f.name for f in fields(cls)}, where)
    kwargs = {k: _number(x, f"{where}.{k}") for k, x in d.items()}
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{where}: {e}") from e


def _attitude_from_dict(d: dict) -> AttitudeProfile:
    _check_fields(d, {"rpy0", "amp", "freq", "phase", "yaw_rate"}, "trajectory.attitude")
    kwargs = {}
    for k in ("rpy0", "amp", "freq", "phase"):
        if k in d:
            kwargs[k] = tuple(float(x) for x in d[k])
    if "yaw_rate" in d:
        kwargs["yaw_rate"] = float(d["yaw_rate"])
    return AttitudeProfile(**kwargs)


def _trajectory_from_dict(d: dict, duration: float) -> TrajectorySpec:
    kwargs = dict(_check_fields(d, {f.name for f in fields(TrajectorySpec)}, "trajectory", ("kind",)))
    att = kwargs.pop("attitude", None)
    kwargs.setdefault("duration", duration)
    for k in ("duration", "radius", "omega", "phase"):
        if k in kwargs:
            kwargs[k] = _number(kwargs[k], f"trajectory.{k}")
    try:
        if "waypoints" in kwargs:
            kwargs["waypoints"] = [(float(t), tuple(map(float, p))) for t, p in kwargs["waypoints"]]
        for k in ("center", "amplitude", "freq", "phase3"):
            if k in kwargs:
                kwargs[k] = tuple(float(x) for x in kwargs[k])
        return TrajectorySpec(attitude=_attitude_from_dict(att) if att else AttitudeProfile(), **kwargs)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"trajectory: {e}") from e


def config_from_dict(d: dict) -> ScenarioConfig:
    top = {"version", "seed", "duration", "ego", "estimator", "pairs", "id_mode", "pgo_rate", "rates", "robots"}
    _check_fields(d, top | {"camera", "noise", "obstacles"}, "config", ("version", "robots", "duration"))
    if _number(d["version"], "version", integer=True) != 1:
        raise ConfigError(f"version: expected 1, got {d['version']!r}")
    for key in ("robots", "obstacles"):
        if not isinstance(d.get(key, []), list):
            raise ConfigError(f"{key}: expected a list, got {d[key]!r}")
    duration = _number(d["duration"], "duration")
    robots = []
    for n, r in enumerate(d["robots"]):
        _check_fields(r, {"id", "led", "trajectory"}, f"robots[{n}]", ("id", "trajectory"))
        rid = _number(r["id"], f"robots[{n}].id", integer=True)
        led = _number(r.get("led", rid), f"robots[{n}].led", integer=True)
        robots.append((rid, _trajectory_from_dict(r["trajectory"], duration), led))
    noise = _from_numbers(NoiseParams, d.get("noise", {}), "noise")
    camera = _from_numbers(DsIntrinsics, d["camera"], "camera") if "camera" in d else DEFAULT_INTRINSICS
    obstacles = []
    for n, ob in enumerate(d.get("obstacles", [])):
        _check_fields(ob, {"shape", "center", "extents"}, f"obstacles[{n}]", ("shape", "center", "extents"))
        try:
            obstacles.append(
                Obstacle(ob["shape"], tuple(map(float, ob["center"])), tuple(map(float, ob["extents"])))
            )
        except (TypeError, ValueError) as e:
            raise ConfigError(f"obstacles: {e}") from e
    rates = _check_fields(d.get("rates", {}), {"imu", "cam", "uwb"}, "rates")
    return ScenarioConfig(
        robots=robots,
        duration=duration,
        seed=_number(d.get("seed", 0), "seed", integer=True),
        ego=_number(d.get("ego", robots[0][0] if robots else 0), "ego", integer=True),
        estimator=d.get("estimator", "eskf"),
        pairs=d.get("pairs", "ego"),
        id_mode=d.get("id_mode", "codec"),
        pgo_rate=_number(d.get("pgo_rate", 10.0), "pgo_rate"),
        imu_rate=_number(rates.get("imu", 100.0), "rates.imu"),
        cam_rate=_number(rates.get("cam", 200.0), "rates.cam"),
        uwb_rate=_number(rates.get("uwb", 50.0), "rates.uwb"),
        camera=camera,
        noise=noise,
        obstacles=obstacles,
    )


def load_config(path: str | Path) -> ScenarioConfig:
    path = Path(path)
    try:
        d = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: not valid JSON: {e}") from e
    return config_from_dict(d)
