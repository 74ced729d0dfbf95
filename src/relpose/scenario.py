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
                "pixel_sigma":1.0,"attitude_rp_sigma":0.2},  // the simulator's and the filter's
      "obstacles": [{"shape":"box","center":[x,y,z],"extents":[ex,ey,ez]}],  // or "cylinder"
      "robots": [{"id":0,"led":0,"trajectory":{...}}, ...]
    }

Every object below the top level is read by the types of the dataclass it
fills (`_read`): trajectories are `relpose.trajectory.TrajectorySpec`, their
"attitude" `AttitudeProfile` (angles in radians), "camera" `DsIntrinsics`,
"noise" `NoiseParams` and each obstacle `Obstacle`. A vector is a list of
exactly three finite numbers. An unknown or missing field, a value that is
not of its field's type (a non-finite number, text where a number goes, a
non-integral seed, ego, id or led, null where an object goes) is a
`ConfigError` that names the field's path, e.g. `trajectory.center[0]`.
"""

from __future__ import annotations

import functools
import json
import math
import typing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from pathlib import Path

from .camera import DEFAULT_INTRINSICS, DsIntrinsics
from .codec import IdLibrary
from .trajectory import TrajectorySpec
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


def _check_fields(d, known, where: str, required: tuple = ()) -> dict:
    """d itself; ConfigError unless it is an object with the required fields and no unknown one."""
    if not isinstance(d, dict):
        raise ConfigError(f"{where}: expected an object, got {d!r}")
    for k in required:
        if k not in d:
            raise ConfigError(f"{k}: missing from {where}")
    bad = set(d) - set(known)
    if bad:
        raise ConfigError(f"{where}: unknown fields {sorted(bad)}")
    return d


@functools.cache
def _schema(cls) -> tuple[dict, tuple]:
    """The field types of dataclass cls, and the names of its fields without a default."""
    hints = typing.get_type_hints(cls)
    required = tuple(f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING)
    return {f.name: hints[f.name] for f in fields(cls)}, required


_SCALARS = {str: "a string", int: "an integer", float: "a finite number"}


def _read(tp, value, where: str):
    """value read as type tp: a finite float, a whole int, a str, a fixed-length tuple,
    a list, or a dataclass from an object of its fields; ConfigError naming where otherwise."""
    if tp in _SCALARS:
        if tp is str and isinstance(value, str):
            return value
        if tp is not str and isinstance(value, (int, float)) and not isinstance(value, bool):
            try:
                if isinstance(value, int) or math.isfinite(value) and (tp is float or value.is_integer()):
                    return tp(value)
            except OverflowError:  # an integer too large for a float
                pass
        raise ConfigError(f"{where}: expected {_SCALARS[tp]}, got {value!r}")
    if is_dataclass(tp):
        types, required = _schema(tp)
        _check_fields(value, types, where, required)
        kwargs = {k: _read(types[k], x, f"{where}.{k}") for k, x in value.items()}
        try:
            return tp(**kwargs)
        except ValueError as e:
            raise ConfigError(f"{where}: {e}") from e
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is list and isinstance(value, list):
        return [_read(args[0], x, f"{where}[{n}]") for n, x in enumerate(value)]
    if origin is tuple and isinstance(value, list) and len(value) == len(args):
        return tuple(_read(t, x, f"{where}[{n}]") for n, (t, x) in enumerate(zip(args, value)))
    size = f" of {len(args)} values" if origin is tuple else ""
    raise ConfigError(f"{where}: expected a list{size}, got {value!r}")


# top-level fields read by the type of the ScenarioConfig field of the same name
_TOP = ("seed", "ego", "estimator", "pairs", "id_mode", "pgo_rate", "camera", "noise", "obstacles")


def config_from_dict(d: dict) -> ScenarioConfig:
    known = {"version", "duration", "rates", "robots", *_TOP}
    _check_fields(d, known, "config", ("version", "robots", "duration"))
    if _read(int, d["version"], "version") != 1:
        raise ConfigError(f"version: expected 1, got {d['version']!r}")
    duration = _read(float, d["duration"], "duration")
    if not isinstance(d["robots"], list):
        raise ConfigError(f"robots: expected a list, got {d['robots']!r}")
    robots = []
    for n, r in enumerate(d["robots"]):
        _check_fields(r, {"id", "led", "trajectory"}, f"robots[{n}]", ("id", "trajectory"))
        rid = _read(int, r["id"], f"robots[{n}].id")
        led = _read(int, r.get("led", rid), f"robots[{n}].led")
        traj = r["trajectory"]
        if isinstance(traj, dict):  # a trajectory's duration defaults to the run's
            traj = {"duration": duration, **traj}
        robots.append((rid, _read(TrajectorySpec, traj, "trajectory"), led))
    types = _schema(ScenarioConfig)[0]
    kwargs = {k: _read(types[k], d[k], k) for k in _TOP if k in d}
    kwargs.setdefault("ego", robots[0][0] if robots else 0)
    rates = _check_fields(d.get("rates", {}), ("imu", "cam", "uwb"), "rates")
    kwargs.update({f"{k}_rate": _read(float, x, f"rates.{k}") for k, x in rates.items()})
    return ScenarioConfig(robots=robots, duration=duration, **kwargs)


def read_config(path: str | Path) -> dict:
    """The JSON object of a config file, not yet checked."""
    path = Path(path)
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: not valid JSON: {e}") from e


def load_config(path: str | Path) -> ScenarioConfig:
    return config_from_dict(read_config(path))
