"""The benchmark's tracer still finds every function it wraps, and its configs still load.

`relbench/tracer.py` wraps relpose functions by name from outside the
package. A refactor that renames one, or stops calling it through its
module, makes the traced benchmark fail or report zeros; this catches it
in the unit tests. Likewise a config check that rejects a field of
`relbench/workloads.py` would fail every benchmark operation.
"""

import sys
from collections import Counter
from pathlib import Path

import relpose.world
from relpose.runner import build_world, run_scenario
from relpose.scenario import config_from_dict, load_config

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "relbench"))

import tracer  # noqa: E402
import workloads  # noqa: E402


def team_config():
    circle = {"kind": "circle", "center": [4, 0, 1], "radius": 1.0, "omega": 0.5}
    return config_from_dict(
        {
            "version": 1,
            "seed": 3,
            "duration": 1.0,
            "ego": 0,
            "estimator": "pgo",
            "pairs": "all",
            "id_mode": "oracle",
            "rates": {"imu": 100.0, "cam": 50.0, "uwb": 25.0},
            "robots": [
                {"id": 0, "trajectory": {"kind": "static", "center": [0, 0, 1]}},
                {"id": 1, "trajectory": circle},
                {"id": 2, "trajectory": {"kind": "static", "center": [3, 3, 1]}},
            ],
        }
    )


def test_tracer_wraps_the_estimator_calls():
    targets = [(owner, attr) for owner, attr, _, _ in tracer._TARGETS]
    targets.append((relpose.world.World, "frames"))
    originals = [getattr(owner, attr) for owner, attr in targets]
    t = tracer.Tracer()
    t.install()
    try:
        run_scenario(team_config())
    finally:
        t.uninstall()
    spans = Counter(span[tracer.NAME] for span in t.spans)
    estimators = ("eskf.predict", "eskf.update", "eskf.inject_and_reset", "pgo.solve")
    # the raw measurements are formed once per chunk, through the runner's names
    for name in estimators + ("rawpose.raw_estimate", "camera.ds_unproject"):
        assert spans[name] > 0, name
    assert [getattr(owner, attr) for owner, attr in targets] == originals


def test_frames_spans_cover_synthesis():
    # world.frames.self_s means synthesis: frames() does no work until it is
    # iterated, and the traced run opens one span per chunk it yields
    cfg = team_config()
    world = build_world(cfg)
    before = {key: rng.bit_generator.state for key, rng in world._rng.items()}
    gen = world.frames(cfg.duration)
    assert world._grid is None
    assert {key: rng.bit_generator.state for key, rng in world._rng.items()} == before
    chunks = [next(gen)]
    assert world._grid is not None
    assert {key: rng.bit_generator.state for key, rng in world._rng.items()} != before
    chunks += list(gen)
    # the master ticks of the 1 s run at 100 Hz: [0, 100) and [100]
    assert [world.truth_grid(cfg.duration).ticks(ch.t).tolist() for ch in chunks] == [list(range(100)), [100]]

    t = tracer.Tracer()
    t.install()
    try:
        run_scenario(cfg)
    finally:
        t.uninstall()
    spans = Counter(span[tracer.NAME] for span in t.spans)
    assert spans["world.frames"] == len(chunks) == 2


def test_benchmark_configs_pass_the_config_check(tmp_path):
    # a field the check rejects would fail every operation of the benchmark
    scenarios = sorted((ROOT / "scenarios").glob("*.json"))
    assert len(scenarios) == 6
    for path in scenarios:
        load_config(path)
    for wl in workloads.WORKLOADS.values():
        for seed in (0, 1001):
            assert workloads.setup(wl, seed, tmp_path).seed == seed
