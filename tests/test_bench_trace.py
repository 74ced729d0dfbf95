"""The benchmark's tracer still finds every function it wraps.

`relbench/tracer.py` wraps relpose functions by name from outside the
package. A refactor that renames one, or stops calling it through its
module, makes the traced benchmark fail or report zeros; this catches it
in the unit tests.
"""

import sys
from collections import Counter
from pathlib import Path

import relpose.world
from relpose.runner import build_world, run_scenario
from relpose.scenario import config_from_dict

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "relbench"))

import tracer  # noqa: E402


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
    # iterated, and the traced run opens one span per frame it yields
    cfg = team_config()
    world = build_world(cfg)
    before = {key: rng.bit_generator.state for key, rng in world._rng.items()}
    frames = world.frames(cfg.duration)
    assert world._grid is None
    assert {key: rng.bit_generator.state for key, rng in world._rng.items()} == before
    next(frames)
    assert world._grid is not None
    assert {key: rng.bit_generator.state for key, rng in world._rng.items()} != before
    n_frames = 1 + sum(1 for _ in frames)

    t = tracer.Tracer()
    t.install()
    try:
        run_scenario(cfg)
    finally:
        t.uninstall()
    spans = Counter(span[tracer.NAME] for span in t.spans)
    assert n_frames == 101
    assert spans["world.frames"] == n_frames
