import time

import numpy as np
import pytest

from relpose.codec import (
    GATE_PX,
    KEEP_PERIODS,
    MIN_PERIODS,
    IdLibrary,
    SpotTrack,
    SpotTracker,
    UnknownId,
    associate_spots,
    decode_id,
    lit_at,
)

RNG = np.random.default_rng(99)


def make_track(id_, lib, rate, n_periods, phase=0.0, flips_per_period=0):
    """Synthesize a track for one beacon at a given camera rate."""
    duty = lib.duty_of(id_)
    n = int(n_periods * lib.period * rate)
    track = SpotTrack(0)
    lit = [lit_at(k / rate, duty, lib.period, phase) for k in range(n + 1)]
    if flips_per_period:
        per = int(round(rate * lib.period))
        for p in range(n_periods):
            for k in RNG.choice(per, size=flips_per_period, replace=False):
                i = p * per + int(k)
                lit[i] = not lit[i]
    for k, l in enumerate(lit):
        track.add(k / rate, (100.0, 100.0), l)
    return track


def test_library_defaults():
    lib = IdLibrary()
    assert lib.period == 0.05
    assert [id_ for id_, _ in lib.entries] == list(range(8))
    assert lib.duty_of(0) == pytest.approx(0.1)
    assert lib.duty_of(7) == pytest.approx(0.8)
    with pytest.raises(UnknownId):
        lib.duty_of(42)


def test_library_rejects_crowded_duties():
    with pytest.raises(ValueError):
        IdLibrary(entries=((0, 0.10), (1, 0.15)))  # separation 0.05 <= 2*0.04
    with pytest.raises(ValueError):
        IdLibrary(entries=((0, 0.0),))
    with pytest.raises(ValueError):
        IdLibrary(period=0.0)


def test_lit_at_on_window_each_period():
    lib = IdLibrary()
    duty = lib.duty_of(3)
    for k in range(10):
        t_on = k * lib.period
        assert lit_at(t_on + 1e-6, duty, lib.period)
        assert lit_at(t_on + duty * lib.period - 1e-6, duty, lib.period)
        assert not lit_at(t_on + duty * lib.period + 1e-6, duty, lib.period)
        assert not lit_at(t_on + lib.period - 1e-6, duty, lib.period)


def test_lit_at_duty_fraction():
    lib = IdLibrary()
    for id_, duty in lib.entries:
        ts = np.linspace(0, lib.period, 10000, endpoint=False)
        frac = np.mean([lit_at(t, duty, lib.period) for t in ts])
        assert frac == pytest.approx(duty, abs=1e-3)


def test_decode_clean_all_ids():
    lib = IdLibrary()
    for id_, _ in lib.entries:
        track = make_track(id_, lib, rate=200.0, n_periods=3)
        assert decode_id(track, lib) == id_


def test_decode_with_phase_offset():
    lib = IdLibrary()
    for id_, _ in lib.entries:
        phase = RNG.uniform(0, lib.period)
        track = make_track(id_, lib, rate=200.0, n_periods=4, phase=phase)
        assert decode_id(track, lib) == id_


def test_decode_too_short_returns_none():
    lib = IdLibrary()
    track = make_track(2, lib, rate=200.0, n_periods=MIN_PERIODS - 1)
    assert decode_id(track, lib) is None
    assert decode_id(SpotTrack(0), lib) is None


def test_decode_garbage_returns_none():
    lib = IdLibrary()
    track = SpotTrack(0)
    lit = RNG.random(40) < 0.5
    for k in range(40):
        track.add(k / 200.0, (0.0, 0.0), bool(lit[k]))
    # random patterns should mostly be rejected; accept an occasional match
    # but never a confident wrong answer on an all-off pattern
    off = SpotTrack(1)
    for k in range(40):
        off.add(k / 200.0, (0.0, 0.0), False)
    assert decode_id(off, lib) is None


def test_decode_survives_one_flip_per_period():
    lib = IdLibrary()
    for id_, _ in lib.entries:
        track = make_track(id_, lib, rate=200.0, n_periods=4, phase=0.013, flips_per_period=1)
        assert decode_id(track, lib) == id_


def test_track_requires_increasing_time():
    track = SpotTrack(0)
    track.add(0.0, (1.0, 1.0), True)
    with pytest.raises(ValueError):
        track.add(0.0, (1.0, 1.0), False)


def test_associate_nearest_neighbor():
    prev = [(0, (100.0, 100.0)), (1, (300.0, 300.0))]
    curr = [(302.0, 301.0), (101.0, 99.0)]
    out = dict()
    for tid, px in associate_spots(prev, curr):
        out[px] = tid
    assert out[(101.0, 99.0)] == 0
    assert out[(302.0, 301.0)] == 1


def test_associate_gate_opens_new_track():
    prev = [(0, (100.0, 100.0))]
    out = associate_spots(prev, [(500.0, 500.0)])
    assert out == [(None, (500.0, 500.0))]
    # the gate is GATE_PX: a spot that far away keeps its track, one just beyond opens a new one
    assert associate_spots(prev, [(100.0 + GATE_PX, 100.0)]) == [(0, (100.0 + GATE_PX, 100.0))]
    beyond = (100.0, 100.0 + GATE_PX + 1e-9)
    assert associate_spots(prev, [beyond]) == [(None, beyond)]


def test_associate_one_to_one():
    # two detections near one track: only the closer one matches
    prev = [(0, (100.0, 100.0))]
    out = associate_spots(prev, [(101.0, 100.0), (104.0, 100.0)])
    matches = {px: tid for tid, px in out}
    assert matches[(101.0, 100.0)] == 0
    assert matches[(104.0, 100.0)] is None


def test_associate_order_invariant():
    prev = [(0, (10.0, 10.0)), (1, (50.0, 50.0))]
    curr_a = [(11.0, 10.0), (49.0, 50.0)]
    curr_b = list(reversed(curr_a))
    assert associate_spots(prev, curr_a) == associate_spots(prev, curr_b)


def test_tracker_end_to_end():
    lib = IdLibrary()
    tracker = SpotTracker(lib)
    rate = 200.0
    decoded = {}
    for k in range(int(0.5 * rate) + 1):
        t = k / rate
        dets = [
            (100.0 + 0.1 * k, 100.0, lit_at(t, lib.duty_of(2), lib.period)),
            (400.0, 250.0 - 0.1 * k, lit_at(t, lib.duty_of(6), lib.period)),
        ]
        decoded = tracker.step(t, dets)
    assert set(decoded) == {2, 6}


def test_tracker_drops_stale_tracks():
    lib = IdLibrary()
    tracker = SpotTracker(lib)
    tracker.step(0.0, [(100.0, 100.0, True)])
    assert len(tracker.tracks) == 1
    tracker.step(1.0, [])  # way past 3 periods
    assert len(tracker.tracks) == 0


def test_decoded_track_keeps_only_its_last_sample():
    lib = IdLibrary()
    tracker = SpotTracker(lib)
    rate = 200.0
    for k in range(2000):
        t = k / rate
        lit = lit_at(t, lib.duty_of(4), lib.period)
        decoded = tracker.step(t, [(320.0, 240.0, lit)])
    assert decoded == {4: 0}
    (track,) = tracker.tracks.values()
    assert track.samples == [(t, (320.0, 240.0), lit)]


def test_undecoded_track_keeps_a_bounded_window():
    # a reflection lit in every frame never decodes: its track keeps only the
    # last KEEP_PERIODS periods, so each frame costs the same however long it
    # has been seen (it held every sample and each frame re-read all of them)
    lib = IdLibrary()
    tracker = SpotTracker(lib)
    rate, seconds = 200.0, 120
    bound = KEEP_PERIODS * lib.period * rate + 1
    per_10s = []
    for k in range(int(seconds * rate) + 1):
        if k % 2000 == 0:
            per_10s.append(time.process_time())
        assert tracker.step(k / rate, [(320.0, 240.0, True)]) == {}
        assert len(tracker.tracks[0].samples) <= bound
    first, last = per_10s[1] - per_10s[0], per_10s[-1] - per_10s[-2]
    assert last < 5.0 * first, (first, last)
