"""LED duty-cycle ID encoding/decoding and frame-to-frame spot association.

Each beacon blinks with a fixed period (default 50 ms) and an ID-specific
duty rate. An observer samples the spot intensity at its camera rate and
identifies the beacon from the lit/unlit pattern. Decoding matches the
observed pattern against each library entry over an unknown constant phase
offset (minimum Hamming distance), which stays reliable when individual
samples are corrupted -- plain duty counting is biased by flipped samples
at low duty rates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class UnknownId(KeyError):
    pass


@dataclass(frozen=True)
class IdLibrary:
    """ID -> duty-rate table for one beacon population.

    Default duties are multiples of 0.1: at the stock 200 Hz camera against
    a 50 ms period (10 samples/period) these produce exactly duty*10 lit
    samples per period for every phase, so clean tracks decode exactly.
    """

    period: float = 0.05  # seconds
    entries: tuple[tuple[int, float], ...] = tuple((i, 0.1 * (i + 1)) for i in range(8))
    duty_tolerance: float = 0.04

    def __post_init__(self):
        if self.period <= 0:
            raise ValueError("period must be positive")
        duties = [d for _, d in self.entries]
        if any(not (0.0 < d < 1.0) for d in duties):
            raise ValueError("duty rates must be in (0, 1)")
        for i, a in enumerate(duties):
            for b in duties[i + 1 :]:
                if abs(a - b) <= 2.0 * self.duty_tolerance:
                    raise ValueError(
                        f"duty rates {a} and {b} closer than 2 * tolerance"
                    )

    def duty_of(self, id_: int) -> float:
        for i, d in self.entries:
            if i == id_:
                return d
        raise UnknownId(id_)


MIN_PERIODS = 3  # whole periods a track must span before decoding
# whole periods an undecoded track keeps: more than twice the longest span a
# track needed to decode on two_robot_auto, seeds 0-4 (4.4 periods), so that
# a spot which never decodes costs each frame a bounded time and memory
KEEP_PERIODS = 10
GATE_PX = 25.0  # farthest a spot moves between two frames and keeps its track


@dataclass
class SpotTrack:
    """One tracked image spot: (t, pixel, lit) samples plus its decoded ID.

    Until the ID is decoded, `SpotTracker` keeps the samples of the last
    KEEP_PERIODS periods; once it is decoded, only the latest sample.
    """

    track_id: int
    samples: list[tuple[float, tuple[float, float], bool]] = field(default_factory=list)
    decoded_id: int | None = None

    def add(self, t: float, pixel: tuple[float, float], lit: bool) -> None:
        if self.samples and t <= self.samples[-1][0]:
            raise ValueError("timestamps must be strictly increasing")
        self.samples.append((t, pixel, lit))

    @property
    def last_pixel(self) -> tuple[float, float]:
        return self.samples[-1][1]

    @property
    def last_t(self) -> float:
        return self.samples[-1][0]


def lit_at(t: float, duty: float, period: float, phase: float = 0.0) -> bool:
    """True when the LED is on at time t (on-window is [0, duty*period)).

    The off-transition is excluded with a 1 ns guard so a sample landing
    exactly on the boundary does not flip with float rounding.
    """
    return ((t - phase) % period) < duty * period - 1e-9


def _pattern_distance(times: np.ndarray, lit: np.ndarray, duty: float, period: float) -> int:
    """Min Hamming distance to the ideal duty pattern over a phase grid."""
    n_per = max(int(round(period / np.median(np.diff(times)))), 1)
    # half-cell offset keeps predicted window edges off the sample grid,
    # where float rounding would make the comparison ambiguous
    m = 8 * n_per
    phases = (np.arange(m) + 0.5) * (period / m)
    rel = (times[None, :] - phases[:, None]) % period
    predicted = rel < duty * period
    return int(np.min(np.sum(predicted != lit[None, :], axis=1)))


def decode_id(track: SpotTrack, lib: IdLibrary) -> int | None:
    """Decode a track's beacon ID; None when undecided.

    Uses the samples covering the last whole periods of the track. An entry
    is accepted only when it is the strictly unique best pattern match and
    its mismatch fraction stays within duty_tolerance plus one sample per
    period of quantization slack.
    """
    if len(track.samples) < 2:
        return None
    times = np.array([s[0] for s in track.samples])
    lit = np.array([s[2] for s in track.samples])
    span = times[-1] - times[0]
    n_periods = int(span / lib.period + 1e-9)
    if n_periods < MIN_PERIODS:
        return None
    # trim to whole periods (measured from the end of the track)
    keep = times > times[-1] - n_periods * lib.period - 1e-12
    times, lit = times[keep], lit[keep]
    if not lit.any() or lit.all():
        return None  # a real duty pattern shows both states over whole periods
    n_per_period = len(times) / n_periods

    dists = [(i, _pattern_distance(times, lit, d, lib.period)) for i, d in lib.entries]
    dists.sort(key=lambda x: x[1])
    best_id, best = dists[0]
    runner = dists[1][1] if len(dists) > 1 else np.inf
    max_mismatch = (lib.duty_tolerance + 1.0 / n_per_period) * len(times)
    if best > max_mismatch or runner <= best:
        return None
    return best_id


def associate_spots(
    prev: list[tuple[int, tuple[float, float]]], curr: list[tuple[float, float]]
) -> list[tuple[int | None, tuple[float, float]]]:
    """Greedy one-to-one nearest-neighbor matching within GATE_PX pixels.

    Returns (track_id, pixel) per current detection; track_id is None for
    detections that open a new track. Result order is sorted by pixel so the
    matching is invariant to the order of the input detections.
    """
    curr_sorted = sorted(curr)
    pairs = []
    for ci, c in enumerate(curr_sorted):
        for tid, p in prev:
            d = np.hypot(c[0] - p[0], c[1] - p[1])
            if d <= GATE_PX:
                pairs.append((d, ci, tid))
    pairs.sort()
    used_c: set[int] = set()
    used_t: set[int] = set()
    assigned: dict[int, int] = {}
    for d, ci, tid in pairs:
        if ci in used_c or tid in used_t:
            continue
        assigned[ci] = tid
        used_c.add(ci)
        used_t.add(tid)
    return [(assigned.get(ci), c) for ci, c in enumerate(curr_sorted)]


class SpotTracker:
    """Stateful per-observer tracker: associates spots, decodes IDs.

    Single-threaded by design; one instance per observing robot.
    """

    def __init__(self, lib: IdLibrary):
        self.lib = lib
        self.tracks: dict[int, SpotTrack] = {}
        self._next_id = 0
        self._stale_after = 3.0 * lib.period

    def step(self, t: float, detections: list[tuple[float, float, bool]]) -> dict[int, int]:
        """Feed one frame of (u, v, lit) detections.

        Returns {beacon_id: track_id} for every currently decoded track.
        """
        prev = [(tid, tr.last_pixel) for tid, tr in self.tracks.items()]
        matches = associate_spots(prev, [(u, v) for u, v, _ in detections])
        lit_by_pixel = {(u, v): lit for u, v, lit in detections}
        for tid, pixel in matches:
            if tid is None:
                tid = self._next_id
                self._next_id += 1
                self.tracks[tid] = SpotTrack(tid)
            self.tracks[tid].add(t, pixel, lit_by_pixel[pixel])
        # drop tracks that stopped being observed
        stale = [tid for tid, tr in self.tracks.items() if t - tr.last_t > self._stale_after]
        for tid in stale:
            del self.tracks[tid]
        out: dict[int, int] = {}
        for tid, tr in self.tracks.items():
            if tr.decoded_id is None:
                tr.decoded_id = decode_id(tr, self.lib)
            if tr.decoded_id is not None:
                del tr.samples[:-1]  # a decoded track is never decoded again
                out[tr.decoded_id] = tid
            else:
                horizon = tr.last_t - KEEP_PERIODS * self.lib.period
                while tr.samples[0][0] < horizon:
                    del tr.samples[0]
        return out
