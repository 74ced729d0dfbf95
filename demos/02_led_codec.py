"""LED duty-cycle identification.

Each robot blinks its LED with an ID-specific duty rate. A peer camera
samples the blink pattern over a few periods and recovers the ID by
matching the observed on/off pattern against the library. The decoder
tolerates one corrupted sample per period.
"""

import numpy as np

from relpose.codec import IdLibrary, SpotTrack, decode_id, lit_at


def main() -> None:
    lib = IdLibrary()
    cam_rate = 200.0
    horizon = 3 * lib.period
    rng = np.random.default_rng(7)

    print(f"library: period {lib.period*1e3:.0f} ms, duties "
          f"{[d for _, d in lib.entries]}")

    for id_, duty in lib.entries:
        phase = rng.uniform(0, lib.period)  # camera start vs. LED phase
        times = phase + np.arange(int(horizon * cam_rate) + 1) / cam_rate
        lit = [lit_at(t, duty, lib.period) for t in times]

        # Corrupt one sample per period, as a real tracker would suffer.
        for k in range(3):
            j = rng.integers(k * 10, (k + 1) * 10)
            lit[j] = not lit[j]

        track = SpotTrack(track_id=id_)
        for t, on in zip(times, lit):
            track.add(t, (0.0, 0.0), on)
        print(f"id {id_} (duty {duty:.1f}) -> decoded {decode_id(track, lib)}")

    # A track shorter than three periods is refused rather than guessed.
    short = SpotTrack(track_id=99)
    for t in np.arange(0, 2 * lib.period, 1 / cam_rate):
        short.add(float(t), (0.0, 0.0), t % lib.period < 0.4 * lib.period)
    print(f"short track decodes to: {decode_id(short, lib)}")


if __name__ == "__main__":
    main()
