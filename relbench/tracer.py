"""Spans around the calls `run_scenario` makes into each relpose module.

`Tracer.install` replaces public functions and methods with wrappers that
record one span per call: name, start, end, parent span and operation id,
plus a small note taken from the arguments or the result (a decoded ID, an
LM iteration count, an exception name). Spans stay in memory; `write`
stores them as CSV when the run ends and `layer_metrics` reduces them to
the per-layer figures. `uninstall` puts every original back.
"""

from __future__ import annotations

import csv
import functools
import time
from pathlib import Path

import numpy as np

import relpose.codec
import relpose.eskf
import relpose.metrics
import relpose.pgo
import relpose.runner
import relpose.scenario
import relpose.world

# (owner, attribute, span name, note taken after the call)
_TARGETS = [
    (relpose.runner, "run_scenario", "runner.run_scenario", None),
    (relpose.runner, "write_outputs", "runner.write_outputs",
     lambda args, out: sum(p.stat().st_size for p in Path(args[1]).iterdir())),
    (relpose.runner, "export_ground_truth", "runner.export_ground_truth", None),
    (relpose.runner, "compute_metrics", "metrics.compute_metrics", None),
    (relpose.runner, "solve", "pgo.solve", lambda args, out: (out[1].iterations, out[1].converged)),
    (relpose.runner, "raw_estimate", "rawpose.raw_estimate", None),
    (relpose.runner, "ds_unproject", "camera.ds_unproject", None),
    (relpose.runner, "error_series", "metrics.error_series", None),
    (relpose.metrics, "error_series", "metrics.error_series", None),
    (relpose.eskf, "predict", "eskf.predict", None),
    # update returns its input belief unchanged when the gate rejects
    (relpose.eskf, "update", "eskf.update", lambda args, out: out is not args[1]),
    (relpose.eskf, "inject_and_reset", "eskf.inject_and_reset", None),
    (relpose.world, "eval_trajectory", "trajectory.eval_trajectory", None),
    (relpose.pgo, "residual", "pgo.residual", None),
    (relpose.codec, "decode_id", "codec.decode_id", lambda args, out: out is not None),
    (relpose.codec.SpotTracker, "step", "codec.step", lambda args, out: (args[1], bool(out))),
    (relpose.world.World, "relative_truth", "world.relative_truth", None),
    (relpose.scenario, "load_config", "scenario.load_config", None),
]

# span fields
NAME, OP, PARENT, T0, T1, NOTE = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.op, parent, time.perf_counter(), 0.0, None])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> list:
        span = self.spans[sid]
        span[T1] = time.perf_counter()
        self._stack.pop()
        return span

    def _wrap(self, fn, name: str, note):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException as e:
                tracer._close(sid)[NOTE] = type(e).__name__
                raise
            span = tracer._close(sid)
            if note is not None:
                span[NOTE] = note(args, out)
            return out

        return wrapper

    def _wrap_frames(self, fn):
        """World.frames is a generator: one span per frame, covering the work
        done in the generator to produce it (truth evaluation and synthesis)."""
        tracer = self

        @functools.wraps(fn)
        def frames(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                sid = tracer._open("world.frames")
                try:
                    frame = next(gen)
                except StopIteration:
                    tracer._close(sid)
                    tracer.spans.pop()  # the end of iteration is not a frame
                    return
                except BaseException as e:
                    tracer._close(sid)[NOTE] = type(e).__name__
                    raise
                tracer._close(sid)
                yield frame

        return frames

    def install(self) -> None:
        for owner, attr, name, note in _TARGETS:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, note))
        fn = relpose.world.World.frames
        self._saved.append((relpose.world.World, "frames", fn))
        relpose.world.World.frames = self._wrap_frames(fn)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["id", "name", "op", "parent", "t0_s", "t1_s", "note"])
            for sid, s in enumerate(self.spans):
                w.writerow([sid, s[NAME], s[OP], s[PARENT], repr(s[T0]), repr(s[T1]), s[NOTE]])


def layer_metrics(spans: list[list], n_ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer figures of the traced operations: counts and busy time per
    operation, medians over all spans, and outcome ratios."""
    by_name: dict[str, list[int]] = {}
    child_s = np.zeros(len(spans))
    for sid, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(sid)
        if s[PARENT] >= 0:
            child_s[s[PARENT]] += s[T1] - s[T0]

    def ids(name):
        return by_name.get(name, [])

    def dur(name) -> np.ndarray:
        return np.array([spans[i][T1] - spans[i][T0] for i in ids(name)])

    def notes(name) -> list:
        return [spans[i][NOTE] for i in ids(name)]

    def per_op(x: float) -> float:
        return float(x) / n_ops

    def median(x: np.ndarray, scale: float) -> float:
        return float(np.median(x)) * scale if x.size else 0.0

    def share(hits: int, total: int) -> float:
        return hits / total if total else 0.0

    def self_s(name) -> float:
        return per_op(sum(spans[i][T1] - spans[i][T0] - child_s[i] for i in ids(name)))

    m: dict[str, tuple[float, str]] = {}

    def calls(name):
        m[f"{name}.calls"] = (per_op(len(ids(name))), "count")

    def busy(name):
        m[f"{name}.busy_s"] = (per_op(dur(name).sum()), "s")

    calls("trajectory.eval_trajectory")
    busy("trajectory.eval_trajectory")

    m["world.frames.count"] = (per_op(len(ids("world.frames"))), "count")
    m["world.frames.self_s"] = (self_s("world.frames"), "s")
    calls("world.relative_truth")

    calls("codec.step")
    busy("codec.step")
    calls("codec.decode_id")
    decoded = notes("codec.decode_id")
    m["codec.decode_id.yield"] = (share(sum(1 for d in decoded if d is True), len(decoded)), "ratio")
    # simulated time from an observer's first camera frame to its first decoded
    # ID, median over the operations (one tracker per observer; the earliest wins)
    first: dict[int, float] = {}
    start: dict[int, float] = {}
    for i in ids("codec.step"):
        op, (t, any_decoded) = spans[i][OP], spans[i][NOTE]
        start.setdefault(op, t)
        if any_decoded and op not in first:
            first[op] = t - start[op]
    m["codec.first_decode_s"] = (float(np.median(list(first.values()))) if first else 0.0, "s")

    calls("camera.ds_unproject")
    busy("camera.ds_unproject")

    calls("rawpose.raw_estimate")
    busy("rawpose.raw_estimate")
    m["rawpose.raw_estimate.degenerate"] = (
        per_op(sum(1 for n in notes("rawpose.raw_estimate") if n is not None)), "count"
    )

    for name in ("eskf.predict", "eskf.update"):
        calls(name)
        m[f"{name}.median_us"] = (median(dur(name), 1e6), "us")
        busy(name)
    accepted = notes("eskf.update")
    m["eskf.update.accepted"] = (share(sum(1 for a in accepted if a is True), len(accepted)), "ratio")
    busy("eskf.inject_and_reset")

    calls("pgo.solve")
    m["pgo.solve.median_ms"] = (median(dur("pgo.solve"), 1e3), "ms")
    busy("pgo.solve")
    reports = [n for n in notes("pgo.solve") if isinstance(n, tuple)]
    m["pgo.solve.iterations"] = (per_op(sum(it for it, _ in reports)), "count")
    m["pgo.solve.converged"] = (share(sum(1 for _, ok in reports if ok), len(ids("pgo.solve"))), "ratio")
    calls("pgo.residual")

    busy("metrics.compute_metrics")
    calls("metrics.error_series")

    m["runner.run_scenario.self_s"] = (self_s("runner.run_scenario"), "s")
    # one tick of the frame loop: from asking for frame k to asking for frame k+1
    ticks = []
    frame_ids = ids("world.frames")
    for a, b in zip(frame_ids, frame_ids[1:]):
        if spans[a][OP] == spans[b][OP]:
            ticks.append(spans[b][T0] - spans[a][T0])
    ticks = np.array(ticks)
    m["runner.frame.p50_ms"] = (float(np.percentile(ticks, 50)) * 1e3 if ticks.size else 0.0, "ms")
    m["runner.frame.p99_ms"] = (float(np.percentile(ticks, 99)) * 1e3 if ticks.size else 0.0, "ms")
    busy("runner.write_outputs")
    busy("runner.export_ground_truth")
    m["runner.write_outputs.bytes"] = (
        per_op(sum(n for n in notes("runner.write_outputs") if isinstance(n, int))), "bytes"
    )
    busy("scenario.load_config")
    return m
