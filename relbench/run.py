"""relpose benchmark: real-time factor of scenario runs, and per-layer timings.

    python3 relbench/run.py --workload {pair_eskf,team_pgo,codec_cli,all}
                            --seed N --seconds S --trace {0,1}

One process, one thread (BLAS pools pinned to one thread), operations back
to back in a closed loop for about S seconds. An operation is one
`run_scenario` for one seed plus the checks on its outputs (see
`workloads.py`, `checks.py`); a failed check fails the operation. Rounds of
operations share a seed derived from --seed, and a round starts only when
it is expected to end within S seconds.

--trace 0 reports the end-to-end metrics: setup_s, op_s, rtf, peak_rss_mb.
--trace 1 runs each round's seed twice, untraced then traced (see
`tracer.py`), requires identical metrics from both, and reports the
per-layer metrics of the traced operations, the tracing overhead, and the
hot-path timings of `relpose.bench`. Spans go to relbench/_out/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT = BENCH_DIR / "_out"
NAMES = ("pair_eskf", "team_pgo", "codec_cli")
SETUP_PROBES = 3
BENCH_REPS = 300  # as acceptance criterion 9 runs relpose.bench


def measure_setup(name: str, seed: int, work: Path) -> float:
    """Median set-up time over fresh interpreters."""
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), name, str(seed), str(work)],
            check=True, capture_output=True, text=True, timeout=120,
        )
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times)


def run_workload(args, work: Path) -> dict:
    setup_s = measure_setup(args.workload, args.seed, work)

    import checks
    import workloads
    from tracer import Tracer, layer_metrics

    wl = workloads.WORKLOADS[args.workload]
    workloads.setup(wl, args.seed, work)
    metrics: dict[str, tuple[float, str]] = {}
    if args.trace:
        from relpose.bench import bench

        hot = bench(reps=BENCH_REPS)
        metrics["bench.eskf_cycle.median_ms"] = (hot["eskf_cycle"]["median_ms"], "ms")
        metrics["bench.pgo_5robot.median_ms"] = (hot["pgo_5robot"]["median_ms"], "ms")
    tracer = Tracer()

    plan = [False, True] if args.trace else [False] * wl.ops_per_round
    attempted = failed = 0
    untraced: list = []  # (op_s, run_s, sim_s)
    traced: list = []
    start = time.perf_counter()
    longest = 0.0
    k = 0
    while k == 0 or time.perf_counter() - start + longest <= args.seconds:
        r0 = time.perf_counter()
        seed = workloads.op_seed(args.seed, k)
        config_path = workloads.write_config(wl, seed, work)
        reference = None  # (metrics, digest) of the round's first good operation
        for j, with_trace in enumerate(plan):
            attempted += 1
            out_dir = work / f"out-{k}-{j}" if wl.writes else None
            try:
                if with_trace:
                    tracer.op = k
                    tracer.install()
                try:
                    op = workloads.run_op(wl, seed, config_path, out_dir)
                finally:
                    tracer.uninstall()
                workloads.check_op(wl, op)
                digest = checks.directory_digest(out_dir) if wl.writes else None
                if reference is None:
                    reference = (op.result.metrics, digest)
                elif reference != (op.result.metrics, digest):
                    raise checks.CheckFailed(
                        f"seed {seed}: outputs differ between two operations on the same seed"
                    )
                (traced if with_trace else untraced).append((op.op_s, op.run_s, op.sim_s))
            except Exception:
                failed += 1
                print(f"operation {attempted} (seed {seed}) failed:", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
            finally:
                op = None  # free the result before the next operation runs
                if out_dir is not None:
                    shutil.rmtree(out_dir, ignore_errors=True)
        longest = max(longest, time.perf_counter() - r0)
        k += 1

    if args.trace:
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.csv")
        if traced:
            metrics.update(layer_metrics(tracer.spans, len(traced)))
        if traced and untraced:
            overhead = sum(r for _, r, _ in traced) / sum(r for _, r, _ in untraced) - 1.0
            metrics["trace.overhead_pct"] = (100.0 * overhead, "%")
    elif untraced:
        metrics["setup_s"] = (setup_s, "s")
        metrics["op_s"] = (statistics.median(o for o, _, _ in untraced), "s")
        metrics["rtf"] = (sum(s for _, _, s in untraced) / sum(r for _, r, _ in untraced), "x")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


def run_all(args) -> int:
    """Each workload in its own process, so peak memory and imports stay apart."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with status {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for metric, v in res["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = v
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "relpose" / "__init__.py").is_file():
        print(f"relbench: no relpose source tree at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        res = run_workload(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, m in res["metrics"].items():
        print(f"{args.workload}: {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload}: {res['attempted']} operations attempted, {res['failed']} failed")
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
