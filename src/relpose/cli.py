"""Command-line front end.

Subcommands:

- ``relpose run <config.json> [--seed N] [--out DIR] [--strict]``
- ``relpose check-jacobians [--states N] [--seed N]``
- ``relpose bench [--reps N]``
- ``relpose export-gt <config.json> [--seed N] [--out DIR]``
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .bench import bench
from .checks import TOLERANCE, check_jacobians
from .runner import build_world, export_ground_truth, run_scenario, write_outputs
from .scenario import ConfigError, ScenarioConfig, config_from_dict, read_config


def _at_least(lo: int):
    """argparse type of an integer >= lo: a count (lo 1) or a seed (lo 0)."""

    def integer(text: str) -> int:
        n = int(text)  # argparse reports a ValueError as an "invalid integer value"
        if n < lo:
            raise argparse.ArgumentTypeError(f"expected an integer >= {lo}, got {n}")
        return n

    return integer


def _config(args) -> tuple[ScenarioConfig, dict]:
    """The config file, read once: the config with --seed in place of its seed,
    validated together, and the file's JSON object."""
    d = read_config(args.config)
    cfg = config_from_dict(d)
    return (cfg if args.seed is None else replace(cfg, seed=args.seed)), d


def _cmd_run(args) -> int:
    cfg, config_dict = _config(args)
    result = run_scenario(cfg)
    out = Path(args.out) if args.out else Path("out")
    write_outputs(result, out, config_dict)
    print(json.dumps(result.metrics, indent=2, sort_keys=True))
    if args.strict and result.pgo_converged and not all(result.pgo_converged):
        n_bad = sum(1 for c in result.pgo_converged if not c)
        print(f"strict: {n_bad} PGO solves did not converge", file=sys.stderr)
        return 1
    return 0


def _cmd_check_jacobians(args) -> int:
    worst = check_jacobians(n_states=args.states, seed=args.seed)
    passed = {name: err <= TOLERANCE for name, err in worst.items()}
    for name in ("Fx", "Fi", "H", "G"):
        print(f"{name}: max rel. error {worst[name]:.3e}  [{'ok' if passed[name] else 'FAIL'}]")
    return 0 if all(passed.values()) else 1


def _cmd_bench(args) -> int:
    results = bench(reps=args.reps)
    for name, r in results.items():
        print(f"{name}: median {r['median_ms']:.4f} ms, p99 {r['p99_ms']:.4f} ms ({r['reps']} reps)")
    return 0


def _cmd_export_gt(args) -> int:
    cfg, _ = _config(args)
    out = Path(args.out) if args.out else Path("out")
    out.mkdir(parents=True, exist_ok=True)
    export_ground_truth(build_world(cfg), cfg.duration, out)
    print(f"wrote ground truth CSVs to {out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="relpose", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="simulate a scenario and run the estimator stack")
    p.add_argument("config")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--strict", action="store_true", help="fail on non-converged PGO solves")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("check-jacobians", help="finite-difference Jacobian verification")
    p.add_argument("--states", type=_at_least(1), default=50)
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.set_defaults(fn=_cmd_check_jacobians)

    p = sub.add_parser("bench", help="time the estimator hot paths")
    p.add_argument("--reps", type=_at_least(1), default=1000)
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser("export-gt", help="write ground-truth CSVs for a scenario")
    p.add_argument("config")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_export_gt)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
