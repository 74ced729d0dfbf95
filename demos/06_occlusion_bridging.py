"""Maintaining an estimate of a robot that is hidden behind an obstacle.

A box blocks the ego robot's view of robot 1 for roughly a third of the
run, killing the direct measurements. The pose graph keeps producing an
estimate for robot 1 by chaining through the other teammates, and the
error during occlusion stays comparable to the unoccluded error.
"""

from pathlib import Path

import numpy as np

from relpose.metrics import error_series
from relpose.runner import run_scenario
from relpose.scenario import load_config
from relpose.trajectory import eval_trajectory

SCENARIO = Path(__file__).resolve().parents[1] / "scenarios" / "occlusion_five_robot.json"


def main() -> None:
    cfg = load_config(SCENARIO)
    res = run_scenario(cfg)

    box = cfg.obstacles[0]
    ser = res.pgo[1]
    errs = error_series(res.gt_pair(ser, cfg.ego, 1))

    traj_ego, traj_one = res.world.robots[cfg.ego][0], res.world.robots[1][0]
    blocked = np.array([
        box.intersects_segment(eval_trajectory(traj_ego, t).p, eval_trajectory(traj_one, t).p)
        for t in ser.t
    ])
    occ = errs[blocked, 1]
    clear = errs[~blocked, 1]
    print(f"view of robot 1 blocked {blocked.mean()*100:.0f}% of the run")
    print(f"graph estimate exists during occlusion: {occ.size} samples")
    print(f"median position error, clear:    {np.median(clear):.3f} m")
    print(f"median position error, occluded: {np.median(occ):.3f} m")


if __name__ == "__main__":
    main()
