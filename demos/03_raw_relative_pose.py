"""Closed-form relative pose from one frame of mutual measurements.

Two robots each see the other's LED (a bearing in their own body frame),
share a UWB range, and know their own gravity-referenced roll and pitch.
That is enough to recover the full 6-DOF relative pose in closed form —
exactly, when the inputs are noiseless. The solve takes one frame per row;
here each call solves a single frame.
"""

import numpy as np

from relpose.geom import Pose, quat_from_euler_zyx, rotmat_from_quat, rotation_angle_deg
from relpose.rawpose import raw_estimate


def main() -> None:
    rng = np.random.default_rng(3)
    worst_p, worst_r = 0.0, 0.0
    for _ in range(200):
        # Random ground truth: attitudes of A and B and B->A translation.
        rp_a = rng.uniform(-1.2, 1.2, size=2)
        rp_b = rng.uniform(-1.2, 1.2, size=2)
        yaw_a, yaw_b = rng.uniform(-np.pi, np.pi, size=2)
        R_wa = rotmat_from_quat(quat_from_euler_zyx(rp_a[0], rp_a[1], yaw_a))
        R_wb = rotmat_from_quat(quat_from_euler_zyx(rp_b[0], rp_b[1], yaw_b))
        p_w = rng.uniform(-5, 5, size=3)
        if np.linalg.norm(p_w) < 0.5:
            continue

        truth = Pose(R_wb.T @ R_wa, R_wb.T @ p_w)  # A in B's frame
        d = float(np.linalg.norm(truth.t))
        est = raw_estimate(
            b_ba=[truth.t / d],  # B's bearing to A
            b_ab=[-(truth.R.T @ truth.t) / d],  # A's bearing to B
            range_m=[d],
            rp_a=[rp_a],
            rp_b=[rp_b],
        )
        assert est.ok[0]
        worst_p = max(worst_p, float(np.linalg.norm(est.p_ba[0] - truth.t)))
        worst_r = max(worst_r, rotation_angle_deg(rotmat_from_quat(est.q_ba[0]).T @ truth.R))

    print("200 random noiseless configurations:")
    print(f"  worst position error: {worst_p:.3e} m")
    print(f"  worst rotation error: {worst_r:.3e} deg")


if __name__ == "__main__":
    main()
