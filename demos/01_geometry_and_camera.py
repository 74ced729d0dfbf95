"""Rotation algebra and the Double Sphere fisheye camera.

Round-trips a rotation through quaternion / Euler / rotation-vector forms,
then projects a 3-D point through the wide-angle camera model and
unprojects the pixel back to the original bearing.
"""

import numpy as np

from relpose.camera import DEFAULT_INTRINSICS, ds_project, ds_unproject
from relpose.geom import (
    euler_zyx_from_quat,
    quat_from_euler_zyx,
    quat_from_rotvec,
    rotmat_from_quat,
    rotvec_from_quat,
)


def main() -> None:
    roll, pitch, yaw = 0.3, -0.5, 1.2
    q = quat_from_euler_zyx(roll, pitch, yaw)
    print(f"quaternion [w x y z] = {np.round(q, 6)}")
    print(f"euler round trip     = {np.round(euler_zyx_from_quat(q), 6)}")

    rv = rotvec_from_quat(q)
    print(f"rotation vector      = {np.round(rv, 6)}")
    print(f"rotvec round trip ok = {np.allclose(quat_from_rotvec(rv), q)}")

    R = rotmat_from_quat(q)
    print(f"R orthonormal        = {np.allclose(R @ R.T, np.eye(3))}")

    k = DEFAULT_INTRINSICS  # stock 185-degree fisheye
    p_cam = np.array([0.8, -0.4, 1.5])
    uv = ds_project(p_cam, k)
    (bearing,), _ = ds_unproject([uv], k)  # one pixel: a batch of one row
    print(f"\npoint {p_cam} -> pixel {np.round(uv, 3)}")
    print(f"unprojected bearing  = {np.round(bearing, 6)}")
    print(f"bearing matches      = {np.allclose(bearing, p_cam / np.linalg.norm(p_cam))}")

    # A point 45 degrees off-axis still lands on the 640 px sensor.
    wide = np.array([2.0, 0.0, 2.0])
    print(f"\nwide point {wide} -> pixel {np.round(ds_project(wide, k), 3)}")


if __name__ == "__main__":
    main()
