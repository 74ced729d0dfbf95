import numpy as np
import pytest

from relpose.camera import (
    DEFAULT_INTRINSICS,
    DsIntrinsics,
    OutOfImage,
    ds_project,
    ds_unproject,
)
from rawpose_reference import InvalidPixel, ds_unproject_scalar

RNG = np.random.default_rng(77)


def unproject_one(uv, k):
    """The bearing of one pixel, which must be unprojectable."""
    (b,), ok = ds_unproject([uv], k)
    assert ok.tolist() == [True]
    return b


def random_dirs_in_cone(n, half_angle_rad, rng=RNG):
    """Unit vectors uniformly sampled within a cone about +z."""
    cos_min = np.cos(half_angle_rad)
    c = rng.uniform(cos_min, 1.0, n)
    phi = rng.uniform(0, 2 * np.pi, n)
    s = np.sqrt(1 - c * c)
    return np.stack([s * np.cos(phi), s * np.sin(phi), c], axis=1)


def test_project_unproject_round_trip_full_fov():
    k = DEFAULT_INTRINSICS
    half = 0.5 * np.deg2rad(k.fov_deg) - 1e-3
    for d in random_dirs_in_cone(500, half):
        p = d * RNG.uniform(0.5, 30.0)
        uv = ds_project(p, k)
        b = unproject_one(uv, k)
        assert np.allclose(b, p / np.linalg.norm(p), atol=1e-9)


def test_project_on_axis():
    k = DEFAULT_INTRINSICS
    u, v = ds_project([0.0, 0.0, 5.0], k)
    assert u == pytest.approx(k.cx)
    assert v == pytest.approx(k.cy)


def test_project_scale_invariant():
    k = DEFAULT_INTRINSICS
    p = np.array([0.3, -0.2, 1.0])
    assert np.allclose(ds_project(p, k), ds_project(7.5 * p, k), atol=1e-12)


def test_project_rejects_outside_fov_cone():
    k = DEFAULT_INTRINSICS
    # 185 deg FOV: half-angle 92.5 deg; 95 deg off axis must fail
    ang = np.deg2rad(95.0)
    p = np.array([np.sin(ang), 0.0, np.cos(ang)])
    with pytest.raises(OutOfImage):
        ds_project(p, k)


def test_project_accepts_beyond_90deg():
    # wide fisheye sees slightly behind the image plane
    k = DEFAULT_INTRINSICS
    ang = np.deg2rad(91.5)
    p = np.array([np.sin(ang), 0.0, np.cos(ang)])
    uv = ds_project(p, k)
    b = unproject_one(uv, k)
    assert np.allclose(b, p, atol=1e-9)


def test_project_rejects_camera_center():
    with pytest.raises(ValueError):
        ds_project([0.0, 0.0, 0.0], DEFAULT_INTRINSICS)


def test_validity_condition_narrow_fov_irrelevant():
    # with a narrow FOV the cone cut dominates the validity condition
    k = DsIntrinsics(fx=285, fy=285, cx=320, cy=320, xi=-0.18, alpha=0.59, fov_deg=90.0)
    ang = np.deg2rad(60.0)
    with pytest.raises(OutOfImage):
        ds_project([np.sin(ang), 0.0, np.cos(ang)], k)


def test_unproject_rejects_far_outside_disk():
    # alpha > 0.5 bounds the valid pixel radius
    k = DsIntrinsics(fx=100, fy=100, cx=320, cy=320, xi=-0.18, alpha=0.8)
    with pytest.raises(InvalidPixel):
        ds_unproject_scalar((320 + 5000, 320), k)
    b, ok = ds_unproject([(320 + 5000, 320), (320, 320)], k)
    assert ok.tolist() == [False, True]
    assert np.isnan(b[0]).all() and b[1].tolist() == [0.0, 0.0, 1.0]


def test_unproject_returns_unit_vectors():
    k = DEFAULT_INTRINSICS
    for _ in range(100):
        uv = (RNG.uniform(0, 640), RNG.uniform(0, 640))
        b = unproject_one(uv, k)
        assert abs(np.linalg.norm(b) - 1.0) < 1e-12


def test_intrinsics_validation():
    with pytest.raises(ValueError):
        DsIntrinsics(fx=285, fy=285, cx=320, cy=320, xi=0.0, alpha=1.5)
    with pytest.raises(ValueError):
        DsIntrinsics(fx=-1, fy=285, cx=320, cy=320, xi=0.0, alpha=0.5)
    with pytest.raises(ValueError):
        DsIntrinsics(fx=285, fy=285, cx=320, cy=320, xi=0.0, alpha=0.5, fov_deg=200.0)


def test_round_trip_alpha_above_half():
    k = DsIntrinsics(fx=285, fy=285, cx=320, cy=320, xi=0.1, alpha=0.65, fov_deg=170.0)
    half = 0.5 * np.deg2rad(k.fov_deg) - 1e-3
    for d in random_dirs_in_cone(200, half):
        uv = ds_project(d, k)
        assert np.allclose(unproject_one(uv, k), d, atol=1e-9)


@pytest.mark.parametrize(
    "k",
    [
        DEFAULT_INTRINSICS,
        DsIntrinsics(fx=100, fy=120, cx=300, cy=330, xi=-0.18, alpha=0.8),
        DsIntrinsics(fx=285, fy=285, cx=320, cy=320, xi=0.1, alpha=0.4),
    ],
    ids=["default", "alpha_0.8", "alpha_0.4"],
)
def test_unproject_equals_per_pixel_reference(k):
    # random pixels over and beyond the image, pixels on the unprojectable
    # disk's edge give or take a few ulps of its radius, and non-finite pixels
    n = 600
    uv = RNG.uniform(-1500, 2100, (n, 2))
    if k.alpha > 0.5:
        radius = np.sqrt(1.0 / (2.0 * k.alpha - 1.0))
        rel = np.repeat([1.0 - 1e-12, 1.0 - 1e-15, 1.0, 1.0 + 1e-15, 1.0 + 1e-12], 40)
        ang = RNG.uniform(-np.pi, np.pi, rel.size)
        uv[: rel.size] = np.column_stack(
            (k.cx + k.fx * radius * rel * np.cos(ang), k.cy + k.fy * radius * rel * np.sin(ang))
        )
    uv[-3:] = [(np.nan, 320.0), (320.0, np.inf), (-np.inf, np.nan)]
    b, ok = ds_unproject(uv, k)
    assert b.shape == (n, 3) and ok.shape == (n,)
    for row, (px, got) in enumerate(zip(uv, b)):
        if not np.isfinite(px).all():
            assert not ok[row] and np.isnan(got).all()
            continue
        try:
            want = ds_unproject_scalar(tuple(px), k)
        except InvalidPixel:
            assert not ok[row] and np.isnan(got).all()
        else:
            assert ok[row] and np.array_equal(got, want), row
    if k.alpha > 0.5:
        assert ok[:200].any() and not ok[:200].all()  # both sides of the disk's edge
    else:
        assert ok[:-3].all()  # no disk below alpha 0.5
    empty, none = ds_unproject(np.empty((0, 2)), k)
    assert empty.shape == (0, 3) and none.shape == (0,)
