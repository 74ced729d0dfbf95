import json

import numpy as np
import pytest

from relpose.geom import rotmat_from_rotvec
from relpose.metrics import AlignedPair, boxplot_stats, error_series, summarize


def make_pair(offsets, angles_deg):
    """Estimates off a fixed truth by x offsets [m] and yaw angles [deg]."""
    n = len(offsets)
    gt_p = np.tile([1.0, 2.0, 3.0], (n, 1))
    est_p = gt_p + np.column_stack((offsets, np.zeros(n), np.zeros(n)))
    est_R = np.array([rotmat_from_rotvec([0.0, 0.0, np.deg2rad(a)]) for a in angles_deg])
    return AlignedPair(np.arange(n) * 0.1, est_p, est_R, gt_p, np.tile(np.eye(3), (n, 1, 1)))


def test_error_series_values():
    s = error_series(make_pair([0.1, 0.2, 0.3], [1.0, 2.0, 3.0]))
    assert np.array_equal(s[:, 0], [0.0, 0.1, 0.2])
    assert np.allclose(s[:, 1], [0.1, 0.2, 0.3], atol=1e-12)
    assert np.allclose(s[:, 2], [1.0, 2.0, 3.0], atol=1e-9)


def test_ate_pos_is_rms():
    m = summarize(error_series(make_pair([0.3, 0.4], [0.0, 0.0])))
    assert m["ate_pos_m"] == pytest.approx(np.sqrt((0.09 + 0.16) / 2))
    assert m["median_pos_m"] == pytest.approx(0.35)


def test_ate_rot_is_rms():
    m = summarize(error_series(make_pair([0.0, 0.0], [3.0, 4.0])))
    assert m["ate_rot_deg"] == pytest.approx(np.sqrt((9 + 16) / 2), abs=1e-9)
    assert m["median_rot_deg"] == pytest.approx(3.5, abs=1e-9)


def test_summarize_boxplots_on_request():
    s = error_series(make_pair([0.1, 0.2, 0.3, 0.4], [1.0, 2.0, 3.0, 4.0]))
    plain, full = summarize(s), summarize(s, boxplots=True)
    assert plain["n_samples"] == full["n_samples"] == 4
    assert "boxplot_pos" not in plain
    assert full["boxplot_pos"] == boxplot_stats(s[:, 1])
    assert full["boxplot_rot"] == boxplot_stats(s[:, 2])
    assert {k: full[k] for k in plain} == plain



def test_summarize_leaves_out_a_non_finite_row():
    s = error_series(make_pair([0.1, 0.2, 0.3, 0.4, 0.5], [1.0, 2.0, 3.0, 4.0, 5.0]))
    bad = s.copy()
    bad[2, 1] = np.nan
    m = summarize(bad, boxplots=True)
    finite = summarize(np.delete(s, 2, axis=0), boxplots=True)
    assert m == {**finite, "n_samples": 5, "n_dropped": 1}
    assert "n_dropped" not in summarize(s)


def test_summarize_series_without_a_finite_row():
    s = error_series(make_pair([0.1, 0.2, 0.3], [1.0, 2.0, 3.0]))
    s[:, 1:] = np.nan
    s[0, 2] = np.inf
    m = summarize(s, boxplots=True)
    assert m["n_samples"] == m["n_dropped"] == 3
    assert set(m) == set(summarize(error_series(make_pair([0.1], [1.0])), boxplots=True)) | {"n_dropped"}
    assert all(m[k] is None for k in m if not k.startswith("n_"))
    assert "NaN" not in json.dumps(m, allow_nan=False)

def test_boxplot_stats_basic():
    v = [1.0, 2.0, 3.0, 4.0, 100.0]
    st = boxplot_stats(v)
    assert st["median"] == 3.0
    assert st["outliers"] == [100.0]
    assert st["max"] == 4.0  # whisker excludes the outlier
    assert st["min"] == 1.0


def test_boxplot_stats_no_outliers():
    st = boxplot_stats(np.linspace(0, 1, 11))
    assert st["outliers"] == []
    assert st["min"] == 0.0 and st["max"] == 1.0


def test_boxplot_stats_empty_raises():
    with pytest.raises(ValueError):
        boxplot_stats([])
