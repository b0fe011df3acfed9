"""CQR calibration: order statistics, coverage, and heading-frame scores."""

import numpy as np
import pytest

from certikit import cli, conformal
from certikit.errors import InsufficientCalibration


def test_order_statistic_ranks_pinned():
    # n = 100, delta = 0.1: rank = ceil(101 * 0.9) = 91, independently counted
    n, delta = 100, 0.1
    rank = int(np.ceil((n + 1) * (1 - delta)))
    assert rank == 91
    scores = np.arange(1.0, n + 1)  # k-th order statistic is k
    cal = conformal.calibrate(scores, delta)
    # q_low = ceil(0.05*100) = 5th value, q_high = 95th
    assert cal.q_low == 5.0
    assert cal.q_high == 95.0
    # R_i = max(5 - s, s - 95); sorted enumeration gives the 91st value
    R = np.maximum(cal.q_low - scores, scores - cal.q_high)
    assert cal.E == np.sort(R)[rank - 1]


def test_region_closed_interval_and_covers():
    cal = conformal.calibrate(np.arange(1.0, 101.0), 0.1)
    lo, hi = conformal.region(cal)
    assert lo == cal.q_low - cal.E and hi == cal.q_high + cal.E
    assert conformal.covers(cal, lo) and conformal.covers(cal, hi)  # closed
    assert not conformal.covers(cal, hi + 1e-9)


def test_insufficient_calibration():
    with pytest.raises(InsufficientCalibration):
        conformal.calibrate(np.array([]), 0.1)
    with pytest.raises(InsufficientCalibration):
        conformal.calibrate(np.arange(5.0), 0.01)  # needs rank 6 of 5


def test_marginal_coverage_monte_carlo():
    rng = np.random.default_rng(0)
    delta = 0.1
    hits = []
    for _ in range(100):
        cal_scores = rng.normal(size=200)
        test_scores = rng.normal(size=50)
        cal = conformal.calibrate(cal_scores, delta)
        hits.append(np.mean([conformal.covers(cal, s) for s in test_scores]))
    mean_cov = float(np.mean(hits))
    assert 0.9 - 0.03 <= mean_cov <= 1.0


def test_rotated_rect_score_axes():
    # heading along +y: a forward error is pure longitudinal
    e_lon, e_lat = conformal.rotated_rect_score((0.0, 0.0, np.pi / 2), (0.0, 2.0))
    assert e_lon == pytest.approx(2.0)
    assert e_lat == pytest.approx(0.0, abs=1e-12)
    # lateral offset at zero heading
    e_lon, e_lat = conformal.rotated_rect_score((1.0, 1.0, 0.0), (1.0, 1.5))
    assert e_lon == pytest.approx(0.0, abs=1e-12)
    assert e_lat == pytest.approx(0.5)


def test_rotation_preserves_distance():
    rng = np.random.default_rng(3)
    for _ in range(20):
        pred = rng.normal(size=3)
        actual = rng.normal(size=2)
        e_lon, e_lat = conformal.rotated_rect_score(pred, actual)
        d = np.hypot(actual[0] - pred[0], actual[1] - pred[1])
        assert np.hypot(e_lon, e_lat) == pytest.approx(d)


def test_calibrate_2d_bonferroni_split():
    rng = np.random.default_rng(4)
    lon, lat = rng.normal(size=300), rng.normal(size=300)
    cal_lon, cal_lat = conformal.calibrate_2d(lon, lat, 0.1)
    assert cal_lon.delta == pytest.approx(0.05)
    assert cal_lat.delta == pytest.approx(0.05)


def test_load_score_csv(tmp_path):
    p = tmp_path / "scores.csv"
    p.write_text(
        "px,py,psi,ax,ay\n"
        "0,0,0,1,0\n"
        "0,0,1.5707963267948966,0,2\n"
    )
    lon, lat = conformal.load_score_csv(p)
    np.testing.assert_allclose(lon, [1.0, 2.0], atol=1e-12)
    np.testing.assert_allclose(lat, [0.0, 0.0], atol=1e-12)


def _bicycle_demo_coverage(rng, delta):
    """Coverage of one bicycle-conformal run on its score law: 400 calibration
    and 400 held-out scores, i.i.d. N(0, 1) per axis (the demo's N(0, 0.05^2)
    scaled, which leaves coverage unchanged)."""
    cal, held_out = rng.normal(size=(2, 2, 400))
    (a, b), (c, d) = (conformal.region(cal_k) for cal_k in conformal.calibrate_2d(cal[0], cal[1], delta))
    return np.mean((a <= held_out[0]) & (held_out[0] <= b) & (c <= held_out[1]) & (held_out[1] <= d))


def test_bicycle_demo_pass_mark_false_alarm_rate():
    rng = np.random.default_rng(20)
    correct = np.array([_bicycle_demo_coverage(rng, 0.1) for _ in range(20_000)])
    # a correct calibration misses the mark in at most 1e-3 of runs
    assert np.mean(correct < cli.BICYCLE_COVERAGE_PASS) <= 1e-3
    assert cli.BICYCLE_COVERAGE_PASS <= np.quantile(correct, 1e-3)
    # the old mark 1 - delta - 0.02 failed about one correct run in six
    assert np.mean(correct < 0.88) > 0.1
    # a calibration at delta = 0.3 still fails it
    miscalibrated = np.array([_bicycle_demo_coverage(rng, 0.3) for _ in range(2000)])
    assert np.mean(miscalibrated >= cli.BICYCLE_COVERAGE_PASS) <= 0.01
