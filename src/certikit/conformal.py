"""Conformalized quantile regression calibration and heading-aligned
rectangle scores for trajectory predictions.

Quantiles use the conservative ceil(tau * n) order statistic at the levels
tau of `Q_LEVELS`; the finite-sample correction E is the
ceil((n+1)(1-delta))-th order statistic of the non-conformity scores.
Two-dimensional (longitudinal, lateral) regions are calibrated per-dimension
with a Bonferroni split delta/2.
"""

import csv
from dataclasses import dataclass
from math import ceil, cos, sin

import numpy as np

from .errors import ConfigError, InsufficientCalibration

__all__ = [
    "ConformalCalibration",
    "rotated_rect_score",
    "calibrate",
    "region",
    "covers",
    "calibrate_2d",
    "load_score_csv",
]

Q_LEVELS = (0.05, 0.95)  # quantile levels (tau_low, tau_high)


@dataclass(frozen=True)
class ConformalCalibration:
    q_low: float
    q_high: float
    E: float
    delta: float
    n_cal: int

    def to_dict(self):
        return {
            "q_low": self.q_low,
            "q_high": self.q_high,
            "E": self.E,
            "delta": self.delta,
            "n_cal": self.n_cal,
            "region": list(region(self)),
        }


def rotated_rect_score(pred, actual):
    """(e_lon, e_lat): position error rotated into the predicted heading frame."""
    px, py, psi = float(pred[0]), float(pred[1]), float(pred[2])
    dx = float(actual[0]) - px
    dy = float(actual[1]) - py
    e_lon = cos(psi) * dx + sin(psi) * dy
    e_lat = -sin(psi) * dx + cos(psi) * dy
    return e_lon, e_lat


def _order_stat(sorted_vals, k):
    """1-indexed k-th order statistic."""
    return float(sorted_vals[k - 1])


def calibrate(cal_scores, delta) -> ConformalCalibration:
    s = np.asarray(cal_scores, dtype=float).ravel()
    n = s.size
    if n < 1:
        raise InsufficientCalibration("need at least one calibration score")
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")
    rank = ceil((n + 1) * (1 - delta))
    if rank > n:
        raise InsufficientCalibration(
            f"delta={delta} too small for n={n}: needs order statistic {rank}"
        )
    srt = np.sort(s)
    q_low, q_high = (_order_stat(srt, max(1, ceil(tau * n))) for tau in Q_LEVELS)
    R = np.maximum(q_low - s, s - q_high)  # non-conformity scores
    return ConformalCalibration(q_low, q_high, _order_stat(np.sort(R), rank), delta, n)


def region(cal: ConformalCalibration):
    """Closed prediction interval [q_low - E, q_high + E]."""
    return (cal.q_low - cal.E, cal.q_high + cal.E)


def covers(cal: ConformalCalibration, s) -> bool:
    lo, hi = region(cal)
    return bool(lo <= float(s) <= hi)


def calibrate_2d(lon_scores, lat_scores, delta):
    """Per-dimension calibration at delta/2 each (Bonferroni joint level 1-delta)."""
    return calibrate(lon_scores, delta / 2.0), calibrate(lat_scores, delta / 2.0)


def load_score_csv(path):
    """Read (prediction x, y, heading, actual x, y) rows into score pairs; an
    empty file, a short row or a non-numeric cell raises ConfigError."""
    lon, lat = [], []
    with open(path) as f:
        reader = csv.reader(f)
        if next(reader, None) is None:
            raise ConfigError(f"{path}: empty score CSV (expected a header row)")
        for row in reader:
            try:
                vals = [float(v) for v in row]
            except ValueError as e:
                raise ConfigError(f"{path} line {reader.line_num}: {e}") from e
            if len(vals) < 5:
                raise ConfigError(f"{path} line {reader.line_num}: expected 5 columns, got {len(vals)}")
            e_lon, e_lat = rotated_rect_score(vals[0:3], vals[3:5])
            lon.append(e_lon)
            lat.append(e_lat)
    return np.array(lon), np.array(lat)
