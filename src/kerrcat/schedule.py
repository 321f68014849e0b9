"""Fractional-revival schedules and feature detection in time series.

For the order-l cat (l >= 2) the schedule inside one revival period is:

  * rotations at t = j T_rev / l^2, j = 1..l^2-1 (the state is the initial
    packet rigidly rotated in phase space), and
  * k-sub-packet fractional revivals at t = j T_rev / (l^2 k) with
    gcd(j, l^2 k) = 1 for k >= 2.

For an initial coherent state (l = 1) there are no rotations and the
k-sub-packet times are j/k with gcd(j, k) = 1.

A moment series <x^m> only reacts to the subset of these times at which one
of its damping branches releases; `visible_burst_times` computes that subset
exactly and is what burst detection should be matched against.

The detectors take no settings and share one core: the signal is reflected
evenly at both ends, so a feature on the final sample is completed rather than
cut; runs of flagged samples become weighted centroids; features outside the
grid, too close to the previous one, or at a whole revival (integral t/T_rev,
which is no fractional revival) are dropped.  Their constants and reasons:

  * `detect_bursts` flags deviations from the median above the largest of
    5 MAD (the plateau spread while bursts fill few samples; where bursts
    fill the series it rises above the weak ones), 1e-6 of the largest
    deviation (a noise-free plateau has a MAD of 0) and 1e-10 of the largest
    |value| (rounding noise of a constant moment sits near 1e-16 of it, while
    the nu = 100 bursts up to x^9 reach at least 8%).  Runs within 10 samples
    merge: one burst crosses the threshold once per oscillation lobe.
  * `detect_dips` smooths over 5 samples to average out the fringes inside a
    dip, flags samples 0.15 below the median and merges runs within 8
    samples; the centroid centers an oscillatory dip far better than its
    deepest sample.  These values find every required dip of the 1001-sample
    Renyi sums on [0, T_rev/2] in the acceptance tests.
  * `detect_minima` keeps the local minima below the median with a
    prominence of 0.05.  They fall on sample times, which the benchmark's
    entropy check requires, but ripples count too: 168 to 174 of them on each
    of those acceptance series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.signal import find_peaks

from .evolution import TimeSeries

_BURST_MADS = 5.0
_BURST_REL_FLOOR = 1e-6
_SCALE_FLOOR = 1e-10
_BURST_MERGE_GAP = 10
_MINIMA_PROMINENCE = 0.05
_DIP_SMOOTH = 5
_DIP_DEPTH = 0.15
_DIP_MERGE_GAP = 8


def visible_burst_times(l: int, power: int, window: tuple[float, float] = (0.0, 1.0)) -> list[Fraction]:
    """Times where <x^power> (or <p^power>) of the order-l cat bursts.

    A net ladder change s contributes to the power-m moment when s <= m,
    s = m (mod 2) and l divides s; its damping branch d releases at times
    with s t - d/l integral, that is at every j/(l s).  The union over
    admissible s is the complete burst schedule; it contains events beyond
    the naive reading of the k-sub-packet rule (for l = 2, power 6 the s = 4
    content bursts at odd j/8 as well as at j/12).
    """
    if l < 1 or power < 1:
        raise ValueError("need l >= 1 and power >= 1")
    lo, hi = window
    times = {Fraction(j, l * s) for s in range(l, power + 1, l) if (power - s) % 2 == 0
             for j in range(l * s)}
    return sorted(t for t in times if lo < t < 1 and (t <= hi or math.isclose(float(t), hi)))


def _reflected(values: np.ndarray, fractions: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Even extension of `values` at both ends, its time axis and the pad length."""
    pad = values.size - 1
    step = fractions[1] - fractions[0]
    axis = np.concatenate([fractions[0] - step * np.arange(pad, 0, -1), fractions,
                           fractions[-1] + step * np.arange(1, pad + 1)])
    return np.concatenate([values[pad:0:-1], values, values[-2: -pad - 2: -1]]), axis, pad


def _centroids(axis: np.ndarray, flagged: np.ndarray, weight, gap: int) -> list[float]:
    """Centroids of runs of flagged samples, weighted by `weight(run slice)`; runs <= `gap` apart merge."""
    idx = np.flatnonzero(flagged)
    runs = np.split(idx, np.flatnonzero(np.diff(idx) > gap) + 1) if idx.size else []
    out = []
    for run in runs:
        seg = slice(run[0], run[-1] + 1)
        weights = weight(seg)
        out.append(float(np.sum(axis[seg] * weights) / np.sum(weights)))
    return out


def _kept(centers: list[float], series: TimeSeries, min_gap: float) -> list[float]:
    """Sorted centers inside the grid, off the whole revivals, each over `min_gap` past the last."""
    fractions, step = series.grid.fractions, series.grid.step
    kept: list[float] = []
    for c in sorted(c for c in centers if fractions[0] - step / 2 <= c <= fractions[-1] + step / 2
                    and abs(c - round(c)) > 2 * step):
        if not kept or c - kept[-1] > min_gap:
            kept.append(c)
    return kept


def detect_bursts(series: TimeSeries) -> list[float]:
    """Deviation-weighted centers of the bursts of a moment series (see the module notes)."""
    vals = series.values
    if vals.size < 100:
        raise ValueError("series too short for burst detection")
    dev = vals - np.median(vals)
    mad, peak = np.median(np.abs(dev)), np.max(np.abs(dev))
    threshold = max(_BURST_MADS * mad, _BURST_REL_FLOOR * peak, _SCALE_FLOOR * np.max(np.abs(vals)))
    if threshold == 0 or peak == 0:
        return []
    dev_ext, axis, _ = _reflected(dev, series.grid.fractions)
    centers = _centroids(axis, np.abs(dev_ext) > threshold, lambda seg: np.abs(dev_ext[seg]),
                         _BURST_MERGE_GAP)
    return _kept(centers, series, series.grid.step)


def detect_minima(series: TimeSeries) -> list[float]:
    """Sample times of the prominent local minima below the series median."""
    vals_ext, axis, _ = _reflected(series.values, series.grid.fractions)
    peaks = find_peaks(-vals_ext, prominence=_MINIMA_PROMINENCE)[0]
    below = peaks[vals_ext[peaks] < np.median(series.values)]
    return _kept([float(axis[p]) for p in below], series, series.grid.step / 2)


def detect_dips(series: TimeSeries) -> list[float]:
    """Depth-weighted centers of the dips of a Renyi-sum series (see the module notes)."""
    vals_ext, axis, pad = _reflected(series.values, series.grid.fractions)
    smooth = np.convolve(vals_ext, np.ones(_DIP_SMOOTH) / _DIP_SMOOTH, mode="same")
    baseline = float(np.median(smooth[pad: pad + series.values.size]))
    centers = _centroids(axis, smooth < baseline - _DIP_DEPTH, lambda seg: baseline - smooth[seg],
                         _DIP_MERGE_GAP)
    return _kept(centers, series, series.grid.step / 2)


@dataclass
class MatchReport:
    matched: list[tuple[float, float]]
    misses: list[float]
    spurious: list[float]
    tol: float

    @property
    def complete(self) -> bool:
        return not self.misses and not self.spurious


def match_report(detected: list[float], predicted: list[float] | list[Fraction],
                 tol: float) -> MatchReport:
    """Greedy nearest matching of detected features against predicted times."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    det = [float(d) for d in detected]
    pre = [float(p) for p in predicted]
    pairs = sorted(
        (abs(d - p), i, j) for i, d in enumerate(det) for j, p in enumerate(pre)
        if abs(d - p) <= tol
    )
    used_d: set[int] = set()
    used_p: set[int] = set()
    matched = []
    for _, i, j in pairs:
        if i in used_d or j in used_p:
            continue
        used_d.add(i)
        used_p.add(j)
        matched.append((det[i], pre[j]))
    misses = [p for j, p in enumerate(pre) if j not in used_p]
    spurious = [d for i, d in enumerate(det) if i not in used_d]
    return MatchReport(sorted(matched, key=lambda t: t[1]), sorted(misses), sorted(spurious), tol)
