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
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy.signal import find_peaks

from .evolution import TimeSeries

ROTATION = "rotation"
K_SUBPACKET = "k_subpacket"
# burst threshold floor relative to the series scale: rounding noise of a
# constant moment sits near 1e-16 of its value, while the bursts of the
# nu = 100 moment series up to x^9 reach at least 8% of theirs
_SCALE_FLOOR = 1e-10


@dataclass(frozen=True, order=True)
class RevivalEvent:
    fraction: Fraction
    kind: str = field(compare=False)
    k: int = field(compare=False)

    def __post_init__(self):
        if not 0 < self.fraction < 1:
            raise ValueError("event time must lie strictly inside (0, 1)")
        if math.gcd(self.fraction.numerator, self.fraction.denominator) != 1:
            raise ValueError("fraction must be reduced")

    @property
    def j(self) -> int:
        return self.fraction.numerator

    @property
    def d(self) -> int:
        return self.fraction.denominator

    @property
    def time(self) -> float:
        return float(self.fraction)


def predicted_events(l: int, k_max: int, window: tuple[float, float] = (0.0, 1.0)) -> list[RevivalEvent]:
    """Rotation and k-sub-packet events for the order-l cat, sorted by time.

    Duplicated time fractions keep the smallest k (rotations win ties).
    Rotations carry no coprimality condition; a rotation time written with a
    non-reduced j/l^2 is stored in reduced form.
    """
    if l < 1 or k_max < 2:
        raise ValueError("need l >= 1 and k_max >= 2")
    lo, hi = window
    best: dict[Fraction, RevivalEvent] = {}
    if l > 1:
        for j in range(1, l * l):
            fr = Fraction(j, l * l)
            best[fr] = RevivalEvent(fr, ROTATION, 1)
    for k in range(2, k_max + 1):
        den = l * l * k
        for j in range(1, den):
            if math.gcd(j, den) != 1:
                continue
            fr = Fraction(j, den)
            if fr not in best or k < best[fr].k:
                best[fr] = RevivalEvent(fr, K_SUBPACKET, k)
    events = [e for e in best.values() if lo < e.time <= hi or math.isclose(e.time, hi)]
    return sorted(events)


def visible_burst_times(l: int, power: int, window: tuple[float, float] = (0.0, 1.0)) -> list[Fraction]:
    """Times where <x^power> (or <p^power>) of the order-l cat bursts.

    A net ladder change s contributes to the power-m moment when s <= m,
    s = m (mod 2) and (for l >= 2) l divides s; its damping branch d releases
    at times with s t - d/l integral.  The union over admissible (s, d) is the
    complete burst schedule; it contains events beyond the naive reading of
    the k-sub-packet rule (for l = 2, power 6 the s = 4 content bursts at odd
    j/8 as well as at j/12).
    """
    if l < 1 or power < 1:
        raise ValueError("need l >= 1 and power >= 1")
    lo, hi = window
    out: set[Fraction] = set()
    step = l if l > 1 else 1
    start = step if l > 1 else (2 if power % 2 == 0 else 1)
    for s in range(start, power + 1, step):
        if (power - s) % 2 != 0:
            continue
        for d in range(l if l > 1 else 1):
            for rep in range(s):
                fr = Fraction(d, l * s) + Fraction(rep, s) if l > 1 else Fraction(rep, s)
                if lo < fr < 1 and (fr <= hi or math.isclose(float(fr), hi)):
                    out.add(fr)
    return sorted(out)


def _reflect(values: np.ndarray) -> tuple[np.ndarray, int]:
    """Even extension at both ends; returns extended array and pad length."""
    pad = values.size - 1
    return np.concatenate([values[pad:0:-1], values, values[-2: -pad - 2: -1]]), pad


def _grouped_windows(idx: np.ndarray, merge_gap: int) -> list[np.ndarray]:
    if idx.size == 0:
        return []
    return np.split(idx, np.flatnonzero(np.diff(idx) > merge_gap) + 1)


def _extended_axis(fractions: np.ndarray, pad: int) -> np.ndarray:
    step = fractions[1] - fractions[0]
    left = fractions[0] - step * np.arange(pad, 0, -1)
    right = fractions[-1] + step * np.arange(1, pad + 1)
    return np.concatenate([left, fractions, right])


def _keep_center(center: float, fractions: np.ndarray, step: float) -> bool:
    inside = fractions[0] - step / 2 <= center <= fractions[-1] + step / 2
    # windows centered on a whole revival (t/T_rev integral) are not
    # fractional-revival features and are dropped
    return inside and abs(center - round(center)) > 2 * step


def detect_bursts(series: TimeSeries, n_mads: float = 5.0, rel_floor: float = 1e-6,
                  merge_gap: int = 10) -> list[float]:
    """Centers of burst windows where |value - plateau| exceeds 5 MAD.

    plateau = median of the series; the threshold has a small floor relative
    to the largest deviation so a noise-free plateau cannot produce windows,
    and a floor of 1e-10 of the largest |value| so a constant moment, whose
    deviations are rounding noise, produces none either.
    The deviation signal is evenly reflected at both ends, so a burst centered
    on the final sample (a window ending exactly on a fractional time) is
    completed symmetrically instead of being truncated.  Windows separated by
    fewer than `merge_gap` samples merge: a single burst crosses the
    threshold once per oscillation lobe.  Each window is reported by its
    deviation-weighted centroid.
    """
    vals = series.values
    if vals.size < 100:
        raise ValueError("series too short for burst detection")
    dev = vals - np.median(vals)
    mad = np.median(np.abs(dev))
    peak = np.max(np.abs(dev))
    threshold = max(n_mads * mad, rel_floor * peak, _SCALE_FLOOR * np.max(np.abs(vals)))
    if threshold == 0 or peak == 0:
        return []
    dev_ext, pad = _reflect(dev)
    axis = _extended_axis(series.grid.fractions, pad)
    step = series.grid.step
    centers: list[float] = []
    for group in _grouped_windows(np.flatnonzero(np.abs(dev_ext) > threshold), merge_gap):
        seg = slice(group[0], group[-1] + 1)
        weights = np.abs(dev_ext[seg])
        center = float(np.sum(axis[seg] * weights) / np.sum(weights))
        if _keep_center(center, series.grid.fractions, step):
            centers.append(center)
    centers.sort()
    deduped: list[float] = []
    for c in centers:
        if not deduped or c - deduped[-1] > step:
            deduped.append(c)
    return deduped


def detect_minima(series: TimeSeries, prominence: float = 0.05,
                  smooth_window: int = 1, depth: float | None = None,
                  merge_gap: int = 8) -> list[float]:
    """Locations of significant local minima of a time series.

    Default mode (depth=None): strict local minima of the (optionally
    smoothed) series lying below the series median, with the given peak
    prominence.

    Depression mode (depth set): contiguous regions where the smoothed series
    drops more than `depth` below its median, merged over gaps of up to
    `merge_gap` samples and reported by their depth-weighted centroid.  This
    locates the center of an oscillatory entropy dip far more accurately than
    the deepest sample, which may sit several samples off-center.

    Both modes evenly reflect the series at its ends (a minimum on the final
    sample is recovered) and drop features at whole revivals (integral
    t/T_rev).
    """
    vals_ext, pad = _reflect(series.values)
    axis = _extended_axis(series.grid.fractions, pad)
    step = series.grid.step
    w = max(1, int(smooth_window)) | 1
    smooth = np.convolve(vals_ext, np.ones(w) / w, mode="same") if w > 1 else vals_ext
    baseline = float(np.median(smooth[pad: pad + series.values.size]))
    out: list[float] = []
    if depth is None:
        peaks, _ = find_peaks(-smooth, prominence=prominence)
        for p in peaks:
            if smooth[p] < baseline and _keep_center(float(axis[p]), series.grid.fractions, step):
                out.append(float(axis[p]))
    else:
        for group in _grouped_windows(np.flatnonzero(smooth < baseline - depth), merge_gap):
            seg = slice(group[0], group[-1] + 1)
            weights = baseline - smooth[seg]
            center = float(np.sum(axis[seg] * weights) / np.sum(weights))
            if _keep_center(center, series.grid.fractions, step):
                out.append(center)
    out.sort()
    deduped: list[float] = []
    for c in out:
        if not deduped or c - deduped[-1] > step / 2:
            deduped.append(c)
    return deduped


@dataclass
class MatchReport:
    matched: list[tuple[float, float]]
    misses: list[float]
    spurious: list[float]
    tol: float

    @property
    def complete(self) -> bool:
        return not self.misses and not self.spurious

    def to_json(self) -> str:
        payload = {
            "tol": self.tol,
            "matched": [{"detected": d, "predicted": p} for d, p in self.matched],
            "misses": self.misses,
            "spurious": self.spurious,
        }
        return json.dumps(payload, indent=2, sort_keys=True)


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
