from fractions import Fraction

import numpy as np
import pytest

from kerrcat import (
    KerrParams,
    SuperpositionSpec,
    TimeGrid,
    TimeSeries,
    detect_bursts,
    detect_dips,
    detect_minima,
    match_report,
    moment_series,
    superposed_state,
    truncation_dim,
    visible_burst_times,
)
from kerrcat.evolution import evolve_amplitudes
from kerrcat.entropy import RenyiPair, entropy_series
from kerrcat.moments import _quadrature_moment, apply_position
from kerrcat.schedule import _kept, _prominent_peaks, _reflected

PARAMS = KerrParams(1.0)
F = Fraction


class TestVisibleBurstTimes:
    def test_coherent_x4(self):
        assert visible_burst_times(1, 4) == [F(1, 4), F(1, 2), F(3, 4)]

    def test_coherent_x4_excludes_thirds(self):
        # x^4 has only even ladder content, so 3-sub-packet times stay dark
        assert F(1, 3) not in visible_burst_times(1, 4)

    def test_even_cat_x4_all_eighths(self):
        assert visible_burst_times(2, 4) == [F(j, 8) for j in range(1, 8)]

    def test_even_cat_x6_includes_cross_branch_eighths(self):
        # the a^4 content of x^6 releases on the odd eighths
        got = visible_burst_times(2, 6, (0.0, 0.5))
        want = sorted({F(j, 12) for j in range(1, 7)} | {F(1, 8), F(3, 8)})
        assert got == want

    def test_three_cat_powers(self):
        assert visible_burst_times(3, 3) == [F(j, 9) for j in range(1, 9)]
        assert visible_burst_times(3, 6, (0.0, 0.5)) == [F(j, 18) for j in range(1, 10)]
        assert visible_burst_times(3, 9, (0.0, 0.5)) == [F(j, 27) for j in range(1, 14)]

    def test_four_cat_x8(self):
        assert visible_burst_times(4, 8, (0.0, 0.5)) == [F(j, 32) for j in range(1, 17)]

    def test_reducible_release_times_beyond_coprime_rule(self):
        # the s = 6 content of x^6 releases at every sixth, including 1/6,
        # which the coprime k-sub-packet rule does not enumerate (2/12 is
        # reducible); the burst is real and the caption-style "all j/12"
        # reading covers it
        coprime = ({F(j, 4) for j in (1, 2, 3)} | {F(j, 8) for j in (1, 3, 5, 7)}
                   | {F(j, 12) for j in (1, 5, 7, 11)})  # rotations, k = 2 and k = 3
        visible = set(visible_burst_times(2, 6))
        assert F(1, 6) in visible and F(1, 6) not in coprime
        assert visible - coprime == {F(1, 6), F(1, 3), F(2, 3), F(5, 6)}

    @pytest.mark.parametrize("window", [(0.0, 1.0), (0.0, 0.5), (0.1, 0.37)])
    def test_matches_the_release_rule(self, window):
        # t is a release time when l s t is an integer for some net ladder
        # change s <= m with s = m (mod 2) and l | s; every such t has a
        # denominator of at most l m
        lo, hi = window
        for l in range(1, 6):
            for m in range(1, 11):
                admissible = [s for s in range(1, m + 1) if (m - s) % 2 == 0 and s % l == 0]
                want = sorted({t for q in range(1, l * m + 1) for t in (F(j, q) for j in range(q))
                               if lo < t <= hi and any((l * s * t).denominator == 1 for s in admissible)})
                assert visible_burst_times(l, m, window) == want, (l, m)


def series_from(values, start=0.0, stop=1.0):
    vals = np.asarray(values, dtype=float)
    return TimeSeries(TimeGrid.uniform(vals.size, start, stop), vals)


class TestDetectBursts:
    def test_constant_series_empty(self):
        assert detect_bursts(series_from(np.full(501, 3.7))) == []

    def test_synthetic_bursts_recovered(self):
        t = np.linspace(0, 1, 2001)
        vals = np.full_like(t, 2.0)
        rng = np.random.default_rng(0)
        vals += 1e-9 * rng.standard_normal(t.size)
        for center in (0.25, 0.5, 0.75):
            vals += np.exp(-((t - center) ** 2) / (2 * 0.004**2)) * np.cos(900 * (t - center))
        found = detect_bursts(series_from(vals))
        assert len(found) == 3
        for got, want in zip(found, (0.25, 0.5, 0.75)):
            assert abs(got - want) < 1e-3

    def test_burst_on_final_sample_recovered_by_reflection(self):
        t = np.linspace(0, 0.5, 2001)
        vals = np.full_like(t, 1.0) + 1e-9 * np.sin(700 * t)
        vals += np.exp(-((t - 0.5) ** 2) / (2 * 0.003**2))
        found = detect_bursts(series_from(vals, 0.0, 0.5))
        assert len(found) == 1
        assert abs(found[0] - 0.5) < 5e-4

    def test_whole_revival_windows_dropped(self):
        t = np.linspace(0, 1, 2001)
        vals = np.full_like(t, 1.0) + 1e-9 * np.sin(700 * t)
        vals += np.exp(-(t**2) / (2 * 0.003**2)) + np.exp(-((t - 1) ** 2) / (2 * 0.003**2))
        assert detect_bursts(series_from(vals)) == []

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            detect_bursts(series_from(np.ones(50)))

    def test_constant_moment_with_rounding_noise_empty(self):
        # <x^2> of the 3-cat never bursts (no damping branch reaches it).  The
        # matrix route over a propagated batch varies only by rounding noise of
        # ~1e-14 around 100.5; the band route keeps no band and is exactly flat
        spec, grid = SuperpositionSpec(3, 0, 100.0), TimeGrid.uniform(1441)
        state = superposed_state(spec, truncation_dim(spec.nu) + 2)
        batch = evolve_amplitudes(state.amplitudes, PARAMS, grid.times(PARAMS))
        noisy = TimeSeries(grid, _quadrature_moment(batch, 2, apply_position))
        assert np.ptp(noisy.values) > 0
        assert visible_burst_times(3, 2) == []
        assert detect_bursts(noisy) == []
        series = moment_series(spec, "x", 2, PARAMS, grid)
        assert np.ptp(series.values) == 0
        assert detect_bursts(series) == []

    def test_x4_coherent_schedule(self):
        series = moment_series(SuperpositionSpec(1, 0, 100.0), "x", 4, PARAMS, TimeGrid.uniform(2001))
        found = detect_bursts(series)
        report = match_report(found, visible_burst_times(1, 4), tol=1e-3)
        assert report.complete
        assert len(report.matched) == 3

    def test_x6_even_cat_includes_eighths(self):
        grid = TimeGrid.uniform(2001, 0.0, 0.5)
        series = moment_series(SuperpositionSpec(2, 0, 100.0), "x", 6, PARAMS, grid)
        found = detect_bursts(series)
        report = match_report(found, visible_burst_times(2, 6, (0.0, 0.5)), tol=2 * grid.step)
        assert report.complete
        # the naive sixth-moment reading (twelfths only) is a strict subset
        twelfth_report = match_report(found, [F(j, 12) for j in range(1, 7)], tol=2 * grid.step)
        assert twelfth_report.misses == []
        assert len(twelfth_report.spurious) == 2


class TestDetectMinima:
    def test_monotone_series_empty(self):
        t = np.linspace(0, 1, 501)
        assert detect_minima(series_from(2 + t)) == []

    def test_synthetic_dips_default_mode(self):
        t = np.linspace(0, 1, 1001)
        vals = 5.0 + 0.001 * np.sin(40 * t)
        for center in (0.25, 0.75):
            vals -= np.exp(-((t - center) ** 2) / (2 * 0.01**2))
        found = detect_minima(series_from(vals))
        for want in (0.25, 0.75):
            assert min(abs(f - want) for f in found) < 2e-3


class TestMinimaAgainstFindPeaks:
    """`scipy.signal.find_peaks` as an independent oracle of the peak and prominence rules."""

    @staticmethod
    def scipy_minima(series):
        # detect_minima with find_peaks in place of _prominent_peaks
        from scipy.signal import find_peaks

        vals_ext, axis, _ = _reflected(series.values, series.grid.fractions)
        peaks = find_peaks(-vals_ext, prominence=0.05)[0]
        below = peaks[vals_ext[peaks] < np.median(series.values)]
        return _kept([float(axis[p]) for p in below], series, 0.5)

    def test_peaks_with_plateaus_and_ties(self):
        from scipy.signal import find_peaks

        rng = np.random.default_rng(5)
        for _ in range(400):
            # few levels, so runs of equal samples and equal heights abound
            x = rng.integers(0, 5, int(rng.integers(1, 80))) / 4.0
            for prominence in (0.0, 0.05, 0.25, 0.5, 1.0):
                want = find_peaks(x, prominence=prominence)[0]
                np.testing.assert_array_equal(_prominent_peaks(x, prominence), want)

    def test_peaks_of_a_rough_walk(self):
        from scipy.signal import find_peaks

        x = np.cumsum(np.random.default_rng(6).standard_normal(5000))
        for prominence in (0.05, 1.0, 10.0):
            np.testing.assert_array_equal(_prominent_peaks(x, prominence),
                                          find_peaks(x, prominence=prominence)[0])

    def test_long_walks_over_rippled_trends(self):
        # ripples of 0.002 on a trend of 0.04: every walk toward lower ground
        # passes hundreds of peaks before its gaps fall 0.05 below it
        from scipy.signal import find_peaks

        t = np.linspace(0.0, 1.0, 3001)
        for x in (0.04 * t + 0.001 * np.sin(2 * np.pi * 500 * t),
                  0.3 * np.cos(2 * np.pi * t) + 0.01 * np.sin(2 * np.pi * 400 * t)):
            for prominence in (0.05, 0.2):
                np.testing.assert_array_equal(_prominent_peaks(x, prominence),
                                              find_peaks(x, prominence=prominence)[0])

    @pytest.mark.parametrize("shape", ["plateaus", "ties", "ends", "ripples"])
    def test_detect_minima_matches(self, shape):
        t = np.linspace(0.0, 0.5, 1001)
        if shape == "plateaus":  # flat-bottomed minima, rounded to a few levels
            vals = np.round(4.0 - np.cos(2 * np.pi * 9 * t) ** 8 * 0.5, 1)
        elif shape == "ties":  # equal minima of equal depth
            vals = 3.0 + np.abs(np.sin(2 * np.pi * 7 * t))
        elif shape == "ends":  # the deepest minima on the first and last samples
            vals = 2.0 + 0.4 * np.cos(2 * np.pi * 10 * t) * np.cos(2 * np.pi * t) + 0.1 * np.sin(97 * t)
        else:  # an entropy sum with its ripples
            spec = SuperpositionSpec(2, 0, 25.0)
            series = entropy_series(spec, PARAMS, TimeGrid.uniform(1001, 0.0, 0.5),
                                    RenyiPair(2 / 3, 2.0))
            vals = series.values
        series = series_from(vals, 0.0, 0.5)
        found = detect_minima(series)
        assert found == self.scipy_minima(series)
        assert found


class TestDetectDips:
    def test_oscillatory_dip_centroid(self):
        # oscillation inside the dip shifts the pointwise minimum but not the centroid
        t = np.linspace(0, 1, 1001)
        vals = 5.0 - np.exp(-((t - 0.5) ** 2) / (2 * 0.02**2)) * (1 + 0.3 * np.cos(500 * (t - 0.5) + 1.0))
        found = detect_dips(series_from(vals))
        assert len(found) == 1
        assert abs(found[0] - 0.5) < 2e-3

    def test_dip_on_final_sample(self):
        t = np.linspace(0, 0.5, 501)
        vals = 4.0 - np.exp(-((t - 0.5) ** 2) / (2 * 0.01**2))
        found = detect_dips(series_from(vals, 0.0, 0.5))
        assert len(found) == 1
        assert abs(found[0] - 0.5) <= 2 * (t[1] - t[0])


class TestMatchReport:
    def test_identical_lists(self):
        report = match_report([0.25, 0.5], [0.25, 0.5], tol=1e-6)
        assert report.complete and len(report.matched) == 2

    def test_misses_and_spurious(self):
        report = match_report([0.25, 0.4], [0.25, 0.5], tol=1e-3)
        assert report.misses == [0.5]
        assert report.spurious == [0.4]
        assert not report.complete

    def test_greedy_nearest(self):
        report = match_report([0.2501, 0.2499], [0.25, 0.2502], tol=1e-3)
        assert len(report.matched) == 2

    def test_tol_validation(self):
        with pytest.raises(ValueError):
            match_report([0.1], [0.1], tol=0.0)
