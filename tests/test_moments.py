import math

import numpy as np
import pytest

from kerrcat import (
    HeadroomError,
    KerrParams,
    SuperpositionSpec,
    TimeGrid,
    a_power_oracle,
    a_power_superposition,
    coherent_state,
    evolve,
    ladder_expectation_coherent,
    ladder_moment_oracle,
    moment_series,
    p_moment_oracle,
    superposed_state,
    truncation_dim,
    x2_even_cat,
    x3_three_cat,
    x_moment_oracle,
)
from kerrcat.moments import apply_position, moment_scale

PARAMS = KerrParams(1.0)
T_REV = PARAMS.t_rev
THETA = np.pi / 4


def scaled_error(got, want, scale):
    return abs(got - want) / max(abs(want), scale)


class TestOracle:
    def test_vacuum_x2(self):
        vac = coherent_state(0.0, n_max=30)
        assert x_moment_oracle(vac, 2) == pytest.approx(0.5, abs=1e-14)
        assert p_moment_oracle(vac, 2) == pytest.approx(0.5, abs=1e-14)

    def test_x0_is_one(self):
        assert x_moment_oracle(coherent_state(9.0), 0) == pytest.approx(1.0, abs=1e-13)

    def test_coherent_first_moment(self):
        s = coherent_state(100.0, THETA)
        assert x_moment_oracle(s, 1) == pytest.approx(math.sqrt(200) * math.cos(THETA), abs=1e-9)
        assert p_moment_oracle(s, 1) == pytest.approx(math.sqrt(200) * math.sin(THETA), abs=1e-9)

    def test_even_cat_x2_at_t0(self):
        s = superposed_state(SuperpositionSpec(2, 0, 100.0))
        assert x_moment_oracle(s, 2) == pytest.approx(x2_even_cat(100.0, 1.0, 0.0), rel=1e-11)

    def test_moment_reality(self):
        s = evolve(superposed_state(SuperpositionSpec(2, 0, 50.0)), PARAMS, 0.123)
        w = s.amplitudes
        for _ in range(4):
            w = apply_position(w)
        value = np.vdot(s.amplitudes, w)
        assert abs(value.imag) < 1e-12 * max(abs(value.real), 1.0)

    def test_headroom_guard(self):
        # a Fock state 11 slots below the edge passes construction (top-10
        # tail is empty) but leaves no room for a 12th matrix power
        from kerrcat import FockState

        amp = np.zeros(120, dtype=complex)
        amp[107] = 1.0
        s = FockState(amp)
        with pytest.raises(HeadroomError, match="increase n_max"):
            x_moment_oracle(s, 12)
        assert x_moment_oracle(s, 2) == pytest.approx(107 + 0.5, rel=1e-12)

    def test_ladder_oracle_number_operator(self):
        s = coherent_state(25.0)
        assert ladder_moment_oracle(s, 1, 0).real == pytest.approx(25.0, abs=1e-9)


class TestLadderClosedForm:
    def test_photon_number_conserved(self):
        alpha = math.sqrt(30.0) * np.exp(1j * THETA)
        for t in (0.0, 0.3, 1.7):
            val = ladder_expectation_coherent(alpha, 1, 0, 1.0, t)
            assert val == pytest.approx(30.0, abs=1e-12)

    def test_t0_value(self):
        alpha = math.sqrt(7.0) * np.exp(0.4j)
        got = ladder_expectation_coherent(alpha, 2, 3, 1.0, 0.0)
        assert got == pytest.approx(alpha**3 * 7.0**2, abs=1e-10)

    def test_burst_condition_no_damping(self):
        # at t = T_rev/4 the s = 4 damping factor is exp(-nu (1 - cos 2 pi)) = 1
        alpha = math.sqrt(100.0) * np.exp(1j * THETA)
        val = ladder_expectation_coherent(alpha, 0, 4, 1.0, T_REV / 4)
        assert abs(val) == pytest.approx(100.0**2, rel=1e-12)

    def test_generic_time_damped(self):
        alpha = math.sqrt(100.0) * np.exp(1j * THETA)
        val = ladder_expectation_coherent(alpha, 0, 1, 1.0, 0.37 * T_REV)
        assert abs(val) < 1e-20 * math.sqrt(100.0)

    def test_modulus_bounded(self):
        alpha = math.sqrt(42.0) * np.exp(1j * THETA)
        for t in np.linspace(0, T_REV, 17):
            assert abs(ladder_expectation_coherent(alpha, 1, 2, 1.0, t)) <= 42.0**2 + 1e-9

    def test_l1_specialization_matches_coherent(self):
        for t in (0.13, 0.71):
            got = a_power_superposition(1, 50.0, THETA, 1.0, t, 2)
            want = ladder_expectation_coherent(math.sqrt(50.0) * np.exp(1j * THETA), 0, 2, 1.0, t)
            assert got == pytest.approx(want, rel=1e-12)


class TestClosedFormsAgainstOracle:
    """Random-sample agreement; relative errors are floored at the observable
    scale nu^(r+s/2) because at strongly damped times the oracle returns
    double-precision rounding noise at that scale."""

    def test_ladder_coherent(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(30):
            nu = float(rng.uniform(0.2, 100.0))
            t = float(rng.uniform(0, T_REV))
            r, s = int(rng.integers(0, 3)), int(rng.integers(0, 5))
            state = evolve(coherent_state(nu, THETA, truncation_dim(nu) + 10), PARAMS, t)
            got = ladder_expectation_coherent(math.sqrt(nu) * np.exp(1j * THETA), r, s, 1.0, t)
            worst = max(worst, scaled_error(got, ladder_moment_oracle(state, r, s),
                                            moment_scale(nu, r, s)))
        assert worst < 1e-9

    @pytest.mark.parametrize("l", [2, 3])
    def test_a_power_cats(self, l):
        rng = np.random.default_rng(13 + l)
        worst = 0.0
        for _ in range(30):
            nu = float(rng.uniform(0.2, 100.0))
            t = float(rng.uniform(0, T_REV))
            k = int(rng.integers(1, 4))
            state = evolve(
                superposed_state(SuperpositionSpec(l, 0, nu), truncation_dim(nu) + 12), PARAMS, t
            )
            got = a_power_superposition(l, nu, THETA, 1.0, t, k)
            worst = max(worst, scaled_error(got, a_power_oracle(state, l * k),
                                            moment_scale(nu, 0, l * k)))
        assert worst < 1e-9

    def test_x2_even_cat(self):
        rng = np.random.default_rng(17)
        worst = 0.0
        for _ in range(30):
            nu = float(rng.uniform(0.2, 100.0))
            t = float(rng.uniform(0, T_REV))
            state = evolve(
                superposed_state(SuperpositionSpec(2, 0, nu), truncation_dim(nu) + 4), PARAMS, t
            )
            worst = max(worst, scaled_error(x2_even_cat(nu, 1.0, t),
                                            x_moment_oracle(state, 2), nu + 0.5))
        assert worst < 1e-9

    def test_x3_three_cat(self):
        rng = np.random.default_rng(19)
        worst = 0.0
        for _ in range(30):
            nu = float(rng.uniform(0.2, 100.0))
            t = float(rng.uniform(0, T_REV))
            state = evolve(
                superposed_state(SuperpositionSpec(3, 0, nu), truncation_dim(nu) + 5), PARAMS, t
            )
            worst = max(worst, scaled_error(x3_three_cat(nu, 1.0, t),
                                            x_moment_oracle(state, 3),
                                            moment_scale(nu, 0, 3)))
        assert worst < 1e-9


class TestX2EvenCatShape:
    def test_plateau_value(self):
        # generic time: damped to <N> + 1/2 with <N> = nu tanh(nu)
        nu = 100.0
        val = x2_even_cat(nu, 1.0, 0.37 * T_REV)
        assert val == pytest.approx(nu * math.tanh(nu) + 0.5, abs=1e-9)

    def test_burst_at_quarter_revival(self):
        nu = 100.0
        plateau = nu + 0.5
        ts = np.linspace(0.24, 0.26, 400) * T_REV
        dev = max(abs(x2_even_cat(nu, 1.0, t) - plateau) for t in ts)
        assert dev > 10

    def test_x3_plateau_is_zero(self):
        # deepest plateau point, halfway between the j/9 revivals: all three
        # damping branches are at exp(-nu/2) or below
        assert abs(x3_three_cat(100.0, 1.0, T_REV / 6)) < 1e-12
        # generic time: zero at burst scale (the bursts reach ~nu^{3/2})
        assert abs(x3_three_cat(100.0, 1.0, 0.37 * T_REV)) < 1e-6 * 100.0**1.5

    def test_x3_bursts_at_ninths(self):
        ts = np.linspace(1 / 9 - 0.01, 1 / 9 + 0.01, 400) * T_REV
        dev = max(abs(x3_three_cat(100.0, 1.0, t)) for t in ts)
        assert dev > 10


class TestMomentSeries:
    def test_odd_moments_vanish_for_even_cat(self):
        spec = SuperpositionSpec(2, 0, 100.0)
        grid = TimeGrid.uniform(301)
        for power in (1, 3, 5):
            series = moment_series(spec, "x", power, PARAMS, grid)
            assert np.max(np.abs(series.values)) < 1e-10

    def test_p_series_supported(self):
        spec = SuperpositionSpec(2, 0, 30.0)
        series = moment_series(spec, "p", 2, PARAMS, TimeGrid.uniform(101))
        # at t = 0: <p^2> = -Re<a^2> + <N> + 1/2 by the quadrature algebra
        want = -math.sin(2 * THETA) * 0  # theta = pi/4 makes Re(i nu) term vanish symmetrically
        assert series.values[0] == pytest.approx(30.0 * math.tanh(30.0) + 0.5, rel=1e-10)

    def test_metadata_and_label(self):
        spec = SuperpositionSpec(3, 0, 10.0)
        series = moment_series(spec, "x", 3, PARAMS, TimeGrid.uniform(101))
        assert series.observable == "x^3"
        assert series.meta["l"] == 3 and series.meta["nu"] == 10.0

    def test_rejects_bad_observable(self):
        with pytest.raises(ValueError):
            moment_series(SuperpositionSpec(1, 0, 1.0), "y", 2, PARAMS, TimeGrid.uniform(101))


def oracle_series(spec, observable, power, grid, n_max):
    """The moment at each sample by the matrix oracle on an evolved state."""
    oracle = x_moment_oracle if observable == "x" else p_moment_oracle
    state = superposed_state(spec, n_max)
    return np.array([oracle(evolve(state, PARAMS, t), power) for t in grid.times(PARAMS)])


class TestBandRoute:
    """moment_series against the matrix oracle, sample by sample, at 1e-11 of
    the observable scale (2 nu + 1)^(power/2)."""

    # burst times of l <= 4, generic times, and the ends where phase reduction matters most
    FRACTIONS = [0.0, 1 / 32, 1 / 9, 0.1234, 1 / 8, 1 / 4, 1 / 3, 0.41, 1 / 2, 0.6789,
                 3 / 4, 0.9, 1 - 1e-6, 1 - 1e-9, 1.0]

    def check(self, spec, observable, power, grid, n_max=None):
        series = moment_series(spec, observable, power, PARAMS, grid, n_max)
        want = oracle_series(spec, observable, power, grid, series.meta["n_max"])
        scale = (2 * spec.nu + 1) ** (power / 2)
        assert np.max(np.abs(series.values - want)) < 1e-11 * scale
        return series, want

    def test_nonuniform_grid_through_full_revival(self):
        spec = SuperpositionSpec(1, 0, 30.0)
        grid = TimeGrid(np.array(self.FRACTIONS))
        for power in (3, 4):
            series, _ = self.check(spec, "x", power, grid)
            # every k is even, so at the full revival each phase is exactly 1
            assert series.values[-1] == series.values[0]

    def test_offset_cat(self):
        grid = TimeGrid(np.array(self.FRACTIONS))
        for observable, power in (("x", 3), ("p", 6)):
            self.check(SuperpositionSpec(3, 1, 20.0), observable, power, grid)

    def test_explicit_n_max(self):
        spec = SuperpositionSpec(2, 0, 25.0)
        n_max = truncation_dim(25.0) + 30
        series, _ = self.check(spec, "x", 4, TimeGrid.uniform(161), n_max)
        assert series.meta["n_max"] == n_max

    def test_odd_p_moment(self):
        _, want = self.check(SuperpositionSpec(1, 0, 30.0), "p", 5, TimeGrid.uniform(161))
        assert np.max(np.abs(want)) > 1.0  # nonzero at the t = 0 end and the bursts

    def test_power_ten_on_five_cat(self):
        grid = TimeGrid(np.unique(self.FRACTIONS + [1 / 50, 1 / 25, 2 / 25]))
        self.check(SuperpositionSpec(5, 0, 20.0), "x", 10, grid)

    def test_undersized_n_max_raises(self):
        # the state builds on 70 + 1 levels, but x^8 would reach its top 18 slots
        with pytest.raises(HeadroomError, match="increase n_max"):
            moment_series(SuperpositionSpec(1, 0, 20.0), "x", 8, PARAMS, TimeGrid.uniform(11), 70)
