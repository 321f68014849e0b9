import math

import numpy as np
import pytest
from scipy.integrate import simpson

from kerrcat import (
    DensityProfile,
    FockState,
    KerrParams,
    RenyiPair,
    SuperpositionSpec,
    TimeGrid,
    coherent_state,
    entropy_series,
    evolve,
    momentum_density,
    momentum_wavefunction,
    position_density,
    position_wavefunction,
    renyi_bound,
    renyi_entropy,
    renyi_uncertainty_sum,
    superposed_state,
)
from kerrcat.entropy import _simpson_weights, default_grid_for, oscillator_basis, uniform_grid

PARAMS = KerrParams(1.0)
T_REV = PARAMS.t_rev


def gaussian_renyi(sigma, order):
    # closed form for a normal density with standard deviation sigma
    if order == 1.0:
        return math.log(sigma * math.sqrt(2 * math.pi)) + 0.5
    return math.log(sigma * math.sqrt(2 * math.pi)) + math.log(order) / (2 * (order - 1))


class TestWavefunctions:
    def test_vacuum_position(self):
        vac = coherent_state(0.0, n_max=20)
        x = uniform_grid(8.0)
        psi = position_wavefunction(vac, x)
        np.testing.assert_allclose(psi.real, np.pi**-0.25 * np.exp(-x * x / 2), atol=1e-13)
        np.testing.assert_allclose(psi.imag, 0.0, atol=1e-15)

    def test_coherent_density_is_shifted_gaussian(self):
        nu, theta = 20.0, np.pi / 4
        x0 = math.sqrt(2 * nu) * math.cos(theta)
        s = coherent_state(nu, theta)
        d = position_density(s)
        want = np.exp(-((d.grid - x0) ** 2)) / math.sqrt(math.pi)
        np.testing.assert_allclose(d.values, want, atol=1e-10)

    def test_even_cat_density_symmetric(self):
        s = superposed_state(SuperpositionSpec(2, 0, 12.0))
        x = uniform_grid(12.0)
        d = position_density(s, x).values
        np.testing.assert_allclose(d, d[::-1], atol=1e-15)

    def test_densities_normalized(self):
        s = evolve(superposed_state(SuperpositionSpec(3, 0, 30.0)), PARAMS, 0.21 * T_REV)
        assert position_density(s).total() == pytest.approx(1.0, abs=1e-8)
        assert momentum_density(s).total() == pytest.approx(1.0, abs=1e-8)

    def test_momentum_route_matches_fourier_quadrature(self):
        # oracle: phi(p) = (2 pi)^{-1/2} int psi(x) e^{-ipx} dx on a fine grid
        s = evolve(superposed_state(SuperpositionSpec(2, 0, 4.0), 50), PARAMS, 0.3)
        x = uniform_grid(11.0, 0.005)
        psi = position_wavefunction(s, x)
        ps = np.linspace(-4.0, 4.0, 21)
        direct = np.array(
            [simpson(psi * np.exp(-1j * p * x), x=x) / math.sqrt(2 * math.pi) for p in ps]
        )
        got = momentum_wavefunction(s, ps)
        np.testing.assert_allclose(got, direct, atol=1e-6)

    @pytest.mark.parametrize("n", [100, 101, 150, 299])
    def test_momentum_phase_of_high_number_state_is_exact(self, n):
        # (-i)^n from the exact table, not through exp/log, for every n
        p = np.linspace(-5.0, 5.0, 41)
        fock = FockState(np.eye(300, dtype=complex)[n])
        want = np.array([1, -1j, -1, 1j])[n % 4] * oscillator_basis(299, p)[n]
        assert np.array_equal(momentum_wavefunction(fock, p), want)


class TestRenyiEntropy:
    def test_vacuum_shannon(self):
        vac = coherent_state(0.0, n_max=20)
        d = position_density(vac, uniform_grid(9.0))
        assert renyi_entropy(d, 1.0) == pytest.approx((1 + math.log(math.pi)) / 2, abs=1e-10)

    @pytest.mark.parametrize("order", [2 / 3, 2.0, 3.0, 0.5])
    def test_gaussian_closed_form(self, order):
        d = position_density(coherent_state(0.0, n_max=20), uniform_grid(9.0))
        assert renyi_entropy(d, order) == pytest.approx(
            gaussian_renyi(1 / math.sqrt(2), order), abs=1e-10
        )

    def test_uniform_density_entropy_zero(self):
        grid = np.linspace(0.0, 1.0, 2001)
        d = DensityProfile(grid, np.ones_like(grid))
        for order in (0.5, 2 / 3, 1.0, 2.0, 5.0):
            assert renyi_entropy(d, order) == pytest.approx(0.0, abs=1e-12)

    def test_shannon_limit_two_sided_continuity(self):
        s = evolve(superposed_state(SuperpositionSpec(2, 0, 10.0)), PARAMS, 0.11 * T_REV)
        d = position_density(s)
        below = renyi_entropy(d, 1.0 - 1e-6)
        above = renyi_entropy(d, 1.0 + 1e-6)
        assert abs(below - above) < 1e-4
        assert abs(renyi_entropy(d, 1.0) - 0.5 * (below + above)) < 1e-4

    def test_rejects_bad_order(self):
        d = position_density(coherent_state(0.0, n_max=20), uniform_grid(6.0))
        with pytest.raises(ValueError):
            renyi_entropy(d, 0.0)

    def test_shannon_takes_zero_density_as_zero(self):
        # f ln f -> 0 as f -> 0, as scipy's xlogy has it
        from scipy.special import xlogy

        grid = np.linspace(-1.0, 1.0, 11)
        values = np.array([0, 0, 0.1, 0.5, 0.9, 1.2, 0.9, 0.5, 0.1, 0, 0], dtype=float)
        shannon = -simpson(xlogy(values, values), x=grid)
        assert renyi_entropy(DensityProfile(grid, values), 1.0) == pytest.approx(shannon, abs=1e-15)


class TestSimpsonWeights:
    @pytest.mark.parametrize("points", [3, 5, 11, 2001, 3601])
    def test_match_scipy_simpson(self, points):
        # scipy's composite Simpson rule as an independent oracle
        x = np.linspace(-7.3, 5.1, points)
        f = np.exp(-0.5 * x * x) * (1.0 + 0.3 * np.cos(5.0 * x))
        assert f @ _simpson_weights(x) == pytest.approx(simpson(f, x=x), rel=1e-14, abs=0)

    def test_density_total_matches_scipy_simpson(self):
        d = position_density(coherent_state(3.0))
        assert d.total() == pytest.approx(simpson(d.values, x=d.grid), rel=1e-14, abs=0)
        assert d.total() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("grid", [
        np.linspace(0.0, 1.0, 10),                      # even point count
        np.array([0.0, 0.1, 0.3, 0.4, 0.5]),            # uneven spacing
        np.concatenate([np.linspace(0.0, 1.0, 11)[:-1], [1.001]]),
        np.zeros(5),                                    # no spacing
    ], ids=["even-count", "uneven", "last-step-off", "zero-step"])
    def test_density_profile_rejects_grids_simpson_cannot_take(self, grid):
        with pytest.raises(ValueError, match="grid"):
            DensityProfile(grid, np.ones_like(grid))


class TestRenyiPair:
    def test_conjugate_constraint(self):
        pair = RenyiPair(2 / 3, 2.0)
        assert 1 / pair.zeta + 1 / pair.eta == pytest.approx(2.0, abs=1e-12)
        with pytest.raises(ValueError):
            RenyiPair(2 / 3, 3.0)

    def test_conjugate_constructor(self):
        pair = RenyiPair.conjugate(3 / 4)
        assert pair.eta == pytest.approx(1.5, abs=1e-15)
        with pytest.raises(ValueError):
            RenyiPair.conjugate(0.5)

    def test_bound_values(self):
        assert renyi_bound(RenyiPair(1.0, 1.0)) == pytest.approx(1 + math.log(math.pi), abs=1e-14)
        # (2/3, 2): -(3/2) ln(2/(3 pi)) + (1/2) ln(2/pi)
        want = -1.5 * math.log(2 / (3 * math.pi)) + 0.5 * math.log(2 / math.pi)
        assert renyi_bound(RenyiPair(2 / 3, 2.0)) == pytest.approx(want, abs=1e-14)


class TestUncertaintySum:
    @pytest.mark.parametrize("pair", [RenyiPair(2 / 3, 2.0), RenyiPair(1.0, 1.0), RenyiPair(3 / 4, 1.5)])
    def test_vacuum_saturates(self, pair):
        vac = coherent_state(0.0, n_max=24)
        assert renyi_uncertainty_sum(vac, pair) == pytest.approx(renyi_bound(pair), abs=1e-6)

    def test_coherent_saturates_at_t0(self):
        s = coherent_state(35.0)
        pair = RenyiPair(2 / 3, 2.0)
        assert renyi_uncertainty_sum(s, pair) == pytest.approx(renyi_bound(pair), abs=1e-6)

    def test_three_cat_strictly_above_bound(self):
        s = superposed_state(SuperpositionSpec(3, 0, 30.0))
        pair = RenyiPair(2 / 3, 2.0)
        val = renyi_uncertainty_sum(s, pair)
        assert val > renyi_bound(pair) + 0.5

    def test_refined_grid_agreement(self):
        # halving the step and widening the span must not move the value
        s = superposed_state(SuperpositionSpec(3, 0, 30.0))
        pair = RenyiPair(2 / 3, 2.0)
        coarse = renyi_uncertainty_sum(s, pair)
        fine = renyi_uncertainty_sum(s, pair, uniform_grid(math.sqrt(60.0) + 8.0, 0.0025))
        assert abs(coarse - fine) < 1e-6

    def test_grid_halving_stability_evolved(self):
        # default step, then half of it, on a spread-out generic-time state
        s = evolve(superposed_state(SuperpositionSpec(2, 0, 30.0)), PARAMS, 0.37 * T_REV)
        pair = RenyiPair(2 / 3, 2.0)
        base = renyi_uncertainty_sum(s, pair, default_grid_for(s))
        fine = renyi_uncertainty_sum(s, pair, default_grid_for(s, 0.0025))
        assert abs(base - fine) < 1e-6


class TestEntropySeries:
    def test_series_respects_bound_and_dips_at_revival(self):
        spec = SuperpositionSpec(2, 0, 30.0)
        pair = RenyiPair(2 / 3, 2.0)
        grid = TimeGrid(np.array([0.001, 0.125, 0.2, 0.25, 0.37]))
        series = entropy_series(spec, PARAMS, grid, pair)
        assert np.all(series.values >= renyi_bound(pair) - 1e-6)
        # the 2-sub-packet dip at 1/8 and the rotation at 1/4 sit below the plateau
        plateau = series.values[-1]
        assert series.values[1] < plateau - 0.5
        assert series.values[3] < plateau - 0.5

    def test_metadata(self):
        spec = SuperpositionSpec(1, 0, 5.0)
        series = entropy_series(spec, PARAMS, TimeGrid.uniform(21, 0.0, 0.1), RenyiPair(2 / 3, 2.0))
        assert series.meta["zeta"] == pytest.approx(2 / 3)
        assert series.values.size == 21

    # a non-uniform grid through f = 0 and f = 1; 2 samples make one short
    # block, 33 and 37 a full block of 32 and then a last block of 1 and of 5
    CROSS_GRIDS = [
        TimeGrid(np.array([0.0, 0.013, 1 / 18, 1 / 9, 0.125, 0.31, 0.5, 0.77, 1.0])),
        TimeGrid.uniform(2, 0.0, 0.25),
        TimeGrid.uniform(33, 0.0, 0.5),
        TimeGrid.uniform(37, 0.2, 1.0),
    ]

    @pytest.mark.parametrize("pair", [RenyiPair(2 / 3, 2.0), RenyiPair(0.6, 3.0), RenyiPair(1.0, 1.0)],
                             ids=["2/3-2", "0.6-3", "shannon"])
    @pytest.mark.parametrize("l, h", [(1, 0), (2, 0), (3, 0), (3, 1)])
    def test_matches_per_state_sums(self, l, h, pair):
        # independent route: one evolved state at a time, complex projection (the
        # Simpson weights both routes share are checked against scipy's simpson above)
        spec = SuperpositionSpec(l, h, 12.0)
        for grid in self.CROSS_GRIDS:
            series = entropy_series(spec, PARAMS, grid, pair)
            state = superposed_state(spec, series.meta["n_max"])
            want = [renyi_uncertainty_sum(evolve(state, PARAMS, f * T_REV), pair)
                    for f in grid.fractions]
            np.testing.assert_allclose(series.values, want, rtol=0, atol=1e-11)

    def test_wrong_propagator_reaches_the_series(self, monkeypatch):
        def conjugated(dim, chi, t):
            n = np.arange(dim, dtype=np.float64)
            return np.exp(+1j * chi * t * n * (n - 1))

        # the conjugated propagator evolves the cat turned by -pi/2, which swaps
        # rho and gamma: only a pair with zeta != eta can tell
        spec = SuperpositionSpec(2, 0, 20.0)
        grid = TimeGrid(np.array([0.05, 0.125, 0.2, 0.3]))
        pair = RenyiPair(2 / 3, 2.0)
        right = entropy_series(spec, PARAMS, grid, pair).values
        monkeypatch.setattr("kerrcat.evolution._phase_factors", conjugated)
        wrong = entropy_series(spec, PARAMS, grid, pair).values
        assert np.max(np.abs(wrong - right)) > 1e-2


def test_density_profile_validation():
    grid = np.linspace(0, 1, 11)
    with pytest.raises(ValueError):
        DensityProfile(grid, -np.ones_like(grid))
    with pytest.raises(ValueError):
        DensityProfile(grid, np.ones(5))
