import math
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import trapezoid

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
import kerrcat.entropy as entropy_module
from kerrcat.cli import _converged_renyi_sums
from kerrcat.entropy import (
    _quadrature_stride,
    _trapezoid_weights,
    default_grid_for,
    oscillator_basis,
    uniform_grid,
)

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
            [trapezoid(psi * np.exp(-1j * p * x), x=x) / math.sqrt(2 * math.pi) for p in ps]
        )
        got = momentum_wavefunction(s, ps)
        np.testing.assert_allclose(got, direct, atol=1e-6)

    @pytest.mark.parametrize("n_max", [0, 1, 2, 137])
    def test_basis_of_some_rows_is_those_rows_of_the_full_table(self, n_max):
        x = uniform_grid(12.0)
        full = oscillator_basis(n_max, x)
        rows = np.concatenate([np.arange(0, n_max + 1, 3), np.arange(1, n_max + 1, 3)])
        assert oscillator_basis(n_max, x, rows).tobytes() == full[rows].tobytes()

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
        shannon = -trapezoid(xlogy(values, values), x=grid)
        assert renyi_entropy(DensityProfile(grid, values), 1.0) == pytest.approx(shannon, abs=1e-15)


class TestTrapezoidWeights:
    @pytest.mark.parametrize("points", [2, 3, 5, 10, 11, 2001, 3601])
    def test_match_scipy_trapezoid(self, points):
        # scipy's trapezoid rule as an independent oracle
        x = np.linspace(-7.3, 5.1, points)
        f = np.exp(-0.5 * x * x) * (1.0 + 0.3 * np.cos(5.0 * x))
        assert f @ _trapezoid_weights(x) == pytest.approx(trapezoid(f, x=x), rel=1e-14, abs=0)

    def test_density_total_matches_scipy_trapezoid(self):
        d = position_density(coherent_state(3.0))
        assert d.total() == pytest.approx(trapezoid(d.values, x=d.grid), rel=1e-14, abs=0)
        assert d.total() == pytest.approx(1.0, abs=1e-12)

    def test_density_profile_takes_an_even_point_count(self):
        grid = np.linspace(0.0, 1.0, 10)
        assert DensityProfile(grid, np.ones_like(grid)).total() == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("grid", [
        np.array([0.0, 0.1, 0.3, 0.4, 0.5]),            # uneven spacing
        np.concatenate([np.linspace(0.0, 1.0, 11)[:-1], [1.001]]),
        np.zeros(5),                                    # no spacing
        np.zeros(1),                                    # no step at all
    ], ids=["uneven", "last-step-off", "zero-step", "one-point"])
    def test_density_profile_rejects_non_uniform_grids(self, grid):
        with pytest.raises(ValueError, match="grid"):
            DensityProfile(grid, np.ones_like(grid))


class TestQuadratureGrids:
    @pytest.mark.parametrize("order, stride", [(0.6, 1), (2 / 3, 1), (1.0, 1), (1.125, 2), (1.5, 2),
                                               (2.0, 25), (2.0000000000000004, 25), (3.0, 16), (4.0, 12)])
    def test_stride_of_each_order(self, order, stride):
        # grid half-width X = 12.325 at step 0.005: the largest s with
        # 0.005 s <= pi / (o X) for integer o
        x = default_grid_for(superposed_state(SuperpositionSpec(2, 0, 20.0)))
        assert x[-1] == pytest.approx(12.325, abs=1e-12)
        assert _quadrature_stride(x, order) == stride

    def test_stride_leaves_two_intervals_on_a_short_grid(self):
        assert _quadrature_stride(np.linspace(-1.0, 1.0, 5), 2.0) == 2
        assert _quadrature_stride(np.linspace(-1.0, 1.0, 3), 1.5) == 1

    @pytest.mark.parametrize("eta", [2.0, 3.0, 4.0])
    @pytest.mark.parametrize("l", [1, 2, 3, 4])
    def test_integer_order_on_the_sub_grid_is_the_full_grid_sum(self, l, eta):
        # |phi|^(2 eta) is band-limited, so the trapezoid on the sub-grid of
        # step about pi / (eta X) equals the one on every grid point
        pair = RenyiPair(eta / (2 * eta - 1), eta)
        for f in (1 / 12, 0.37):
            s = evolve(superposed_state(SuperpositionSpec(l, 0, 20.0)), PARAMS, f * T_REV)
            x = default_grid_for(s)
            assert _quadrature_stride(x, eta) >= 10
            full = (renyi_entropy(position_density(s, x), pair.zeta)
                    + renyi_entropy(momentum_density(s, x), eta))
            assert renyi_uncertainty_sum(s, pair) == pytest.approx(full, abs=1e-12)
            swapped = RenyiPair(eta, pair.zeta)
            full = (renyi_entropy(position_density(s, x), eta)
                    + renyi_entropy(momentum_density(s, x), pair.zeta))
            assert renyi_uncertainty_sum(s, swapped) == pytest.approx(full, abs=1e-12)

    def test_quarter_turn_swaps_the_pair(self):
        # turning the cat by pi/2 takes psi to phi and phi to psi(-x), so the
        # (2, 2/3) series of the turned cat is the (2/3, 2) series of the cat
        grid = TimeGrid.uniform(37, 0.0, 0.5)
        for l in (1, 3):
            spec = SuperpositionSpec(l, 0, 20.0, math.pi / 4)
            turned = SuperpositionSpec(l, 0, 20.0, math.pi / 4 + math.pi / 2)
            want = entropy_series(spec, PARAMS, grid, RenyiPair(2 / 3, 2.0))
            got = entropy_series(turned, PARAMS, grid, RenyiPair(2.0, 2 / 3))
            assert (got.meta["rho_step"], got.meta["gamma_step"]) == (want.meta["gamma_step"],
                                                                      want.meta["rho_step"])
            np.testing.assert_allclose(got.values, want.values, rtol=0, atol=1e-12)

    # 3-cat at nu = 30, the pairs zeta = 2/3, 0.6, 0.75 and 0.9 at eight times
    # of the 396-case set (1, 2 and 3-cats at 33 times j/q <= 1/2, q <= 14);
    # Simpson on the same grid reads worst 1.40e-5 (T_rev/4, zeta = 0.6) and
    # median 2.4e-7 on these 32 cases
    REFERENCE_TIMES = [1 / 12, 1 / 11, 1 / 10, 1 / 9, 1 / 6, 1 / 4, 2 / 7, 1 / 3]

    def test_series_against_a_converged_reference(self):
        spec = SuperpositionSpec(3, 0, 30.0, math.pi / 4)
        grid = TimeGrid(np.array(self.REFERENCE_TIMES))
        pairs = [RenyiPair(z, z / (2 * z - 1)) for z in (2 / 3, 0.6, 0.75, 0.9)]
        series = [entropy_series(spec, PARAMS, grid, pair) for pair in pairs]
        state = superposed_state(spec, series[0].meta["n_max"])
        errors = []
        for i, f in enumerate(self.REFERENCE_TIMES):
            want = _converged_renyi_sums(evolve(state, PARAMS, f * T_REV), pairs)
            errors += [abs(s.values[i] - w) for s, w in zip(series, want)]
        assert max(errors) < 1e-5
        assert np.median(errors) < 1.5e-7


class TestRenyiPair:
    def test_conjugate_constraint(self):
        pair = RenyiPair(2 / 3, 2.0)
        assert 1 / pair.zeta + 1 / pair.eta == pytest.approx(2.0, abs=1e-12)
        with pytest.raises(ValueError):
            RenyiPair(2 / 3, 3.0)

    def test_rejects_non_positive_orders(self):
        # 1/zeta + 1/eta = 2 holds, but zeta < 0
        with pytest.raises(ValueError, match="positive"):
            RenyiPair(-0.5, 0.25)

    @pytest.mark.parametrize("make", [
        lambda: RenyiPair(math.nan, math.nan),
        lambda: RenyiPair(math.inf, 0.5),
        lambda: RenyiPair(0.5, math.inf),
        lambda: RenyiPair(-math.inf, 0.5),
    ], ids=["nan-nan", "inf-half", "half-inf", "-inf-half"])
    def test_rejects_non_finite_orders(self, make):
        with pytest.raises(ValueError, match="finite"):
            make()

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
        # grid half-width sqrt(10) + 6 = 9.165: gamma^2 on every 34th point
        assert (series.meta["rho_step"], series.meta["gamma_step"]) == (0.005, 34 * 0.005)

    # a non-uniform grid through f = 0 and f = 1; 9 and 2 samples make one
    # short block, 33 and 37 two full blocks of 16 and then a last block of 1
    # and of 5
    CROSS_GRIDS = [
        TimeGrid(np.array([0.0, 0.013, 1 / 18, 1 / 9, 0.125, 0.31, 0.5, 0.77, 1.0])),
        TimeGrid.uniform(2, 0.0, 0.25),
        TimeGrid.uniform(33, 0.0, 0.5),
        TimeGrid.uniform(37, 0.2, 1.0),
    ]

    @pytest.mark.parametrize("pair", [RenyiPair(2 / 3, 2.0), RenyiPair(0.6, 3.0), RenyiPair(1.0, 1.0),
                                      RenyiPair(2.0, 2 / 3)],
                             ids=["2/3-2", "0.6-3", "shannon", "2-2/3"])
    @pytest.mark.parametrize("l, h", [(1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (4, 0)])
    def test_matches_per_state_sums(self, l, h, pair):
        # independent route: one evolved state at a time, complex amplitudes
        # against the basis table of the whole grid (the trapezoid weights and
        # sub-grids both routes share are checked above); (2, 0), (2, 1) and
        # (4, 0) have a support of one parity, folded onto x >= 0, and (2, 1)
        # is odd, with rho(0) = 0; the (2, 2/3) pair integrates rho on the
        # sub-grid and gamma on every point
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


def recording_threads(monkeypatch):
    """Record the thread that propagates each block of `entropy_series`."""
    threads = []
    propagate = entropy_module.evolve_amplitudes

    def recorded(*args, **kwargs):
        threads.append(threading.get_ident())
        return propagate(*args, **kwargs)

    monkeypatch.setattr(entropy_module, "evolve_amplitudes", recorded)
    return threads


class TestWorkers:
    # the benchmark's layouts: l = 1 and 3 with both parities, the even (2, 0)
    # and the odd (2, 1) support folded onto x >= 0; the grids make one block
    # (9 samples) and three, the last one partial (33 and 37 samples)
    SHAPES = [(1, 0), (2, 0), (2, 1), (3, 0), (3, 1)]
    GRIDS = [TestEntropySeries.CROSS_GRIDS[0], TimeGrid.uniform(33, 0.0, 0.5),
             TimeGrid.uniform(37, 0.2, 1.0)]

    @pytest.mark.parametrize("l, h", SHAPES)
    def test_split_is_bitwise_the_one_worker_loop(self, monkeypatch, l, h):
        spec = SuperpositionSpec(l, h, 12.0)
        pair = RenyiPair(0.6, 3.0)

        def series(workers):
            if workers is not None:
                monkeypatch.setattr(entropy_module, "_workers", lambda blocks: min(workers, blocks))
            return [entropy_series(spec, PARAMS, grid, pair).values.tobytes() for grid in self.GRIDS]

        threads = recording_threads(monkeypatch)
        on_this_host = series(None)
        threads.clear()
        three = series(3)
        # the 9-sample grid is one block, run by the caller; 33 and 37 are three
        # blocks each, dealt to the caller and to pool threads
        caller = threading.get_ident()
        assert len(threads) == 7 and threads[0] == caller
        assert threads[1:4].count(caller) == threads[4:].count(caller) == 1
        one = series(1)
        assert one == on_this_host == three

    def test_benchmark_sized_series_is_bitwise_the_one_worker_loop(self, monkeypatch):
        spec = SuperpositionSpec(3, 0, 30.0)
        grid, pair = TimeGrid.uniform(1001, 0.0, 0.5), RenyiPair(0.75, 1.5)
        split = entropy_series(spec, PARAMS, grid, pair).values
        monkeypatch.setattr(entropy_module, "_workers", lambda blocks: 1)
        assert entropy_series(spec, PARAMS, grid, pair).values.tobytes() == split.tobytes()

    def test_more_workers_than_cores_with_fast_thread_switching(self, monkeypatch):
        # eight workers on 11 blocks share the series buffer and the basis table
        spec, grid, pair = SuperpositionSpec(3, 1, 12.0), TimeGrid.uniform(161, 0.0, 0.5), RenyiPair(0.8, 4 / 3)
        monkeypatch.setattr(entropy_module, "_workers", lambda blocks: 1)
        want = entropy_series(spec, PARAMS, grid, pair).values
        monkeypatch.setattr(entropy_module, "_workers", lambda blocks: min(8, blocks))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = entropy_series(spec, PARAMS, grid, pair).values
        finally:
            sys.setswitchinterval(interval)
        assert got.tobytes() == want.tobytes()

    def test_without_the_blas_setter_one_worker_runs(self, monkeypatch):
        spec, grid, pair = SuperpositionSpec(3, 0, 12.0), self.GRIDS[2], RenyiPair(2 / 3, 2.0)
        want = entropy_series(spec, PARAMS, grid, pair).values
        monkeypatch.setattr(entropy_module, "_SET_BLAS_THREADS", None)
        threads = recording_threads(monkeypatch)
        got = entropy_series(spec, PARAMS, grid, pair).values
        assert set(threads) == {threading.get_ident()} and len(threads) == 3
        assert got.tobytes() == want.tobytes()

    def test_import_sets_numpy_blas_to_one_thread(self):
        if entropy_module._SET_BLAS_THREADS is None:
            pytest.skip("numpy bundles no OpenBLAS here; BLAS is left alone")
        # a fresh interpreter: kerrcat's import alone sets the count
        getter = entropy_module._SET_BLAS_THREADS.__name__.replace("_set_", "_get_")
        script = f"""
import ctypes
from pathlib import Path
import numpy as np
import kerrcat
libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
lib = ctypes.CDLL(str(next(libs.glob("*openblas*"))))
get = lib.{getter}
get.argtypes, get.restype = [], ctypes.c_int
print(get())
"""
        env = dict(os.environ, PYTHONPATH=str(Path(entropy_module.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["1"]

    @staticmethod
    def divide_on(monkeypatch, worker):
        """Divide by zero in the blocks of the second worker, or of the caller."""
        caller = threading.get_ident()
        renyi = entropy_module._renyi_on_rows

        def dividing(densities, integrate, order):
            if (threading.get_ident() != caller) == worker:
                np.ones(1) / np.zeros(1)
            return renyi(densities, integrate, order)

        monkeypatch.setattr(entropy_module, "_renyi_on_rows", dividing)
        monkeypatch.setattr(entropy_module, "_workers", lambda blocks: min(2, blocks))

    @pytest.mark.parametrize("worker", [False, True], ids=["caller", "second-worker"])
    def test_error_state_reaches_every_worker(self, monkeypatch, worker):
        self.divide_on(monkeypatch, worker)
        with np.errstate(divide="raise"), pytest.raises(FloatingPointError):
            entropy_series(SuperpositionSpec(1, 0, 12.0), PARAMS, self.GRIDS[1], RenyiPair(2 / 3, 2.0))

    def test_warning_in_a_worker_fails_the_run(self, monkeypatch):
        # numpy's default error state warns; the test run makes RuntimeWarning an error
        self.divide_on(monkeypatch, True)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(RuntimeWarning, match="divide by zero"):
                entropy_series(SuperpositionSpec(1, 0, 12.0), PARAMS, self.GRIDS[1],
                               RenyiPair(2 / 3, 2.0))


def test_density_profile_validation():
    grid = np.linspace(0, 1, 11)
    with pytest.raises(ValueError):
        DensityProfile(grid, -np.ones_like(grid))
    with pytest.raises(ValueError):
        DensityProfile(grid, np.ones(5))
