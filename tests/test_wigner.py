import math

import numpy as np
import pytest
from scipy.integrate import simpson

from kerrcat import (
    FockState,
    GridCoverageWarning,
    KerrParams,
    PhaseSpaceField,
    PhaseSpaceGrid,
    SuperpositionSpec,
    coherent_state,
    count_lobes,
    evolve,
    lobe_peaks,
    momentum_density,
    position_density,
    position_wavefunction,
    rotation_symmetry_defect,
    superposed_state,
    wigner_field,
    wigner_marginals,
    wigner_on_points,
)
from kerrcat.wigner import default_grid

PARAMS = KerrParams(1.0)
T_REV = PARAMS.t_rev


def wigner_transform_oracle(state, x, p, y_span=12.0, y_step=0.004):
    """Independent route: W = (1/pi) int psi*(x+y) psi(x-y) e^{2ipy} dy by Simpson."""
    half = int(math.ceil(y_span / y_step))
    y = np.linspace(-half * y_step, half * y_step, 2 * half + 1)
    left = position_wavefunction(state, x + y)
    right = position_wavefunction(state, x - y)
    integrand = np.conj(left) * right * np.exp(2j * p * y)
    return simpson(integrand, x=y).real / np.pi


def fock_state(n, dim):
    amp = np.zeros(dim, dtype=complex)
    amp[n] = 1.0
    return FockState(amp)


class TestPointwiseOracles:
    def test_vacuum_gaussian(self):
        vac = fock_state(0, 16)
        xs = np.array([0.0, 0.5, -1.2, 2.0])
        ps = np.array([0.0, -0.4, 0.9, 1.5])
        got = wigner_on_points(vac, xs, ps)
        want = np.exp(-xs**2 - ps**2) / np.pi
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_vacuum_peak_value(self):
        vac = fock_state(0, 16)
        assert wigner_on_points(vac, 0.0, 0.0) == pytest.approx(1 / np.pi, abs=1e-10)

    def test_single_photon_kernel(self):
        one = fock_state(1, 16)
        r2 = np.array([0.0, 0.3, 1.0, 2.7])
        got = wigner_on_points(one, np.sqrt(r2), np.zeros_like(r2))
        want = (2 * r2 - 1) * np.exp(-r2) / np.pi
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_coherent_displaced_gaussian(self):
        # theta away from the diagonal pins the sign convention of p
        nu, theta = 6.0, np.pi / 6
        s = coherent_state(nu, theta)
        x0 = math.sqrt(2 * nu) * math.cos(theta)
        p0 = math.sqrt(2 * nu) * math.sin(theta)
        xs = x0 + np.array([0.0, 0.7, -0.3])
        ps = p0 + np.array([0.0, -0.5, 0.4])
        got = wigner_on_points(s, xs, ps)
        want = np.exp(-((xs - x0) ** 2) - (ps - p0) ** 2) / np.pi
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_against_transform_quadrature(self):
        # fully independent oracle built on the position wavefunction
        state = evolve(superposed_state(SuperpositionSpec(2, 0, 5.0), 60), PARAMS, T_REV / 8)
        rng = np.random.default_rng(3)
        pts_x = rng.uniform(-4, 4, 12)
        pts_p = rng.uniform(-4, 4, 12)
        got = wigner_on_points(state, pts_x, pts_p)
        want = np.array([wigner_transform_oracle(state, x, p) for x, p in zip(pts_x, pts_p)])
        np.testing.assert_allclose(got, want, atol=1e-8)


class TestField:
    def test_normalization(self):
        state = evolve(coherent_state(20.0), PARAMS, T_REV / 4)
        field = wigner_field(state)
        assert field.integral() == pytest.approx(1.0, abs=1e-3)

    def test_marginals_match_densities(self):
        state = evolve(coherent_state(20.0), PARAMS, T_REV / 4)
        field = wigner_field(state)
        rho, gamma = wigner_marginals(field)
        rho_direct = position_density(state, field.grid.xs()).values
        gamma_direct = momentum_density(state, field.grid.ps()).values
        assert np.max(np.abs(rho - rho_direct)) < 1e-6
        assert np.max(np.abs(gamma - gamma_direct)) < 1e-6

    def test_grid_too_small_warns(self):
        state = coherent_state(20.0)
        with pytest.warns(GridCoverageWarning):
            wigner_field(state, PhaseSpaceGrid.square(3.0, 61))

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            PhaseSpaceGrid(1.0, -1.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            PhaseSpaceGrid(-1.0, 1.0, -1.0, 1.0, n_x=1)

    def test_csv_and_gnuplot_exports(self):
        state = coherent_state(1.0, n_max=40)
        field = wigner_field(state, PhaseSpaceGrid.square(7.0, 21))
        csv = field.to_csv()
        assert csv.splitlines()[0] == "x,p,W"
        assert len(csv.splitlines()) == 1 + 21 * 21
        mat = field.to_gnuplot_matrix().splitlines()
        assert mat[0].split()[0] == "21"
        assert len(mat) == 1 + 21


class TestRadiusGroupedKernel:
    """The grid path reuses one radial recurrence per distinct radius; single
    points share nothing, so a per-point loop is an independent route."""

    @staticmethod
    def _state():
        # complex rho_{n+k,n} on every diagonal, small basis for the point loop
        return evolve(superposed_state(SuperpositionSpec(2, 0, 5.0), 40), PARAMS, T_REV / 8)

    def test_asymmetric_grid_matches_point_loop(self):
        state = self._state()
        grid = PhaseSpaceGrid(-7.6, 8.3, -7.9, 8.1, 13, 9)
        field = wigner_field(state, grid)
        xs, ps = grid.xs(), grid.ps()
        loop = np.array([[wigner_on_points(state, x, p) for p in ps] for x in xs])
        np.testing.assert_allclose(field.values, loop, rtol=0, atol=1e-13)

    def test_scattered_points_match_point_loop(self):
        state = self._state()
        rng = np.random.default_rng(11)
        x, p = rng.uniform(-5, 5, 200), rng.uniform(-5, 5, 200)
        assert np.unique(x * x + p * p).size == 200  # no radius repeats
        batch = wigner_on_points(state, x, p)
        loop = np.array([wigner_on_points(state, xi, pi) for xi, pi in zip(x, p)])
        np.testing.assert_allclose(batch, loop, rtol=0, atol=1e-13)

    def test_coherent_field_is_displaced_gaussian(self):
        nu, theta = 6.0, np.pi / 6
        x0 = math.sqrt(2 * nu) * math.cos(theta)
        p0 = math.sqrt(2 * nu) * math.sin(theta)
        field = wigner_field(coherent_state(nu, theta), PhaseSpaceGrid(-4.0, 8.0, -5.0, 7.0, 61, 49))
        X, P = np.meshgrid(field.grid.xs(), field.grid.ps(), indexing="ij")
        want = np.exp(-((X - x0) ** 2) - (P - p0) ** 2) / np.pi
        np.testing.assert_allclose(field.values, want, rtol=0, atol=1e-10)


class TestWriterGolden:
    """Both writers against the per-value f-string layout they were specified with."""

    @staticmethod
    def _field():
        grid = PhaseSpaceGrid(-1.25, 2.0, -0.3, 1e-3, 7, 5)
        rng = np.random.default_rng(5)
        values = rng.standard_normal((7, 5)) * 10.0 ** rng.integers(-30, 30, (7, 5))
        values[0, 0], values[1, 1], values[2, 2] = -0.0, 3e-310, 1.0
        return PhaseSpaceField(grid, values)

    def test_csv_bytes(self):
        field = self._field()
        want = ["x,p,W"]
        for i, x in enumerate(field.grid.xs()):
            for j, p in enumerate(field.grid.ps()):
                want.append(f"{x:.17g},{p:.17g},{field.values[i, j]:.17g}")
        assert field.to_csv() == "\n".join(want) + "\n"

    def test_gnuplot_bytes(self):
        field = self._field()
        xs, ps = field.grid.xs(), field.grid.ps()
        want = [" ".join([str(len(xs))] + [f"{x:.17g}" for x in xs])]
        for j, p in enumerate(ps):
            want.append(" ".join([f"{p:.17g}"] + [f"{field.values[i, j]:.17g}" for i in range(len(xs))]))
        assert field.to_gnuplot_matrix() == "\n".join(want) + "\n"


class TestSymmetryAndLobes:
    @pytest.mark.parametrize("l", [2, 3, 4])
    def test_l_fold_symmetry_at_t0(self, l):
        state = superposed_state(SuperpositionSpec(l, 0, 20.0))
        assert rotation_symmetry_defect(state, l) < 1e-6

    def test_symmetry_survives_evolution(self):
        state = evolve(superposed_state(SuperpositionSpec(3, 0, 20.0)), PARAMS, T_REV / 18)
        assert rotation_symmetry_defect(state, 3) < 1e-6

    @pytest.mark.parametrize(
        "l,fraction,expected",
        [(1, 0.25, 4), (2, 0.0, 2), (2, 0.25, 2), (2, 0.125, 4), (3, 0.0, 3), (3, 1 / 9, 3), (3, 1 / 18, 6)],
    )
    def test_lobe_counts(self, l, fraction, expected):
        state = evolve(superposed_state(SuperpositionSpec(l, 0, 20.0)), PARAMS, fraction * T_REV)
        field = wigner_field(state, default_grid(state, 301))
        assert count_lobes(field) == expected

    def test_four_lobe_positions(self):
        state = evolve(coherent_state(20.0), PARAMS, T_REV / 4)
        field = wigner_field(state)
        peaks = lobe_peaks(field)
        assert len(peaks) == 4
        r = 2 * math.sqrt(10)
        targets = [(0.0, r), (r, 0.0), (0.0, -r), (-r, 0.0)]
        cell = max(field.grid.cell)
        for x, p, _ in peaks:
            off = min(max(abs(x - tx), abs(p - tp)) for tx, tp in targets)
            assert off <= cell
