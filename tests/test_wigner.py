import math
import tracemalloc
import warnings
from fractions import Fraction

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
    momentum_density,
    position_density,
    position_wavefunction,
    revival_components,
    superposed_state,
    wigner_field,
)
from kerrcat import textfmt
from kerrcat.wigner import _blur_matrix, _husimi_peaks, default_grid
from wigner_checks import lobe_peaks, rotation_symmetry_defect, wigner_marginals

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


def closed_form_check(field, want, atol):
    X, P = np.meshgrid(field.grid.xs(), field.grid.ps(), indexing="ij")
    np.testing.assert_allclose(field.values, want(X, P), rtol=0, atol=atol)


def coherent_sum_wigner(weights, labels, x, p):
    """W of sum_a w_a |beta_a>, beta_a = labels[a], from the pairwise cross terms.

    |beta_a><beta_b| contributes <beta_b|beta_a> exp(-2 (z - beta_a)(z^* - beta_b^*)) / pi
    at z = (x + ip)/sqrt(2), times w_a w_b^*; the squared norm sums the same
    weighted overlaps.
    """
    z = (x + 1j * p) / math.sqrt(2.0)
    w, b = np.asarray(weights, dtype=complex), np.asarray(labels, dtype=complex)
    overlap = np.exp(-0.5 * np.abs(b[:, None]) ** 2 - 0.5 * np.abs(b[None, :]) ** 2
                     + b[:, None] * b[None, :].conj())  # [a, b] = <beta_b|beta_a>
    pair = w[:, None] * w[None, :].conj() * overlap
    total = np.zeros(z.shape, dtype=complex)
    for a in range(b.size):
        for c in range(b.size):
            total += pair[a, c] * np.exp(-2.0 * (z - b[a]) * (z.conj() - b[c].conj()))
    return (total / pair.sum()).real / np.pi


def husimi_closed_form(state, x, p):
    """Q(x, p) = |<beta|psi>|^2 / (2 pi) at beta = (x + ip)/sqrt(2), summed over the
    Fock amplitudes: <beta|n> = exp(-|beta|^2 / 2) beta*^n / sqrt(n!)."""
    beta = (x + 1j * p) / math.sqrt(2.0)
    term = np.exp(-0.5 * np.abs(beta) ** 2).astype(complex)
    total = np.zeros_like(term)
    for n, c in enumerate(state.amplitudes):
        total += c * term
        term = term * beta.conj() / math.sqrt(n + 1)
    return np.abs(total) ** 2 / (2.0 * np.pi)


def sub_packet_times():
    """(l, k, j/(l^2 k)) at every reduced k-sub-packet time t <= T_rev/2, k <= 4."""
    return [(l, k, Fraction(j, l * l * k)) for l in (1, 2, 3, 4) for k in (1, 2, 3, 4)
            for j in range(1, l * l * k // 2 + 1) if math.gcd(j, l * l * k) == 1]


def largest_neighbour_overlap(spec, angles):
    """max |<beta_a|beta_b>| = exp(-|beta_a - beta_b|^2 / 2) over neighbouring components."""
    gaps = np.diff(np.append(angles, angles[0] + 2 * np.pi))
    return math.exp(-2.0 * spec.nu * math.sin(gaps.min() / 2) ** 2)


class TestPointwiseOracles:
    """Whole fields, compared at every grid point with closed forms and with an
    independent quadrature of the defining integral."""

    def test_vacuum_gaussian(self):
        field = wigner_field(fock_state(0, 16), PhaseSpaceGrid(-6.0, 6.0, -5.5, 6.5, 121, 97))
        closed_form_check(field, lambda x, p: np.exp(-x**2 - p**2) / np.pi, 1e-13)

    def test_vacuum_peak_value(self):
        field = wigner_field(fock_state(0, 16), PhaseSpaceGrid.square(6.0, 101))
        assert field.values[50, 50] == pytest.approx(1 / np.pi, abs=1e-13)
        assert field.values.max() == field.values[50, 50]

    def test_single_photon_kernel(self):
        field = wigner_field(fock_state(1, 16), PhaseSpaceGrid.square(7.0, 141))
        closed_form_check(field, lambda x, p: (2 * (x**2 + p**2) - 1)
                          * np.exp(-x**2 - p**2) / np.pi, 1e-13)

    def test_coherent_displaced_gaussian(self):
        # theta away from the diagonal pins the sign convention of p
        nu, theta = 6.0, np.pi / 6
        x0 = math.sqrt(2 * nu) * math.cos(theta)
        p0 = math.sqrt(2 * nu) * math.sin(theta)
        # a small grid through the peak clips the state, hence the warning
        with pytest.warns(GridCoverageWarning):
            field = wigner_field(coherent_state(nu, theta),
                                 PhaseSpaceGrid(x0 - 0.3, x0 + 0.7, p0 - 0.5, p0 + 0.4, 11, 10))
        assert field.values[3, 5] == pytest.approx(1 / np.pi, abs=1e-13)
        closed_form_check(field, lambda x, p: np.exp(-((x - x0) ** 2) - (p - p0) ** 2) / np.pi, 1e-13)

    def test_against_transform_quadrature(self):
        # fully independent oracle built on the position wavefunction
        state = evolve(superposed_state(SuperpositionSpec(2, 0, 5.0), 60), PARAMS, T_REV / 8)
        grid = PhaseSpaceGrid(-7.6, 8.3, -7.9, 8.1, 13, 9)
        field = wigner_field(state, grid)
        want = np.array([[wigner_transform_oracle(state, x, p) for p in grid.ps()]
                         for x in grid.xs()])
        np.testing.assert_allclose(field.values, want, rtol=0, atol=1e-8)

    def test_four_cat_sub_revival_default_grid(self):
        # the default 201^2 grid of this state needs the sub-stepped psi grid:
        # at the x step itself the momentum images alias W by 9.2e-10
        spec = SuperpositionSpec(4, 0, 30.0)
        state = evolve(superposed_state(spec), PARAMS, T_REV / 32)
        field = wigner_field(state, default_grid(state, 201))
        weights, angles = revival_components(spec, Fraction(1, 32))
        labels = spec.alpha * np.exp(1j * angles)
        closed_form_check(field, lambda x, p: coherent_sum_wigner(weights, labels, x, p), 1e-12)


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

    def test_values_read_only(self):
        field = wigner_field(coherent_state(1.0, n_max=40), PhaseSpaceGrid.square(7.0, 21))
        with pytest.raises(ValueError, match="read-only"):
            field.values[0, 0] = 1.0

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
    """Whole-field layout: values[i, j] sits at (xs[i], ps[j]) on a non-square,
    off-centre grid."""

    def test_coherent_field_is_displaced_gaussian(self):
        nu, theta = 6.0, np.pi / 6
        x0 = math.sqrt(2 * nu) * math.cos(theta)
        p0 = math.sqrt(2 * nu) * math.sin(theta)
        field = wigner_field(coherent_state(nu, theta), PhaseSpaceGrid(-4.0, 8.0, -5.0, 7.0, 61, 49))
        closed_form_check(field, lambda x, p: np.exp(-((x - x0) ** 2) - (p - p0) ** 2) / np.pi, 1e-13)


def golden_csv(field):
    """The CSV as specified: one f-string line per point, x-major."""
    want = ["x,p,W"]
    for i, x in enumerate(field.grid.xs()):
        for j, p in enumerate(field.grid.ps()):
            want.append(f"{x:.17g},{p:.17g},{field.values[i, j]:.17g}")
    return "\n".join(want) + "\n"


def golden_matrix(field):
    """The gnuplot nonuniform matrix as specified, one f-string per number."""
    xs, ps = field.grid.xs(), field.grid.ps()
    want = [" ".join([str(len(xs))] + [f"{x:.17g}" for x in xs])]
    for j, p in enumerate(ps):
        want.append(" ".join([f"{p:.17g}"] + [f"{field.values[i, j]:.17g}" for i in range(len(xs))]))
    return "\n".join(want) + "\n"


def write(field, kind):
    return field.to_csv() if kind == "csv" else field.to_gnuplot_matrix()


class TestWriterGolden:
    """Both writers against the per-value f-string layout they were specified
    with, in every call order, on a 7x5 field of extreme values and on a 401^2
    portrait."""

    @staticmethod
    def _field():
        grid = PhaseSpaceGrid(-1.25, 2.0, -0.3, 1e-3, 7, 5)
        rng = np.random.default_rng(5)
        values = rng.standard_normal((7, 5)) * 10.0 ** rng.integers(-30, 30, (7, 5))
        values[0, 0], values[1, 1], values[2, 2] = -0.0, 3e-310, 1.0
        return PhaseSpaceField(grid, values)

    @pytest.fixture(scope="class", params=["7x5", "portrait401"])
    def case(self, request):
        if request.param == "7x5":
            field = self._field()
        else:
            state = evolve(superposed_state(SuperpositionSpec(3, 0, 20.0)), PARAMS, T_REV / 18)
            field = wigner_field(state, default_grid(state, 401))
        return field, {"csv": golden_csv(field), "dat": golden_matrix(field)}

    def test_csv_bytes(self):
        field = self._field()
        assert field.to_csv() == golden_csv(field)

    def test_gnuplot_bytes(self):
        field = self._field()
        assert field.to_gnuplot_matrix() == golden_matrix(field)

    @pytest.mark.parametrize("order", [("csv", "dat"), ("dat", "csv"), ("csv", "csv"),
                                       ("dat", "dat"), ("csv",), ("dat",)], ids="-".join)
    def test_every_call_order(self, case, order):
        source, want = case
        field = PhaseSpaceField(source.grid, source.values)
        for kind in order:
            assert write(field, kind) == want[kind]
        if set(order) == {"csv", "dat"}:
            assert not field._held  # the text one writer left was taken by the other

    def test_each_value_formatted_once(self, case, monkeypatch):
        # every number goes through textfmt's one formatter; writing both files
        # formats the n_x n_p values and the two axes once each
        formatted = []
        padded_text = textfmt.padded_text
        monkeypatch.setattr(textfmt, "padded_text",
                            lambda values: formatted.append(np.size(values)) or padded_text(values))
        source, want = case
        field = PhaseSpaceField(source.grid, source.values)
        assert (field.to_csv(), field.to_gnuplot_matrix()) == (want["csv"], want["dat"])
        n_x, n_p = field.values.shape
        assert sum(formatted) == n_x * n_p + n_x + n_p

    def test_memory_above_the_two_texts(self):
        # at 401^2 the writer holds the two texts (9.9 and 3.7 MB), the padded
        # text of every W (28 bytes a value here, 4.5 MB) and one block of
        # lines (under 1 MB); 6 MB bounds what it holds beyond the texts
        state = evolve(superposed_state(SuperpositionSpec(3, 0, 20.0)), PARAMS, T_REV / 18)
        field = wigner_field(state, default_grid(state, 401))
        xs, ps = field.grid.xs(), field.grid.ps()
        tracemalloc.start()
        try:
            csv, matrix = textfmt.portrait_tables(xs, ps, field.values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - len(csv) - len(matrix) < 6e6


class TestSymmetryAndLobes:
    @pytest.mark.parametrize("l", [2, 3, 4])
    def test_l_fold_symmetry_at_t0(self, l):
        state = superposed_state(SuperpositionSpec(l, 0, 20.0))
        assert rotation_symmetry_defect(state, l) < 1e-6

    def test_symmetry_survives_evolution(self):
        state = evolve(superposed_state(SuperpositionSpec(3, 0, 20.0)), PARAMS, T_REV / 18)
        assert rotation_symmetry_defect(state, 3) < 1e-6

    def test_wrong_fold_detected(self):
        # the six lobes at T/18 are pi/3 apart, but their weights alternate, so
        # a half turn maps the lobes onto lobes and only the fringes differ
        state = evolve(superposed_state(SuperpositionSpec(3, 0, 20.0)), PARAMS, T_REV / 18)
        assert rotation_symmetry_defect(state, 2) > 1e-2

    @pytest.mark.parametrize(
        "l,fraction,expected",
        [(1, 0.25, 4), (2, 0.0, 2), (2, 0.25, 2), (2, 0.125, 4), (3, 0.0, 3), (3, 1 / 9, 3), (3, 1 / 18, 6)],
    )
    def test_lobe_counts(self, l, fraction, expected):
        state = evolve(superposed_state(SuperpositionSpec(l, 0, 20.0)), PARAMS, fraction * T_REV)
        field = wigner_field(state, default_grid(state, 301))
        assert count_lobes(field) == expected

    @pytest.mark.parametrize("nu", [20.0, 40.0])
    def test_lobe_counts_at_every_sub_packet_time(self, nu):
        # the l-cat splits into l k packets; where neighbouring packets overlap
        # by more than 0.1 (the 4-cat at k = 4, nu = 20: 1.75 apart, overlap
        # 0.22) no lobe count can resolve them, so those times are unresolved
        resolved, unresolved = [], []
        for l, k, frac in sub_packet_times():
            spec = SuperpositionSpec(l, 0, nu)
            weights, angles = revival_components(spec, frac)
            assert weights.size == l * k
            state = evolve(superposed_state(spec), PARAMS, float(frac) * T_REV)
            got = count_lobes(wigner_field(state, default_grid(state, 201)))
            if largest_neighbour_overlap(spec, angles) > 0.1:
                unresolved.append((l, k))
            else:
                resolved.append((l, k, frac, got))
        assert len(resolved) + len(unresolved) == 69
        assert unresolved == ([(4, 4)] * 16 if nu == 20.0 else [])
        assert [(l, k, frac) for l, k, frac, got in resolved if got != l * k] == []

    def test_lobe_astride_two_points_counts_once(self):
        # on this grid each lobe of the 2-cat peaks between the two points at
        # p = +-cell/2, whose Q agree to rounding and can tie exactly; a rule
        # that lets a peak equal any neighbour then counts both
        state = evolve(superposed_state(SuperpositionSpec(2, 0, 40.0)), PARAMS, T_REV / 4)
        assert count_lobes(wigner_field(state, default_grid(state, 200))) == 2

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


class TestLobeLabelsAgainstNdimage:
    """`scipy.ndimage` as an independent oracle of the Husimi blur and its peaks,
    and the Fock-basis overlap <beta|psi> as a closed form of Q."""

    @pytest.mark.parametrize("n,sigma", [
        (401, 8.85), (201, 4.4), (30, 3.7), (7, 6.2), (2, 3.0), (1, 2.0),
        # the vacuum width 1/sqrt(2) on 401^2 and 201^2 default grids of a nu = 20 cat
        (401, 12.5), (201, 6.25),
    ])
    def test_blur_matches_gaussian_filter(self, n, sigma):
        # n = 7, 2 and 1 lie inside the 4 sigma reach, so the taps reflect more than once
        from scipy import ndimage

        values = np.random.default_rng(n).standard_normal((n, 5))
        got = _blur_matrix(n, sigma) @ values
        want = ndimage.gaussian_filter1d(values, sigma, axis=0)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)

    @staticmethod
    def _maximum_filter_peaks(q):
        from scipy import ndimage

        top = ndimage.maximum_filter(q, 3, mode="constant", cval=-np.inf) == q
        return np.flatnonzero(top & (q > 0.5 * q.max()))

    def test_peaks_match_maximum_filter(self):
        # random images have no ties, where the raster-order rule and a plain
        # 3x3 maximum filter agree
        rng = np.random.default_rng(7)
        for _ in range(300):
            n_x, n_p = (int(k) for k in rng.integers(2, 24, 2))
            span_x, span_p = rng.uniform(0.2, 2.0, 2) * (n_x - 1, n_p - 1)
            grid = PhaseSpaceGrid(0.0, span_x, 0.0, span_p, n_x, n_p)
            q, peaks = _husimi_peaks(PhaseSpaceField(grid, rng.standard_normal((n_x, n_p))))
            np.testing.assert_array_equal(peaks, self._maximum_filter_peaks(q))

    def test_ties_go_to_the_first_in_raster_order(self, monkeypatch):
        # with the blur taken out, Q is the image itself; images of a few
        # integer levels are full of exact ties, where a peak must be above the
        # neighbours before it and not below those after it
        from scipy import ndimage

        monkeypatch.setattr("kerrcat.wigner._blur_matrix", lambda n, sigma: np.eye(n))
        earlier = np.array([[1, 1, 1], [1, 0, 0], [0, 0, 0]], dtype=bool)
        rng = np.random.default_rng(11)
        for _ in range(300):
            n_x, n_p = (int(k) for k in rng.integers(2, 16, 2))
            image = rng.integers(0, 4, (n_x, n_p)).astype(float)
            grid = PhaseSpaceGrid(0.0, 1.0, 0.0, 1.0, n_x, n_p)
            q, peaks = _husimi_peaks(PhaseSpaceField(grid, image))
            np.testing.assert_array_equal(q, image)
            above = [ndimage.maximum_filter(q, footprint=f, mode="constant", cval=-np.inf)
                     for f in (earlier, earlier[::-1, ::-1])]
            want = (q > above[0]) & (q >= above[1]) & (q > 0.5 * q.max())
            np.testing.assert_array_equal(peaks, np.flatnonzero(want))
        # a 2x3 plateau is one lobe
        plateau = np.zeros((6, 7))
        plateau[2:4, 2:5] = 1.0
        assert len(_husimi_peaks(PhaseSpaceField(PhaseSpaceGrid(0.0, 1.0, 0.0, 1.0, 6, 7), plateau))[1]) == 1

    @pytest.mark.parametrize("l,nu,fraction,grid", [
        (1, 20.0, 0.25, 401), (2, 20.0, 0.125, 201), (3, 20.0, 1 / 18, 201), (4, 30.0, 1 / 32, 201),
        # 7 points a sixth apart: the 4 sigma reach of 17 samples reflects twice
        (1, 0.5, 0.25, PhaseSpaceGrid.square(0.5, 7)),
    ])
    def test_portrait_labels_match(self, l, nu, fraction, grid):
        from scipy import ndimage

        state = evolve(superposed_state(SuperpositionSpec(l, 0, nu)), PARAMS, fraction * T_REV)
        if isinstance(grid, int):
            grid = default_grid(state, grid)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", GridCoverageWarning)
            field = wigner_field(state, grid)
        q, peaks = _husimi_peaks(field)
        cx, cp = field.grid.cell
        want_q = ndimage.gaussian_filter(field.values, sigma=(math.sqrt(0.5) / cx, math.sqrt(0.5) / cp))
        np.testing.assert_allclose(q, want_q, rtol=0, atol=1e-15)
        np.testing.assert_array_equal(peaks, self._maximum_filter_peaks(want_q))

    @pytest.mark.parametrize("l,nu,fraction", [(1, 20.0, 0.25), (3, 20.0, 1 / 18), (4, 30.0, 1 / 32)])
    def test_husimi_matches_closed_form(self, l, nu, fraction):
        state = evolve(superposed_state(SuperpositionSpec(l, 0, nu)), PARAMS, fraction * T_REV)
        field = wigner_field(state, default_grid(state, 201))
        q, _ = _husimi_peaks(field)
        X, P = np.meshgrid(field.grid.xs(), field.grid.ps(), indexing="ij")
        want = husimi_closed_form(state, X, P)
        np.testing.assert_allclose(q, want, rtol=0, atol=2e-4 * want.max())
