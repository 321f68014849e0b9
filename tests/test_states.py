import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kerrcat import (
    DimensionMismatchError,
    FockState,
    SuperpositionSpec,
    TruncationError,
    coherent_state,
    fidelity,
    mean_photon_number,
    normalization_n2,
    rotate_state,
    analytic_state_at,
    superposed_state,
    superposition_norm,
    truncation_dim,
)
from kerrcat.states import TRUNCATION_EPS, _log_factorial, _poisson_tail


def number_moment(state, k):
    # independent oracle: direct sum over the probability distribution
    n = np.arange(state.amplitudes.size)
    return float(np.sum(n**k * np.abs(state.amplitudes) ** 2))


class TestCoherentState:
    def test_vacuum(self):
        s = coherent_state(0.0, 0.3)
        assert s.amplitudes[0] == pytest.approx(1.0, abs=1e-15)
        assert np.all(s.amplitudes[1:] == 0)

    def test_poisson_mean(self):
        s = coherent_state(20.0, np.pi / 4)
        assert number_moment(s, 1) == pytest.approx(20.0, abs=1e-10)

    def test_poisson_mean_and_variance_nu100(self):
        s = coherent_state(100.0, np.pi / 4)
        mean = number_moment(s, 1)
        var = number_moment(s, 2) - mean**2
        assert mean == pytest.approx(100.0, abs=1e-8)
        assert var == pytest.approx(100.0, abs=1e-8)

    def test_normalized(self):
        for nu in (0.0, 1.0, 20.0, 100.0):
            assert coherent_state(nu).norm_error() < 1e-12

    def test_truncation_error_on_small_basis(self):
        with pytest.raises(TruncationError, match="n_max"):
            coherent_state(100.0, np.pi / 4, n_max=50)


class TestSuperposedState:
    def test_l1_reduces_to_coherent(self):
        spec = SuperpositionSpec(1, 0, 20.0, np.pi / 4)
        a = superposed_state(spec)
        b = coherent_state(20.0, np.pi / 4)
        assert fidelity(a, b) == pytest.approx(1.0, abs=1e-14)

    def test_even_cat_odd_support_exactly_zero(self):
        s = superposed_state(SuperpositionSpec(2, 0, 17.0))
        assert np.all(s.amplitudes[1::2] == 0)

    def test_offset_support_pattern(self):
        s = superposed_state(SuperpositionSpec(3, 1, 9.0))
        n = np.arange(s.amplitudes.size)
        assert np.all(s.amplitudes[n % 3 != 1] == 0)
        assert np.any(np.abs(s.amplitudes[n % 3 == 1]) > 0)

    def test_three_cat_normalization_matches_gram_oracle(self):
        # oracle: <psi|psi> of the raw coherent sum from the 3x3 overlap matrix
        nu, l = 20.0, 3
        alphas = [math.sqrt(nu) * np.exp(1j * (np.pi / 4 + 2 * np.pi * r / l)) for r in range(l)]
        gram = sum(
            np.exp(-nu + np.conj(a) * b) for a in alphas for b in alphas
        )
        n_l = 1.0 / math.sqrt(gram.real)
        assert superposition_norm(l, nu) == pytest.approx(n_l, rel=1e-12)

    def test_construction_routes_agree(self):
        # the number-state progression against the sum of l rotated coherent states
        for l in (2, 3, 4, 5):
            for h in range(l):
                spec = SuperpositionSpec(l, h, 20.0)
                f = fidelity(superposed_state(spec), analytic_state_at(spec, 0))
                assert f >= 1 - 1e-12, (l, h)

    @settings(max_examples=25, deadline=None)
    @given(
        l=st.integers(1, 5),
        h=st.integers(0, 4),
        nu=st.floats(0.1, 100.0),
        theta=st.floats(-np.pi, np.pi),
    )
    def test_construction_equivalence_property(self, l, h, nu, theta):
        spec = SuperpositionSpec(l, h % l, nu, theta)
        assert fidelity(superposed_state(spec), analytic_state_at(spec, 0)) >= 1 - 1e-12

    @settings(max_examples=25, deadline=None)
    @given(l=st.integers(1, 5), h=st.integers(0, 4), nu=st.floats(0.5, 60.0))
    def test_support_progression_property(self, l, h, nu):
        h = h % l
        s = superposed_state(SuperpositionSpec(l, h, nu))
        n = np.arange(s.amplitudes.size)
        assert np.all(s.amplitudes[n % l != h] == 0)
        assert s.norm_error() < 1e-12

    @pytest.mark.parametrize("l,h,nu", [(4, 3, 1e-210), (3, 2, 1e-170)])
    def test_leading_term_below_norm_underflow(self, l, h, nu):
        # the leading magnitude (~1e-316, ~1e-170) squares to zero in a plain norm
        s = superposed_state(SuperpositionSpec(l, h, nu))
        assert abs(s.amplitudes[h]) == pytest.approx(1.0, abs=4e-16)
        assert s.amplitudes[h] == pytest.approx(np.exp(1j * h * np.pi / 4), abs=4e-16)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SuperpositionSpec(0, 0, 1.0)
        with pytest.raises(ValueError):
            SuperpositionSpec(2, 2, 1.0)
        with pytest.raises(ValueError):
            SuperpositionSpec(2, 0, -1.0)


class TestNormalizationN2:
    def test_nu_zero(self):
        assert normalization_n2(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_large_nu_limit(self):
        assert normalization_n2(30.0) == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_matches_numeric_normalization_at_nu1(self):
        # oracle: brute-force norm of |alpha> + |-alpha> in the Fock basis
        from kerrcat.states import coherent_amplitudes

        alpha = 1.0 * np.exp(1j * np.pi / 4)
        raw = coherent_amplitudes(alpha, 60) + coherent_amplitudes(-alpha, 60)
        assert normalization_n2(1.0) == pytest.approx(1.0 / np.linalg.norm(raw), rel=1e-12)
        assert normalization_n2(1.0) == pytest.approx(superposition_norm(2, 1.0), rel=1e-13)


class TestFidelity:
    def test_self_fidelity(self):
        s = coherent_state(12.0)
        assert fidelity(s, s) == pytest.approx(1.0, abs=1e-14)

    def test_opposite_coherent_states(self):
        # |<alpha|-alpha>|^2 = exp(-4 nu)
        nu = 3.0
        a = coherent_state(nu, 0.7)
        b = coherent_state(nu, 0.7 + np.pi, n_max=a.n_max)
        assert fidelity(a, b) == pytest.approx(math.exp(-4 * nu), abs=1e-12)

    def test_cat_vs_single_component(self):
        nu = 20.0
        cat = superposed_state(SuperpositionSpec(2, 0, nu))
        single = coherent_state(nu, np.pi / 4, n_max=cat.n_max)
        # overlap oracle: N_2^2 (1 + e^{-2 nu})^2 -> 1/2 for large nu
        assert fidelity(cat, single) == pytest.approx(0.5, abs=1e-6)

    def test_global_phase_invariance(self):
        s = coherent_state(5.0)
        t = FockState(s.amplitudes * np.exp(0.9j))
        assert fidelity(s, t) == pytest.approx(1.0, abs=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            fidelity(coherent_state(1.0, n_max=40), coherent_state(1.0, n_max=41))


class TestRotateState:
    def test_identity(self):
        s = superposed_state(SuperpositionSpec(3, 0, 10.0))
        assert fidelity(s, rotate_state(s, 0.0)) == pytest.approx(1.0, abs=1e-15)

    def test_coherent_rotation_closed_form(self):
        s = coherent_state(20.0, np.pi / 4)
        rotated = rotate_state(s, np.pi / 2)
        target = coherent_state(20.0, -np.pi / 4, n_max=s.n_max)
        assert fidelity(rotated, target) >= 1 - 1e-13

    def test_cat_rotation(self):
        spec = SuperpositionSpec(2, 0, 20.0, np.pi / 4)
        rotated = rotate_state(superposed_state(spec), np.pi / 4)
        target = superposed_state(SuperpositionSpec(2, 0, 20.0, np.pi / 4 - np.pi / 4))
        assert fidelity(rotated, target) >= 1 - 1e-13

    @settings(max_examples=25, deadline=None)
    @given(phi=st.floats(-10.0, 10.0), nu=st.floats(0.0, 50.0))
    @example(phi=1.3, nu=3e-127)  # amplitudes down to ~1e-317 before the subnormal cut
    def test_preserves_magnitudes(self, phi, nu):
        # |exp(-i n phi)| = 1 up to one rounding of the complex product
        s = coherent_state(nu)
        r = rotate_state(s, phi)
        np.testing.assert_allclose(np.abs(r.amplitudes), np.abs(s.amplitudes), rtol=5e-16, atol=0)
        assert r.norm_error() < 1e-14

    def test_cat_magnitudes_at_tiny_nu(self):
        # tails that would be subnormal are exact zeros, so rotation keeps |c_n|
        s = superposed_state(SuperpositionSpec(1, 0, 3e-127))
        r = rotate_state(s, 1.3)
        np.testing.assert_allclose(np.abs(r.amplitudes), np.abs(s.amplitudes), rtol=5e-16, atol=0)


class TestTruncationDim:
    def test_vacuum_floor(self):
        assert truncation_dim(0.0) >= 20

    @pytest.mark.parametrize("nu,approx", [(20.0, 95), (100.0, 241)])
    def test_formula_values(self, nu, approx):
        n = truncation_dim(nu)
        assert abs(n - approx) <= 2

    @pytest.mark.parametrize("nu", [0.0, 20.0, 100.0])
    def test_tail_verified(self, nu):
        from scipy.stats import poisson

        assert poisson.sf(truncation_dim(nu), nu) < 1e-12

    @pytest.mark.parametrize("eps", [TRUNCATION_EPS, 1e-8])
    def test_matches_scipy_poisson_rule(self, eps):
        # the rule with scipy's survival function as an independent oracle
        from scipy.stats import poisson

        def oracle(nu):
            n = int(math.ceil(nu + 12.0 * math.sqrt(nu + 1.0) + 20.0))
            while poisson.sf(n, nu) >= eps:
                n = int(math.ceil(1.2 * n)) + 10
            return n

        for nu in np.arange(0.0, 400.0 + 1e-9, 0.25):
            assert truncation_dim(float(nu), eps) == oracle(float(nu)), nu

    @pytest.mark.parametrize("nu", [0.5, 3.0, 20.0, 99.75, 400.0])
    def test_poisson_tail_matches_scipy(self, nu):
        from scipy.stats import poisson

        for n in sorted({0, int(nu / 2), int(nu), int(nu + 3 * math.sqrt(nu)) + 1,
                         truncation_dim(nu)}):
            want = poisson.sf(n, nu)
            assert _poisson_tail(n, nu) == pytest.approx(want, rel=1e-11, abs=1e-300), n
        assert _poisson_tail(5, 0.0) == 0.0

    def test_log_factorial_matches_scipy(self):
        from scipy.special import gammaln

        n = np.arange(2000)
        np.testing.assert_allclose(_log_factorial(n), gammaln(n + 1), rtol=1e-15, atol=1e-15)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            truncation_dim(-1.0)
        with pytest.raises(ValueError):
            truncation_dim(1.0, eps=2.0)


def test_mean_photon_number():
    assert mean_photon_number(coherent_state(35.0)) == pytest.approx(35.0, abs=1e-9)
    # even cat: <N> = nu tanh(nu)
    cat = superposed_state(SuperpositionSpec(2, 0, 4.0))
    assert mean_photon_number(cat) == pytest.approx(4.0 * math.tanh(4.0), abs=1e-10)
