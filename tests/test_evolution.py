import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from kerrcat import (
    FockState,
    KerrParams,
    SuperpositionSpec,
    TimeGrid,
    TimeSeries,
    analytic_state_at,
    coherent_state,
    evolve,
    fidelity,
    revival_components,
    rotate_state,
    superposed_state,
    truncation_dim,
)
from kerrcat.evolution import _phase_factors, evolve_amplitudes
from kerrcat.states import coherent_amplitudes

PARAMS = KerrParams(1.0)
T_REV = PARAMS.t_rev


def test_kerr_params():
    assert KerrParams(2.0).t_rev * 2.0 == pytest.approx(np.pi, abs=1e-15)
    with pytest.raises(ValueError):
        KerrParams(0.0)


def test_time_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        TimeGrid(np.array([0.0, 1.5]))
    g = TimeGrid.uniform(101, 0.0, 0.5)
    assert g.step == pytest.approx(0.005, abs=1e-12)


class TestEvolve:
    def test_t_zero_identity(self):
        s = superposed_state(SuperpositionSpec(3, 0, 10.0))
        assert fidelity(s, evolve(s, PARAMS, 0.0)) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("l,nu", [(1, 20.0), (1, 100.0), (2, 30.0), (3, 30.0), (4, 20.0)])
    def test_exact_revival(self, l, nu):
        s = superposed_state(SuperpositionSpec(l, 0, nu))
        assert fidelity(s, evolve(s, PARAMS, T_REV)) >= 1 - 1e-12

    def test_unitarity(self):
        s = coherent_state(100.0)
        assert evolve(s, PARAMS, 0.3712).norm_error() < 1e-14

    @settings(max_examples=25, deadline=None)
    @given(t1=st.floats(-3.0, 3.0), t2=st.floats(-3.0, 3.0))
    def test_group_property(self, t1, t2):
        s = coherent_state(15.0)
        once = evolve(s, PARAMS, t1 + t2)
        twice = evolve(evolve(s, PARAMS, t1), PARAMS, t2)
        assert fidelity(once, twice) >= 1 - 1e-12

    def test_negative_time_inverts(self):
        s = superposed_state(SuperpositionSpec(2, 0, 25.0))
        back = evolve(evolve(s, PARAMS, 0.7), PARAMS, -0.7)
        assert fidelity(s, back) >= 1 - 1e-13


class TestExactPhase:
    @pytest.mark.parametrize("l,nu,chi", [(1, 100.0, 1.0), (3, 100.0, 1.0), (1, 100.0, 0.7)])
    def test_revival_returns_the_amplitudes_bitwise(self, l, nu, chi):
        s = superposed_state(SuperpositionSpec(l, 0, nu))
        params = KerrParams(chi)
        assert np.array_equal(evolve(s, params, params.t_rev).amplitudes, s.amplitudes)

    def test_quarter_revival_phases_match_exact_integers(self):
        # exp(-i pi n(n-1)/4) = (-i)^m with m = n(n-1)/2 mod 4, from integers
        dim = truncation_dim(100.0) + 1
        n = np.arange(dim)
        want = np.array([1, -1j, -1, 1j])[(n * (n - 1) // 2) % 4]
        got = _phase_factors(dim, PARAMS.chi, T_REV / 4)
        assert np.max(np.abs(got - want)) < 4e-16

    def test_batch_rows_equal_single_evolutions(self):
        s = superposed_state(SuperpositionSpec(2, 0, 30.0))
        times = TimeGrid(np.array([0.0, 0.1, 0.25, 1 / 3, 0.8, 1.0])).times(PARAMS)
        batch = evolve_amplitudes(s.amplitudes, PARAMS, times)
        for row, t in zip(batch, times):
            assert np.array_equal(row, evolve(s, PARAMS, t).amplitudes)


_C1, _C2, _SQ2 = (1 - 1j) / 2, (1 + 1j) / 2, math.sqrt(2.0)

# hand-derived fractional-revival superpositions of the h = 0 cats, as
# (l, t / T_rev, weights, angles): the state is sum_i w_i |alpha e^{i phi_i}>
HAND_CASES = {
    # coherent state: four components at T/4
    "coherent@T/4": (1, Fraction(1, 4), (1 - 1j, _SQ2, -(1 - 1j), _SQ2),
                     (np.pi / 4, -np.pi / 4, -3 * np.pi / 4, 3 * np.pi / 4)),
    # 2-cat: rigid rotations at j T/4, two rotated cats at T/8
    "even2@T/4": (2, Fraction(1, 4), (1, 1), (-np.pi / 4, -np.pi / 4 + np.pi)),
    "even2@T/2": (2, Fraction(1, 2), (1, 1), (np.pi / 2, 3 * np.pi / 2)),
    "even2@3T/4": (2, Fraction(3, 4), (1, 1), (np.pi / 4, np.pi / 4 + np.pi)),
    "even2@T/8": (2, Fraction(1, 8), (_C1, _C1, _C2, _C2),
                  (np.pi / 8, np.pi / 8 + np.pi, -3 * np.pi / 8, -3 * np.pi / 8 + np.pi)),
    # 3-cat: rigid rotation at T/9, two rotated cats at T/18
    "even3@T/9": (3, Fraction(1, 9), (1, 1, 1), (-8 * np.pi / 9, -2 * np.pi / 9, 4 * np.pi / 9)),
    "even3@T/18": (3, Fraction(1, 18), (_C1, _C1, _C1, _C2, _C2, _C2),
                   (-11 * np.pi / 18, np.pi / 18, 13 * np.pi / 18,
                    -17 * np.pi / 18, -5 * np.pi / 18, 7 * np.pi / 18)),
    # 4-cat: two rotated cats at T/32
    "even4@T/32": (4, Fraction(1, 32), (_C1, _C1, _C1, _C1, _C2, _C2, _C2, _C2),
                   tuple(np.pi * m / 32 for m in (-31, -15, 1, 17, -23, -7, 9, 25))),
}


def _hand_state(spec, weights, angles, n_max):
    acc = sum(w * coherent_amplitudes(spec.alpha * np.exp(1j * phi), n_max)
              for w, phi in zip(weights, angles))
    return FockState(acc / np.linalg.norm(acc))


class TestAnalyticStates:
    @pytest.mark.parametrize("case", sorted(HAND_CASES))
    def test_matches_exact_evolution(self, case):
        l, frac, weights, angles = HAND_CASES[case]
        spec = SuperpositionSpec(l, 0, 20.0)
        n_max = truncation_dim(20.0)
        target = analytic_state_at(spec, frac, n_max)
        evolved = evolve(superposed_state(spec, n_max), PARAMS, float(frac) * T_REV)
        assert fidelity(evolved, target) >= 1 - 1e-10
        # the DFT route finds the hand derivation's components, no more
        assert len(revival_components(spec, frac)[0]) == len(weights)
        assert fidelity(_hand_state(spec, weights, angles, n_max), target) >= 1 - 1e-12

    def test_unknown_case(self):
        # a float is no exact time: Fraction(0.1) has a denominator of 2^55,
        # and the route would tabulate 2^56 phases
        spec = SuperpositionSpec(1, 0, 20.0)
        with pytest.raises(TypeError, match="got 0.1"):
            analytic_state_at(spec, 0.1)
        with pytest.raises(TypeError, match="0.25"):
            revival_components(spec, np.float64(0.25))

    def test_wrong_order_rejected(self):
        # the superposition depends on l: the 2-cat's state at T/8 is far
        # from the 3-cat's, which the route builds from the spec's l
        _, frac, weights, angles = HAND_CASES["even2@T/8"]
        spec = SuperpositionSpec(3, 0, 20.0)
        n_max = truncation_dim(20.0)
        assert fidelity(_hand_state(spec, weights, angles, n_max),
                        analytic_state_at(spec, frac, n_max)) < 0.5

    @pytest.mark.parametrize("l", [1, 2, 3, 4])
    def test_matches_evolve_at_every_reduced_time(self, l):
        # every j/q in [0, 1], q <= 32, from every progression offset h
        fracs = sorted({Fraction(j, q) for q in range(1, 33) for j in range(q + 1)})
        n_max = truncation_dim(20.0)
        for h in range(l):
            spec = SuperpositionSpec(l, h, 20.0)
            s = superposed_state(spec, n_max)
            for frac in fracs:
                evolved = evolve(s, PARAMS, float(frac) * T_REV)
                assert fidelity(evolved, analytic_state_at(spec, frac, n_max)) >= 1 - 1e-12, (h, frac)

    def test_degenerate_spec_raises(self):
        # at nu = 0 every component is the vacuum, which h > 0 cancels; at
        # nu = 1e-30 the 4-cat's |3> amplitude, 4e-46, lies below the rounding
        # of that cancellation at |0>, and the sum would be the wrong state
        with pytest.raises(ValueError, match="vanishes"):
            analytic_state_at(SuperpositionSpec(2, 1, 0.0), 0)
        with pytest.raises(ValueError, match="vanishes"):
            analytic_state_at(SuperpositionSpec(4, 3, 1e-30), Fraction(1, 8))


class TestRevivalComponents:
    def test_l_k_components_at_every_sub_packet_time(self):
        # the l-cat splits into k sub-packets of l components each at
        # j/(l^2 k), gcd(j, l^2 k) = 1; the coherent state into k at j/k
        times = 0
        for l in (1, 2, 3, 4):
            for k in (1, 2, 3, 4):
                den = l * l * k if l > 1 else k
                for j in range(1, den // 2 + 1):
                    if math.gcd(j, den) == 1:
                        weights, _ = revival_components(SuperpositionSpec(l), Fraction(j, den))
                        assert weights.size == l * k, (l, k, j)
                        times += 1
        assert times == 69

    @pytest.mark.parametrize("l", [2, 3, 4])
    def test_rigid_rotation_at_every_j(self, l):
        for j in range(1, l * l):
            weights, angles = revival_components(SuperpositionSpec(l), Fraction(j, l * l))
            assert weights.size == l
            np.testing.assert_allclose(np.abs(weights), 1 / l, rtol=0, atol=1e-14)
            np.testing.assert_allclose(np.diff(angles), 2 * np.pi / l, rtol=0, atol=1e-14)


def _rotation_from_components(l, j):
    """Clockwise turn (mod 2 pi / l) of the l-cat at j T_rev / l^2, read off
    its components: rotate_state by phi moves the label alpha to alpha e^{-i phi}."""
    _, angles = revival_components(SuperpositionSpec(l), Fraction(j, l * l))
    return -angles[0] % (2 * np.pi / l)


def _best_rotation(initial, evolved, l):
    # coarse scan over one symmetry sector, then bounded refinement
    period = 2 * np.pi / l
    phis = np.linspace(0.0, period, 512, endpoint=False)
    fids = [fidelity(evolved, rotate_state(initial, p)) for p in phis]
    i = int(np.argmax(fids))
    res = minimize_scalar(
        lambda p: -fidelity(evolved, rotate_state(initial, p)),
        bounds=(phis[i] - period / 512, phis[i] + period / 512),
        method="bounded",
        options={"xatol": 1e-13},
    )
    return -res.fun, res.x % period


class TestRotationSchedule:
    @pytest.mark.parametrize("l", [2, 3, 4])
    def test_rotation_at_every_j(self, l):
        spec = SuperpositionSpec(l, 0, 20.0)
        s = superposed_state(spec)
        for j in range(1, l * l):
            evolved = evolve(s, PARAMS, j * T_REV / l**2)
            rotated = rotate_state(s, _rotation_from_components(l, j))
            assert fidelity(evolved, rotated) >= 1 - 1e-10, (l, j)

    @pytest.mark.parametrize("l,j", [(2, 1), (3, 1), (3, 2), (4, 3)])
    def test_scanned_angle_matches_closed_form(self, l, j):
        spec = SuperpositionSpec(l, 0, 20.0)
        s = superposed_state(spec)
        evolved = evolve(s, PARAMS, j * T_REV / l**2)
        best_fid, best_phi = _best_rotation(s, evolved, l)
        assert best_fid > 1 - 1e-8
        period = 2 * np.pi / l
        expected = _rotation_from_components(l, j)
        delta = min(abs(best_phi - expected), period - abs(best_phi - expected))
        assert delta < 1e-5

    def test_order3_first_rotation_is_40_degrees(self):
        # the scan pins the t = T_rev/9 rotation of the 3-cat at 2 pi / 9,
        # i.e. 40 degrees clockwise: pi j (l - 1) / l^2 at l = 3, j = 1
        assert _rotation_from_components(3, 1) == pytest.approx(2 * np.pi / 9, abs=1e-15)


def test_time_series_csv_format():
    grid = TimeGrid(np.array([0.0, 0.5, 1.0]))
    series = TimeSeries(grid, np.array([20.5, 0.5, 20.5]), "x^2", {"chi": 1.0})
    text = series.to_csv()
    lines = text.splitlines()
    assert lines[0].startswith("# observable=x^2")
    assert "t_over_Trev,value" in lines
    assert len([ln for ln in lines if "," in ln and not ln.startswith("#")]) == 4


def test_time_series_csv_matches_per_value_layout():
    # golden layout: one f-string per value, as the writer was first specified
    fractions = np.array([0.0, 1e-7, 0.123456789, 1 / 3, 1.0])
    values = np.array([-0.0, 2.5e-310, -1.0e22, np.pi, 100.5])
    series = TimeSeries(TimeGrid(fractions), values, "x^2", {"nu": 100.0, "l": 3})
    lines = ["# observable=x^2", "# l=3", "# nu=100.0", "t_over_Trev,value"]
    lines += [f"{f:.17g},{v:.17g}" for f, v in zip(fractions, values)]
    assert series.to_csv() == "\n".join(lines) + "\n"
