import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from kerrcat import (
    ANALYTIC_CASES,
    KerrParams,
    SuperpositionSpec,
    TimeGrid,
    TimeSeries,
    analytic_state_at,
    coherent_state,
    evolve,
    fidelity,
    rotate_state,
    rotation_angle,
    superposed_state,
    truncation_dim,
)
from kerrcat.evolution import _phase_factors, evolve_amplitudes

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


class TestAnalyticStates:
    @pytest.mark.parametrize("case", sorted(ANALYTIC_CASES))
    def test_matches_exact_evolution(self, case):
        entry = ANALYTIC_CASES[case]
        spec = SuperpositionSpec(entry.l, 0, 20.0)
        n_max = truncation_dim(20.0)
        target = analytic_state_at(spec, case, n_max)
        evolved = evolve(
            superposed_state(spec, n_max), PARAMS, float(entry.time_fraction) * T_REV
        )
        assert fidelity(evolved, target) >= 1 - 1e-10

    def test_unknown_case(self):
        with pytest.raises(KeyError, match="unknown analytic case"):
            analytic_state_at(SuperpositionSpec(1, 0, 20.0), "even9@T/7")

    def test_wrong_order_rejected(self):
        with pytest.raises(ValueError, match="requires l=2"):
            analytic_state_at(SuperpositionSpec(3, 0, 20.0), "even2@T/8")


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
            rotated = rotate_state(s, rotation_angle(l, j))
            assert fidelity(evolved, rotated) >= 1 - 1e-10, (l, j)

    @pytest.mark.parametrize("l,j", [(2, 1), (3, 1), (3, 2), (4, 3)])
    def test_scanned_angle_matches_closed_form(self, l, j):
        spec = SuperpositionSpec(l, 0, 20.0)
        s = superposed_state(spec)
        evolved = evolve(s, PARAMS, j * T_REV / l**2)
        best_fid, best_phi = _best_rotation(s, evolved, l)
        assert best_fid > 1 - 1e-8
        period = 2 * np.pi / l
        expected = rotation_angle(l, j) % period
        delta = min(abs(best_phi - expected), period - abs(best_phi - expected))
        assert delta < 1e-5

    def test_order3_first_rotation_is_40_degrees(self):
        # the scan pins the t = T_rev/9 rotation of the 3-cat at 2 pi / 9,
        # i.e. 40 degrees clockwise
        assert rotation_angle(3, 1) == pytest.approx(2 * np.pi / 9, abs=1e-15)


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
