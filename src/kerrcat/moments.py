"""Quadrature moments: band-sum series, brute-force ladder-matrix oracle and closed forms.

Moment series use the band route.  The Kerr propagator is diagonal, so with
f = t / T_rev

    <x^m>(t) = Re[g_0 + 2 sum_{d>0} g_d(f)],
    g_d(f) = sum_a conj(c_a) (X^m)_{a,a+d} c_{a+d} exp(-i pi f k),  k = d(2a + d - 1),

and likewise for p.  X^m is built once on the truncated basis and g_0 is
constant.  On a uniform grid with rational endpoints, f_t = (A + t B) / D in
integers, every phase is a power of omega = exp(-2 pi i / L), L = 2D:

    exp(-i pi f_t k) = omega^(k A mod L) omega^(t (k B mod L)),

so all bands sum in one length-L FFT of the weights binned at their exact
integer residues k B mod L, and the error does not grow with the level a.
Other grids take each phase directly from `evolution._half_turns`.  The matrix
oracles (the tridiagonal x or p matrix applied repeatedly to an `evolve`d
state) share only the ladder functions and `evolution._kerr_index` with it;
the closed forms and the component-sum state `analytic_state_at` share neither.
The closed forms below exist only for specific initial states and powers and
serve as further cross-checks; each one was rederived from the exact
propagator and is validated against the oracle to 1e-9 relative accuracy at
observable scale.

For an initial coherent state the exact ladder moment is

    <a^dag^r a^(r+s)>(t) = alpha^s nu^r exp(-nu (1 - cos 2 s chi t))
                           * exp(-i [chi (s(s-1) + 2 r s) t + nu sin 2 s chi t]),

and for the order-l cat the corresponding <a^(l k)> carries one damping branch
per residue d = 0..l-1 with angle 2 pi d / l - 2 (l k) chi t.  The damping
factors exp(-nu (1 - cos ...)) pin the burst schedule of every moment series.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from . import evolution
from .evolution import KerrParams, TimeGrid, TimeSeries, _half_turns
from .states import FockState, SuperpositionSpec, superposed_state, superposition_norm, truncation_dim

DEFAULT_SERIES_POINTS = 2001
# largest L of the FFT route: at 2^20 the FFT takes 60 ms on a 2-vCPU guest, as long as the
# direct route takes on a 2001-sample x^9 series; grids that need more (float 1/3) go direct
_MAX_RESIDUES = 2**20


class HeadroomError(ValueError):
    """Raised when a moment power would push weight past the truncation edge."""


# ladder operators on the last axis; inputs are (..., dim) arrays

def apply_annihilation(vec: np.ndarray) -> np.ndarray:
    n = np.arange(1, vec.shape[-1])
    out = np.zeros_like(vec)
    out[..., :-1] = np.sqrt(n) * vec[..., 1:]
    return out


def apply_creation(vec: np.ndarray) -> np.ndarray:
    n = np.arange(1, vec.shape[-1])
    out = np.zeros_like(vec)
    out[..., 1:] = np.sqrt(n) * vec[..., :-1]
    return out


def apply_position(vec: np.ndarray) -> np.ndarray:
    return (apply_annihilation(vec) + apply_creation(vec)) / math.sqrt(2.0)


def apply_momentum(vec: np.ndarray) -> np.ndarray:
    return (apply_annihilation(vec) - apply_creation(vec)) / (1j * math.sqrt(2.0))


def _require_headroom(amplitudes: np.ndarray, power: int, what: str) -> None:
    # k matrix applications raise the support by k; the top k+10 slots must be empty
    slots = power + 10
    if slots >= amplitudes.shape[-1]:
        raise HeadroomError(f"{what}: basis of {amplitudes.shape[-1]} too small for power {power}")
    tail = np.max(np.sum(np.abs(amplitudes[..., -slots:]) ** 2, axis=-1))
    if tail >= 1e-10:
        raise HeadroomError(
            f"{what}: tail mass {tail:.3e} in the top {slots} slots; "
            f"increase n_max by at least the moment power"
        )


def _quadrature_moment(amplitudes: np.ndarray, k: int, apply) -> np.ndarray:
    w = amplitudes
    for _ in range(k):
        w = apply(w)
    return np.real(np.einsum("...i,...i->...", amplitudes.conj(), w))


def x_moment_oracle(state: FockState, k: int) -> float:
    """<x^k> by k tridiagonal matrix applications; exact on the truncated basis."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    _require_headroom(state.amplitudes, k, f"x_moment_oracle(k={k})")
    return float(_quadrature_moment(state.amplitudes, k, apply_position))


def p_moment_oracle(state: FockState, k: int) -> float:
    if k < 0:
        raise ValueError("k must be nonnegative")
    _require_headroom(state.amplitudes, k, f"p_moment_oracle(k={k})")
    return float(_quadrature_moment(state.amplitudes, k, apply_momentum))


def a_power_oracle(state: FockState, m: int) -> complex:
    """<a^m> via repeated annihilation."""
    w = state.amplitudes
    for _ in range(m):
        w = apply_annihilation(w)
    return complex(np.vdot(state.amplitudes, w))


def ladder_moment_oracle(state: FockState, r: int, s: int) -> complex:
    """<a^dag^r a^(r+s)> via matrix application."""
    _require_headroom(state.amplitudes, r, f"ladder_moment_oracle(r={r}, s={s})")
    w = state.amplitudes
    for _ in range(r + s):
        w = apply_annihilation(w)
    for _ in range(r):
        w = apply_creation(w)
    return complex(np.vdot(state.amplitudes, w))


# closed forms ---------------------------------------------------------------

def ladder_expectation_coherent(alpha: complex, r: int, s: int, chi: float, t: float) -> complex:
    """Exact <a^dag^r a^(r+s)>(t) for an initial coherent state |alpha>."""
    if r < 0 or s < 0:
        raise ValueError("r and s must be nonnegative")
    nu = abs(alpha) ** 2
    damping = np.exp(-nu * (1.0 - np.cos(2.0 * s * chi * t)))
    phase = -(chi * (s * (s - 1) + 2 * r * s) * t + nu * np.sin(2.0 * s * chi * t))
    return alpha**s * nu**r * damping * np.exp(1j * phase)


def a_power_superposition(l: int, nu: float, theta: float, chi: float, t: float, k: int) -> complex:
    """Exact <a^(l k)>(t) for the order-l cat (h = 0).

    One branch per residue class d of the pairwise component overlaps:

        l N_l^2 alpha^(lk) e^{-i chi t s(s-1)}
            * sum_d exp(-nu (1 - cos(2 pi d / l - 2 s chi t)))
                    exp( i nu sin(2 pi d / l - 2 s chi t)),  s = l k.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    s = l * k
    alpha = math.sqrt(nu) * np.exp(1j * theta)
    d = np.arange(l)
    ang = 2.0 * np.pi * d / l - 2.0 * s * chi * t
    branches = np.exp(-nu * (1.0 - np.cos(ang)) + 1j * nu * np.sin(ang))
    nl2 = superposition_norm(l, nu) ** 2
    return l * nl2 * alpha**s * np.exp(-1j * chi * t * s * (s - 1)) * branches.sum()


def x2_even_cat(nu: float, chi: float, t: float, theta: float = np.pi / 4) -> float:
    """Exact <x^2>(t) for the two-component cat.

    Re<a^2> + <N> + 1/2 with <a^2> from the two-branch result and the exact
    constant <N> = 2 N_2^2 nu (1 - exp(-2 nu)) = nu tanh(nu).
    """
    n2sq2 = 2.0 * superposition_norm(2, nu) ** 2
    dp = math.exp(-nu * (1.0 - math.cos(4.0 * chi * t)))
    dm = math.exp(-nu * (1.0 + math.cos(4.0 * chi * t)))
    osc = n2sq2 * nu * (
        dp * math.cos(2.0 * chi * t + nu * math.sin(4.0 * chi * t) - 2.0 * theta)
        + dm * math.cos(2.0 * chi * t - nu * math.sin(4.0 * chi * t) - 2.0 * theta)
    )
    mean_n = n2sq2 * nu * (1.0 - math.exp(-2.0 * nu))
    return osc + mean_n + 0.5


def x3_three_cat(nu: float, chi: float, t: float, theta: float = np.pi / 4) -> float:
    """Exact <x^3>(t) for the three-component cat.

    Only the a^3 and a^dag^3 terms of (x)^3 survive the support-mod-3
    selection, so <x^3> = Re<a^3> / sqrt(2); the plateau value is exactly 0.
    """
    n3sq3 = 3.0 * superposition_norm(3, nu) ** 2
    u = 6.0 * chi * t
    d0 = math.exp(-nu * (1.0 - math.cos(u)))
    d1 = math.exp(-nu * (1.0 - math.sin(u - np.pi / 6)))
    d2 = math.exp(-nu * (1.0 + math.sin(u + np.pi / 6)))
    return (n3sq3 * nu**1.5 / math.sqrt(2.0)) * (
        d0 * math.cos(u + nu * math.sin(u) - 3.0 * theta)
        + d1 * math.cos(u - nu * math.cos(u - np.pi / 6) - 3.0 * theta)
        + d2 * math.cos(u + nu * math.cos(u + np.pi / 6) - 3.0 * theta)
    )


def moment_scale(nu: float, r: int, s: int) -> float:
    """Natural magnitude nu^(r + s/2) of <a^dag^r a^(r+s)>; its value at t = 0.

    Used as the relative-error floor when comparing closed forms against the
    oracle: at times where the moment is damped below double precision the
    oracle returns rounding noise at this scale times ~1e-13.
    """
    return float(nu ** (r + s / 2.0)) if nu > 0 else 1.0


def _band_weights(amplitudes: np.ndarray, power: int, apply) -> np.ndarray:
    """Row d = 0..power holds conj(c_a) (O^power)_{a,a+d} c_{a+d} at column a, O
    applied by `apply`, and zeros where a + d is past the basis.

    O^power has bandwidth `power`, so 2 power + 1 probes recover all of it:
    probe r sums the unit vectors e_i with i = r (mod 2 power + 1), and
    (O^power probe_r)_j is (O^power)_{j,i} for the one such i within reach of j.
    """
    dim, width = amplitudes.size, 2 * power + 1
    idx = np.arange(dim)
    probes = (idx % width == np.arange(width)[:, None]).astype(np.float64)
    for _ in range(power):
        probes = apply(probes)
    upper = idx + np.arange(power + 1)[:, None]
    band = amplitudes.conj() * probes[upper % width, idx] * amplitudes[upper % dim]
    return np.where(upper < dim, band, 0)


def _exact_grid(fractions: np.ndarray) -> tuple[int, int, int] | None:
    """(A, B, D) with fractions[t] = (A + t B) / D as `np.linspace` rounds it, or None.

    The endpoints are read as the decimals that print them; `np.linspace`
    between them must rebuild the grid bit for bit.
    """
    start, stop = (Fraction(repr(float(f))) for f in (fractions[0], fractions[-1]))
    if not np.array_equal(np.linspace(float(start), float(stop), fractions.size), fractions):
        return None
    step = (stop - start) / (fractions.size - 1)
    denom = math.lcm(start.denominator, step.denominator)
    return int(start * denom), int(step * denom), denom


def _phase_sum(fractions, lower, upper, w) -> np.ndarray:
    """sum_j w_j exp(-i pi f k_j) at each f, k_j = `evolution._kerr_index`(lower_j, upper_j).

    One FFT over the residues of k on an exact grid (module docstring; fractions
    in [0, 1] make L >= 2(samples - 1)), else each phase directly, 256 samples at a time.
    """
    exact = _exact_grid(fractions)
    if exact is None or 2 * exact[2] > _MAX_RESIDUES:
        return np.concatenate([np.exp(-1j * np.pi * _half_turns(f[:, None], lower, upper)) @ w
                               for f in np.split(fractions, range(256, fractions.size, 256))])
    start, step, denom = exact
    size = 2 * denom
    k = evolution._kerr_index(lower, upper)
    w = w * np.exp(-2j * np.pi * (k * start % size) / size)
    residues = k * step % size
    binned = np.bincount(residues, w.real, size) + 1j * np.bincount(residues, w.imag, size)
    return np.fft.fft(binned)[: fractions.size]


def moment_series(
    spec: SuperpositionSpec,
    observable: str,
    power: int,
    params: KerrParams,
    grid: TimeGrid | None = None,
    n_max: int | None = None,
) -> TimeSeries:
    """<x^power> or <p^power> over a time grid, summed band by band.

    Band d > 0 of the (2 power + 1)-banded x^power or p^power contributes
    2 Re sum_a w_a exp(-i pi f k_a), k_a = d(2a + d - 1).  Weights that are
    exactly zero (parity and the l-fold photon support) or below 1e-18 of their
    band's largest are dropped; `_phase_sum` adds up the rest of all bands at
    once.  The basis is enlarged by the moment power, and the headroom check
    refuses a state with weight in its top power + 10 levels, where the
    truncated x^power departs from the full one.
    """
    if observable not in ("x", "p"):
        raise ValueError("observable must be 'x' or 'p'")
    if power < 1:
        raise ValueError("power must be a positive integer")
    if grid is None:
        grid = TimeGrid.uniform(DEFAULT_SERIES_POINTS)
    if n_max is None:
        n_max = truncation_dim(spec.nu) + power
    state = superposed_state(spec, n_max)
    _require_headroom(state.amplitudes, power, f"moment_series(power={power})")
    apply = apply_position if observable == "x" else apply_momentum
    weights = _band_weights(state.amplitudes, power, apply)
    mag = np.abs(weights[1:])
    d, a = np.nonzero(mag > 1e-18 * mag.max(axis=1, keepdims=True))
    sums = _phase_sum(grid.fractions, a, a + d + 1, weights[d + 1, a])
    values = weights[0].sum().real + 2.0 * sums.real
    meta = {
        "l": spec.l, "h": spec.h, "nu": spec.nu, "theta": spec.theta,
        "chi": params.chi, "n_max": n_max,
    }
    return TimeSeries(grid, values, observable=f"{observable}^{power}", meta=meta)
