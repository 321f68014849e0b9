"""Quadrature moments: band-sum series, brute-force ladder-matrix oracle and closed forms.

Moment series use the band route.  The Kerr propagator is diagonal, so with
f = t / T_rev

    <x^m>(t) = Re[g_0 + 2 sum_{d>0} g_d(f)],
    g_d(f) = sum_a conj(c_a) (X^m)_{a,a+d} c_{a+d} exp(-i pi f k),  k = d(2a + d - 1),

and likewise for p.  X^m is built once on the truncated basis, g_0 is
constant, and each band d is one phase table times a weight vector; the
phase is reduced mod 2 from the integer k, so the large products
chi t n(n-1) never form.  The matrix oracles (apply the tridiagonal x or p
matrix repeatedly to an `evolve`d state and take the inner product) share
only the ladder functions with it, neither the band weights nor the phases,
and cross-check it in the tests and in `kerrcat validate`.
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

import numpy as np

from .evolution import KerrParams, TimeGrid, TimeSeries
from .states import FockState, SuperpositionSpec, superposed_state, superposition_norm, truncation_dim

DEFAULT_SERIES_POINTS = 2001


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


def _band_weights(amplitudes: np.ndarray, power: int, apply) -> list[np.ndarray]:
    """Diagonals d = 0..power of conj(c_a) (O^power)_{a,a+d} c_{a+d}, O applied by `apply`.

    O^power has bandwidth `power`, so 2 power + 1 probes recover all of it:
    probe r sums the unit vectors e_i with i = r (mod 2 power + 1), and
    (O^power probe_r)_j is (O^power)_{j,i} for the one such i within reach of j.
    """
    dim, width = amplitudes.size, 2 * power + 1
    idx = np.arange(dim)
    probes = (idx % width == np.arange(width)[:, None]).astype(np.float64)
    for _ in range(power):
        probes = apply(probes)
    return [amplitudes[: dim - d].conj() * probes[(idx[: dim - d] + d) % width, idx[: dim - d]]
            * amplitudes[d:] for d in range(power + 1)]


def _half_turns(fractions: np.ndarray, d: int, a: np.ndarray) -> np.ndarray:
    """Kerr phase of band d at entries a, in units of pi: (f k) mod 2, k = d(2a + d - 1).

    k = (a+d)(a+d-1) - a(a-1) is an integer.  Each f splits into a head on a
    2^-20 lattice, whose products with k are exact and reduce mod 2 exactly,
    and a tail below 2^-21, so the result is exact up to the final rounding.
    """
    k = d * (2 * a + d - 1)
    head = np.round(fractions * 2.0**20) / 2.0**20
    turns = np.mod(np.multiply.outer(head, k), 2.0)
    turns += np.multiply.outer(fractions - head, k)
    return turns


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
    2 Re sum_a w_a exp(-i pi f k_a) with k_a = d(2a + d - 1) an integer, so the
    phase is reduced mod 2 exactly at any f, including f = 1 where every k is
    even.  Weights that are exactly zero (parity and the l-fold photon
    support) or below 1e-18 of their band's largest are dropped.  The basis is
    enlarged by the moment power, and the headroom check refuses a state with
    weight in its top power + 10 levels, where the truncated x^power departs
    from the full one.
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
    values = np.full(grid.fractions.size, weights[0].sum().real)
    for d, w in enumerate(weights[1:], start=1):
        mag = np.abs(w)
        a = np.flatnonzero(mag > 1e-18 * mag.max())
        angle = np.pi * _half_turns(grid.fractions, d, a)
        values += np.cos(angle) @ (2.0 * w[a].real) + np.sin(angle) @ (2.0 * w[a].imag)
    meta = {
        "l": spec.l, "h": spec.h, "nu": spec.nu, "theta": spec.theta,
        "chi": params.chi, "n_max": n_max,
    }
    return TimeSeries(grid, values, observable=f"{observable}^{power}", meta=meta)
