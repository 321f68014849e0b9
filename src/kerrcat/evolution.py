"""Exact time evolution under the Kerr Hamiltonian H = chi a^dag^2 a^2 = chi N(N-1).

The propagator is diagonal in the number basis, c_n -> c_n exp(-i chi n(n-1) t).
Every state revives exactly at multiples of the revival time T_rev = pi / chi
because n(n-1) is always even.  At rational fractions of T_rev the evolved
state is a discrete superposition of rotated copies of the initial one;
`revival_components` gives its weights and angles at any rational time.

Every Kerr phase is exp(-i pi f k), f = t / T_rev and k an integer difference
of n(n-1) values; `_half_turns` reduces f k mod 2 exactly from the integer k,
and `evolve`, `evolve_amplitudes` and `moments.moment_series` share it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .states import (
    FockState,
    SuperpositionSpec,
    _check_tail,
    coherent_amplitudes,
    truncation_dim,
)
from .textfmt import series_table


@dataclass(frozen=True)
class KerrParams:
    """Kerr strength chi > 0; chi only sets the time scale."""

    chi: float = 1.0

    def __post_init__(self):
        if not self.chi > 0:
            raise ValueError("chi must be positive")

    @property
    def t_rev(self) -> float:
        return np.pi / self.chi


@dataclass(frozen=True)
class TimeGrid:
    """Sorted sample times expressed as fractions t / T_rev inside [0, 1]."""

    fractions: np.ndarray

    def __post_init__(self):
        fr = np.ascontiguousarray(self.fractions, dtype=np.float64)
        if fr.ndim != 1 or fr.size < 2:
            raise ValueError("need at least two time fractions")
        if fr[0] < 0 or fr[-1] > 1 or np.any(np.diff(fr) <= 0):
            raise ValueError("fractions must be strictly increasing within [0, 1]")
        fr.flags.writeable = False
        object.__setattr__(self, "fractions", fr)

    @classmethod
    def uniform(cls, n: int = 2001, start: float = 0.0, stop: float = 1.0) -> "TimeGrid":
        return cls(np.linspace(start, stop, n))

    @property
    def step(self) -> float:
        return float(np.median(np.diff(self.fractions)))

    def times(self, params: KerrParams) -> np.ndarray:
        return self.fractions * params.t_rev


@dataclass
class TimeSeries:
    """A scalar observable sampled on a TimeGrid."""

    grid: TimeGrid
    values: np.ndarray
    observable: str = ""
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        vals = np.ascontiguousarray(self.values, dtype=np.float64)
        if vals.shape != self.grid.fractions.shape:
            raise ValueError("values length must match the time grid")
        if not np.all(np.isfinite(vals)):
            raise ValueError("series values must be finite")
        self.values = vals

    def to_csv(self) -> str:
        lines = [f"# {key}={val}" for key, val in sorted(self.meta.items())]
        if self.observable:
            lines.insert(0, f"# observable={self.observable}")
        lines.append("t_over_Trev,value\n")
        return "\n".join(lines) + series_table(self.grid.fractions, self.values)


def _half_turns(fractions, lower, upper) -> np.ndarray:
    """Kerr phase between levels lower and upper in units of pi: (f k) mod 2.

    k = upper(upper-1) - lower(lower-1) is an integer.  Each f splits into a
    head on a 2^-20 lattice, whose products with k are exact and reduce mod 2
    exactly, and a tail below 2^-21, so the result is exact up to the final
    rounding.  The arguments broadcast against each other.
    """
    k = upper * (upper - 1) - lower * (lower - 1)
    head = np.round(fractions * 2.0**20) / 2.0**20
    turns = head * k
    # turns mod 2 = turns - 2 floor(turns / 2), exact on the lattice and
    # cheaper than np.mod; in place, so one array is held beside turns
    wraps = np.multiply(turns, 0.5)
    np.floor(wraps, out=wraps)
    wraps *= 2.0
    turns -= wraps
    turns += (fractions - head) * k
    return turns


def _phase_factors(dim: int, chi: float, t) -> np.ndarray:
    """exp(-i chi n(n-1) t) for n < dim; t is a scalar or a column of times.

    n(n-1) is even, so only f = (t / T_rev) mod 1 matters.  At f = j / 2^m
    (m <= 20) the reduced angles are exact: every phase is 1 at t = T_rev.
    """
    fractions = np.mod(t / (np.pi / chi), 1.0)
    return np.exp(-1j * np.pi * _half_turns(fractions, 0, np.arange(dim)))


def evolve(state: FockState, params: KerrParams, t: float) -> FockState:
    """Evolved state at time t (any sign); exactly norm preserving."""
    return FockState(state.amplitudes * _phase_factors(state.amplitudes.size, params.chi, t))


def evolve_amplitudes(amplitudes: np.ndarray, params: KerrParams, times: np.ndarray) -> np.ndarray:
    """Batch propagation: row i holds the amplitudes at times[i]."""
    return amplitudes * _phase_factors(amplitudes.size, params.chi, np.asarray(times)[:, None])


def revival_components(spec: SuperpositionSpec, frac) -> tuple[np.ndarray, np.ndarray]:
    """(weights, angles) of the cat at t = frac T_rev as a sum of coherent states.

    The evolved amplitudes are coh_n(alpha) g(n), g(n) = exp(-i pi p n(n-1)/q)
    [n = h (mod l)] for frac = p/q; g has period L = lcm(2q, l), so its DFT
    b = FFT(g) / L gives g(n) = sum_r b_r exp(i n phi_r) and the state
    sum_r b_r |alpha exp(i phi_r)>, phi_r = 2 pi r / L.  The Kerr phase is
    reduced mod 2q in exact integers; components with |b_r| <= 1e-12 are
    dropped.  frac must be a Fraction or an int: the float 0.1 is exactly
    3602879701896397 / 2^55, whose table would hold 2^56 phases.
    """
    if not isinstance(frac, numbers.Rational):
        raise TypeError(f"frac must be a Fraction or an int, got {frac!r}")
    frac = Fraction(frac)
    p, q = frac.numerator % (2 * frac.denominator), frac.denominator
    size = math.lcm(2 * q, spec.l)
    n = np.arange(size)
    turns = (n * (n - 1) % (2 * q)) * p % (2 * q)
    g = np.exp(-1j * np.pi * turns / q) * (n % spec.l == spec.h)
    b = np.fft.fft(g) / size
    keep = np.flatnonzero(np.abs(b) > 1e-12)
    return b[keep], 2 * np.pi * keep / size


def analytic_state_at(spec: SuperpositionSpec, frac, n_max: int | None = None) -> FockState:
    """The cat of `spec` at t = frac T_rev, built from its `revival_components`.

    Shares no phase code with `evolve`, so the two cross-check each other; at
    frac = 0 it is the initial cat as a sum of l rotated coherent states.
    Raises ValueError where the sum cancels to rounding.
    """
    weights, angles = revival_components(spec, frac)
    if n_max is None:
        n_max = truncation_dim(spec.nu)
    n = np.arange(n_max + 1)
    acc = coherent_amplitudes(spec.alpha, n_max) * (np.exp(1j * np.outer(n, angles)) @ weights)
    nrm = np.linalg.norm(acc)
    # off n = h (mod l) the sum cancels to rounding, about 1e-16 of the largest
    # coherent amplitude; a cat whose support holds less than that (nu = 0, or
    # a tiny nu with h > 0) is lost in it, as is a sum that vanishes outright
    leak = np.linalg.norm(acc[n % spec.l != spec.h])
    if not leak < 1e-6 * nrm:
        raise ValueError(f"component sum of l={spec.l}, h={spec.h}, nu={spec.nu} vanishes "
                         f"below its rounding ({leak:.1e} off its support, norm {nrm:.1e})")
    amp = acc / nrm
    _check_tail(amp, f"analytic_state_at(l={spec.l}, h={spec.h}, frac={frac})")
    return FockState(amp)
