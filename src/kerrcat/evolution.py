"""Exact time evolution under the Kerr Hamiltonian H = chi a^dag^2 a^2 = chi N(N-1).

The propagator is diagonal in the number basis, c_n -> c_n exp(-i chi n(n-1) t).
Every state revives exactly at multiples of the revival time T_rev = pi / chi
because n(n-1) is always even.  At rational fractions of T_rev the evolved
state is a discrete superposition of rotated copies of the initial one; the
explicitly known cases are tabulated in ANALYTIC_CASES.

Every Kerr phase is exp(-i pi f k), f = t / T_rev and k an integer difference
of n(n-1) values; `_half_turns` reduces f k mod 2 exactly from the integer k,
and `evolve`, `evolve_amplitudes` and `moments.moment_series` share it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .states import (
    FockState,
    SuperpositionSpec,
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
    turns = np.mod(head * k, 2.0)
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


def rotation_angle(l: int, j: int) -> float:
    """Rotation angle of the order-l cat at t = j T_rev / l^2.

    At these times exp(-i pi j n(n-1)/l^2) restricted to n = l m reduces to a
    phase linear in m, equivalent to the clockwise rotation
    phi = pi j (l - 1) / l^2 (defined mod 2 pi / l).
    """
    return np.pi * j * (l - 1) / l**2


_C1 = (1 - 1j) / 2
_C2 = (1 + 1j) / 2
_SQ2 = np.sqrt(2.0)


@dataclass(frozen=True)
class AnalyticCase:
    """A fractional-revival state with explicitly known component weights.

    The state is sum_i w_i |alpha e^{i phi_i}>, normalized numerically.
    """

    l: int
    time_fraction: Fraction
    weights: tuple
    phases: tuple


ANALYTIC_CASES: dict[str, AnalyticCase] = {
    # initial coherent state, four-component superposition at T/4
    "coherent@T/4": AnalyticCase(
        1, Fraction(1, 4),
        (1 - 1j, _SQ2, -(1 - 1j), _SQ2),
        (np.pi / 4, -np.pi / 4, -3 * np.pi / 4, 3 * np.pi / 4),
    ),
    # two-component cat: rigid rotations at j T/4
    "even2@T/4": AnalyticCase(2, Fraction(1, 4), (1, 1), (-np.pi / 4, -np.pi / 4 + np.pi)),
    "even2@T/2": AnalyticCase(2, Fraction(1, 2), (1, 1), (np.pi / 2, 3 * np.pi / 2)),
    "even2@3T/4": AnalyticCase(2, Fraction(3, 4), (1, 1), (np.pi / 4, np.pi / 4 + np.pi)),
    # two-component cat: superposition of two rotated cats at T/8
    "even2@T/8": AnalyticCase(
        2, Fraction(1, 8),
        (_C1, _C1, _C2, _C2),
        (np.pi / 8, np.pi / 8 + np.pi, -3 * np.pi / 8, -3 * np.pi / 8 + np.pi),
    ),
    # three-component cat: rigid rotation at T/9
    "even3@T/9": AnalyticCase(
        3, Fraction(1, 9), (1, 1, 1), (-8 * np.pi / 9, -2 * np.pi / 9, 4 * np.pi / 9),
    ),
    # three-component cat: two rotated copies at T/18
    "even3@T/18": AnalyticCase(
        3, Fraction(1, 18),
        (_C1, _C1, _C1, _C2, _C2, _C2),
        (-11 * np.pi / 18, np.pi / 18, 13 * np.pi / 18,
         -17 * np.pi / 18, -5 * np.pi / 18, 7 * np.pi / 18),
    ),
    # four-component cat: two rotated copies at T/32
    "even4@T/32": AnalyticCase(
        4, Fraction(1, 32),
        (_C1, _C1, _C1, _C1, _C2, _C2, _C2, _C2),
        tuple(np.pi * m / 32 for m in (-31, -15, 1, 17, -23, -7, 9, 25)),
    ),
}


def analytic_state_at(spec: SuperpositionSpec, case: str, n_max: int | None = None) -> FockState:
    """Fock representation of a tabulated fractional-revival superposition.

    `spec` supplies nu and theta and must carry the l the case belongs to
    (h = 0 only).  The returned state matches evolve(initial, t) at the
    case's time to fidelity 1 - 1e-10 or better.
    """
    try:
        entry = ANALYTIC_CASES[case]
    except KeyError:
        raise KeyError(f"unknown analytic case {case!r}; known: {sorted(ANALYTIC_CASES)}") from None
    if spec.l != entry.l or spec.h != 0:
        raise ValueError(f"case {case} requires l={entry.l}, h=0; got l={spec.l}, h={spec.h}")
    if n_max is None:
        n_max = truncation_dim(spec.nu)
    acc = np.zeros(n_max + 1, dtype=np.complex128)
    for w, phi in zip(entry.weights, entry.phases):
        acc += w * coherent_amplitudes(spec.alpha * np.exp(1j * phi), n_max)
    return FockState(acc / np.linalg.norm(acc))
