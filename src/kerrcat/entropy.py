"""Position/momentum densities and Renyi entropic uncertainty of Fock states.

Wavefunctions are assembled from the harmonic-oscillator eigenfunctions
phi_n(x) consistent with x = (a + a^dag)/sqrt(2); the momentum wavefunction
uses the exact identity phi(p) = sum_n c_n (-i)^n phi_n(p) instead of a
numerical Fourier transform.  Entropies use composite Simpson quadrature on a
uniform grid.

The conjugate-pair entropy sum obeys

    R_rho(zeta) + R_gamma(eta) >= -ln(zeta/pi)/(2(1-zeta)) - ln(eta/pi)/(2(1-eta))

for 1/zeta + 1/eta = 2; Gaussian densities (vacuum, unevolved coherent
states) saturate the bound for every admissible pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import simpson

from .evolution import KerrParams, TimeGrid, TimeSeries, evolve_amplitudes
from .states import FockState, SuperpositionSpec, mean_photon_number, superposed_state, truncation_dim

# Composite Simpson at 0.005 is not uniformly converged: against step 0.001,
# the Renyi sum (2, 2/3) of the 2-cat at nu = 30, t = 0.37 T_rev is off by
# 1e-9 and of the 3-cat at t = 0 by 1e-14, but of the 2-cat at nu = 35,
# t = T_rev/4 by 2.0e-5 (6.6e-6 at 0.0025).  Step 0.02 leaves ~5e-5 residuals.
DEFAULT_GRID_STEP = 0.005
DEFAULT_GRID_PAD = 6.0
_DENSITY_FLOOR = 1e-300


@dataclass(frozen=True)
class RenyiPair:
    """Conjugate Renyi orders with 1/zeta + 1/eta = 2."""

    zeta: float
    eta: float

    def __post_init__(self):
        if self.zeta <= 0 or self.eta <= 0:
            raise ValueError("orders must be positive")
        if abs(1.0 / self.zeta + 1.0 / self.eta - 2.0) > 1e-12:
            raise ValueError("pair must satisfy 1/zeta + 1/eta = 2")

    @classmethod
    def conjugate(cls, zeta: float) -> "RenyiPair":
        if zeta <= 0.5:
            raise ValueError("zeta must exceed 1/2 for a finite conjugate")
        return cls(zeta, zeta / (2.0 * zeta - 1.0))


@dataclass(frozen=True)
class DensityProfile:
    """Probability density sampled on a uniform 1-D grid."""

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        g = np.ascontiguousarray(self.grid, dtype=np.float64)
        v = np.ascontiguousarray(self.values, dtype=np.float64)
        if g.shape != v.shape or g.ndim != 1 or g.size < 3:
            raise ValueError("grid and values must be matching 1-D arrays")
        if np.any(v < -1e-14):
            raise ValueError("density values must be nonnegative")
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "values", np.maximum(v, 0.0))

    def total(self) -> float:
        return float(simpson(self.values, x=self.grid))


def uniform_grid(span: float, step: float = DEFAULT_GRID_STEP) -> np.ndarray:
    """Symmetric grid [-span, span] with spacing <= step and an odd point count."""
    half = int(math.ceil(span / step))
    return np.linspace(-half * step, half * step, 2 * half + 1)


def default_grid_for(state: FockState, step: float = DEFAULT_GRID_STEP,
                     pad: float = DEFAULT_GRID_PAD) -> np.ndarray:
    """Grid spanning +-(sqrt(2 <N>) + pad), wide enough for every rotated sub-packet."""
    span = math.sqrt(2.0 * mean_photon_number(state)) + pad
    return uniform_grid(span, step)


def oscillator_basis(n_max: int, x: np.ndarray) -> np.ndarray:
    """Table phi_n(x) for n = 0..n_max, shape (n_max+1, len(x)).

    Built with the normalized three-term recurrence
    phi_{n+1} = sqrt(2/(n+1)) x phi_n - sqrt(n/(n+1)) phi_{n-1},
    which keeps every entry bounded (no factorial overflow at n ~ 300).
    """
    x = np.asarray(x, dtype=np.float64)
    table = np.empty((n_max + 1, x.size))
    table[0] = np.pi**-0.25 * np.exp(-0.5 * x * x)
    if n_max >= 1:
        table[1] = math.sqrt(2.0) * x * table[0]
    for n in range(1, n_max):
        table[n + 1] = math.sqrt(2.0 / (n + 1)) * x * table[n] - math.sqrt(n / (n + 1.0)) * table[n - 1]
    return table


def position_wavefunction(state: FockState, x: np.ndarray) -> np.ndarray:
    """psi(x) = sum_n c_n phi_n(x)."""
    return state.amplitudes @ oscillator_basis(state.n_max, x)


def momentum_wavefunction(state: FockState, p: np.ndarray) -> np.ndarray:
    """phi(p) = sum_n c_n (-i)^n phi_n(p), the exact Fourier transform of psi(x)."""
    n = np.arange(state.n_max + 1)
    return (state.amplitudes * (-1j) ** n) @ oscillator_basis(state.n_max, p)


def position_density(state: FockState, x: np.ndarray | None = None) -> DensityProfile:
    if x is None:
        x = default_grid_for(state)
    return DensityProfile(x, np.abs(position_wavefunction(state, x)) ** 2)


def momentum_density(state: FockState, p: np.ndarray | None = None) -> DensityProfile:
    if p is None:
        p = default_grid_for(state)
    return DensityProfile(p, np.abs(momentum_wavefunction(state, p)) ** 2)


def renyi_entropy(density: DensityProfile, order: float) -> float:
    """R^(order) = ln(int f^order) / (1 - order); order = 1 is the Shannon limit.

    For a Gaussian of variance sigma^2 this equals
    ln(sigma sqrt(2 pi)) + ln(order) / (2 (order - 1)).
    """
    if order <= 0:
        raise ValueError("order must be positive")
    return float(_renyi_on_rows(density.values, density.grid, order))


def renyi_bound(pair: RenyiPair) -> float:
    """Lower bound of the conjugate entropy sum; 1 + ln(pi) in the Shannon limit."""
    if abs(pair.zeta - 1.0) < 1e-12:
        return 1.0 + math.log(math.pi)
    return (-math.log(pair.zeta / math.pi) / (2.0 * (1.0 - pair.zeta))
            - math.log(pair.eta / math.pi) / (2.0 * (1.0 - pair.eta)))


def renyi_uncertainty_sum(state: FockState, pair: RenyiPair,
                          grid: np.ndarray | None = None) -> float:
    """R_rho(zeta) + R_gamma(eta) for the state's position and momentum densities."""
    if grid is None:
        grid = default_grid_for(state)
    rho = position_density(state, grid)
    gamma = momentum_density(state, grid)
    return renyi_entropy(rho, pair.zeta) + renyi_entropy(gamma, pair.eta)


def _renyi_on_rows(densities: np.ndarray, x: np.ndarray, order: float) -> np.ndarray:
    if abs(order - 1.0) < 1e-12:
        g = np.where(densities > 0,
                     densities * np.log(np.maximum(densities, _DENSITY_FLOOR)), 0.0)
        return -simpson(g, x=x, axis=-1)
    return np.log(simpson(densities**order, x=x, axis=-1)) / (1.0 - order)


def entropy_series(
    spec: SuperpositionSpec,
    params: KerrParams,
    grid: TimeGrid,
    pair: RenyiPair,
    n_max: int | None = None,
    x_grid: np.ndarray | None = None,
    chunk: int = 256,
) -> TimeSeries:
    """Entropy-sum time series for an evolved superposition.

    The oscillator-basis table is built once and shared; states are propagated
    and projected in chunks so memory stays flat for long grids.
    """
    if n_max is None:
        n_max = truncation_dim(spec.nu)
    state = superposed_state(spec, n_max)
    if x_grid is None:
        x_grid = default_grid_for(state)
    basis = oscillator_basis(n_max, x_grid)
    mom_phase = (-1j) ** np.arange(n_max + 1)
    times = grid.times(params)
    values = np.empty(times.size)
    for lo in range(0, times.size, chunk):
        batch = evolve_amplitudes(state.amplitudes, params, times[lo:lo + chunk])
        rho = np.abs(batch @ basis) ** 2
        gamma = np.abs((batch * mom_phase) @ basis) ** 2
        values[lo:lo + chunk] = (_renyi_on_rows(rho, x_grid, pair.zeta)
                                 + _renyi_on_rows(gamma, x_grid, pair.eta))
    meta = {
        "l": spec.l, "h": spec.h, "nu": spec.nu, "theta": spec.theta,
        "chi": params.chi, "zeta": pair.zeta, "eta": pair.eta, "n_max": n_max,
    }
    return TimeSeries(grid, values, observable=f"renyi_sum({pair.zeta:g},{pair.eta:g})", meta=meta)
