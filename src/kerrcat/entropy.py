"""Position/momentum densities and Renyi entropic uncertainty of Fock states.

Wavefunctions are assembled from the harmonic-oscillator eigenfunctions
phi_n(x) consistent with x = (a + a^dag)/sqrt(2); the momentum wavefunction
uses the exact identity phi(p) = sum_n c_n (-i)^n phi_n(p) instead of a
numerical Fourier transform.  `position_wavefunction` is also the psi of
`wigner.wigner_field`.  Entropies use composite Simpson quadrature, one fixed
weight vector on a uniform grid with an odd point count.

`entropy_series` projects only the support rows of the state (the n with
c_n != 0, about 1/l of them for an l-cat) on the x >= 0 half of its grid,
`default_grid_for(state)`: phi_n has the parity of n there, so one real matrix
product per parity group and block of 16 time rows gives psi and phi on both
halves.  A fixed Simpson weight vector integrates them.

The blocks are dealt round-robin to one worker thread per CPU the process may
run on, the calling thread among them; each worker writes its own rows of the
series, so the values do not depend on the number of workers.  numpy's
OpenBLAS runs these products no faster on several threads, while its idle
threads spin through every elementwise pass, so importing kerrcat sets it to
one thread, once.  Where no OpenBLAS of numpy's own is found (other platforms
and builds), BLAS is left as it is and one worker runs the blocks.

The conjugate-pair entropy sum obeys

    R_rho(zeta) + R_gamma(eta) >= -ln(zeta/pi)/(2(1-zeta)) - ln(eta/pi)/(2(1-eta))

for 1/zeta + 1/eta = 2; Gaussian densities (vacuum, unevolved coherent
states) saturate the bound for every admissible pair.
"""

from __future__ import annotations

import contextvars
import ctypes
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .evolution import KerrParams, TimeGrid, TimeSeries, evolve_amplitudes
from .states import FockState, SuperpositionSpec, mean_photon_number, superposed_state, truncation_dim

# Composite Simpson at 0.005 is not uniformly converged.  Against a trapezoid
# at step 2.5e-4 on a span 2 wider, over the benchmark's seven entropy states,
# the 33 times j/q <= 1/2 with q <= 14 and the pairs zeta = 2/3, 0.6, 0.75,
# 0.8, 0.9, the Renyi sum is off by at most 1.4e-5 (3-cat, nu = 30, T_rev/4,
# zeta = 0.6).  The largest errors sit at zeta = 0.6, whose f^zeta has the
# sharpest cusps at zeros of the density, and the plain trapezoid at 0.005 is
# off by as much there (1.4e-5 at the 2-cat, nu = 35, T_rev/12).
DEFAULT_GRID_STEP = 0.005
DEFAULT_GRID_PAD = 6.0
# time rows per projection block: the 4 x 16 rows of a product table over the
# x >= 0 half (1.5 MB at nu = 35) fit a 2 MiB L2, which is per core, so each
# worker runs one block at a time; on the benchmark's entropy series 16 rows
# ran faster than 8, 12, 24 and 32
_BLOCK_ROWS = 16
# (-i)^n indexed by n mod 4; numpy forms (-1j) ** n through exp/log for n >= 100
_MINUS_I_POWERS = np.array([1, -1j, -1, 1j])


def _openblas_thread_setter():
    """`set_num_threads` of the OpenBLAS bundled in numpy's wheel, or None.

    Only the libraries in the wheel's `numpy.libs` folder are searched, so no
    other BLAS of the process is touched.  Without `os.sched_getaffinity`
    (not Linux) the CPUs cannot be counted and None is returned.
    """
    if not hasattr(os, "sched_getaffinity"):
        return None
    for path in sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for name in ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads"):
            setter = getattr(lib, name, None)
            if setter is not None:
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                return setter
    return None


_SET_BLAS_THREADS = _openblas_thread_setter()
if _SET_BLAS_THREADS is not None:
    _SET_BLAS_THREADS(1)


def _workers(blocks: int) -> int:
    """Worker threads for `blocks` time blocks: one per available CPU once BLAS is
    on one thread, never more than there are blocks; else one."""
    if _SET_BLAS_THREADS is None:
        return 1
    return min(len(os.sched_getaffinity(0)), blocks)


@dataclass(frozen=True)
class RenyiPair:
    """Conjugate Renyi orders with 1/zeta + 1/eta = 2."""

    zeta: float
    eta: float

    def __post_init__(self):
        if not (math.isfinite(self.zeta) and math.isfinite(self.eta)):
            raise ValueError("orders must be finite")
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
    """Probability density sampled on a uniform 1-D grid with an odd point count.

    Those are the grids the fixed Simpson weights integrate; others raise.
    """

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        g = np.ascontiguousarray(self.grid, dtype=np.float64)
        v = np.ascontiguousarray(self.values, dtype=np.float64)
        if g.shape != v.shape or g.ndim != 1 or g.size < 3:
            raise ValueError("grid and values must be matching 1-D arrays")
        steps = np.diff(g)
        if g.size % 2 == 0 or steps[0] == 0 or np.ptp(steps) > 1e-9 * abs(steps[0]):
            raise ValueError("grid must be uniform with an odd point count for Simpson's rule")
        if np.any(v < -1e-14):
            raise ValueError("density values must be nonnegative")
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "values", np.maximum(v, 0.0))

    def total(self) -> float:
        return float(self.values @ _simpson_weights(self.grid))


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
    phases = _MINUS_I_POWERS[np.arange(state.n_max + 1) % 4]
    return (state.amplitudes * phases) @ oscillator_basis(state.n_max, p)


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
    weights = _simpson_weights(density.grid)
    return float(_renyi_on_rows(density.values.copy(), lambda f: f @ weights, order))


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


def _renyi_on_rows(densities: np.ndarray, integrate, order: float) -> np.ndarray:
    """Renyi entropy of each row; `integrate` maps rows of f(x) to their integrals.

    Overwrites `densities` with the integrand.
    """
    if abs(order - 1.0) < 1e-12:  # f ln f, taken as 0 where f = 0
        logs = np.log(densities, out=np.zeros_like(densities), where=densities > 0)
        return -integrate(np.multiply(logs, densities, out=densities))
    return np.log(integrate(np.power(densities, order, out=densities))) / (1.0 - order)


def _simpson_weights(x: np.ndarray) -> np.ndarray:
    """Composite Simpson weights h/3 [1, 4, 2, ..., 2, 4, 1] of a uniform grid of odd size."""
    w = np.full(x.size, 2.0)
    w[1::2] = 4.0
    w[[0, -1]] = 1.0
    return w * ((x[-1] - x[0]) / (x.size - 1) / 3.0)


def entropy_series(
    spec: SuperpositionSpec,
    params: KerrParams,
    grid: TimeGrid,
    pair: RenyiPair,
    n_max: int | None = None,
) -> TimeSeries:
    """Entropy-sum time series for an evolved superposition.

    The densities live on `default_grid_for(state)`, symmetric with 2k + 1
    points.  Since phi_n(-x) = (-1)^n phi_n(x), psi(+-x) = E(x) +- O(x) on
    its x >= 0 half x[k:], where E and O sum the even and the odd support rows
    (c_n != 0); phi(+-p) splits alike with c'_n = c_n (-i)^n.  For each block
    of time rows c, each parity group takes one real matrix product of
    [Re c; Re c'; Im c; Im c'] with its rows of the half table.  The squared
    rows of [E + O | E - O] add up to rho = |psi|^2 and gamma = |phi|^2, and
    the full grid's Simpson weights on x[k:] integrate both halves, the x = 0
    column of the mirrored one at weight 0.  A support of one parity (every
    even-l cat) has rho(-x) = rho(x): only the x >= 0 half is formed, at
    folded weights 2w (w at x = 0).
    """
    if n_max is None:
        n_max = truncation_dim(spec.nu)
    state = superposed_state(spec, n_max)
    x = default_grid_for(state)
    k = x.size // 2
    n = np.flatnonzero(state.amplitudes)
    groups = [g for g in (n[n % 2 == 0], n[n % 2 == 1]) if g.size]
    half = oscillator_basis(n_max, x[k:])
    bases = [half[g] for g in groups]
    del half
    to_momentum = [_MINUS_I_POWERS[g % 4] for g in groups]
    w = _simpson_weights(x)[k:]
    if len(groups) == 1:
        weights = 2.0 * w
        weights[0] = w[0]
    else:
        weights = np.concatenate([w, w])
        weights[k + 1] = 0.0

    def integrate(f):
        return f @ weights

    times = grid.times(params)
    values = np.empty(times.size)
    workers = _workers(-(-times.size // _BLOCK_ROWS))
    # every worker's tables are allocated here: a worker thread's own malloc
    # arena would keep them after it ends
    tables = []
    for _ in range(workers):
        products = [np.empty((4 * _BLOCK_ROWS, k + 1)) for _ in groups]
        densities = products[0] if len(groups) == 1 else np.empty((4 * _BLOCK_ROWS, 2 * (k + 1)))
        tables.append((products, densities))

    def run_blocks(part):
        products, densities = tables[part]
        for lo in range(part * _BLOCK_ROWS, times.size, workers * _BLOCK_ROWS):
            c = evolve_amplitudes(state.amplitudes, params, times[lo:lo + _BLOCK_ROWS])
            b = c.shape[0]
            for g, phases, basis, out in zip(groups, to_momentum, bases, products):
                cg = c[:, g]
                turned = cg * phases
                np.matmul(np.concatenate([cg.real, turned.real, cg.imag, turned.imag]), basis,
                          out=out[:4 * b])
            if len(groups) == 2:
                even, odd = products[0][:4 * b], products[1][:4 * b]
                np.add(even, odd, out=densities[:4 * b, :k + 1])
                np.subtract(even, odd, out=densities[:4 * b, k + 1:])
            f = np.square(densities[:4 * b], out=densities[:4 * b])
            np.add(f[:2 * b], f[2 * b:], out=f[:2 * b])
            values[lo:lo + b] = (_renyi_on_rows(f[:b], integrate, pair.zeta)
                                 + _renyi_on_rows(f[b:2 * b], integrate, pair.eta))

    # the other workers run in copies of the caller's context, which holds
    # numpy's error state (np.errstate)
    with ThreadPoolExecutor(max(workers - 1, 1)) as pool:
        rest = [pool.submit(contextvars.copy_context().run, run_blocks, part)
                for part in range(1, workers)]
        run_blocks(0)
        for future in rest:
            future.result()
    meta = {
        "l": spec.l, "h": spec.h, "nu": spec.nu, "theta": spec.theta,
        "chi": params.chi, "zeta": pair.zeta, "eta": pair.eta, "n_max": n_max,
    }
    return TimeSeries(grid, values, observable=f"renyi_sum({pair.zeta:g},{pair.eta:g})", meta=meta)
