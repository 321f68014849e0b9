"""Position/momentum densities and Renyi entropic uncertainty of Fock states.

Wavefunctions are assembled from the harmonic-oscillator eigenfunctions
phi_n(x) consistent with x = (a + a^dag)/sqrt(2); the momentum wavefunction
uses the exact identity phi(p) = sum_n c_n (-i)^n phi_n(p) instead of a
numerical Fourier transform.  `position_wavefunction` is also the psi of
`wigner.wigner_field`.  Entropies use the trapezoid rule on a uniform grid.

A Renyi sum integrates each density on the sub-grid its order needs: every
s-th point counted from the grid's centre index, so x = 0 and the parity fold
below stay on it (`_quadrature_stride`):

* order <= 1, rho for every zeta < 1 and both densities of the Shannon pair:
  s = 1, since f^order has near-cusps where the density nearly vanishes;
* integer order o > 1, such as the study pair's eta = 2: the largest s with
  s h <= pi / (o X), X the grid's half-width (sqrt(2 <N>) + DEFAULT_GRID_PAD
  on `default_grid_for`).  The Fourier transform of |phi|^(2o) is an o-fold
  autocorrelation of psi, which vanishes beyond |x| = 2 o X, so by Poisson
  summation the trapezoid on that sub-grid equals the one on every point
  (to 2e-15 over 1- to 4-cats at orders 2, 3 and 4);
* any other order > 1: s = 2.

A pair with zeta > 1 swaps the roles of rho and gamma.

`entropy_series` projects only the support rows of the state (the n with
c_n != 0, about 1/l of them for an l-cat) on the x >= 0 half of its grid,
`default_grid_for(state)`: phi_n has the parity of n there, so two real matrix
products per parity group and block of 16 time rows give psi on the full
half and phi on its sub-grid (or the other way round), on both halves.

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

# The trapezoid at 0.005 with these sub-grids is not uniformly converged.
# Against a trapezoid at step 2.5e-4 on a span 1 wider, over 396 cases (1-cat
# at nu = 35, 2- and 3-cats at nu = 30; the 33 times j/q <= 1/2 with q <= 14;
# zeta = 2/3, 0.6, 0.75, 0.9), the Renyi sum is off by at most 1.25e-5
# (1-cat, T_rev/4, zeta = 0.6), with median 7.0e-8; composite Simpson on the
# same grid read 1.40e-5 and 2.08e-7.  The largest errors sit at zeta = 0.6,
# whose rho^zeta has the sharpest cusps at near-zeros of the density.
DEFAULT_GRID_STEP = 0.005
DEFAULT_GRID_PAD = 6.0
# time rows per projection block: a block's product tables, 2 x 16 rows per
# density and parity group (under 1.5 MB at nu = 35), fit a 2 MiB L2, which is
# per core, so each worker runs one block at a time; on the benchmark's entropy
# series 16 rows ran faster than 8, 12, 24 and 32
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


@dataclass(frozen=True)
class DensityProfile:
    """Probability density sampled on a uniform 1-D grid; non-uniform grids raise.

    The trapezoid rule integrates it.
    """

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        g = np.ascontiguousarray(self.grid, dtype=np.float64)
        v = np.ascontiguousarray(self.values, dtype=np.float64)
        if g.shape != v.shape or g.ndim != 1 or g.size < 2:
            raise ValueError("grid and values must be matching 1-D arrays of at least 2 points")
        steps = np.diff(g)
        if steps[0] == 0 or np.ptp(steps) > 1e-9 * abs(steps[0]):
            raise ValueError("grid must be uniform for the trapezoid rule")
        if np.any(v < -1e-14):
            raise ValueError("density values must be nonnegative")
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "values", np.maximum(v, 0.0))

    def total(self) -> float:
        return float(self.values @ _trapezoid_weights(self.grid))


def uniform_grid(span: float, step: float = DEFAULT_GRID_STEP) -> np.ndarray:
    """Symmetric grid [-span, span] with spacing <= step and an odd point count."""
    half = int(math.ceil(span / step))
    return np.linspace(-half * step, half * step, 2 * half + 1)


def default_grid_for(state: FockState, step: float = DEFAULT_GRID_STEP,
                     pad: float = DEFAULT_GRID_PAD) -> np.ndarray:
    """Grid spanning +-(sqrt(2 <N>) + pad), wide enough for every rotated sub-packet."""
    span = math.sqrt(2.0 * mean_photon_number(state)) + pad
    return uniform_grid(span, step)


def oscillator_basis(n_max: int, x: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
    """Table phi_n(x) for n = 0..n_max, shape (n_max+1, len(x)), or for the n in
    `rows` only, in their order.

    Built with the normalized three-term recurrence
    phi_{n+1} = sqrt(2/(n+1)) x phi_n - sqrt(n/(n+1)) phi_{n-1},
    which keeps every entry bounded (no factorial overflow at n ~ 300).  The
    recurrence keeps two rows, so a table of some rows needs no full table.
    """
    x = np.asarray(x, dtype=np.float64)
    rows = np.arange(n_max + 1) if rows is None else np.asarray(rows)
    table = np.empty((rows.size, x.size))
    slot = np.full(n_max + 1, -1)
    slot[rows] = np.arange(rows.size)
    below, phi = None, np.pi**-0.25 * np.exp(-0.5 * x * x)
    for n in range(n_max + 1):
        if slot[n] >= 0:
            table[slot[n]] = phi
        if n == 0:
            below, phi = phi, math.sqrt(2.0) * x * phi
        elif n < n_max:
            below, phi = phi, math.sqrt(2.0 / (n + 1)) * x * phi - math.sqrt(n / (n + 1.0)) * below
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
    weights = _trapezoid_weights(density.grid)
    return float(_renyi_on_rows(density.values.copy(), lambda f: f @ weights, order))


def renyi_bound(pair: RenyiPair) -> float:
    """Lower bound of the conjugate entropy sum; 1 + ln(pi) in the Shannon limit."""
    if abs(pair.zeta - 1.0) < 1e-12:
        return 1.0 + math.log(math.pi)
    return (-math.log(pair.zeta / math.pi) / (2.0 * (1.0 - pair.zeta))
            - math.log(pair.eta / math.pi) / (2.0 * (1.0 - pair.eta)))


def renyi_uncertainty_sum(state: FockState, pair: RenyiPair,
                          grid: np.ndarray | None = None) -> float:
    """R_rho(zeta) + R_gamma(eta) for the state's position and momentum densities.

    One basis table on the whole grid serves psi and phi; each density is
    integrated on the sub-grid of its order (`_quadrature_stride`).
    """
    if grid is None:
        grid = default_grid_for(state)
    grid = np.asarray(grid, dtype=np.float64)
    table = oscillator_basis(state.n_max, grid)
    turned = state.amplitudes * _MINUS_I_POWERS[np.arange(state.n_max + 1) % 4]
    total = 0.0
    for amplitudes, order in ((state.amplitudes, pair.zeta), (turned, pair.eta)):
        stride = _quadrature_stride(grid, order)
        k = grid.size // 2
        reach = min(k, grid.size - 1 - k) // stride * stride
        columns = slice(k - reach, k + reach + 1, stride) if stride > 1 else slice(None)
        sub = table[:, columns]
        density = np.square(amplitudes.real @ sub) + np.square(amplitudes.imag @ sub)
        total += renyi_entropy(DensityProfile(grid[columns], density), order)
    return total


def _quadrature_stride(x: np.ndarray, order: float) -> int:
    """Grid steps between the points on which a density raised to `order` is integrated.

    1 for order <= 1, 2 for other non-integer orders, and for an integer order
    o > 1 the largest s with s h <= pi / (o X), X the half-width of the grid x
    (see the module docstring).  Never more than half the grid's steps.
    """
    if order <= 1.0 + 1e-12:
        return 1
    half = (x.size - 1) // 2
    whole = round(order)
    if abs(order - whole) > 1e-9:
        return max(1, min(2, half))
    step = (x[-1] - x[0]) / (x.size - 1)
    width = max(abs(x[0]), abs(x[-1]))
    return max(1, min(int(math.pi / (whole * width * step)), half))


def _renyi_on_rows(densities: np.ndarray, integrate, order: float) -> np.ndarray:
    """Renyi entropy of each row; `integrate` maps rows of f(x) to their integrals.

    Overwrites `densities` with the integrand.
    """
    if abs(order - 1.0) < 1e-12:  # f ln f, taken as 0 where f = 0
        logs = np.log(densities, out=np.zeros_like(densities), where=densities > 0)
        return -integrate(np.multiply(logs, densities, out=densities))
    return np.log(integrate(np.power(densities, order, out=densities))) / (1.0 - order)


def _trapezoid_weights(x: np.ndarray) -> np.ndarray:
    """Trapezoid weights h [1/2, 1, ..., 1, 1/2] of a uniform grid."""
    w = np.full(x.size, (x[-1] - x[0]) / (x.size - 1))
    w[[0, -1]] *= 0.5
    return w


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
    (c_n != 0); phi(+-p) splits alike with c'_n = c_n (-i)^n.  The half
    table's columns put the coarser density's sub-grid x[k], x[k + s], ...
    first, so the finer one (stride 1) takes every column and the coarser a
    leading block of them.  For each block of time rows c, each parity group
    takes two real matrix products with its rows of the table: [Re c; Im c]
    for psi, [Re c'; Im c'] for phi.  The squared rows of [E + O | E - O] add
    up to rho = |psi|^2 and gamma = |phi|^2, which trapezoid weights on the
    x >= 0 columns integrate over both halves, the x = 0 column of the
    mirrored one at weight 0.  A support of one parity (every even-l cat) has
    rho(-x) = rho(x): only the x >= 0 half is formed, at folded weights 2w
    (w at x = 0).
    """
    if n_max is None:
        n_max = truncation_dim(spec.nu)
    state = superposed_state(spec, n_max)
    x = default_grid_for(state)
    k = x.size // 2
    step = (x[-1] - x[0]) / (x.size - 1)
    strides = [_quadrature_stride(x, pair.zeta), _quadrature_stride(x, pair.eta)]
    on_sub = np.zeros(k + 1, dtype=bool)
    on_sub[::max(strides)] = True
    columns = np.concatenate([np.flatnonzero(on_sub), np.flatnonzero(~on_sub)])
    widths = [k + 1 if s == 1 else np.count_nonzero(on_sub) for s in strides]
    n = np.flatnonzero(state.amplitudes)
    groups = [g for g in (n[n % 2 == 0], n[n % 2 == 1]) if g.size]
    table = oscillator_basis(n_max, x[k:][columns], np.concatenate(groups))
    bases = np.split(table, np.cumsum([g.size for g in groups])[:-1])
    to_momentum = [_MINUS_I_POWERS[g % 4] for g in groups]
    weights = []
    for s, width in zip(strides, widths):
        w = np.full(width, s * step)
        w[columns[:width] == k // s * s] *= 0.5  # the sub-grid's last point
        if len(groups) == 1:
            folded = 2.0 * w
            folded[0] = w[0]
        else:
            folded = np.concatenate([w, w])
            folded[width] = 0.0
        weights.append(folded)

    times = grid.times(params)
    values = np.empty(times.size)
    workers = _workers(-(-times.size // _BLOCK_ROWS))
    # every worker's tables are views of one block allocated here: a worker
    # thread's own malloc arena would keep them after it ends, and one block,
    # unlike several smaller tables, is large enough for malloc to map it on
    # its own and return it whole when the series returns (separate tables
    # left up to 7 MB of free heap resident between the benchmark's entropy
    # requests)
    shapes = [(2 * _BLOCK_ROWS, width) for width in widths] * len(groups)  # products
    if len(groups) == 2:
        shapes += [(2 * _BLOCK_ROWS, 2 * width) for width in widths]  # densities of E +- O
    sizes = [rows * cols for rows, cols in shapes]
    parts = np.split(np.empty(workers * sum(sizes)), np.cumsum(sizes * workers)[:-1])
    tables = []
    for part in range(workers):
        mine = [p.reshape(shape) for p, shape in zip(parts[part * len(shapes):], shapes)]
        products = [mine[0:2], mine[2:4]][:len(groups)]  # products[group][density]
        tables.append((products, mine[4:6] if len(groups) == 2 else products[0]))

    def run_blocks(part):
        products, densities = tables[part]
        for lo in range(part * _BLOCK_ROWS, times.size, workers * _BLOCK_ROWS):
            c = evolve_amplitudes(state.amplitudes, params, times[lo:lo + _BLOCK_ROWS])
            b = c.shape[0]
            for g, phases, basis, (psi, phi) in zip(groups, to_momentum, bases, products):
                cg = c[:, g]
                turned = cg * phases
                np.matmul(np.concatenate([cg.real, cg.imag]), basis[:, :widths[0]], out=psi[:2 * b])
                np.matmul(np.concatenate([turned.real, turned.imag]), basis[:, :widths[1]],
                          out=phi[:2 * b])
            sums = []
            for d, (order, weight) in enumerate(zip((pair.zeta, pair.eta), weights)):
                f = densities[d][:2 * b]
                if len(groups) == 2:
                    even, odd = products[0][d][:2 * b], products[1][d][:2 * b]
                    np.add(even, odd, out=f[:, :widths[d]])
                    np.subtract(even, odd, out=f[:, widths[d]:])
                np.square(f, out=f)
                np.add(f[:b], f[b:], out=f[:b])
                sums.append(_renyi_on_rows(f[:b], lambda rows: rows @ weight, order))
            values[lo:lo + b] = sums[0] + sums[1]

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
        "rho_step": strides[0] * step, "gamma_step": strides[1] * step,
    }
    return TimeSeries(grid, values, observable=f"renyi_sum({pair.zeta:g},{pair.eta:g})", meta=meta)
