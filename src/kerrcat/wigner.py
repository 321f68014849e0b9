"""Wigner quasiprobability function on phase-space grids.

Convention: W(x, p) = (1/pi) int psi*(x+y) psi(x-y) exp(2ipy) dy, matching
x = (a + a^dag)/sqrt(2).  The vacuum peak is +1/pi and the marginals are the
position and momentum densities.

Evaluation runs in the Fock basis, W = sum_{m,n} c_m c_n^* W_mn.  With
z = 2 (x^2 + p^2) and phi the polar angle, W_{n+k,n} is proportional to
e^{-ik phi} K_n^k(z): only the phase depends on the angle, and the Laguerre
kernel K_n^k depends on z alone.  The kernel comes from a normalized
two-index recurrence that runs once per distinct z of the point set, in
preallocated buffers (a 201^2 square grid holds 7 000 to 12 000 distinct
radii, depending on its span); the radial sums are then gathered back to the
points and multiplied by the phase once per k.  The grouping is exact
(bitwise-equal z), and every point goes through the same floating-point
operations, in the same order, as when it is evaluated alone, so any point
set works and scattered points merely share less.  Every intermediate is
bounded by ~1 (the kernels are matrix elements of a displaced parity
operator), so the recurrence is stable up to n ~ 300 and arbitrary grid
radii; far outside the state's support the kernels underflow harmlessly.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import ndimage
from scipy.special import gammaln

from .states import FockState, mean_photon_number
from .textfmt import SLOT, fill, float_strings, labelled_lines

DEFAULT_POINTS = 401
DEFAULT_PAD = 5.0
_SUPPORT_EPS = 1e-14


class GridCoverageWarning(UserWarning):
    """Emitted when the evaluation grid visibly clips the state."""


@dataclass(frozen=True)
class PhaseSpaceGrid:
    x_min: float
    x_max: float
    p_min: float
    p_max: float
    n_x: int = DEFAULT_POINTS
    n_p: int = DEFAULT_POINTS

    def __post_init__(self):
        if not (self.x_max > self.x_min and self.p_max > self.p_min):
            raise ValueError("grid extents must satisfy max > min")
        if self.n_x < 2 or self.n_p < 2:
            raise ValueError("need at least 2 points per axis")

    @classmethod
    def square(cls, span: float, points: int = DEFAULT_POINTS) -> "PhaseSpaceGrid":
        return cls(-span, span, -span, span, points, points)

    def xs(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_x)

    def ps(self) -> np.ndarray:
        return np.linspace(self.p_min, self.p_max, self.n_p)

    @property
    def cell(self) -> tuple[float, float]:
        return ((self.x_max - self.x_min) / (self.n_x - 1),
                (self.p_max - self.p_min) / (self.n_p - 1))


def default_grid(state: FockState, points: int = DEFAULT_POINTS,
                 pad: float = DEFAULT_PAD) -> PhaseSpaceGrid:
    span = math.sqrt(2.0 * mean_photon_number(state)) + pad
    return PhaseSpaceGrid.square(span, points)


@dataclass(frozen=True)
class PhaseSpaceField:
    """Wigner values on a rectangular grid; values[i, j] = W(xs[i], ps[j])."""

    grid: PhaseSpaceGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=np.float64)
        if v.shape != (self.grid.n_x, self.grid.n_p):
            raise ValueError("values shape must be (n_x, n_p)")
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must be finite")
        object.__setattr__(self, "values", v)

    def integral(self) -> float:
        inner = np.trapezoid(self.values, self.grid.ps(), axis=1)
        return float(np.trapezoid(inner, self.grid.xs()))

    def to_csv(self) -> str:
        # one "x,p,W" line per point, x-major; one template per x row
        ps = float_strings(self.grid.ps())
        lines = ["x,p,W"]
        for x, row in zip(float_strings(self.grid.xs()), self.values):
            lines.append(fill(labelled_lines(ps, x + ","), row))
        lines.append("")  # trailing newline without copying the joined text
        return "\n".join(lines)

    def to_gnuplot_matrix(self) -> str:
        # nonuniform-matrix layout: first row n_x then x values; rows are p, W(x_i, p)
        xs = float_strings(self.grid.xs())
        slots = f" {SLOT}" * len(xs)
        rows = [" ".join([str(len(xs))] + xs)]
        for j, p in enumerate(float_strings(self.grid.ps())):
            rows.append(fill(p + slots, self.values[:, j]))
        rows.append("")
        return "\n".join(rows)


def wigner_on_points(state: FockState, x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """W at arbitrary phase-space points (x and p broadcast together)."""
    x = np.asarray(x, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    x, p = np.broadcast_arrays(x, p)
    return _wigner_flat(state.amplitudes, x.ravel(), p.ravel()).reshape(x.shape)


def _wigner_flat(c: np.ndarray, x: np.ndarray, p: np.ndarray) -> np.ndarray:
    mags = np.abs(c)
    support = np.flatnonzero(mags > _SUPPORT_EPS * mags.max())
    top = int(support.max())
    c = c[: top + 1]

    z = 2.0 * (x * x + p * p)
    r = np.sqrt(0.5 * z)
    with np.errstate(invalid="ignore", divide="ignore"):
        unit = np.where(r > 0, (x - 1j * p) / np.where(r > 0, r, 1.0), 1.0)  # e^{-i phi}

    # the kernels depend on z alone: recur on the distinct radii, z = zu[inv]
    zu, inv = np.unique(z, return_inverse=True)
    log_zu = np.log(np.where(zu > 0, zu, 1.0))
    k_prev, k_cur, k_next, term, acc_re, acc_im = (np.empty_like(zu) for _ in range(6))
    acc = np.empty_like(zu, dtype=np.complex128)
    w = np.zeros_like(z)
    phase_k = np.ones_like(z, dtype=np.complex128)
    gathered, real_part = np.empty_like(phase_k), np.empty_like(z)
    for k in range(top + 1):
        pair = c[k:] * c[: c.size - k].conj()  # rho_{n+k, n}
        if np.max(np.abs(pair)) > 1e-32:
            pair_re, pair_im = pair.real.tolist(), pair.imag.tolist()
            # K_0^k = z^{k/2} e^{-z/2} / sqrt(k!), assembled in log space
            k_prev.fill(0.0)
            np.exp(0.5 * (k * log_zu - gammaln(k + 1)) - 0.5 * zu, out=k_cur)
            if k > 0:
                k_cur[zu == 0] = 0.0
            np.multiply(k_cur, pair_re[0], out=acc_re)
            np.multiply(k_cur, pair_im[0], out=acc_im)
            for n in range(1, pair.size):
                # K_n = ((z - 2n + 1 - k) K_{n-1} - sqrt((n-1)(n-1+k)) K_{n-2}) / sqrt(n(n+k))
                np.subtract(zu, 2 * n - 1 + k, out=k_next)
                k_next *= k_cur
                k_prev *= math.sqrt((n - 1) * (n - 1 + k))
                k_next -= k_prev
                k_next /= math.sqrt(n * (n + k))
                k_prev, k_cur, k_next = k_cur, k_next, k_prev
                if pair_re[n] != 0:
                    np.multiply(k_cur, pair_re[n], out=term)
                    acc_re += term
                if pair_im[n] != 0:
                    np.multiply(k_cur, pair_im[n], out=term)
                    acc_im += term
            # gather the radial sums back to the points; W gains Re(acc e^{-ik phi}),
            # twice for k > 0, where rho_{n, n+k} = rho_{n+k, n}^* adds the conjugate
            if k == 0:
                np.take(acc_re, inv, out=real_part)
            else:
                acc.real, acc.imag = acc_re, acc_im
                np.take(acc, inv, out=gathered)
                gathered *= phase_k
                np.multiply(gathered.real, 2.0, out=real_part)
            w += real_part
        phase_k *= unit
    return w / np.pi


def wigner_field(state: FockState, grid: PhaseSpaceGrid | None = None) -> PhaseSpaceField:
    """Wigner function on a rectangular grid.

    Warns when |W| on the grid boundary exceeds 1e-6, which signals that the
    grid clips the state and the normalization/marginal invariants will
    degrade.
    """
    if grid is None:
        grid = default_grid(state)
    xs, ps = grid.xs(), grid.ps()
    X, P = np.meshgrid(xs, ps, indexing="ij")
    values = _wigner_flat(state.amplitudes, X.ravel(), P.ravel()).reshape(X.shape)
    border = max(
        np.abs(values[0, :]).max(), np.abs(values[-1, :]).max(),
        np.abs(values[:, 0]).max(), np.abs(values[:, -1]).max(),
    )
    if border > 1e-6:
        warnings.warn(
            f"grid too small: boundary |W| = {border:.2e} > 1e-6", GridCoverageWarning,
            stacklevel=2,
        )
    return PhaseSpaceField(grid, values)


def wigner_marginals(field: PhaseSpaceField) -> tuple[np.ndarray, np.ndarray]:
    """(x-density, p-density) by trapezoid integration over the other axis."""
    x_density = np.trapezoid(field.values, field.grid.ps(), axis=1)
    p_density = np.trapezoid(field.values, field.grid.xs(), axis=0)
    return x_density, p_density


def coarse_grained(field: PhaseSpaceField, blur: float = 0.5) -> np.ndarray:
    """Gaussian coarse-graining of W over a phase-space scale `blur`.

    Interference fringes oscillate with wavelength 2 pi / separation and
    average to zero under a blur wider than that wavelength; coherent lobes
    (unit-scale Gaussians) survive.  The blur must stay below the lobe
    separation, which holds for fringe-free counting whenever the components
    sit on a circle of radius >> 1.
    """
    cx, cp = field.grid.cell
    return ndimage.gaussian_filter(field.values, sigma=(blur / cx, blur / cp))


def _lobe_labels(field: PhaseSpaceField, rel_threshold: float, blur: float):
    smooth = coarse_grained(field, blur)
    labels, count = ndimage.label(smooth > rel_threshold * smooth.max())
    return smooth, labels, count


def count_lobes(field: PhaseSpaceField, rel_threshold: float = 0.5,
                blur: float = 0.5) -> int:
    """Number of coherent lobes: regions above half the coarse-grained maximum.

    Thresholding the raw field would fail: where several pairwise fringe
    patterns stack (the origin of a four-component superposition) raw |W|
    exceeds the lobe height several times over, so half the raw maximum can
    sit above every lobe.  After coarse-graining the lobes are the only
    survivors and the half-max threshold is meaningful.
    """
    _, _, count = _lobe_labels(field, rel_threshold, blur)
    return int(count)


def lobe_peaks(field: PhaseSpaceField, rel_threshold: float = 0.5,
               blur: float = 0.5) -> list[tuple[float, float, float]]:
    """Per-lobe (x, p, W_smooth) peak positions, strongest first.

    Peaks are taken on the coarse-grained field, whose maxima sit at the
    coherent-component centers."""
    smooth, labels, count = _lobe_labels(field, rel_threshold, blur)
    xs, ps = field.grid.xs(), field.grid.ps()
    peaks = []
    for lab in range(1, count + 1):
        region = np.where(labels == lab, smooth, -np.inf)
        i, j = np.unravel_index(np.argmax(region), region.shape)
        peaks.append((float(xs[i]), float(ps[j]), float(smooth[i, j])))
    peaks.sort(key=lambda t: -t[2])
    return peaks


def rotation_symmetry_defect(state: FockState, fold: int,
                             radii: np.ndarray | None = None,
                             n_angles: int = 72) -> float:
    """max |W(r, phi) - W(r, phi + 2 pi / fold)| over sampled rings.

    Both fields are evaluated directly at the rotated coordinates, so the
    comparison carries no interpolation error.
    """
    if radii is None:
        r_max = math.sqrt(2.0 * mean_photon_number(state)) + 2.0
        radii = np.linspace(0.3, r_max, 24)
    ang = np.linspace(0.0, 2.0 * np.pi, n_angles, endpoint=False)
    R, A = np.meshgrid(np.asarray(radii, dtype=float), ang, indexing="ij")
    w0 = wigner_on_points(state, R * np.cos(A), R * np.sin(A))
    rot = A + 2.0 * np.pi / fold
    w1 = wigner_on_points(state, R * np.cos(rot), R * np.sin(rot))
    return float(np.max(np.abs(w0 - w1)))
