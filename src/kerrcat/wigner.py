"""Wigner quasiprobability function on phase-space grids.

Convention: W(x, p) = (1/pi) int psi*(x+y) psi(x-y) exp(2ipy) dy, matching
x = (a + a^dag)/sqrt(2).  The vacuum peak is +1/pi and the marginals are the
position and momentum densities.

`wigner_field` sums that integral by the trapezoid rule in y.  psi comes from
`entropy.position_wavefunction`, the route of the entropy series, once per
field, on a fine grid of step h = hx / s aligned with the x grid, so that
x_i +- y_j with y_j = j h are fine-grid points.  The integrand at -y is the
conjugate of the one at y; with M_ij = psi*(x_i + y_j) psi(x_i - y_j),

    W(x_i, p) = (h/pi) [Re M_i0 + 2 sum_{j>0} (Re M_ij cos 2 y_j p - Im M_ij sin 2 y_j p)],

two real matrix products for the whole grid.

The step and the y range follow from the state and the grid.  A state whose
photon support ends at n = top has W below 1e-16 outside the phase-space
radius R = sqrt(2 top + 1) + 6 (the vacuum's exp(-r^2)/pi reaches 1e-16 at
r = 6.07), and M likewise beyond y = R, where the sum stops.  By Poisson
summation the trapezoid returns W(x, p) plus its images W(x, p + m pi/h),
m != 0, which stay outside that disc for every grid p when
pi/h >= max|p| + R; s is the smallest integer that achieves it.  A fixed
s = 1 is not enough: on the 201^2 default grid of the 4-cat at nu = 30,
t = T_rev/32, the images reach 9.2e-10, while the rule picks s = 2 and meets
the coherent-sum closed form to 2e-15.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import ndimage

from .entropy import position_wavefunction
from .states import FockState, mean_photon_number, rotate_state
from .textfmt import SLOT, fill, float_strings, labelled_lines

DEFAULT_POINTS = 401
DEFAULT_PAD = 5.0
_SUPPORT_EPS = 1e-14  # amplitudes below this share of the largest do not widen R
_TAIL = 6.0  # the vacuum W, exp(-r^2)/pi, falls below 1e-16 at r = 6.07
_LOBE_BLUR = 0.5  # phase-space scale of the coarse-graining that counts lobes
_LOBE_LEVEL = 0.5  # share of the coarse-grained maximum a lobe rises above


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


def wigner_field(state: FockState, grid: PhaseSpaceGrid | None = None) -> PhaseSpaceField:
    """Wigner function on a rectangular grid, by the trapezoid rule in y.

    Warns when |W| on the grid boundary exceeds 1e-6, which signals that the
    grid clips the state and the normalization/marginal invariants will
    degrade.
    """
    if grid is None:
        grid = default_grid(state)
    mags = np.abs(state.amplitudes)
    top = int(np.flatnonzero(mags > _SUPPORT_EPS * mags.max()).max())
    radius = math.sqrt(2.0 * top + 1.0) + _TAIL
    ps = grid.ps()
    sub = math.ceil(grid.cell[0] * (max(-grid.p_min, grid.p_max) + radius) / math.pi)
    h = grid.cell[0] / sub
    reach = math.ceil(radius / h)
    fine = grid.x_min + h * (np.arange((grid.n_x - 1) * sub + 2 * reach + 1) - reach)
    # row i holds psi on x_i - reach h .. x_i + reach h
    rows = sliding_window_view(position_wavefunction(state, fine), 2 * reach + 1)[::sub]
    m = rows[:, reach:].conj() * rows[:, reach::-1]  # M_ij = psi*(x_i + y_j) psi(x_i - y_j)
    m[:, 1:] *= 2.0  # y_j and -y_j
    angle = np.multiply.outer(2.0 * h * np.arange(reach + 1), ps)
    values = (m.real @ np.cos(angle) - m.imag @ np.sin(angle)) * (h / np.pi)
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


def _lobe_labels(field: PhaseSpaceField):
    """Coarse-grained W, its lobe labels and the lobe count.

    Interference fringes oscillate with wavelength 2 pi / separation and
    average to zero under a blur wider than that wavelength; coherent lobes
    (unit-scale Gaussians) survive.  The blur must stay below the lobe
    separation, which holds for fringe-free counting whenever the components
    sit on a circle of radius >> 1.
    """
    cx, cp = field.grid.cell
    smooth = ndimage.gaussian_filter(field.values, sigma=(_LOBE_BLUR / cx, _LOBE_BLUR / cp))
    labels, count = ndimage.label(smooth > _LOBE_LEVEL * smooth.max())
    return smooth, labels, count


def count_lobes(field: PhaseSpaceField) -> int:
    """Number of coherent lobes: regions above half the coarse-grained maximum.

    Thresholding the raw field would fail: where several pairwise fringe
    patterns stack (the origin of a four-component superposition) raw |W|
    exceeds the lobe height several times over, so half the raw maximum can
    sit above every lobe.  After coarse-graining the lobes are the only
    survivors and the half-max threshold is meaningful.
    """
    _, _, count = _lobe_labels(field)
    return int(count)


def lobe_peaks(field: PhaseSpaceField) -> list[tuple[float, float, float]]:
    """Per-lobe (x, p, W_smooth) peak positions, strongest first.

    Peaks are taken on the coarse-grained field, whose maxima sit at the
    coherent-component centers."""
    smooth, labels, count = _lobe_labels(field)
    xs, ps = field.grid.xs(), field.grid.ps()
    peaks = []
    for lab in range(1, count + 1):
        region = np.where(labels == lab, smooth, -np.inf)
        i, j = np.unravel_index(np.argmax(region), region.shape)
        peaks.append((float(xs[i]), float(ps[j]), float(smooth[i, j])))
    peaks.sort(key=lambda t: -t[2])
    return peaks


def rotation_symmetry_defect(state: FockState, fold: int) -> float:
    """max |W(z) - W(z e^{2 pi i / fold})| over the state's default grid.

    The turned portrait is the field of the state rotated by 2 pi / fold, on
    the same grid points, so the comparison carries no interpolation error.
    """
    grid = default_grid(state)
    turned = rotate_state(state, 2.0 * np.pi / fold)
    return float(np.max(np.abs(wigner_field(state, grid).values
                               - wigner_field(turned, grid).values)))
