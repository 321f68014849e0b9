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

A field's two files, an x-major 'x,p,W' CSV and a gnuplot nonuniform matrix,
come from one formatting pass (`textfmt.portrait_tables`): the vectorised
'%.17g' formatter writes each W once into zero-padded byte rows (Python's '%'
writes only possible rounding ties and |W| <= 1e-280), and both texts are
assembled from those rows; the writer called first holds the other text on
the field until the other writer takes it.

`count_lobes` counts the maxima of the Husimi Q above half its maximum.  Q is
W blurred by the vacuum W, a Gaussian of width 1/sqrt(2) in x and p, applied
as two banded matrices with reflecting edges (the taps and the edge rule of
`scipy.ndimage.gaussian_filter`, truncated at 4 sigma); a maximum is a point
above its 8 neighbours, a tie going to the first in raster order.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .entropy import position_wavefunction
from .states import FockState, mean_photon_number
from .textfmt import portrait_tables

DEFAULT_POINTS = 401
DEFAULT_PAD = 5.0
_SUPPORT_EPS = 1e-14  # amplitudes below this share of the largest do not widen R
_TAIL = 6.0  # the vacuum W, exp(-r^2)/pi, falls below 1e-16 at r = 6.07


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
    """Wigner values on a rectangular grid; values[i, j] = W(xs[i], ps[j]).

    `values` is read-only, so the text one writer holds for the other cannot
    go stale.  Each writer returns the same text whichever order the two run
    in and however often each is called; once both have run, the field holds
    no text.
    """

    grid: PhaseSpaceGrid
    values: np.ndarray
    _held: dict = dataclasses.field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=np.float64)
        if v.shape != (self.grid.n_x, self.grid.n_p):
            raise ValueError("values shape must be (n_x, n_p)")
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must be finite")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def integral(self) -> float:
        inner = np.trapezoid(self.values, self.grid.ps(), axis=1)
        return float(np.trapezoid(inner, self.grid.xs()))

    def to_csv(self) -> str:
        """The 'x,p,W' CSV, one line per grid point, x-major."""
        return self._take("csv")

    def to_gnuplot_matrix(self) -> str:
        """The gnuplot nonuniform matrix: n_x and the xs, then p and W(x_i, p) per p."""
        return self._take("dat")

    def _take(self, kind: str) -> str:
        text = self._held.pop(kind, None)
        if text is None:
            tables = dict(zip(("csv", "dat"),
                              portrait_tables(self.grid.xs(), self.grid.ps(), self.values)))
            text = tables.pop(kind)
            self._held.update(tables)
        return text


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


def _blur_matrix(n: int, sigma: float) -> np.ndarray:
    """(n, n) matrix of a 1-D Gaussian blur of sigma samples, truncated at 4 sigma.

    An edge reflects the signal about its outer half-sample (d c b a | a b c d),
    as often as the taps need, so every row sums to 1.
    """
    radius = int(4.0 * sigma + 0.5)
    offsets = np.arange(-radius, radius + 1)
    taps = np.exp(-0.5 / (sigma * sigma) * offsets**2)
    taps /= taps.sum()
    cols = (np.arange(n)[:, None] + offsets) % (2 * n)
    cols = np.where(cols < n, cols, 2 * n - 1 - cols)
    flat = (np.arange(n)[:, None] * n + cols).ravel()
    return np.bincount(flat, np.tile(taps, n), minlength=n * n).reshape(n, n)


def _husimi_peaks(field: PhaseSpaceField) -> tuple[np.ndarray, np.ndarray]:
    """Husimi Q of the field and the flat indices of its lobe peaks.

    Q is W convolved with the vacuum W, exp(-x^2 - p^2)/pi, a Gaussian of
    width 1/sqrt(2) in x and in p, so Q(x, p) = |<beta|psi>|^2 / (2 pi) at
    beta = (x + ip)/sqrt(2).  Each coherent component leaves a Gaussian lobe
    of unit width, and the fringes between two components a distance d apart
    fall to exp(-d^2/8) of it.  A peak is a point above half the maximum of Q
    that is strictly above its neighbours earlier in raster order and not
    below the later ones, so an exact tie counts once.
    """
    cx, cp = field.grid.cell
    width = math.sqrt(0.5)
    q = (_blur_matrix(field.grid.n_x, width / cx) @ field.values
         @ _blur_matrix(field.grid.n_p, width / cp).T)
    cols = q.shape[1] + 2
    padded = np.pad(q, 1, constant_values=-np.inf).ravel()
    top = np.flatnonzero(padded > 0.5 * q.max())
    for before in (cols + 1, cols, cols - 1, 1):  # flat offsets of the earlier neighbours
        top = top[(padded[top] > padded[top - before]) & (padded[top] >= padded[top + before])]
    return q, (top // cols - 1) * q.shape[1] + top % cols - 1


def count_lobes(field: PhaseSpaceField) -> int:
    """Number of coherent lobes: the peaks of the Husimi Q above half its maximum.

    Thresholding the raw field would fail: where several pairwise fringe
    patterns stack (the origin of a four-component superposition) raw |W|
    exceeds the lobe height several times over, so half the raw maximum can
    sit above every lobe.  In Q the lobes are the only survivors.
    """
    return len(_husimi_peaks(field)[1])
