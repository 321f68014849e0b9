"""Checks on Wigner portraits that only the tests use: marginals, lobe peaks
and l-fold rotation symmetry."""

import numpy as np

from kerrcat import FockState, PhaseSpaceField, rotate_state, wigner_field
from kerrcat.wigner import _husimi_peaks, default_grid


def wigner_marginals(field: PhaseSpaceField) -> tuple[np.ndarray, np.ndarray]:
    """(x-density, p-density) by trapezoid integration over the other axis."""
    x_density = np.trapezoid(field.values, field.grid.ps(), axis=1)
    p_density = np.trapezoid(field.values, field.grid.xs(), axis=0)
    return x_density, p_density


def lobe_peaks(field: PhaseSpaceField) -> list[tuple[float, float, float]]:
    """Per-lobe (x, p, Q) peak positions, strongest first.

    Peaks are the maxima of the Husimi Q that `count_lobes` counts, which sit
    at the coherent-component centers."""
    q, peaks = _husimi_peaks(field)
    peaks = peaks[np.argsort(-q.flat[peaks], kind="stable")]
    xs, ps = field.grid.xs(), field.grid.ps()
    return [(float(xs[i]), float(ps[j]), float(q[i, j]))
            for i, j in zip(*np.unravel_index(peaks, q.shape))]


def rotation_symmetry_defect(state: FockState, fold: int) -> float:
    """max |W(z) - W(z e^{2 pi i / fold})| over the state's default grid.

    The turned portrait is the field of the state rotated by 2 pi / fold, on
    the same grid points, so the comparison carries no interpolation error.
    """
    grid = default_grid(state)
    turned = rotate_state(state, 2.0 * np.pi / fold)
    return float(np.max(np.abs(wigner_field(state, grid).values
                               - wigner_field(turned, grid).values)))
