"""Checks on Wigner portraits that only the tests use: marginals, lobe peaks
and l-fold rotation symmetry."""

import numpy as np

from kerrcat import FockState, PhaseSpaceField, rotate_state, wigner_field
from kerrcat.wigner import _lobe_labels, default_grid


def wigner_marginals(field: PhaseSpaceField) -> tuple[np.ndarray, np.ndarray]:
    """(x-density, p-density) by trapezoid integration over the other axis."""
    x_density = np.trapezoid(field.values, field.grid.ps(), axis=1)
    p_density = np.trapezoid(field.values, field.grid.xs(), axis=0)
    return x_density, p_density


def lobe_peaks(field: PhaseSpaceField) -> list[tuple[float, float, float]]:
    """Per-lobe (x, p, W_smooth) peak positions, strongest first.

    Peaks are taken on the coarse-grained field that `count_lobes` labels,
    whose maxima sit at the coherent-component centers."""
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
