"""Number formatting shared by the CSV and gnuplot writers.

Every float is written as '%.17g', which round-trips a double exactly, by a
C-level `%` over a template of slots, never through a Python-level f-string.
Axis strings are float renderings and never contain '%', so they need no
escaping inside a template.  A series fills one '%.17g' slot per value; a
portrait's values are rendered once into strings that fill '%s' slots of both
of its files.
"""

from __future__ import annotations

import numpy as np

SLOT = "%.17g"
# x rows rendered per '%' in `portrait_tables`; a matrix piece of 16 numbers,
# at most 399 characters, stays in Python's small-object allocator
_BLOCK_ROWS = 16


def float_strings(values: np.ndarray) -> list[str]:
    """'%.17g' rendering of every entry of a 1-D array."""
    vals = np.asarray(values, dtype=np.float64).tolist()
    if not vals:
        return []
    return ("\n".join([SLOT] * len(vals)) % tuple(vals)).split("\n")


def labelled_lines(labels: list[str], prefix: str = "", slot: str = SLOT) -> str:
    """Template of lines '{prefix}{label},{slot}', one per label, newline-separated."""
    return prefix + f",{slot}\n{prefix}".join(labels) + f",{slot}"


def fill(template: str, values: np.ndarray) -> str:
    """The template with its slots filled by the values, in order."""
    return template % tuple(values.tolist())


def portrait_tables(xs: np.ndarray, ps: np.ndarray, values: np.ndarray) -> tuple[str, str]:
    """The 'x,p,W' CSV (x-major, one line per point) and the gnuplot nonuniform
    matrix (a row of n_x and the xs, then p and W(x_i, p) for every i, per p)
    of values[i, j] = W(xs[i], ps[j]), each W formatted once.

    Each block of x rows is rendered by one '%'; its strings fill the block's
    CSV lines through '%s' templates and are joined by column into pieces of
    the matrix rows.  The CSV grows in place, so it is never held twice.
    """
    x_strs, p_strs = float_strings(xs), float_strings(ps)
    n_p = len(p_strs)
    csv = "x,p,W\n"
    pieces = [[p] for p in p_strs]  # matrix row j: p_j, then W(x_i, p_j) by blocks of i
    for start in range(0, len(x_strs), _BLOCK_ROWS):
        strs = float_strings(values[start:start + _BLOCK_ROWS].ravel())
        for r, x in enumerate(x_strs[start:start + _BLOCK_ROWS]):
            template = labelled_lines(p_strs, x + ",", "%s") + "\n"
            csv += template % tuple(strs[r * n_p:(r + 1) * n_p])
        for j, row in enumerate(pieces):
            row.append(" ".join(strs[j::n_p]))
    matrix = " ".join([str(len(x_strs))] + x_strs) + "\n"
    for j, row in enumerate(pieces):
        matrix += " ".join(row) + "\n"
        pieces[j] = None  # release each row's pieces once it is joined
    return csv, matrix
