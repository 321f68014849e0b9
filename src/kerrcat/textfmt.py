"""Number formatting shared by the CSV and gnuplot writers.

Every float is written as '%.17g', which round-trips a double exactly.  The
writers format each axis once into strings, join those into a %-template
holding one '%.17g' slot per value of an output row, and fill the template
with a single C-level `%` over the row's values, so no number passes through
a Python-level f-string.  Axis strings are float renderings and never
contain '%', so they need no escaping inside a template.
"""

from __future__ import annotations

import numpy as np

SLOT = "%.17g"


def float_strings(values: np.ndarray) -> list[str]:
    """'%.17g' rendering of every entry of a 1-D array."""
    vals = np.asarray(values, dtype=np.float64).tolist()
    if not vals:
        return []
    return ("\n".join([SLOT] * len(vals)) % tuple(vals)).split("\n")


def labelled_lines(labels: list[str], prefix: str = "") -> str:
    """Template of lines '{prefix}{label},%.17g', one per label, newline-separated."""
    return prefix + f",{SLOT}\n{prefix}".join(labels) + f",{SLOT}"


def fill(template: str, values: np.ndarray) -> str:
    """The template with its slots filled by the values, in order."""
    return template % tuple(values.tolist())
