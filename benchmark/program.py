"""Locates the kerrcat sources of the checkout and imports them.

The benchmark runs from the root of a source checkout without installing the
package, so `src/` is put on the import path.  A checkout without the sources
is an error, never a silent fallback to some other installed copy.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"


class MissingProgram(RuntimeError):
    """Raised when the checkout holds no kerrcat sources."""


def import_kerrcat():
    """Import kerrcat from this checkout's `src/`; returns the package."""
    if not (SRC / "kerrcat" / "__init__.py").is_file():
        raise MissingProgram(f"no kerrcat sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import kerrcat  # noqa: PLC0415 - the path is only known at run time
    import kerrcat.cli  # noqa: F401,PLC0415 - loaded as the `kerrcat` command loads it

    if Path(kerrcat.__file__).resolve().parent != (SRC / "kerrcat").resolve():
        raise MissingProgram(f"imported kerrcat from {kerrcat.__file__}, not from {SRC}")
    return kerrcat
