"""Compare the vectorised '%.17g' formatter with Python's '%' on random doubles.

    python tests/textfmt_sweep.py [count] [seed]

Draws `count` (default 10^6) uniformly random 64-bit patterns from the seed
(default 0), NaN and infinity patterns included, formats them in batches of
10^5, and exits 1 on the first batch with a value whose text differs from
'%.17g' % v.  Needs numpy and the package only.
"""

from __future__ import annotations

import sys

import numpy as np

from kerrcat.textfmt import SLOT, padded_text

BATCH = 100_000


def mismatches(values: np.ndarray) -> list[tuple[float, str, str]]:
    """(value, formatter text, '%' text) for every value whose texts differ."""
    got = (row[row != 0].tobytes().decode("ascii") for row in padded_text(values))
    return [(v, g, SLOT % v) for v, g in zip(values.tolist(), got) if g != SLOT % v]


def main(argv: list[str]) -> int:
    count = int(argv[1]) if len(argv) > 1 else 1_000_000
    rng = np.random.default_rng(int(argv[2]) if len(argv) > 2 else 0)
    for done in range(0, count, BATCH):
        bits = rng.integers(0, 2**64, min(BATCH, count - done), dtype=np.uint64, endpoint=False)
        bad = mismatches(bits.view(np.float64))
        if bad:
            print(f"{len(bad)} mismatches in values {done}..{done + bits.size}, e.g. {bad[:3]}")
            return 1
    print(f"{count} random doubles formatted as '%.17g' does")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
