"""Number formatting shared by the CSV and gnuplot writers.

Every float is written as '%.17g', which round-trips a double exactly.  One
vectorised numpy formatter writes every number, byte for byte as Python's
'%.17g' % v for any float64:

- digits: with e = floor(log10 |v|), n = |v| 10^(16 - e) is formed as a
  double-double product (Veltkamp splits of |v| and of a table of 10^k as
  hi + lo, k in [-300, 300], built from exact integers) and rounded to the
  nearest integer.  When n falls outside [10^16, 10^17), e moves by one and
  the product is formed again; a rounding up to 10^17 carries into e.
- fallback: Python's '%' writes, one value at a time, a product whose
  fraction lies within 1e-6 of 1/2 (a possible exact tie, which '%' rounds
  half to even), |v| <= 1e-280, |v| >= 1e280, non-finite values, and any
  value whose decade the one step of e does not settle (none is known).
- characters: each value becomes six 8-byte words looked up in tables (sign
  and '0.000' prefix with the leading digit, four groups of four digits, the
  'e+dd' exponent), with an empty slot after every digit for the point.  The
  trailing zeros and the unused slots are zero bytes, so the nonzero bytes of
  a value's row are its text.

A table's text is assembled from those zero-padded rows in blocks of lines,
with the separators in columns of their own, and the zero bytes dropped from
each block in one pass.
"""

from __future__ import annotations

import numpy as np

SLOT = "%.17g"
_SPLIT = 134217729.0  # 2^27 + 1: Veltkamp's splitter for 53-bit doubles
_K_MIN, _K_MAX = -300, 300
_FAST_MIN, _FAST_MAX = 1e-280, 1e280  # 10^(16 - e) stays inside the table
_TIE = 1e-6  # products this close to a half-integer go to the fallback
_CHUNK = 8192  # values formatted per pass, whose ~20 temporaries take ~1.3 MB
# x rows per CSV block and p rows per matrix block: 16 rows of 401 points are
# about 0.5 MB of padded bytes
_BLOCK_ROWS = 16
# a value's row is six 8-byte words, 48 bytes:
#   word 0: sign, the '0.000' prefix of a value below 1, the leading digit and
#           the point slot after it;
#   words 1-4: digits 2-17 in groups of four, a point slot after each digit;
#   word 5: 'e', the exponent's sign and its 2 or 3 digits.
_WORDS = 6
_NUL, _POINT = 0, ord(".")


def _split(a):
    """Veltkamp split a = hi + lo, each half with at most 26 significant bits."""
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


def _powers_of_ten():
    """10^k as hi + lo for k in [_K_MIN, _K_MAX]: hi the nearest double, lo the
    nearest double to 10^k - hi, both from exact integer arithmetic."""
    hi, lo = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        a, b = (10**k, 1) if k >= 0 else (1, 10**-k)  # 10^k = a / b
        h = a / b
        num, den = h.as_integer_ratio()
        hi.append(h)
        lo.append((a * den - num * b) / (b * den))
    hi = np.array(hi)
    return (hi, *_split(hi), np.array(lo))


_P10_HI, _P10_HH, _P10_HL, _P10_LO = _powers_of_ten()


def _word_tables():
    """Words of the row layout, built as bytes and read as uint64.

    _GROUP[q]: the 4 digits of q < 10^4, each followed by an empty point slot;
    _KEEP[c]: the mask that keeps the first c of them; _TRAILING[q]: trailing
    zero digits of q (4 for q = 0); _LEAD[5 s + c]: sign s, then the prefix
    '0.' and c - 1 zeros of a value 10^-c <= |v| < 10^(1-c) (none for c = 0);
    _EXPONENT[x + 400]: 'e', sign and digits of exponent x (empty at x = 0,
    which is never written so); _FIRST[d]: the leading digit d at byte 6 of
    word 0; _DOT[b]: the point at byte b.
    """
    q = np.arange(10_000)
    digits = np.stack([q // 1000, q // 100 % 10, q // 10 % 10, q % 10], axis=1)
    group = np.zeros((10_000, 8), dtype=np.uint8)
    group[:, 0::2] = digits + ord("0")
    keep = np.zeros((5, 8), dtype=np.uint8)
    for c in range(5):
        keep[c, 0:2 * c:2] = 0xFF
    trailing = np.zeros(10_000, dtype=np.int64)
    for i in range(4):
        trailing += np.all(digits[:, 3 - i:] == 0, axis=1)
    lead = np.zeros((2, 5, 8), dtype=np.uint8)
    lead[1, :, 0] = ord("-")
    for c in range(1, 5):
        lead[:, c, 1:c + 2] = list(b"0." + b"0" * (c - 1))
    exponent = np.frombuffer(b"".join((b"e%+03d" % x).ljust(8, b"\0") if x else bytes(8)
                                      for x in range(-400, 401)), dtype=np.uint8)
    first = np.zeros((10, 8), dtype=np.uint8)
    first[:, 6] = np.arange(10) + ord("0")
    dot = np.diag(np.full(8, _POINT, dtype=np.uint8))
    group, keep, lead, exponent, first, dot = (
        w.view(np.uint64).ravel() for w in (group, keep, lead, exponent, first, dot))
    return group, keep, trailing, lead, exponent, first, dot


_GROUP, _KEEP, _TRAILING, _LEAD, _EXPONENT, _FIRST, _DOT = _word_tables()


def _scaled(mag, mag_hi, mag_lo, e):
    """mag 10^(16 - e) rounded to the nearest integer and rounded down, and
    whether its fraction lies within _TIE of 1/2.

    The rounded-down value reads a product within 1e-9 below an integer as that
    integer: the product of an exact power of ten is an exact integer, which
    rounding errors of ~1e-14 must not move into the decade below.
    """
    k = 16 - e - _K_MIN
    th, th_hi, th_lo, tl = _P10_HI[k], _P10_HH[k], _P10_HL[k], _P10_LO[k]
    p = mag * th
    err = ((mag_hi * th_hi - p) + mag_hi * th_lo + mag_lo * th_hi) + mag_lo * th_lo
    base = np.floor(p)
    r = (p - base) + (err + mag * tl)  # mag 10^(16 - e) = base + r, r to ~1e-14
    whole = np.floor(r)
    frac = r - whole
    low = base.astype(np.int64) + whole.astype(np.int64)
    return low + (frac > 0.5), low + (frac > 1.0 - 1e-9), np.abs(frac - 0.5) < _TIE


def _digits(mag):
    """17 significant digits n in [10^16, 10^17), decimal exponent e with
    mag ~ n 10^(e - 16), and a flag for values left to the fallback (possible
    ties), for finite mag > 0."""
    mag_hi, mag_lo = _split(mag)
    e = np.floor(np.log10(mag)).astype(np.int64)
    n, low, unsure = _scaled(mag, mag_hi, mag_lo, e)
    off = np.flatnonzero((low < 10**16) | (low >= 10**17))
    if off.size:  # log10 is off by one near powers of ten; one step corrects it
        e[off] += np.where(low[off] >= 10**17, 1, -1)
        n[off], low[off], unsure[off] = _scaled(mag[off], mag_hi[off], mag_lo[off], e[off])
        unsure[off[(low[off] < 10**16) | (low[off] >= 10**17)]] = True
    carry = n == 10**17  # rounding up to 10^17 moves the exponent
    n[carry] = 10**16
    e[carry] += 1
    return n, e, unsure


def _fallback(values: list[float]) -> list[bytes]:
    """Python's own '%.17g', for the values the vectorised route leaves out."""
    return [(SLOT % v).encode() for v in values]


def _format_chunk(values: np.ndarray) -> np.ndarray:
    """(n, 6) uint64 rows, one per value, whose nonzero bytes are '%.17g' % v."""
    v = np.asarray(values, dtype=np.float64).ravel()
    mag = np.abs(v)
    in_range = (mag > _FAST_MIN) & (mag < _FAST_MAX)
    n, e, unsure = _digits(np.where(in_range, mag, 1.0))
    top = n // 10**8  # the leading digit and the next 8; the other 8 below
    bottom = n - top * 10**8
    first = top // 10**8
    groups = []
    for part in (top - first * 10**8, bottom):
        high = part // 10**4
        groups += [high, part - high * 10**4]
    trailing = _TRAILING[groups[3]]
    for i, g in enumerate(groups[2::-1], 1):  # a group counts once those after it are all zero
        trailing += np.where(trailing == 4 * i, _TRAILING[g], 0)
    sig = 17 - trailing  # significant digits; the first one is nonzero
    sci = (e < -4) | (e >= 17)
    below = ~sci & (e < 0)
    whole = np.where(sci, 1, np.clip(e + 1, 0, None))  # digits before the point
    shown = np.maximum(sig, whole)  # digits written: no trailing zero after the point
    words = np.empty((v.size, _WORDS), dtype=np.uint64)
    neg = 5 * np.signbit(v).view(np.int8)
    words[:, 0] = _LEAD[neg + np.where(below, -e, 0)] + _FIRST[first]
    for i, g in enumerate(groups):
        words[:, 1 + i] = _GROUP[g] & _KEEP[np.clip(shown - 1 - 4 * i, 0, 4)]
    words[:, 5] = _EXPONENT[np.where(sci, e, 0) + 400]
    # the point follows digit whole - 1: the last byte of word 0 for whole = 1,
    # else the slot after that digit in words 1-4
    at = np.flatnonzero((whole >= 1) & (sig > whole))
    d = whole[at] - 1
    word = np.where(d == 0, 0, 1 + (d - 1) // 4)
    words.reshape(-1)[_WORDS * at + word] += _DOT[np.where(d == 0, 7, 2 * ((d - 1) % 4) + 1)]
    zero = np.flatnonzero(mag == 0)
    words[zero] = 0
    words[zero, 0] = _LEAD[neg[zero]] + _FIRST[0]
    row_bytes = words.view(np.uint8)
    slow = np.flatnonzero((mag != 0) & (~in_range | unsure))
    for i, text in zip(slow.tolist(), _fallback(v[slow].tolist())):
        row_bytes[i] = _NUL
        row_bytes[i, :len(text)] = np.frombuffer(text, dtype=np.uint8)
    return words


def padded_text(values: np.ndarray) -> np.ndarray:
    """'%.17g' text of each value as a uint8 row padded with zero bytes,
    formatted in chunks of _CHUNK; columns that are zero in every row are dropped."""
    v = np.asarray(values, dtype=np.float64).ravel()
    words = np.empty((v.size, _WORDS), dtype=np.uint64)
    used = np.zeros(_WORDS, dtype=np.uint64)
    for lo in range(0, v.size, _CHUNK):
        chunk = words[lo:lo + _CHUNK]
        chunk[...] = _format_chunk(v[lo:lo + _CHUNK])
        used |= np.bitwise_or.reduce(chunk, axis=0)
    return np.take(words.view(np.uint8), np.flatnonzero(used.view(np.uint8)), axis=1)


def _text(block: np.ndarray) -> str:
    """The nonzero bytes of a block, as ASCII text."""
    return block.tobytes().translate(None, b"\0").decode("ascii")


def _joined(parts: list[tuple[np.ndarray, str]], lines: tuple[int, ...]) -> np.ndarray:
    """A block of lines of the given fields, each followed by its separator; the
    field arrays broadcast against lines + (width,)."""
    block = np.empty(lines + (sum(f.shape[-1] + 1 for f, _ in parts),), dtype=np.uint8)
    col = 0
    for f, sep in parts:
        block[..., col:col + f.shape[-1]] = f
        block[..., col + f.shape[-1]] = ord(sep)
        col += f.shape[-1] + 1
    return block


def series_table(fractions: np.ndarray, values: np.ndarray) -> str:
    """Lines 'f,v' of a time series, each ending in a newline."""
    return _text(_joined([(padded_text(fractions), ","), (padded_text(values), "\n")],
                           (len(fractions),)))


def _matrix_rows(first: np.ndarray, cells: np.ndarray) -> str:
    """Lines 'first_r cells_r0 cells_r1 ...' for first (rows, w1) and cells
    (rows, k, w2), fields separated by spaces."""
    width = max(first.shape[-1], cells.shape[-1])
    block = np.zeros((len(first), cells.shape[1] + 1, width + 1), dtype=np.uint8)
    block[:, 0, :first.shape[-1]] = first
    block[:, 1:, :cells.shape[-1]] = cells
    block[:, :, width] = ord(" ")
    block[:, -1, width] = ord("\n")
    return _text(block)


def portrait_tables(xs: np.ndarray, ps: np.ndarray, values: np.ndarray) -> tuple[str, str]:
    """The 'x,p,W' CSV (x-major, one line per point) and the gnuplot nonuniform
    matrix (a row of n_x and the xs, then p and W(x_i, p) for every i, per p)
    of values[i, j] = W(xs[i], ps[j]), each W formatted once.

    The formatted W are held once, as zero-padded rows; the CSV is built from
    them by blocks of x rows and the matrix by blocks of p rows.  Each text
    grows in place, so it is never held twice.
    """
    x_f, p_f = padded_text(xs), padded_text(ps)
    n_x, n_p = len(x_f), len(p_f)
    w_f = padded_text(values).reshape(n_x, n_p, -1)
    csv = "x,p,W\n"
    for lo in range(0, n_x, _BLOCK_ROWS):
        rows = min(_BLOCK_ROWS, n_x - lo)
        csv += _text(_joined([(x_f[lo:lo + rows, None], ","), (p_f, ","),
                              (w_f[lo:lo + rows], "\n")], (rows, n_p)))
    count = np.frombuffer(str(n_x).encode(), dtype=np.uint8)
    matrix = _matrix_rows(count[None], x_f[None])
    for lo in range(0, n_p, _BLOCK_ROWS):
        matrix += _matrix_rows(p_f[lo:lo + _BLOCK_ROWS],
                               w_f[:, lo:lo + _BLOCK_ROWS].transpose(1, 0, 2))
    return csv, matrix


def edge_values() -> np.ndarray:
    """Doubles at the edges of the formatter's routes, and their negatives.

    Zero; subnormals; 10^k and 2^k over the whole double range with both
    neighbours, which hold the 1e-5/1e-4 and 1e16/1e17 notation edges, the
    fallback bounds and the values whose 17 digits carry to 10^17 (1e-14 is
    one); and exact ties at the 18th significant digit, m / 2^d with m odd and
    d = 2..25 (2.0917557487171307e15 = 8367022994868523 / 4 is one).
    """
    base = np.concatenate([[float(f"1e{k}") for k in range(-323, 309)],
                           np.ldexp(1.0, np.arange(-1074, 1024)),
                           [2.5e-310, 2.2250738585072009e-308]])
    ties = [2.0917557487171307e15]
    for d in range(2, 26):
        # m / 2^d has d decimals, so 18 significant digits in [10^(17-d), 10^(18-d))
        lo, hi = -(-10**17 // 5**d), min(10**18 // 5**d, 2**53)
        ties += [(m | 1) / 2**d for m in (lo, (lo + hi) // 2, hi - 2)]
    values = np.concatenate([[0.0], base, np.nextafter(base, 0), np.nextafter(base, np.inf), ties])
    return np.concatenate([values, -values])
