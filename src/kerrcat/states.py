"""Truncated Fock-space states: coherent states and multi-component cat states.

Conventions used throughout the package: a single bosonic mode with
quadratures x = (a + a^dag)/sqrt(2) and p = (a - a^dag)/(i sqrt(2)), hbar = 1.
A coherent state is labelled by alpha = sqrt(nu) exp(i theta), nu being the
mean photon number.  The multi-component cat of order l superposes l coherent
states placed evenly on the circle of radius |alpha|; with a progression
offset h its photon-number support is restricted to n = h (mod l).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_PHASE = np.pi / 4  # alpha phase used for every study in this package
TRUNCATION_EPS = 1e-12
# amplitudes below this magnitude are stored as exact zeros: their parts would
# sit near the subnormal range, where one rounding moves |c_n| by up to 1e-6
_AMPLITUDE_FLOOR = 1e-300


class TruncationError(ValueError):
    """Raised when a truncated basis is too small to hold a state."""


class DimensionMismatchError(ValueError):
    """Raised when two states do not share the same truncation dimension."""


@dataclass(frozen=True)
class FockState:
    """Normalized state vector over number states 0..n_max.

    Immutable; all operations on states are pure functions returning new
    instances, so instances may be shared freely between threads.
    """

    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.ascontiguousarray(self.amplitudes, dtype=np.complex128)
        if amp.ndim != 1 or amp.size == 0:
            raise ValueError("amplitudes must be a non-empty 1-D vector")
        if not np.all(np.isfinite(amp.view(np.float64))):
            raise ValueError("amplitudes must be finite")
        nrm = np.linalg.norm(amp)
        if abs(nrm - 1.0) > 1e-8:
            raise ValueError(f"state not normalized: |norm - 1| = {abs(nrm - 1.0):.3e}")
        amp.flags.writeable = False
        object.__setattr__(self, "amplitudes", amp)

    @property
    def n_max(self) -> int:
        return self.amplitudes.size - 1

    def norm_error(self) -> float:
        return abs(np.linalg.norm(self.amplitudes) - 1.0)


@dataclass(frozen=True)
class SuperpositionSpec:
    """Parameters of an initial l-fold coherent superposition.

    l = 1, h = 0 is an ordinary coherent state.  h picks the arithmetic
    progression n = h (mod l) of surviving number states.
    """

    l: int
    h: int = 0
    nu: float = 20.0
    theta: float = DEFAULT_PHASE

    def __post_init__(self):
        # each message begins with the name of the field it rejects; the CLI's config check relies on it
        if int(self.l) != self.l or self.l < 1:
            raise ValueError("l must be a positive integer")
        if int(self.h) != self.h or not 0 <= self.h < self.l:
            raise ValueError("h must be an integer in 0..l-1")
        if self.nu < 0:
            raise ValueError("nu must be nonnegative")
        object.__setattr__(self, "l", int(self.l))
        object.__setattr__(self, "h", int(self.h))
        object.__setattr__(self, "nu", float(self.nu))
        object.__setattr__(self, "theta", float(self.theta))

    @property
    def alpha(self) -> complex:
        return math.sqrt(self.nu) * np.exp(1j * self.theta)


def truncation_dim(nu: float, eps: float = TRUNCATION_EPS) -> int:
    """Basis size n_max with Poisson tail mass beyond it below eps.

    Returns ceil(nu + 12 sqrt(nu + 1) + 20), then verifies the Poisson tail;
    the margin absorbs the slower tail decay of superposition states built
    from the same |alpha|.
    """
    if nu < 0:
        raise ValueError("nu must be nonnegative")
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    n = int(math.ceil(nu + 12.0 * math.sqrt(nu + 1.0) + 20.0))
    while _poisson_tail(n, nu) >= eps:
        n = int(math.ceil(1.2 * n)) + 10
    return n


def _poisson_tail(n: int, nu: float) -> float:
    """P(N > n) for N ~ Poisson(nu), summed term by term above n.

    Summing the tail avoids the cancellation of 1 - cdf.  Each term comes from
    its logarithm, so terms that underflow before the mode do not stop the sum;
    it ends past the mode, where the terms fall, once one adds nothing.
    """
    if nu == 0:
        return 0.0
    total = 0.0
    k = n + 1
    log_term = -nu + k * math.log(nu) - math.lgamma(k + 1.0)
    while True:
        term = math.exp(log_term)
        total += term
        if k > nu and term <= 1e-17 * total:
            return total
        k += 1
        log_term += math.log(nu / k)


def _log_factorial(n: np.ndarray) -> np.ndarray:
    """ln(n!) for each entry of the integer array n."""
    return np.array([math.lgamma(k + 1.0) for k in n.tolist()])


def coherent_amplitudes(alpha: complex, n_max: int) -> np.ndarray:
    """Unnormalized coherent amplitudes exp(-|alpha|^2/2) alpha^n / sqrt(n!).

    Magnitudes are assembled in log space so that nu = 100, n ~ 300 stays
    far from overflow; magnitudes below 1e-300 are set to exact zero.
    """
    n = np.arange(n_max + 1)
    nu = abs(alpha) ** 2
    if nu == 0:
        amp = np.zeros(n_max + 1, dtype=np.complex128)
        amp[0] = 1.0
        return amp
    log_mag = -nu / 2 + n * math.log(abs(alpha)) - _log_factorial(n) / 2
    amp = np.exp(log_mag + 1j * n * np.angle(alpha))
    amp[np.abs(amp) < _AMPLITUDE_FLOOR] = 0.0
    return amp


def _check_tail(amp: np.ndarray, what: str) -> None:
    tail = np.sum(np.abs(amp[-10:]) ** 2)
    if tail >= TRUNCATION_EPS:
        raise TruncationError(
            f"{what}: tail mass {tail:.3e} in the top 10 basis states exceeds "
            f"{TRUNCATION_EPS:g}; increase n_max (see truncation_dim)"
        )


def coherent_state(nu: float, theta: float = DEFAULT_PHASE, n_max: int | None = None) -> FockState:
    """Coherent state |alpha>, alpha = sqrt(nu) exp(i theta), renormalized on the truncated basis."""
    if nu < 0:
        raise ValueError("nu must be nonnegative")
    if n_max is None:
        n_max = truncation_dim(nu)
    amp = coherent_amplitudes(math.sqrt(nu) * np.exp(1j * theta), n_max)
    amp = amp / np.linalg.norm(amp)
    _check_tail(amp, f"coherent_state(nu={nu})")
    return FockState(amp)


def superposed_state(spec: SuperpositionSpec, n_max: int | None = None) -> FockState:
    """Cat state of order l with offset h, built on its number-state progression.

    Amplitudes are proportional to alpha^m / sqrt(m!) on m = h (mod l) and
    exactly zero elsewhere and below 1e-300; normalization is always redone
    numerically.
    """
    if n_max is None:
        n_max = truncation_dim(spec.nu)
    amp = np.zeros(n_max + 1, dtype=np.complex128)
    m = np.arange(spec.h, n_max + 1, spec.l)
    if spec.nu == 0:
        amp[spec.h] = 1.0  # alpha -> 0 limit keeps the leading progression term
        return FockState(amp)
    log_mag = -spec.nu / 2 + m * math.log(math.sqrt(spec.nu)) - _log_factorial(m) / 2
    log_mag -= log_mag.max()  # else a tiny-nu cat (h > 0) underflows to 0 in the norm
    amp[m] = np.exp(log_mag + 1j * m * spec.theta)
    amp = amp / np.linalg.norm(amp)
    amp[np.abs(amp) < _AMPLITUDE_FLOOR] = 0.0
    _check_tail(amp, f"superposed_state(l={spec.l}, h={spec.h}, nu={spec.nu})")
    return FockState(amp)


def superposition_norm(l: int, nu: float) -> float:
    """Normalization constant N_l of the order-l cat (h = 0).

    Computed from the pairwise coherent overlaps: with omega = 2 pi / l,
    N_l = [l * sum_d exp(-nu (1 - cos(omega d))) cos(nu sin(omega d))]^(-1/2).
    """
    d = np.arange(l)
    ang = 2 * np.pi * d / l
    gram = np.exp(-nu * (1 - np.cos(ang))) * np.cos(nu * np.sin(ang))
    return float(1.0 / math.sqrt(l * gram.sum()))


def fidelity(a: FockState, b: FockState) -> float:
    """|<a|b>|^2; equals 1 iff the states match up to a global phase."""
    if a.n_max != b.n_max:
        raise DimensionMismatchError(f"n_max mismatch: {a.n_max} vs {b.n_max}")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


def rotate_state(state: FockState, phi: float) -> FockState:
    """Phase-space rotation by phi, c_n -> c_n exp(-i n phi).

    Maps a coherent state with label alpha to one with label alpha exp(-i phi),
    i.e. phi > 0 rotates clockwise.  Preserves every |c_n| up to one rounding
    of the complex product (relative ~1e-16) while the real and imaginary
    parts stay clear of the subnormal range; the state constructors store
    magnitudes below 1e-300 as exact zeros for that reason.
    """
    n = np.arange(state.amplitudes.size)
    return FockState(state.amplitudes * np.exp(-1j * n * phi))


def mean_photon_number(state: FockState) -> float:
    n = np.arange(state.amplitudes.size)
    return float(np.sum(n * np.abs(state.amplitudes) ** 2))

