"""Closed-form references for the benchmark's output checks.

Nothing here imports kerrcat: every value is derived from first principles so
that a fault in the program cannot hide in its own reference.

At a rational time t = (p/q) T_rev the Kerr phase exp(-i chi n(n-1) t) =
exp(-i pi p n(n-1)/q) is periodic in n with period 2q, so a discrete Fourier
expansion turns it into a finite sum of linear phases exp(-2 pi i r n/(2q)).
A linear phase rotates a coherent state, hence the evolved order-l cat is a
finite sum of coherent states.  Wigner functions, quadrature moments and
position/momentum densities of such sums have closed forms.

Conventions: x = (a + a^dag)/sqrt(2), p = (a - a^dag)/(i sqrt(2)), chi = 1,
T_rev = pi, component labels alpha with |alpha>= exp(-|alpha|^2/2) sum
alpha^n/sqrt(n!) |n>.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


# coherent sums ----------------------------------------------------------------

def overlap(bra: np.ndarray, ket: np.ndarray) -> np.ndarray:
    """<bra|ket> for coherent labels (broadcasting)."""
    return np.exp(-0.5 * np.abs(bra) ** 2 - 0.5 * np.abs(ket) ** 2 + np.conj(bra) * ket)


def revival_components(l: int, nu: float, theta: float, frac: Fraction,
                       rel_cut: float = 1e-12) -> tuple[np.ndarray, np.ndarray]:
    """(weights, labels) of the order-l cat (h = 0) evolved to t = frac T_rev.

    The weights are normalized so that sum_ab conj(w_b) w_a <b|a> = 1.
    """
    frac = Fraction(frac)
    p, q = frac.numerator, frac.denominator
    period = 2 * q
    n = np.arange(period)
    # p n(n-1) taken mod 2q in exact integers, then exp(-i pi (.)/q)
    kerr = np.exp(-1j * np.pi * ((p * n * (n - 1)) % (2 * q)) / q)
    # kerr[n] = sum_r w_r exp(-2 pi i r n / period)
    dft = np.fft.ifft(kerr)  # ifft gives (1/P) sum_n f(n) exp(+2 pi i r n / P)
    size = l * period // math.gcd(l, period)  # angles on multiples of 2 pi / size
    acc = np.zeros(size, dtype=np.complex128)
    for s in range(l):
        for r in range(period):
            idx = (s * (size // l) - r * (size // period)) % size
            acc[idx] += dft[r]
    keep = np.flatnonzero(np.abs(acc) > rel_cut * np.abs(acc).max())
    weights = acc[keep]
    labels = math.sqrt(nu) * np.exp(1j * (theta + 2 * np.pi * keep / size))
    gram = overlap(labels[:, None], labels[None, :])
    norm2 = np.real(np.conj(weights) @ gram @ weights)
    return weights / math.sqrt(norm2), labels


# Wigner function -------------------------------------------------------------

def wigner_coherent_sum(weights: np.ndarray, labels: np.ndarray,
                        x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """W(x, p) of sum_a w_a |alpha_a>, from W of |alpha><beta| in closed form.

    W_{|a><b|}(z) = (1/pi) <b|2z - a> exp(z* a - z a*),  z = (x + i p)/sqrt(2),
    which is (1/pi) Tr[|a><b| D(2z) Parity].
    """
    z = ((np.asarray(x) + 1j * np.asarray(p)) / math.sqrt(2.0)).ravel()[:, None, None]
    a = labels[None, :, None]
    b = labels[None, None, :]
    kernel = overlap(b, 2.0 * z - a) * np.exp(np.conj(z) * a - z * np.conj(a))
    pair = weights[:, None] * np.conj(weights)[None, :]
    w = np.real(np.sum(kernel * pair[None, :, :], axis=(1, 2))) / math.pi
    return w.reshape(np.shape(x))


# quadrature moments -----------------------------------------------------------

def normal_ordered(observable: str, m: int) -> list[tuple[complex, int, int]]:
    """Terms (c, i, j) with x^m or p^m = sum c a^dag^i a^j.

    From exp(lam (a +- a^dag)) = exp(+-lam a^dag) exp(lam a) exp(+-lam^2/2).
    """
    sign = 1.0 if observable == "x" else -1.0
    prefactor = 2.0 ** (-m / 2) * (1.0 if observable == "x" else (1j) ** (-m))
    terms: dict[tuple[int, int], complex] = {}
    for k in range(m // 2 + 1):
        outer = math.factorial(m) / (math.factorial(k) * math.factorial(m - 2 * k)) * (sign / 2) ** k
        jj = m - 2 * k
        for i in range(jj + 1):
            c = outer * math.comb(jj, i) * sign**i
            terms[(i, jj - i)] = terms.get((i, jj - i), 0.0) + prefactor * c
    return [(c, i, j) for (i, j), c in terms.items() if c != 0]


def moment_coherent_sum(weights: np.ndarray, labels: np.ndarray, observable: str, m: int) -> float:
    """<x^m> or <p^m> of sum_a w_a |alpha_a>: <b| :f(a^dag, a): |a> = <b|a> f(b*, a)."""
    pair = np.conj(weights)[:, None] * weights[None, :] * overlap(labels[:, None], labels[None, :])
    bra = np.conj(labels)[:, None]
    ket = labels[None, :]
    total = 0.0 + 0.0j
    for c, i, j in normal_ordered(observable, m):
        total += c * np.sum(pair * bra**i * ket**j)
    return float(total.real)


def _ladder_coherent(alpha: complex, r: int, s: int, t: np.ndarray) -> np.ndarray:
    """<a^dag^r a^(r+s)>(t) for an initial coherent state, chi = 1.

    Summing the Poisson series of the evolved amplitudes gives
    nu^r alpha^s exp(-i (s^2 - s + 2 r s) t) exp(nu (exp(-2 i s t) - 1)).
    """
    nu = abs(alpha) ** 2
    return (nu**r * alpha**s * np.exp(-1j * (s * s - s + 2 * r * s) * t)
            * np.exp(nu * (np.exp(-2j * s * t) - 1.0)))


def moment_coherent_series(alpha: complex, observable: str, m: int, fractions: np.ndarray) -> np.ndarray:
    """<x^m>(t) or <p^m>(t) for an initial coherent state at t = fractions * T_rev."""
    t = np.asarray(fractions, dtype=np.float64) * math.pi
    total = np.zeros(t.shape, dtype=np.complex128)
    for c, i, j in normal_ordered(observable, m):
        if j >= i:
            total += c * _ladder_coherent(alpha, i, j - i, t)
        else:
            total += c * np.conj(_ladder_coherent(alpha, j, i - j, t))
    return total.real


# burst schedule ---------------------------------------------------------------

def burst_schedule(l: int, m: int, stop: Fraction) -> list[Fraction]:
    """Times in (0, stop], below 1, where a damping branch of <x^m> releases.

    <a^dag^r a^(r+s)> enters x^m when s <= m and s = m (mod 2); the cat's
    photon support keeps only l | s.  The pair of components an angle
    2 pi d / l apart contributes exp(-nu (1 - cos(2 pi (s f - d/l)))), which
    releases when s f - d/l is an integer.
    """
    out: set[Fraction] = set()
    for s in range(1, m + 1):
        if (m - s) % 2 or s % l:
            continue
        for d in range(l):
            for n in range(s + 1):
                f = Fraction(d + l * n, l * s)
                if 0 < f < 1 and f <= stop:
                    out.add(f)
    return sorted(out)


# position / momentum densities --------------------------------------------------

def wavefunctions(weights: np.ndarray, labels: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(psi(x), phi(p = x)) of the coherent sum.

    psi_alpha(x) = pi^-1/4 exp(-x^2/2 + sqrt2 alpha x - alpha^2/2 - |alpha|^2/2) is the
    generating function of the Hermite functions; phi_alpha is the same with
    alpha -> -i alpha (the Fourier transform multiplies |n> by (-i)^n).
    """
    a = labels[None, :]
    xx = x[:, None]
    base = -0.5 * xx * xx - 0.5 * np.abs(a) ** 2

    def psi(lab):
        return np.pi ** -0.25 * np.exp(base + math.sqrt(2.0) * lab * xx - 0.5 * lab * lab) @ weights

    return psi(a), psi(-1j * a)


def renyi_sum(weights: np.ndarray, labels: np.ndarray, zeta: float, eta: float,
              step: float = 0.002, pad: float = 9.0) -> float:
    """R_rho(zeta) + R_gamma(eta) by trapezoid quadrature on a fine uniform grid."""
    span = math.sqrt(2.0) * np.abs(labels).max() + pad
    half = int(math.ceil(span / step))
    x = np.linspace(-half * step, half * step, 2 * half + 1)
    psi, phi = wavefunctions(weights, labels, x)
    h = x[1] - x[0]

    def renyi(density, order):
        return math.log(h * np.sum(density**order)) / (1.0 - order)

    return renyi(np.abs(psi) ** 2, zeta) + renyi(np.abs(phi) ** 2, eta)


def renyi_bound(zeta: float, eta: float) -> float:
    """-ln(zeta/pi)/(2(1-zeta)) - ln(eta/pi)/(2(1-eta)), saturated by Gaussians."""
    return (-math.log(zeta / math.pi) / (2.0 * (1.0 - zeta))
            - math.log(eta / math.pi) / (2.0 * (1.0 - eta)))
