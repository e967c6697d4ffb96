"""Harmonic-oscillator basis of adjustable frequency and exact matrix elements.

The basis functions are

    phi_n(x) = N_n exp(-alpha^2 x^2 / 2) H_n(alpha x),   alpha = sqrt(omega),

with N_n = (alpha / (2^n n! sqrt(pi)))^(1/2).  In this basis x is the
tridiagonal ladder

    x_{n,l} = (sqrt(l) delta_{n,l-1} + sqrt(n) delta_{l,n-1}) / sqrt(2 omega),

so a polynomial P(x) of degree p has half bandwidth p.  Its matrix elements
are built exactly in band storage by Horner's rule, p rounds of the ladder
on an index range enlarged by p on each side, so that truncation never
corrupts the returned block (a hopping path of length at most p cannot
leave the enlarged range and return).  The basis makes
p^2/2 = omega (n + 1/2) - (omega^2/2) x^2, so the Hamiltonian H = p^2/2 + V
is omega (n + 1/2) on the diagonal plus one such polynomial, of half
bandwidth deg V; it stays in band storage, which is what the eigensolver
takes, and no dense matrix is formed.  The evolution's <x> and <x^2> are
read from the bands of two more polynomials.  The tests check every element
against a closed-form summation and a Gauss-Hermite rule.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .potential import PolynomialPotential, _shifted_coeffs

__all__ = [
    "BasisConfig",
    "HamiltonianMatrix",
    "assemble_hamiltonian",
    "basis_functions",
]


@dataclass(frozen=True)
class BasisConfig:
    """Truncated oscillator basis: dimension, frequency, shift, and center.

    dim    -- number of retained basis functions N
    omega  -- basis frequency (must be positive); alpha^2 in the exponent
    sigma  -- coordinate shift applied to the potential before assembly
    center -- lowest global basis index of the block (0 for the usual case);
              a nonzero center selects indices [center, center+dim) to target
              highly excited states without enlarging the matrix
    """

    dim: int
    omega: float
    sigma: float = 0.0
    center: int = 0

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"basis dimension must be >= 1, got {self.dim}")
        if not (self.omega > 0.0 and math.isfinite(self.omega)):
            raise ValueError(f"basis frequency must be positive and finite, got {self.omega}")
        if not math.isfinite(self.sigma):
            raise ValueError(f"basis shift must be finite, got {self.sigma}")
        if self.center < 0:
            raise ValueError(f"basis center must be >= 0, got {self.center}")


@dataclass(frozen=True)
class HamiltonianMatrix:
    """Symmetric Hamiltonian block in LAPACK lower band storage.

    bands[k, i] = H[i, i+k] = H[i+k, i] for k = 0..kd, with zeros past the
    block edge (i + k >= dim); symmetric by construction.
    """

    bands: np.ndarray
    config: BasisConfig

    def __post_init__(self):
        if self.bands.ndim != 2 or self.bands.shape[1] != self.config.dim:
            raise ValueError(
                f"expected bands of shape (kd+1, {self.config.dim}), got {self.bands.shape}"
            )
        self.bands.flags.writeable = False


def _check_omega(omega: float):
    if not (omega > 0.0 and math.isfinite(omega)):
        raise ValueError(f"basis frequency must be positive and finite, got {omega}")


def _polynomial_bands(coeffs, omega: float, dim: int, center: int) -> np.ndarray:
    """Upper bands out[k, i] = P(x)_{center+i, center+i+k}, k = 0..p, of
    P(x) = sum_j coeffs[j] x^j with p = len(coeffs) - 1.

    Horner's rule in band storage on the global index range
    [max(0, center-p), center+dim+p): from coeffs[p] on the diagonal, each of
    p rounds applies the tridiagonal ladder once and adds the next coefficient
    on the diagonal.  A hopping path of length at most p cannot leave that
    range and return, so the block is exact.  Each round costs
    O((dim + 2p) p); entries past the block edge (i + k >= dim) are zero.
    """
    p = len(coeffs) - 1
    lo = max(0, center - p)
    m = center + dim + p - lo
    # hop[r, i] = x_{i+s, i+s+1} on the enlarged range, s = r - (p+1); 0 outside
    up = np.zeros(m + 2 * p + 2)
    up[p + 1:p + m] = np.sqrt(np.arange(lo + 1, lo + m)) / math.sqrt(2.0 * omega)
    hop = np.lib.stride_tricks.sliding_window_view(up, m)[:2 * p + 3]
    # band[r, i] = P_q(x)_{i, i+r-(p+1)} for the partial polynomial P_q;
    # rows 0 and 2p+2 stay zero
    band = np.zeros((2 * p + 3, m))
    band[p + 1] = coeffs[p]
    for c in coeffs[-2::-1]:
        band[1:-1] = band[:-2] * hop[:-2] + band[2:] * hop[1:-1]
        band[p + 1] += c
    a = center - lo
    out = band[p + 1:2 * p + 2, a:a + dim].copy()
    for k in range(1, p + 1):
        out[k, max(dim - k, 0):] = 0.0
    return out


@functools.lru_cache(maxsize=64)
def _block_moments(dim: int, center: int, degree: int) -> tuple[float, ...]:
    """Block moments D_j = sum_n (x^j)_{n,n} omega^(j/2), n in [center, center+dim).

    One float per even j in 2..degree, each summed exactly and rounded once:
    (x^j)_{n,n} omega^(j/2) = sum_{k<=j/2} j! / (2^(j-k) (j/2-k)! (k!)^2) n^(k)
    in falling factorials n^(k) = n (n-1) ... (n-k+1), and
    sum_{n=c}^{c+N-1} n^(k) = ((c+N)^(k+1) - c^(k+1)) / (k+1).
    """
    out = []
    for j in range(2, degree + 1, 2):
        r = j // 2
        total = Fraction(0)
        for k in range(r + 1):
            # math.perm(x, k) is the falling factorial x^(k), 0 when k > x
            block_sum = math.perm(center + dim, k + 1) - math.perm(center, k + 1)
            total += Fraction(math.factorial(j) * block_sum,
                              2**(j - k) * math.factorial(r - k) * math.factorial(k)**2 * (k + 1))
        out.append(float(total))
    return tuple(out)


def assemble_hamiltonian(pot: PolynomialPotential, cfg: BasisConfig) -> HamiltonianMatrix:
    """Hamiltonian block H = p^2/2 + V(x + sigma) in the configured basis.

    The shift is applied to the potential coefficients exactly.  The basis
    makes p^2/2 = omega (n + 1/2) - (omega^2/2) x^2, so H is omega (n + 1/2)
    on the diagonal plus the polynomial V(x + sigma) - (omega^2/2) x^2, whose
    bands come from one Horner pass.  H has half bandwidth kd = deg V >= 2;
    the (kd+1) x dim bands are trimmed to at most dim rows and returned as is.
    """
    coeffs = _shifted_coeffs(pot.coeffs, cfg.sigma)
    coeffs[2] -= 0.5 * cfg.omega * cfg.omega
    bands = _polynomial_bands(coeffs, cfg.omega, cfg.dim, cfg.center)
    bands[0] += cfg.omega * (cfg.center + np.arange(cfg.dim) + 0.5)
    return HamiltonianMatrix(bands=bands[:cfg.dim], config=cfg)


def basis_functions(nmax: int, omega: float, x) -> np.ndarray:
    """Values phi_n(x) for n = 0..nmax-1, shape (nmax, len(x)).

    phi_n(x) = sqrt(alpha) h_n(alpha x), with h_n the normalized Hermite
    functions of the three-term recurrence

        h_0(y) = pi^(-1/4) exp(-y^2/2),   h_1(y) = sqrt(2) y h_0(y),
        h_{n+1}(y) = y sqrt(2/(n+1)) h_n(y) - sqrt(n/(n+1)) h_{n-1}(y).

    No factorials are formed, and every row stays O(1) times h_0.
    """
    _check_omega(omega)
    alpha = math.sqrt(omega)
    y = alpha * np.atleast_1d(np.asarray(x, dtype=float))
    vals = np.zeros((nmax, y.size))
    vals[0] = math.pi**-0.25 * np.exp(-0.5 * y * y)
    if nmax > 1:
        vals[1] = math.sqrt(2.0) * y * vals[0]
        for n in range(1, nmax - 1):
            vals[n + 1] = y * math.sqrt(2.0 / (n + 1)) * vals[n] - math.sqrt(n / (n + 1.0)) * vals[n - 1]
    return math.sqrt(alpha) * vals
