"""Harmonic-oscillator basis of adjustable frequency and exact matrix elements.

The basis functions are

    phi_n(x) = N_n exp(-alpha^2 x^2 / 2) H_n(alpha x),   alpha = sqrt(omega),

with N_n = (alpha / (2^n n! sqrt(pi)))^(1/2).  In this basis x is the
tridiagonal ladder

    x_{n,l} = (sqrt(l) delta_{n,l-1} + sqrt(n) delta_{l,n-1}) / sqrt(2 omega),

so x^p has half bandwidth p and H = p^2/2 + V has half bandwidth
max(deg V, 2).  Matrix elements of x^p are built exactly in band storage by
applying the ladder p times on an index range enlarged by p on each side, so
that truncation never corrupts the returned block (a length-p hopping path
cannot leave the enlarged range and return).  The Hamiltonian is summed band
by band and stays in that band storage; a dense copy is formed only where a
caller asks for one.  The tests check every element against a closed-form
summation and Gauss-Hermite quadrature.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .potential import PolynomialPotential

__all__ = [
    "BasisConfig",
    "HamiltonianMatrix",
    "position_power_matrix",
    "momentum_squared_matrix",
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

    def dense(self) -> np.ndarray:
        """The full dim x dim matrix, exactly symmetric."""
        return _densify(self.bands)


def _check_omega(omega: float):
    if not (omega > 0.0 and math.isfinite(omega)):
        raise ValueError(f"basis frequency must be positive and finite, got {omega}")


def _power_bands(p: int, omega: float, dim: int, center: int) -> np.ndarray:
    """Upper bands out[k, i] = (x^p)_{center+i, center+i+k}, k = 0..p.

    The tridiagonal ladder is applied p times to the identity, in band
    storage, on the global index range [max(0, center-p), center+dim+p):
    a length-p hopping path cannot leave that range and return, so the
    block is exact.  Cost O((dim + 2p) p^2); entries past the block edge
    (i + k >= dim) are zero.
    """
    lo = max(0, center - p)
    m = center + dim + p - lo
    # hop[r, i] = x_{i+s, i+s+1} on the enlarged range, s = r - (p+1); 0 outside
    up = np.zeros(m + 2 * p + 2)
    up[p + 1:p + m] = np.sqrt(np.arange(lo + 1, lo + m)) / math.sqrt(2.0 * omega)
    hop = np.lib.stride_tricks.sliding_window_view(up, m)[:2 * p + 3]
    # band[r, i] = (x^q)_{i, i+r-(p+1)}; rows 0 and 2p+2 stay zero
    band = np.zeros((2 * p + 3, m))
    band[p + 1] = 1.0
    for _ in range(p):
        band[1:-1] = band[:-2] * hop[:-2] + band[2:] * hop[1:-1]
    a = center - lo
    out = band[p + 1:2 * p + 2, a:a + dim].copy()
    for k in range(1, p + 1):
        out[k, max(dim - k, 0):] = 0.0
    return out


def _densify(bands: np.ndarray) -> np.ndarray:
    """Symmetric dense matrix from upper bands out[k, i] = M_{i, i+k}."""
    dim = bands.shape[1]
    out = np.zeros((dim, dim))
    idx = np.arange(dim)
    for k in range(min(bands.shape[0], dim)):
        out[idx[:dim - k], idx[k:]] = bands[k, :dim - k]
        out[idx[k:], idx[:dim - k]] = bands[k, :dim - k]
    return out


def position_power_matrix(p: int, omega: float, dim: int, center: int = 0) -> np.ndarray:
    """Exact matrix elements (x^p)_{n,l} for n, l in [center, center+dim).

    Parameters
    ----------
    p : int
        Non-negative power of the position operator.
    omega : float
        Basis frequency, > 0.
    dim : int
        Block dimension.
    center : int
        Lowest global index of the block.

    Returns
    -------
    ndarray of shape (dim, dim), exactly symmetric, banded with half
    bandwidth p, and with exact zeros wherever p + n + l is odd.
    """
    _check_omega(omega)
    if p < 0:
        raise ValueError(f"power must be >= 0, got {p}")
    if p == 0:
        return np.eye(dim)
    return _densify(_power_bands(p, omega, dim, center))


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


def _momentum_squared_bands(omega: float, dim: int, center: int) -> np.ndarray:
    """Upper bands of p^2: diagonal omega*(2n+1)/2, second off-diagonal
    -(omega/2)*sqrt((n+1)(n+2)); the first vanishes by parity."""
    n = center + np.arange(dim)
    out = np.zeros((3, dim))
    out[0] = omega * (2.0 * n + 1.0) / 2.0
    m = n[:-2]
    out[2, :m.size] = -(omega / 2.0) * np.sqrt((m + 1.0) * (m + 2.0))
    return out


def momentum_squared_matrix(omega: float, dim: int, center: int = 0) -> np.ndarray:
    """Matrix of p^2, pentadiagonal with a zero first off-diagonal."""
    _check_omega(omega)
    return _densify(_momentum_squared_bands(omega, dim, center))


def assemble_hamiltonian(pot: PolynomialPotential, cfg: BasisConfig) -> HamiltonianMatrix:
    """Hamiltonian block H = p^2/2 + V(x + sigma) in the configured basis.

    The shift is applied to the potential coefficients exactly.  H is banded
    with half bandwidth kd = max(degree, 2): the kinetic bands (offsets 0 and
    2) and kappa_j times the bands of each x^j are summed into one
    (kd+1) x dim array, trimmed to at most dim rows, and returned as is.
    """
    shifted = pot.shift(cfg.sigma) if cfg.sigma != 0.0 else pot
    bands = np.zeros((max(shifted.degree, 2) + 1, cfg.dim))
    bands[:3] = 0.5 * _momentum_squared_bands(cfg.omega, cfg.dim, cfg.center)
    if shifted.coeffs[0] != 0.0:
        bands[0] += shifted.coeffs[0]
    for j, kj in enumerate(shifted.coeffs):
        if j == 0 or kj == 0.0:
            continue
        bands[:j + 1] += kj * _power_bands(j, cfg.omega, cfg.dim, cfg.center)
    return HamiltonianMatrix(bands=bands[:cfg.dim], config=cfg)


def _hermite_rows(nmax: int, y: np.ndarray, h0: np.ndarray) -> np.ndarray:
    """Rows h_0..h_{nmax-1} of the normalized Hermite recurrence at points y.

        h_1(y) = sqrt(2) y h_0(y),
        h_{n+1}(y) = y sqrt(2/(n+1)) h_n(y) - sqrt(n/(n+1)) h_{n-1}(y),

    started from the caller's row h0: pi^(-1/4) exp(-y^2/2) gives the
    Hermite functions, pi^(-1/4) alone their polynomial parts.  No
    factorials are formed, and every row stays O(1) times h0.
    """
    vals = np.zeros((nmax, y.size))
    vals[0] = h0
    if nmax > 1:
        vals[1] = math.sqrt(2.0) * y * vals[0]
        for n in range(1, nmax - 1):
            vals[n + 1] = y * math.sqrt(2.0 / (n + 1)) * vals[n] - math.sqrt(n / (n + 1.0)) * vals[n - 1]
    return vals


def basis_functions(nmax: int, omega: float, x) -> np.ndarray:
    """Values phi_n(x) for n = 0..nmax-1, shape (nmax, len(x)).

    phi_n(x) = sqrt(alpha) h_n(alpha x), with h_n the normalized Hermite
    functions from the three-term recurrence of _hermite_rows.
    """
    _check_omega(omega)
    alpha = math.sqrt(omega)
    y = alpha * np.atleast_1d(np.asarray(x, dtype=float))
    return math.sqrt(alpha) * _hermite_rows(nmax, y, math.pi**-0.25 * np.exp(-0.5 * y * y))
