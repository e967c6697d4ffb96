"""Harmonic-oscillator basis of adjustable frequency and exact matrix elements.

The basis functions are

    phi_n(x) = N_n exp(-alpha^2 x^2 / 2) H_n(alpha x),   alpha = sqrt(omega),

with N_n = (alpha / (2^n n! sqrt(pi)))^(1/2).  Matrix elements of x^p are
built exactly from the tridiagonal ladder matrix

    x_{n,l} = (sqrt(l) delta_{n,l-1} + sqrt(n) delta_{l,n-1}) / sqrt(2 omega)

raised to the p-th power on an index range enlarged by p on each side, so
that truncation never corrupts the returned block (a length-p hopping path
cannot leave the enlarged range and return).  A closed-form summation for the
same elements is kept as an independent cross-check; both must agree with
Gauss-Hermite quadrature.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .potential import PolynomialPotential

__all__ = [
    "BasisConfig",
    "HamiltonianMatrix",
    "position_power_matrix",
    "position_power_closed_form",
    "position_power_diagonal",
    "momentum_squared_matrix",
    "assemble_hamiltonian",
    "basis_function_value",
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
    """Dense symmetric Hamiltonian block with its generating configuration."""

    entries: np.ndarray
    config: BasisConfig
    potential: PolynomialPotential

    def __post_init__(self):
        self.entries.flags.writeable = False


def _check_omega(omega: float):
    if not omega > 0.0:
        raise ValueError(f"basis frequency must be positive, got {omega}")


def _ladder_matrix(omega: float, lo: int, hi: int) -> np.ndarray:
    """Position operator on global basis indices [lo, hi)."""
    idx = np.arange(lo + 1, hi)
    off = np.sqrt(idx) / math.sqrt(2.0 * omega)
    return np.diag(off, 1) + np.diag(off, -1)


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
    lo = max(0, center - p)
    hi = center + dim + p
    full = np.linalg.matrix_power(_ladder_matrix(omega, lo, hi), p)
    a = center - lo
    block = full[a:a + dim, a:a + dim]
    # bitwise-symmetric regardless of the multiplication order inside matrix_power
    return (block + block.T) / 2.0


def position_power_closed_form(p: int, omega: float, dim: int, center: int = 0) -> np.ndarray:
    """Closed-form summation for (x^p)_{n,l}; independent of the ladder product.

    For l - n = 2*lam (p = 2r even) or l - n = 2*lam + 1 (p = 2r+1 odd),
    lam >= 0 and r >= lam,

        (x^p)_{n,l} = sqrt(n! l!) / alpha^p *
            sum_k  p! / (2^(p-k-lam-e/2) (r-lam-k)! (n-k)! (2lam+e+k)! k!)

    with e = p mod 2 and k running to min(n, r-lam); all other elements
    vanish.  The alpha^p denominator is the convention that reproduces
    (x^2)_{00} = 1/(2 omega); terms are accumulated through log-gamma so
    factorials of large indices never appear explicitly.
    """
    _check_omega(omega)
    if p < 0:
        raise ValueError(f"power must be >= 0, got {p}")
    out = np.zeros((dim, dim))
    e = p % 2
    r = (p - e) // 2
    log_alpha_p = 0.5 * p * math.log(omega)
    for i in range(dim):
        n = center + i
        for j in range(i, dim):
            l = center + j
            if (l - n) % 2 != e:
                continue
            lam = (l - n - e) // 2
            if lam > r:
                continue
            kmax = min(n, r - lam)
            ks = np.arange(kmax + 1)
            logt = (
                gammaln(p + 1)
                - (p - ks - lam - 0.5 * e) * math.log(2.0)
                - gammaln(r - lam - ks + 1)
                - gammaln(n - ks + 1)
                - gammaln(2 * lam + e + ks + 1)
                - gammaln(ks + 1)
            )
            logpre = 0.5 * (gammaln(n + 1) + gammaln(l + 1)) - log_alpha_p
            val = float(np.sum(np.exp(logt + logpre)))
            out[i, j] = val
            out[j, i] = val
    return out


def position_power_diagonal(p: int, omega: float, n: np.ndarray) -> np.ndarray:
    """Diagonal elements (x^p)_{n,n} for an array of global indices n.

    Zero for odd p by parity.  Used by the trace path, which must not build
    whole matrices; the low even powers carry explicit polynomial forms
    because optimizers call this in a tight loop.
    """
    _check_omega(omega)
    n = np.asarray(n, dtype=int)
    if p < 0:
        raise ValueError(f"power must be >= 0, got {p}")
    if p == 0:
        return np.ones(n.shape)
    if p % 2 == 1:
        return np.zeros(n.shape)
    if p == 2:
        return (2.0 * n + 1.0) / (2.0 * omega)
    if p == 4:
        return 3.0 * (2.0 * n * n + 2.0 * n + 1.0) / (4.0 * omega**2)
    if p == 6:
        return (2.5 * n**3 + 3.75 * n**2 + 5.0 * n + 1.875) / omega**3
    if p == 8:
        return (4.375 * n**4 + 8.75 * n**3 + 21.875 * n**2 + 17.5 * n
                + 6.5625) / omega**4
    r = p // 2
    ks = np.arange(r + 1)
    # summand: p! n! / (2^(p-k) (r-k)! (n-k)! (k!)^2), truncated at k <= n
    logt = (
        gammaln(p + 1)
        - (p - ks)[None, :] * math.log(2.0)
        - gammaln(r - ks + 1)[None, :]
        + gammaln(n + 1)[:, None]
        - gammaln(np.maximum(n[:, None] - ks[None, :], 0) + 1)
        - 2.0 * gammaln(ks + 1)[None, :]
    )
    terms = np.exp(logt)
    terms[n[:, None] < ks[None, :]] = 0.0
    return terms.sum(axis=1) / omega**r


def momentum_squared_matrix(omega: float, dim: int, center: int = 0) -> np.ndarray:
    """Matrix of p^2: diagonal omega*(2n+1)/2, second off-diagonal
    -(omega/2)*sqrt((n+1)(n+2)); all other entries vanish by parity."""
    _check_omega(omega)
    n = center + np.arange(dim)
    out = np.diag(omega * (2.0 * n + 1.0) / 2.0)
    if dim > 2:
        m = n[:-2]
        off = -(omega / 2.0) * np.sqrt((m + 1.0) * (m + 2.0))
        out += np.diag(off, 2) + np.diag(off, -2)
    return out


def assemble_hamiltonian(pot: PolynomialPotential, cfg: BasisConfig) -> HamiltonianMatrix:
    """Hamiltonian block H = p^2/2 + V(x + sigma) in the configured basis.

    The shift is applied to the potential coefficients exactly, then each
    power of x contributes its ladder-product matrix.  The result is exactly
    symmetric and banded with half bandwidth max(degree, 2).
    """
    shifted = pot.shift(cfg.sigma) if cfg.sigma != 0.0 else pot
    h = 0.5 * momentum_squared_matrix(cfg.omega, cfg.dim, cfg.center)
    if shifted.coeffs[0] != 0.0:
        h += shifted.coeffs[0] * np.eye(cfg.dim)
    for j, kj in enumerate(shifted.coeffs):
        if j == 0 or kj == 0.0:
            continue
        h += kj * position_power_matrix(j, cfg.omega, cfg.dim, cfg.center)
    return HamiltonianMatrix(entries=h, config=cfg, potential=pot)


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


def basis_function_value(n: int, omega: float, x) -> float | np.ndarray:
    """Single basis function phi_n evaluated at x (scalar or array)."""
    if n < 0:
        raise ValueError(f"basis index must be >= 0, got {n}")
    vals = basis_functions(n + 1, omega, x)[n]
    if np.ndim(x) == 0:
        return float(vals[0])
    return vals
