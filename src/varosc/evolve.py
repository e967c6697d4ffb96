"""Method of stationary states for Gaussian initial wave functions.

A Gaussian initial state is expanded in the oscillator basis by one
closed-form recurrence, for any packet center x0 in any uncentered basis,
shifted or not, then rotated into the energy eigenbasis and evolved by
attaching phases exp(-i E_n t) with hbar = 1.
Observables are read back in the basis: the coefficients u(t) = D^T z(t) of
the amplitudes z_n = a_n exp(-i E_n t) meet the bands of x + sigma and
(x + sigma)^2, so <x> and <x^2> are short band sums, bounded for all times
with no secular drift.  They are evaluated over blocks of times: one table of in-block phase
offsets serves every block of an evenly stepped grid, and one real matrix
product takes each block's amplitudes back to the basis.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .eigen import EigenSolution
from .oscbasis import BasisConfig, _polynomial_bands, basis_functions
from .output import FMT, write_csv

__all__ = [
    "InitialGaussian",
    "EvolutionState",
    "project_shifted_gaussian",
    "make_evolution",
    "wavefunction_at",
    "observables_series",
    "write_observables_csv",
    "write_wavefunction_csv",
]

# eigenmodes below this amplitude are dropped from the observables; the
# induced error is bounded by 2 sum(dropped |a_n|) * ||x^p|| over the block
_MODE_CUTOFF = 1e-14

# observables are evaluated over blocks of this many times, so the phase table
# and the amplitude arrays are at most N x _TIME_BLOCK complex however long the
# time grid is
_TIME_BLOCK = 256


@dataclass(frozen=True)
class InitialGaussian:
    """Normalized Gaussian (width/2pi)^(1/4) exp(-width (x-x0)^2 / 4).

    width_param sets the inverse variance of |psi|^2 (variance = 1/width);
    x0 = 0 gives the centered case.
    """

    width_param: float
    x0: float = 0.0

    def __post_init__(self):
        if not (self.width_param > 0.0 and math.isfinite(self.width_param)):
            raise ValueError(
                f"width parameter must be positive and finite, got {self.width_param}"
            )
        if not math.isfinite(self.x0):
            raise ValueError(f"packet center must be finite, got {self.x0}")


def project_shifted_gaussian(g: InitialGaussian, basis: BasisConfig) -> np.ndarray:
    """Expansion coefficients of a Gaussian centered at x0.

    A basis shifted by sigma sees the Gaussian centered at xb = x0 - sigma.
    The Gaussian is annihilated by d/dx + w0 (x - xb); written in ladder
    operators of the basis this gives the exact three-term recurrence

        c_{n+1} = [ (v / sqrt(2)) c_n + t sqrt(n) c_{n-1} ] / sqrt(n+1),

    with beta^2 = w0 + omega, t = (omega - w0)/beta^2, v = 2 sqrt(omega) w0
    xb / beta^2 and

        c_0 = sqrt(2) (w0 * omega)^(1/4) / beta * exp(-w0 xb^2 omega / (2 beta^2)).

    This is the double hypergeometric-style overlap sum collapsed through the
    Hermite generating function; for omega > w0 every recurrence coefficient
    is positive, so there is no cancellation at any order.  A Gaussian on the
    basis origin (xb = 0) has v = 0, so its odd coefficients are exactly zero
    and the even ones follow the product c_{2l} = t sqrt((2l-1)/(2l)) c_{2l-2}.
    """
    if basis.center != 0:
        raise ValueError(
            f"the Gaussian closed form assumes an uncentered basis (center={basis.center}); "
            "an evolution solves the lowest block, at center 0"
        )
    w0 = g.width_param / 2.0
    omega = basis.omega
    beta2 = w0 + omega
    t = (omega - w0) / beta2
    xb = g.x0 - basis.sigma
    v = 2.0 * math.sqrt(omega) * w0 * xb / beta2
    c = np.zeros(basis.dim)
    if abs(xb) >= 1e154 or not math.isfinite(v):  # overflow where every c_n underflows
        return c
    c[0] = (math.sqrt(2.0) * (w0 * omega) ** 0.25 / math.sqrt(beta2)
            * math.exp(-w0 * xb**2 * omega / (2.0 * beta2)))
    if basis.dim > 1:
        c[1] = (v / math.sqrt(2.0)) * c[0]
    for n in range(1, basis.dim - 1):
        c[n + 1] = ((v / math.sqrt(2.0)) * c[n] + t * math.sqrt(n) * c[n - 1]) / math.sqrt(n + 1.0)
    return c


@dataclass(frozen=True)
class EvolutionState:
    """Eigenbasis amplitudes of one state and the solution they belong to.

    a[n] are the (real, t = 0) amplitudes on the eigenstates of solution,
    which holds the energies, eigenvector rows and basis.  truncation_loss =
    max(0, 1 - sum a^2) is the probability weight the finite basis could not
    capture (clamped, since a fully resolved state can carry 1 + O(eps) after
    rounding).
    """

    a: np.ndarray
    solution: EigenSolution
    truncation_loss: float

    def __post_init__(self):
        self.a.flags.writeable = False


def make_evolution(c: np.ndarray, sol: EigenSolution) -> EvolutionState:
    """Rotate basis coefficients into the eigenbasis: a_n = sum_k d_{nk} c_k.

    The eigenvector matrix is orthogonal (rows orthonormal), so this is the
    inverse expansion written without forming an explicit inverse; the input
    solution is rejected if orthonormality is broken upstream.
    """
    c = np.asarray(c, dtype=float)
    d = sol.vectors
    if d is None:
        raise ValueError(
            "the solution holds energies only; evolution needs the whole-block "
            "eigenvectors (diagonalize without levels)"
        )
    if c.shape != (d.shape[0],):
        raise ValueError(
            f"coefficient length {c.shape} does not match the {d.shape[0]}-state solution"
        )
    gram_err = np.max(np.abs(d @ d.T - np.eye(d.shape[0])))
    if gram_err > 1e-10:
        raise ValueError(
            f"eigenvector rows are not orthonormal (max deviation {gram_err:.3e})"
        )
    norm = float(np.dot(c, c))
    if norm > 1.0 + 1e-12:
        raise ValueError(
            f"coefficients carry probability {norm!r} > 1; the initial state "
            "must be normalized"
        )
    a = d @ c
    return EvolutionState(a=a, solution=sol, truncation_loss=max(0.0, float(1.0 - np.dot(a, a))))


def observables_series(state: EvolutionState, times: np.ndarray):
    """<x>(t) and <x^2>(t) in the original coordinate over a time grid.

    Modes with |a_n| below _MODE_CUTOFF are dropped, and the times are taken
    in blocks of _TIME_BLOCK so memory stays bounded for any grid length.  A
    block starting at t0 takes its phases as e^{-iE t0} times the offset table
    e^{-iE (t-t0)}, which every later block with the same offsets reuses (all
    of an evenly stepped grid).  One real product of the kept eigenvector rows
    with the real view of z^T gives the basis coefficients u = D^T z, with the
    real and imaginary parts of each time in adjacent columns.  A basis
    shifted by sigma measures x - sigma, so the moments are those of the
    polynomials P = x + sigma and P = (x + sigma)^2 in the basis coordinate,
    of half bandwidth 1 and 2.  Each is

        <P> = sum_n P_{n,n} |u_n|^2 + 2 sum_{k=1,2} sum_n P_{n,n+k} Re(conj(u_n) u_{n+k}),

    and one loop over the offsets k = 0, 1, 2 serves both, one product of
    the two polynomials' bands with the products of shifted rows of u each.

    Both are moments of the truncated state psi_N = sum_n a_n phi_n, of norm^2
    sum a_n^2 = 1 - loss, not renormalized, so a shifted and an unshifted
    basis holding the same psi_N report the same moments, lossy or not.
    """
    times = np.asarray(times, dtype=float).ravel()
    keep = np.abs(state.a) >= _MODE_CUTOFF
    if not keep.any():
        keep[0] = True
    sol = state.solution
    a, e, d_keep = state.a[keep], sol.energies[keep], sol.vectors[keep]
    cfg, s = sol.config, sol.config.sigma
    # w[:, k] = the k-th upper bands of x + sigma and (x + sigma)^2, doubled
    # for k > 0 as each stands for its mirror below the diagonal too
    w = np.zeros((2, 3, cfg.dim))
    w[0, :2] = _polynomial_bands((s, 1.0), cfg.omega, cfg.dim, cfg.center)
    w[1] = _polynomial_bands((s * s, 2.0 * s, 1.0), cfg.omega, cfg.dim, cfg.center)
    w[:, 1:] *= 2.0
    out = np.empty((2, times.size))
    offsets = table = None
    for lo in range(0, times.size, _TIME_BLOCK):
        t = times[lo:lo + _TIME_BLOCK]
        dt = t - t[0]
        if table is None or not np.array_equal(dt, offsets):
            offsets = dt
            # cos + i sin(-x) has the bits of np.exp(-1j * x) at less cost
            arg = np.outer(-e, offsets)
            table = np.empty(arg.shape, dtype=complex)
            np.cos(arg, out=table.real)
            np.sin(arg, out=table.imag)
        zt = (a * np.exp(-1j * e * t[0]))[:, None] * table
        u = d_keep.T @ zt.view(float)
        sums = sum(w[:, k, :cfg.dim - k] @ (u[:cfg.dim - k] * u[k:]) for k in range(min(3, cfg.dim)))
        # adjacent columns hold the real and imaginary parts of one time
        out[:, lo:lo + t.size] = sums[:, 0::2] + sums[:, 1::2]
    x_mean, x2_mean = out
    return x_mean, x2_mean


def wavefunction_at(state: EvolutionState, x, t: float) -> complex | np.ndarray:
    """Psi(x, t) = sum_n a_n e^{-i E_n t} sum_k d_{nk} phi_k(x).

    x is the original coordinate; the basis sees x - sigma.
    """
    sol = state.solution
    phi = basis_functions(sol.config, x)
    psi = ((state.a * np.exp(-1j * sol.energies * t)) @ sol.vectors) @ phi
    if np.ndim(x) == 0:
        return complex(psi[0])
    return psi


def write_observables_csv(path, times, x_mean, x2_mean, truncation_loss: float):
    """Write (t, x_mean, x2_mean, sqrt_x2) with the truncation loss in a header."""
    x2_mean = np.asarray(x2_mean, dtype=float)
    # negative roundoff clamps to 0, as max(x2, 0.0) would (-0.0 stays -0.0)
    sqrt_x2 = np.sqrt(np.where(x2_mean < 0.0, 0.0, x2_mean))
    cols = [np.asarray(c, dtype=float).tolist() for c in (times, x_mean, x2_mean, sqrt_x2)]
    write_csv(path, f"# truncation_loss={FMT.format(truncation_loss)}\nt,x_mean,x2_mean,sqrt_x2", *cols)


def write_wavefunction_csv(path, xs, psi):
    """Write (x, re, im, abs2) on the provided grid."""
    psi = np.asarray(psi, dtype=complex)
    # abs(complex) is hypot, and float ** 2 is pow: np.abs and np.square round
    # differently in the last bit
    abs2 = [m ** 2 for m in np.hypot(psi.real, psi.imag).tolist()]
    write_csv(path, "x,re,im,abs2", np.asarray(xs, dtype=float).tolist(), psi.real.tolist(),
              psi.imag.tolist(), abs2)
