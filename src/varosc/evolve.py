"""Method of stationary states for Gaussian initial wave functions.

An initial state is expanded in the oscillator basis (one closed-form
recurrence for a Gaussian at any x0 in an unshifted basis, Gauss-Hermite
quadrature for anything else), rotated into the energy eigenbasis, and evolved
by attaching phases exp(-i E_n t) with hbar = 1.  Observables are the
quadratic forms conj(z)^T M z of the amplitudes z_n = a_n exp(-i E_n t):
trigonometric double sums over Bohr frequencies E_n - E_l, bounded for all
times with no secular drift.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import roots_hermite

from .eigen import EigenSolution
from .oscbasis import BasisConfig, _hermite_rows, basis_functions, position_power_matrix

__all__ = [
    "InitialGaussian",
    "EvolutionState",
    "BasisResolutionError",
    "project_shifted_gaussian",
    "project_by_quadrature",
    "make_evolution",
    "wavefunction_at",
    "observables_series",
    "write_observables_csv",
    "write_wavefunction_csv",
]

# eigenmodes below this amplitude are dropped from observable double sums;
# the induced error is bounded by sum(dropped |a_n|) * ||x^p|| over the block
_MODE_CUTOFF = 1e-14

# observables are evaluated over blocks of this many times, so the complex
# amplitude matrix is at most _TIME_BLOCK x K however long the time grid is
_TIME_BLOCK = 512

_FMT = "{:.17g}"


class BasisResolutionError(RuntimeError):
    """The truncated basis cannot resolve the requested initial state."""


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

    def __call__(self, x):
        pref = (self.width_param / (2.0 * math.pi)) ** 0.25
        return pref * np.exp(-self.width_param * (np.asarray(x, float) - self.x0) ** 2 / 4.0)


def project_shifted_gaussian(g: InitialGaussian, basis: BasisConfig) -> np.ndarray:
    """Expansion coefficients of a Gaussian centered at x0.

    A Gaussian is annihilated by d/dx + w0 (x - x0); written in ladder
    operators of the basis this gives the exact three-term recurrence

        c_{n+1} = [ (v / sqrt(2)) c_n + t sqrt(n) c_{n-1} ] / sqrt(n+1),

    with beta^2 = w0 + omega, t = (omega - w0)/beta^2, v = 2 sqrt(omega) w0
    x0 / beta^2 and

        c_0 = sqrt(2) (w0 * omega)^(1/4) / beta * exp(-w0 x0^2 omega / (2 beta^2)).

    This is the double hypergeometric-style overlap sum collapsed through the
    Hermite generating function; for omega > w0 every recurrence coefficient
    is positive, so there is no cancellation at any order.  A centered
    Gaussian (x0 = 0) has v = 0, so its odd coefficients are exactly zero and
    the even ones follow the product c_{2l} = t sqrt((2l-1)/(2l)) c_{2l-2}.
    """
    if basis.sigma != 0.0 or basis.center != 0:
        raise ValueError(
            "the Gaussian closed form assumes an unshifted, uncentered basis "
            f"(sigma={basis.sigma}, center={basis.center}); "
            "project by quadrature instead"
        )
    w0 = g.width_param / 2.0
    omega = basis.omega
    beta2 = w0 + omega
    t = (omega - w0) / beta2
    v = 2.0 * math.sqrt(omega) * w0 * g.x0 / beta2
    c = np.zeros(basis.dim)
    if abs(g.x0) >= 1e154 or not math.isfinite(v):  # overflow where every c_n underflows
        return c
    c[0] = (math.sqrt(2.0) * (w0 * omega) ** 0.25 / math.sqrt(beta2)
            * math.exp(-w0 * g.x0**2 * omega / (2.0 * beta2)))
    if basis.dim > 1:
        c[1] = (v / math.sqrt(2.0)) * c[0]
    for n in range(1, basis.dim - 1):
        c[n + 1] = ((v / math.sqrt(2.0)) * c[n] + t * math.sqrt(n) * c[n - 1]) / math.sqrt(n + 1.0)
    return c


def project_by_quadrature(psi0, basis: BasisConfig, n_nodes: int | None = None) -> np.ndarray:
    """Generic projection c_n = integral phi_n(x) psi0(x) dx by Gauss-Hermite.

    psi0 must decay at least as fast as some Gaussian.  The quadrature weight
    is matched to the basis exponent: with y = alpha x the integrand becomes
    exp(-y^2) times a slowly growing factor, which converges geometrically.
    The half-weight exp(y^2/2) is folded against the basis exponential so no
    intermediate overflows.  For a shifted basis, psi0 is taken in the
    original coordinate and sampled at x + sigma.

    Raises BasisResolutionError when the last coefficient carries more than
    1e-6 of probability, the signature of an under-resolved basis.
    """
    if n_nodes is None:
        n_nodes = basis.center + basis.dim + 40
    alpha = math.sqrt(basis.omega)
    y, w = roots_hermite(n_nodes)
    x = y / alpha
    # p_n(y) = phi_n(x) e^{y^2/2} / sqrt(alpha): the Hermite polynomial parts
    p = _hermite_rows(basis.center + basis.dim, y, np.full(y.size, math.pi**-0.25))
    samples = np.asarray(psi0(x + basis.sigma), dtype=float)
    t = w * np.exp(y * y / 2.0) * samples
    c = (p[basis.center:, :] @ t) / math.sqrt(alpha)
    if c[-1] ** 2 > 1e-6:
        raise BasisResolutionError(
            f"last basis coefficient carries |c|^2 = {c[-1]**2:.3e} > 1e-6; "
            "the basis is too small (or too narrow) for this initial state"
        )
    return c


@dataclass(frozen=True)
class EvolutionState:
    """Eigenbasis amplitudes plus everything needed to evaluate observables.

    a[n] are the (real, t = 0) amplitudes on eigenstates, energies/eigvectors
    come from the diagonalization, and truncation_loss = max(0, 1 - sum a^2)
    is the probability weight the finite basis could not capture (clamped,
    since a fully resolved state can carry 1 + O(eps) after rounding).  x_mat
    and x2_mat are the position and position-squared operators rotated into
    the eigenbasis once at construction.
    """

    a: np.ndarray
    energies: np.ndarray
    eigvectors: np.ndarray
    basis: BasisConfig
    truncation_loss: float
    x_mat: np.ndarray
    x2_mat: np.ndarray

    def __post_init__(self):
        for arr in (self.a, self.energies, self.eigvectors, self.x_mat, self.x2_mat):
            arr.flags.writeable = False

    def amplitudes_at(self, t: float) -> np.ndarray:
        """Complex amplitudes a_n e^{-i E_n t}."""
        return self.a * np.exp(-1j * self.energies * t)


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
    cfg = sol.config
    x1 = position_power_matrix(1, cfg.omega, cfg.dim, cfg.center)
    x2 = position_power_matrix(2, cfg.omega, cfg.dim, cfg.center)
    return EvolutionState(
        a=a,
        energies=sol.energies.copy(),
        eigvectors=d.copy(),
        basis=cfg,
        truncation_loss=max(0.0, float(1.0 - np.dot(a, a))),
        x_mat=d @ x1 @ d.T,
        x2_mat=d @ x2 @ d.T,
    )


def _active(state: EvolutionState):
    keep = np.abs(state.a) >= _MODE_CUTOFF
    if not np.any(keep):
        keep = np.zeros_like(keep)
        keep[0] = True
    return keep


def _quadratic_form(z: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Re(conj(z_t)^T M z_t) for every row z_t of z; M real symmetric.

    For symmetric M the imaginary part cancels to roundoff at every time; one
    that does not cancel at any time means M was not symmetric.
    """
    val = np.einsum("ti,ti->t", z @ m, np.conj(z))
    if np.any(np.abs(val.imag) > 1e-10 * np.maximum(np.abs(val.real), 1.0)):
        raise AssertionError(
            f"imaginary part {np.max(np.abs(val.imag)):.3e} failed to cancel in an observable"
        )
    return val.real


def observables_series(state: EvolutionState, times: np.ndarray):
    """<x>(t) and <x^2>(t) in the original coordinate over a time grid.

    Modes with |a_n| below _MODE_CUTOFF are dropped, and the times are taken
    in blocks of _TIME_BLOCK so memory stays bounded for any grid length.
    """
    times = np.asarray(times, dtype=float).ravel()
    keep = _active(state)
    a = state.a[keep]
    e = state.energies[keep]
    mx = state.x_mat[np.ix_(keep, keep)]
    mx2 = state.x2_mat[np.ix_(keep, keep)]
    x_mean = np.empty(times.size)
    x2_mean = np.empty(times.size)
    for lo in range(0, times.size, _TIME_BLOCK):
        block = slice(lo, lo + _TIME_BLOCK)
        z = a * np.exp(-1j * np.outer(times[block], e))
        x_mean[block] = _quadratic_form(z, mx)
        x2_mean[block] = _quadratic_form(z, mx2)
    s = state.basis.sigma
    if s != 0.0:
        x2_mean = x2_mean + 2.0 * s * x_mean + s * s
        x_mean = x_mean + s
    return x_mean, x2_mean


def wavefunction_at(state: EvolutionState, x, t: float) -> complex | np.ndarray:
    """Psi(x, t) = sum_n a_n e^{-i E_n t} sum_k d_{nk} phi_k(x).

    x is the original coordinate; the basis sees x - sigma.
    """
    cfg = state.basis
    xs = np.atleast_1d(np.asarray(x, dtype=float)) - cfg.sigma
    phi = basis_functions(cfg.center + cfg.dim, cfg.omega, xs)[cfg.center:, :]
    amps = state.amplitudes_at(t)
    psi = (amps @ state.eigvectors) @ phi
    if np.ndim(x) == 0:
        return complex(psi[0])
    return psi


def write_observables_csv(path, times, x_mean, x2_mean, truncation_loss: float):
    """Write (t, x_mean, x2_mean, sqrt_x2) with the truncation loss in a header."""
    row = ",".join([_FMT] * 4).format
    x2_mean = np.asarray(x2_mean, dtype=float)
    # negative roundoff clamps to 0, as max(x2, 0.0) would (-0.0 stays -0.0)
    sqrt_x2 = np.sqrt(np.where(x2_mean < 0.0, 0.0, x2_mean))
    lines = [f"# truncation_loss={_FMT.format(truncation_loss)}",
             "t,x_mean,x2_mean,sqrt_x2"]
    lines += [row(*r) for r in zip(np.asarray(times, dtype=float).tolist(),
                                   np.asarray(x_mean, dtype=float).tolist(),
                                   x2_mean.tolist(), sqrt_x2.tolist())]
    Path(path).write_text("\n".join(lines) + "\n")


def write_wavefunction_csv(path, xs, psi):
    """Write (x, re, im, abs2) on the provided grid."""
    row = ",".join([_FMT] * 4).format
    psi = np.asarray(psi, dtype=complex)
    lines = ["x,re,im,abs2"]
    # abs(complex) is hypot, and float ** 2 is pow: np.abs and np.square round
    # differently in the last bit
    abs2 = [m ** 2 for m in np.hypot(psi.real, psi.imag).tolist()]
    lines += [row(*r) for r in zip(np.asarray(xs, dtype=float).tolist(), psi.real.tolist(),
                                   psi.imag.tolist(), abs2)]
    Path(path).write_text("\n".join(lines) + "\n")
