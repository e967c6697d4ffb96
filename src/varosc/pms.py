"""Principle of minimal sensitivity: fix the basis frequency (and shift).

Exact spectra do not depend on the basis frequency omega or the coordinate
shift sigma, but truncated results do.  The variational parameters are fixed
at a stationary point of the truncated trace

    T_N(omega, sigma) = sum_{n in block} H_nn,

which is cheap (diagonal elements only) and invariant under unitary changes
of basis.  Among stationary points we target minima and, when several
candidates survive, the one with the smallest trace (then smallest omega) is
returned so results are reproducible.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .oscbasis import BasisConfig, _block_moments
from .potential import PolynomialPotential, _shifted_coeffs

__all__ = [
    "PmsResult",
    "ConvergenceError",
    "trace",
    "trace_scan",
    "pms_optimize",
]

# convergence controls (relative 1D parameter tolerance, 2D simplex size,
# iteration caps, stationarity gate)
_TOL_1D = 1e-10
_TOL_2D = 1e-8
_MAXITER_1D = 200
_MAXITER_2D = 2000
_GRAD_STEP = 1e-5
_RESIDUAL_REL = 1e-7


class ConvergenceError(RuntimeError):
    """The stationary-point search failed to converge."""


@dataclass(frozen=True)
class PmsResult:
    """Optimal basis parameters with the trace value and gradient residual."""

    omega: float
    sigma: float
    trace_value: float
    stationarity_residual: float


def _block_trace(omega, pot: PolynomialPotential, sigma: float, dim: int, center: int):
    """T = (omega/4) N (N + 2c) + kappa_0 N + sum_{h>=1} kappa_2h D_2h omega^(-h),
    for omega a float or an array, kappa the coefficients of V(x + sigma)."""
    kappas = _shifted_coeffs(pot.coeffs, sigma, 2) if sigma != 0.0 else pot.coeffs[::2]
    total = 0.25 * omega * (dim * (dim + 2 * center)) + kappas[0] * dim
    for h, d in enumerate(_block_moments(dim, center, pot.degree), 1):
        if kappas[h] != 0.0:
            total = total + kappas[h] * d * omega**-h
    return total


def trace(pot: PolynomialPotential, cfg: BasisConfig) -> float:
    """Trace of the Hamiltonian block in closed form, as a Python float.

    Only even powers of x have diagonal elements, so

        T = (omega/4) N (N + 2c) + kappa_0 N + sum_{even j>=2} kappa_j D_j omega^(-j/2),

    with kappa_j the coefficients of V(x + sigma) and D_j the block moments,
    summed exactly once per (dim, center, degree) and cached.  A call costs
    O(deg V), whatever the block size, and builds no matrix or potential.
    """
    return _block_trace(float(cfg.omega), pot, float(cfg.sigma), cfg.dim, cfg.center)


def trace_scan(pot: PolynomialPotential, dim: int, omegas: np.ndarray,
               sigma: float = 0.0) -> np.ndarray:
    """T_N/N over a frequency grid: trace's closed form on the whole array at once."""
    omegas = np.asarray(omegas, dtype=float)
    if dim < 1:
        raise ValueError(f"basis dimension must be >= 1, got {dim}")
    if not (np.all((omegas > 0.0) & np.isfinite(omegas)) and math.isfinite(sigma)):
        raise ValueError("basis frequencies must be positive and finite, and the shift finite")
    return _block_trace(omegas, pot, float(sigma), dim, 0) / dim


def _grid_then_golden(f, log_lo: float, log_hi: float, points: int = 161):
    """Locate the minimum of f(log_omega) by grid bracketing then golden section."""
    grid = np.linspace(log_lo, log_hi, points)
    vals = np.array([f(v) for v in grid])
    i = int(np.argmin(vals))
    if i == 0 or i == points - 1:
        return None  # minimum not bracketed
    a, b = grid[i - 1], grid[i + 1]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(_MAXITER_1D):
        if abs(b - a) <= _TOL_1D:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def _newton_polish(f, z0: np.ndarray, steps: int = 8) -> np.ndarray:
    """Drive the central-difference gradient of f to zero near z0.

    Derivative-free minimizers stall at parameter accuracy ~sqrt(eps); a few
    Newton corrections on finite-difference derivatives recover ~1e-10.
    Steps that do not reduce the gradient norm are rejected.
    """
    h = _GRAD_STEP
    z = np.asarray(z0, dtype=float).copy()
    dim = z.size

    def grad_hess(zz):
        g = np.zeros(dim)
        hess = np.zeros((dim, dim))
        f0 = f(zz)
        for i in range(dim):
            e = np.zeros(dim); e[i] = h
            fp, fm = f(zz + e), f(zz - e)
            g[i] = (fp - fm) / (2 * h)
            hess[i, i] = (fp - 2 * f0 + fm) / h**2
        for i in range(dim):
            for j in range(i + 1, dim):
                ei = np.zeros(dim); ei[i] = h
                ej = np.zeros(dim); ej[j] = h
                val = (f(zz + ei + ej) - f(zz + ei - ej)
                       - f(zz - ei + ej) + f(zz - ei - ej)) / (4 * h * h)
                hess[i, j] = hess[j, i] = val
        return g, hess

    g, hess = grad_hess(z)
    for _ in range(steps):
        try:
            delta = np.linalg.solve(hess, -g)
        except np.linalg.LinAlgError:
            break
        if not np.all(np.isfinite(delta)):
            break
        z_new = z + delta
        g_new, hess_new = grad_hess(z_new)
        if np.linalg.norm(g_new) >= np.linalg.norm(g):
            break
        z, g, hess = z_new, g_new, hess_new
        if np.linalg.norm(delta) < 1e-12:
            break
    return z


def _residual(f, z: np.ndarray) -> float:
    """Norm of the central-difference gradient at z (step _GRAD_STEP)."""
    h = _GRAD_STEP
    g = []
    for i in range(z.size):
        e = np.zeros(z.size); e[i] = h
        g.append((f(z + e) - f(z - e)) / (2 * h))
    return float(np.linalg.norm(g))


def _largest_turning_point(pot: PolynomialPotential) -> float:
    """Largest magnitude among the real roots of V'(x); 0 if none."""
    dcoeffs = pot.derivative_coeffs()
    roots = np.roots(list(reversed(dcoeffs)))
    real = roots[np.abs(roots.imag) < 1e-9 * (1.0 + np.abs(roots.real))].real
    if real.size == 0:
        return 0.0
    return float(np.max(np.abs(real)))


def pms_optimize(pot: PolynomialPotential, N: int, optimize_sigma: bool = False,
                 center: int = 0) -> PmsResult:
    """Stationary point of the truncated trace over omega (and optionally sigma).

    The frequency search runs in log(omega), which keeps omega > 0 implicit
    and conditions the g in [1e-3, 1e4] range uniformly: a log-spaced grid
    brackets the minimum, golden section refines it, and a Newton polish on
    finite-difference derivatives sharpens the stationary point.

    With optimize_sigma, a 5x5 multistart grid over
    omega in [omega*/10, 10 omega*] (omega* from the sigma = 0 solve) and
    sigma in [-x_range, x_range] (x_range = largest turning point of V) seeds
    Nelder-Mead in (log omega, sigma); every converged candidate is polished
    and the lowest-trace stationary point wins, ties broken by lower omega.

    A nonzero center optimizes the trace of the block of basis indices
    [center, center+N) instead of the lowest block.
    """
    if N < 1:
        raise ValueError(f"block dimension must be >= 1, got {N}")

    def f1(logw):
        return trace(pot, BasisConfig(dim=N, omega=math.exp(logw), center=center))

    log_lo, log_hi = math.log(1e-4), math.log(1e6)
    bracket = _grid_then_golden(f1, log_lo, log_hi)
    if bracket is None:
        raise ConvergenceError(
            "trace has no interior minimum over the frequency grid "
            f"[{math.exp(log_lo):.3g}, {math.exp(log_hi):.3g}]"
        )

    if not optimize_sigma:
        z = _newton_polish(lambda v: f1(v[0]), np.array([bracket]))
        omega = math.exp(z[0])
        t_val = f1(z[0])
        resid = _residual(lambda v: f1(v[0]), z)
        if resid > _RESIDUAL_REL * max(abs(t_val), 1.0):
            raise ConvergenceError(
                f"stationarity residual {resid:.3e} exceeds tolerance at omega={omega:.6g}"
            )
        return PmsResult(omega=omega, sigma=0.0, trace_value=t_val,
                         stationarity_residual=resid)

    def f2(z):
        return trace(pot, BasisConfig(dim=N, omega=math.exp(z[0]), sigma=z[1],
                                      center=center))

    omega_star = math.exp(bracket)
    x_range = _largest_turning_point(pot)
    log_ws = np.linspace(math.log(0.1 * omega_star), math.log(10.0 * omega_star), 5)
    sigmas = np.linspace(-x_range, x_range, 5) if x_range > 0 else np.zeros(5)
    starts = [np.array([lw, s]) for lw in log_ws for s in sigmas]

    candidates = []
    for z0 in starts:
        res = minimize(f2, z0, method="Nelder-Mead",
                       options={"xatol": _TOL_2D, "fatol": _TOL_2D,
                                "maxiter": _MAXITER_2D})
        if not np.all(np.isfinite(res.x)):
            continue
        z = _newton_polish(f2, res.x)
        t_val = f2(z)
        resid = _residual(f2, z)
        if resid <= _RESIDUAL_REL * max(abs(t_val), 1.0):
            candidates.append((t_val, math.exp(z[0]), z[1], resid))
    if not candidates:
        raise ConvergenceError(
            f"no start among {len(starts)} reached a stationary point of the trace"
        )
    candidates.sort(key=lambda c: (c[0], c[1]))
    t_val, omega, sigma, resid = candidates[0]
    return PmsResult(omega=omega, sigma=float(sigma), trace_value=t_val,
                     stationarity_residual=resid)
