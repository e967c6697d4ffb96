"""Principle of minimal sensitivity: fix the basis frequency (and shift).

Exact spectra do not depend on the basis frequency omega or the coordinate
shift sigma, but truncated results do.  The variational parameters are fixed
at a stationary point of the truncated trace

    T_N(omega, sigma) = sum_{n in block} H_nn,

which is cheap (diagonal elements only) and invariant under unitary changes
of basis.  T is one closed form in omega and sigma, `trace`, through which
the scan and every search read it, and its derivatives are exact too: at
sigma = 0 the stationary frequencies are the roots of one polynomial, and
every candidate is polished by Newton on the exact gradient and Hessian,
with no finite differences.  Only minima count, and when several survive, the one with
the smallest trace (then smallest omega) is returned so results are
reproducible.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .oscbasis import _block_moments
from .potential import PolynomialPotential, _shifted_coeffs

__all__ = [
    "PmsResult",
    "ConvergenceError",
    "trace",
    "trace_scan",
    "pms_optimize",
]

# convergence controls (2D simplex size, Newton step cap, iteration cap, stationarity gate)
_TOL_2D = 1e-8
_NEWTON_STEPS = 8
_MAXITER_2D = 2000
_RESIDUAL_REL = 1e-7


class ConvergenceError(ArithmeticError):
    """The stationary-point search failed to converge."""


@dataclass(frozen=True)
class PmsResult:
    """Optimal basis parameters with the trace value and gradient residual."""

    omega: float
    sigma: float
    trace_value: float
    stationarity_residual: float


def trace(pot: PolynomialPotential, dim: int, omega: float, sigma: float = 0.0, center: int = 0):
    """Trace of the block [center, center + dim) in closed form, at one omega.

    Only even powers of x have diagonal elements, so

        T = (omega/4) N (N + 2c) + kappa_0 N + sum_{h>=1} kappa_2h D_2h omega^(-h),

    with kappa the coefficients of V(x + sigma) and D_2h the block moments,
    summed exactly once per (dim, center, degree) and cached.  T is a Python
    float, each omega^-h one libm pow (an OverflowError naming omega past the
    float range).  A call costs O(deg V) whatever the block size, and checks
    no argument.
    """
    omega = float(omega)
    kappas = _shifted_coeffs(pot.coeffs, float(sigma))[::2]
    total = 0.25 * omega * (dim * (dim + 2 * center)) + kappas[0] * dim
    try:
        for h, d in enumerate(_block_moments(dim, center, pot.degree), 1):
            if kappas[h] != 0.0:
                total = total + kappas[h] * d * omega**-h
    except OverflowError:
        raise OverflowError(f"the trace of the {dim}-state block overflows at omega = {omega!r}: "
                            f"omega^-{h} is past the float range") from None
    return total


def trace_scan(pot: PolynomialPotential, dim: int, omegas: np.ndarray) -> np.ndarray:
    """T_N/N over a frequency grid at sigma = 0: one trace call per omega, so
    each value is bit for bit the one the searches see."""
    omegas = np.asarray(omegas, dtype=float)
    if dim < 1:
        raise ValueError(f"basis dimension must be >= 1, got {dim}")
    if not np.all((omegas > 0.0) & np.isfinite(omegas)):
        raise ValueError("basis frequencies must be positive and finite")
    return np.array([trace(pot, dim, w) for w in omegas.tolist()]) / dim


def _gradient_hessian(pot: PolynomialPotential, dim: int, center: int, z: np.ndarray):
    """Exact gradient and Hessian of T in z = (log omega, sigma).

    With w_h = D_2h omega^(-h) (D_0 = N) and kappa_i(sigma) the coefficients
    of V(x + sigma), whose sigma-derivative is (i+1) kappa_{i+1},

        dT/dlog(omega) = (omega/4) N (N + 2c) - sum_h h kappa_2h w_h,
        dT/dsigma      = sum_h (2h+1) kappa_{2h+1} w_h,

    and each second derivative brings down one more factor -h per
    log(omega) and one more sigma-derivative of kappa per sigma.
    """
    omega = math.exp(z[0])
    kappa = _shifted_coeffs(pot.coeffs, float(z[1])) + [0.0, 0.0]
    g_w = h_ww = 0.25 * omega * (dim * (dim + 2 * center))
    g_s = h_ws = h_ss = 0.0
    for h, d in enumerate((float(dim),) + _block_moments(dim, center, pot.degree)):
        i = 2 * h
        w = d * omega**-h
        k1 = (i + 1) * kappa[i + 1] * w
        g_w -= h * kappa[i] * w
        g_s += k1
        h_ww += h * h * kappa[i] * w
        h_ws -= h * k1
        h_ss += (i + 1) * (i + 2) * kappa[i + 2] * w
    return np.array([g_w, g_s]), np.array([[h_ww, h_ws], [h_ws, h_ss]])


def _newton(pot: PolynomialPotential, dim: int, center: int, z: np.ndarray, free: int):
    """Newton on the exact gradient in the first `free` entries of z.

    Stops when a step no longer lowers the gradient norm, which is where
    rounding in the gradient sets in.  Returns z and the gradient and the
    Hessian in the free entries at z.
    """
    g, hess = _gradient_hessian(pot, dim, center, z)
    for _ in range(_NEWTON_STEPS):
        z_new = z.copy()
        try:
            z_new[:free] -= np.linalg.solve(hess[:free, :free], g[:free])
            g_new, hess_new = _gradient_hessian(pot, dim, center, z_new)
        except (np.linalg.LinAlgError, OverflowError):
            break
        if not math.hypot(*g_new[:free]) < math.hypot(*g[:free]):
            break
        z, g, hess = z_new, g_new, hess_new
    return z, g[:free], hess[:free, :free]


def _nan_last(vertex):
    """Sort key of a (value, point) vertex: by value, nan after everything."""
    return math.isnan(vertex[0]), vertex[0]


def _nelder_mead(f, z0):
    """Minimize f over two variables from z0 by Nelder-Mead, on Python floats.

    A transcription of scipy 1.17.1's `_minimize_neldermead` with its default
    coefficients, xatol = fatol = _TOL_2D and maxiter = _MAXITER_2D (and no
    cap on evaluations): the same initial simplex, the same expression for
    every vertex, the same stable sort with nan last, and so the same points
    evaluated in the same order and the same end point, bit for bit.
    """
    x, y = map(float, z0)
    sim = sorted(((f(v), v) for v in [(x, y), ((1 + 0.05) * x if x != 0 else 0.00025, y),
                                      (x, (1 + 0.05) * y if y != 0 else 0.00025)]), key=_nan_last)
    for _ in range(_MAXITER_2D - 1):
        (f0, s0), (f1, s1), (fw, sw) = sim
        # a nan in either test means not converged, as np.max gives
        if (all(abs(a - b) <= _TOL_2D for a, b in zip(s1 + sw, s0 + s0))
                and abs(f0 - f1) <= _TOL_2D and abs(f0 - fw) <= _TOL_2D):
            break
        xbar = [(a + b) / 2 for a, b in zip(s0, s1)]
        xr = tuple(2 * a - 1 * b for a, b in zip(xbar, sw))
        fxr = f(xr)
        if fxr < f0:
            xe = tuple(3 * a - 2 * b for a, b in zip(xbar, sw))
            fxe = f(xe)
            sim[2] = (fxe, xe) if fxe < fxr else (fxr, xr)
        elif fxr < f1:
            sim[2] = (fxr, xr)
        else:  # contract outside the simplex, or inside when xr is no better than sw
            outside = fxr < fw
            xc = tuple(1.5 * a - 0.5 * b if outside else 0.5 * a + 0.5 * b for a, b in zip(xbar, sw))
            fxc = f(xc)
            if fxc <= fxr if outside else fxc < fw:
                sim[2] = (fxc, xc)
            else:  # shrink toward the best vertex
                s1, sw = (tuple(a + 0.5 * (b - a) for a, b in zip(s0, s)) for s in (s1, sw))
                sim[1:] = [(f(s1), s1), (f(sw), sw)]
        sim.sort(key=_nan_last)
    return sim[0][1]


def _largest_turning_point(pot: PolynomialPotential) -> float:
    """Largest magnitude among the real roots of V'(x); 0 if none.  Roots past
    the float range, where np.roots' quotients overflow, raise ConvergenceError."""
    try:
        with np.errstate(over="raise"):  # V'(x), highest power first
            roots = np.roots([j * c for j, c in enumerate(pot.coeffs)][:0:-1])
    except (FloatingPointError, np.linalg.LinAlgError):
        raise ConvergenceError("the turning points of V lie past the float range") from None
    real = roots[np.abs(roots.imag) < 1e-9 * (1.0 + np.abs(roots.real))].real
    if real.size == 0:
        return 0.0
    return float(np.max(np.abs(real)))


def pms_optimize(pot: PolynomialPotential, N: int, optimize_sigma: bool = False,
                 center: int = 0) -> PmsResult:
    """Stationary point of the truncated trace over omega (and optionally sigma).

    Every solve runs on V'(y) = 2^-2m V(2^-m y), x = 2^-m y, with m the
    smallest integer that brings each even coefficient to at most 1 in
    magnitude; omega, sigma and T map back as 2^2m omega', 2^-m sigma' and
    2^2m T'.  The map is exact, so V written with x -> 2^k x gives the result
    of V bit for bit rescaled.  Coefficients that no m brings into the float
    range (one overflows, or the leading one rounds to 0) raise ConvergenceError;
    a trace that overflows in the 2D search names the caller's omega.

    At sigma = 0 the stationary frequencies are the positive roots of the
    polynomial omega^(H+1) dT/domega (2H = deg V),

        (K/4) omega^(H+1) - sum_{h=1..H} h kappa_2h D_2h omega^(H-h),   K = N (N + 2c),

    which np.roots gives all at once; each real one is polished by Newton on
    the exact derivative in log(omega).

    With optimize_sigma, a multistart grid of 5 omega in [omega*/10, 10 omega*]
    (omega* from the sigma = 0 solve) times 5 sigma in [-u, u] (u = largest
    turning point of V'; sigma = 0 alone, and u = 1, when V' has no nonzero
    real root) seeds Nelder-Mead in (log omega, sigma / u), which stops when
    both move, and T in units of max(1, |T|) at omega* changes, by less than
    1e-8; every end point is polished by Newton on the exact gradient and
    Hessian.  The Nelder-Mead is `_nelder_mead`, scipy's transcribed to plain
    floats: the same arithmetic and the same end points, bit for bit.

    One rule picks the result in both searches: a candidate must have a
    positive definite Hessian in the free variables, and each free gradient
    entry must be at most 1e-7 of the sum of its terms' magnitudes (the
    d/dlog(omega) Hessian entry, and the d/dsigma gradient entry, of |V|
    at (omega, |sigma|)); the lowest trace wins, then the lowest omega.
    When every odd coefficient of V is zero, T is even in sigma and |sigma|
    is reported, so mirror images tie exactly; and (omega*, 0), where
    dT/dsigma and its gate scale are both exactly 0, joins the 2D candidates.

    stationarity_residual is 2^2m times the norm of the exact gradient of T'
    in log(omega) (and sigma') at the result.  A nonzero center optimizes the
    trace of the block of basis indices [center, center+N) instead of the
    lowest block.
    """
    if N < 1:
        raise ValueError(f"block dimension must be >= 1, got {N}")
    m = max(math.ceil(math.frexp(c)[1] / (2 * h + 2)) for h, c in enumerate(pot.coeffs[2::2], 1) if c)
    with np.errstate(over="ignore"):
        scaled = np.ldexp(pot.coeffs, [-m * (j + 2) for j in range(pot.degree + 1)])
    if not (np.all(np.isfinite(scaled)) and scaled[-1] > 0.0):
        raise ConvergenceError(f"the coefficients span more than one float frame: in x = 2^{-m} y "
                               "one overflows or the leading one rounds to 0")
    pot = PolynomialPotential(tuple(scaled.tolist()))
    # omega^(H+1) dT/domega at sigma = 0, highest power first
    poly = [0.25 * N * (N + 2 * center), 0.0] + [
        -h * pot.coeffs[2 * h] * d for h, d in enumerate(_block_moments(N, center, pot.degree), 1)]
    even = not any(pot.coeffs[1::2])
    abs_pot = PolynomialPotential(tuple(map(abs, pot.coeffs)))

    def lowest_stationary(starts, free):
        """(trace, omega, sigma, residual) of the lowest-trace minimum, then lowest
        omega, that Newton reaches from one of starts; None if none."""
        found = []
        for z0 in starts:
            z, grad, hess = _newton(pot, N, center, z0, free)
            omega, sigma = math.exp(z[0]), float(abs(z[1]) if even else z[1])
            # each gradient entry against the sum of its terms' magnitudes
            g_abs, h_abs = _gradient_hessian(abs_pot, N, center, np.array([z[0], abs(z[1])]))
            # Sylvester's criterion, enough for one or two free variables
            if (np.all(np.abs(grad) <= _RESIDUAL_REL * np.array([h_abs[0, 0], g_abs[1]])[:free])
                    and hess[0, 0] > 0.0 and np.linalg.det(hess) > 0.0):
                found.append((trace(pot, N, omega, sigma, center), omega, sigma, math.hypot(*grad)))
        return min(found, key=lambda c: c[:2], default=None)

    # np.roots returns real roots with an imaginary part of exactly zero
    best = lowest_stationary([np.array([math.log(r.real), 0.0]) for r in np.roots(poly)
                              if r.imag == 0.0 and r.real > 0.0], 1)
    if best is None:
        raise ConvergenceError("Newton reached no minimum of the trace over omega > 0")

    if optimize_sigma:
        scale = max(1.0, abs(best[0]))

        def f2(z):
            omega = math.exp(z[0])
            try:
                return trace(pot, N, omega, unit * z[1], center) / scale
            except OverflowError as exc:  # name the caller's omega, not the frame's
                raise OverflowError(str(exc).replace(repr(omega), f"{math.ldexp(omega, 2 * m)!r} "
                                                     f"({omega!r} in x = 2^{-m} y)", 1)) from None

        omega_star = best[1]
        x_range = _largest_turning_point(pot)
        unit = x_range or 1.0
        log_ws = np.linspace(math.log(0.1 * omega_star), math.log(10.0 * omega_star), 5)
        sigmas = np.linspace(-1.0, 1.0, 5) if x_range > 0 else np.zeros(1)
        starts = [np.array([lw, s]) for lw in log_ws for s in sigmas]
        ends = [np.array(_nelder_mead(f2, z0)) * [1.0, unit] for z0 in starts]
        if even:  # dT/dsigma and its gate scale are both exactly 0 at sigma = 0
            ends.append(np.array([math.log(omega_star), 0.0]))
        best = lowest_stationary([z for z in ends if np.all(np.isfinite(z))], 2)
        if best is None:
            raise ConvergenceError(
                f"no start among {len(starts)} reached a stationary point of the trace"
            )
    with np.errstate(over="ignore"):
        t_val, omega, sigma, resid = np.ldexp(best, [2 * m, 2 * m, -m, 2 * m]).tolist()
    return PmsResult(omega=omega, sigma=sigma, trace_value=t_val, stationarity_residual=resid)
