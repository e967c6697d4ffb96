"""Independent reference computations used to gate the library paths.

Everything here is deliberately built from different primitives than the
package: explicit Hermite polynomials, factorial normalizations, raw
log-gamma summations.  Keep it that way; these are the oracles.  The one
exception is basis_function_value, which picks a single function out of the
package's basis_functions for the tests that probe single values.
exact_trace and exact_stationary_point build the block trace from exact
rationals (diagonal elements by applying the ladder operators to |n>) and
evaluate it with mpmath.  lower_bands turns a dense symmetric test
matrix into the band storage the eigensolver takes, and dense turns a
Hamiltonian block's bands back into the full matrix; the library itself
never forms one.  position_power_matrix is the dense x^p block, read off
the package's own polynomial bands for the tests that compare whole
matrices; momentum_squared_matrix is the dense p^2 block from its own closed
form, since the package only ever forms p^2/2 + (omega^2/2) x^2 as
omega (n + 1/2).  block_levels_mp solves a block's dense matrix
at 30 digits with mpmath.  split_operator_moments propagates a wave function
on an FFT grid, with no basis or eigenpairs.  eigenbasis_position_power
rotates the dense x^p into the eigenbasis, for the reference sums over
pairs of eigenstates that the evolution kernel itself never forms.
dvr_levels is the benchmark's sinc-DVR spectrum, which shares no code with
the package.  project_by_quadrature is the generic Gauss-Hermite projection
that the closed-form Gaussian coefficients are checked against; gaussian
samples the packet it projects.
"""
import functools
import importlib.util
import math
from collections import defaultdict
from fractions import Fraction
from math import lgamma
from pathlib import Path

import mpmath
import numpy as np
from scipy.special import eval_hermite, gammaln, roots_hermite

from varosc import basis_functions
from varosc.evolve import InitialGaussian
from varosc.oscbasis import _check_omega, _polynomial_bands


def hermite_function(n: int, omega: float, x: np.ndarray) -> np.ndarray:
    """phi_n(x) via the explicit polynomial; fine for n <= ~30."""
    alpha = math.sqrt(omega)
    y = alpha * np.asarray(x, dtype=float)
    norm = math.sqrt(alpha) / math.sqrt(2.0**n * math.factorial(n) * math.sqrt(math.pi))
    return norm * np.exp(-0.5 * y * y) * eval_hermite(n, y)


def gh_position_block(p: int, omega: float, dim: int, center: int = 0,
                      nodes: int = 96) -> np.ndarray:
    """(x^p)_{nl} over [center, center+dim) by Gauss-Hermite quadrature.

    Exact (up to roundoff) once nodes > (2*(center+dim) + p)/2.
    """
    alpha = math.sqrt(omega)
    y, w = roots_hermite(nodes)
    hi = center + dim
    norms = np.array([
        1.0 / math.sqrt(2.0**n * math.factorial(n) * math.sqrt(math.pi))
        for n in range(hi)
    ])
    h = np.array([eval_hermite(n, y) for n in range(hi)]) * norms[:, None]
    weighted = w * y**p
    block = (h * weighted) @ h.T / alpha**p
    return block[center:, center:]


def gh_overlap(psi0, omega: float, n: int, lo: float, hi: float,
               points: int = 20001) -> float:
    """<phi_n | psi0> on a finite window by composite Simpson.

    A completely quadrature-flavored second opinion (no Hermite weights);
    the window must cover the support of both factors.
    """
    from scipy.integrate import simpson

    x = np.linspace(lo, hi, points)
    return float(simpson(hermite_function(n, omega, x) * psi0(x), x=x))


def gaussian(width: float, x0: float = 0.0):
    """The normalized Gaussian (width/2pi)^(1/4) exp(-width (x-x0)^2 / 4) as a function of x."""
    pref = (width / (2.0 * math.pi)) ** 0.25
    return lambda x: pref * np.exp(-width * (np.asarray(x, float) - x0) ** 2 / 4.0)


def project_by_quadrature(psi0, basis, n_nodes: int | None = None) -> np.ndarray:
    """Generic projection c_n = integral phi_n(x) psi0(x) dx by Gauss-Hermite.

    psi0 is a function of x, or an InitialGaussian, which is sampled through
    gaussian(); it must decay at least as fast as some Gaussian.  The
    quadrature weight is matched to the basis exponent: with y = alpha x the
    integrand becomes exp(-y^2) times a slowly growing factor, which converges
    geometrically.  The half-weight exp(y^2/2) is folded against the basis
    exponential, so the Hermite rows are their polynomial parts, from the
    normalized three-term recurrence started at pi^(-1/4).  For a shifted
    basis, psi0 is taken in the original coordinate and sampled at x + sigma.

    Raises ArithmeticError when the last coefficient carries more than 1e-6
    of probability, the signature of an under-resolved basis.
    """
    if isinstance(psi0, InitialGaussian):
        psi0 = gaussian(psi0.width_param, psi0.x0)
    nmax = basis.center + basis.dim
    if n_nodes is None:
        n_nodes = nmax + 40
    alpha = math.sqrt(basis.omega)
    y, w = roots_hermite(n_nodes)
    # p[n] = phi_n(x) e^{y^2/2} / sqrt(alpha) at x = y / alpha
    p = np.zeros((nmax, y.size))
    p[0] = math.pi**-0.25
    if nmax > 1:
        p[1] = math.sqrt(2.0) * y * p[0]
    for n in range(1, nmax - 1):
        p[n + 1] = y * math.sqrt(2.0 / (n + 1)) * p[n] - math.sqrt(n / (n + 1.0)) * p[n - 1]
    samples = np.asarray(psi0(y / alpha + basis.sigma), dtype=float)
    c = (p[basis.center:, :] @ (w * np.exp(y * y / 2.0) * samples)) / math.sqrt(alpha)
    if c[-1] ** 2 > 1e-6:
        raise ArithmeticError(
            f"last basis coefficient carries |c|^2 = {c[-1]**2:.3e} > 1e-6; "
            "the basis is too small (or too narrow) for this initial state"
        )
    return c


def literal_centered_coeffs(width: float, omega: float, dim: int) -> np.ndarray:
    """The raw alternating overlap sum for a centered Gaussian.

    Term k of coefficient 2l:
        (-1)^k (2l)!/((2l-2k)! k!) 2^(2(l-k)) (sqrt(2) a/b)^(2(l-k)+1) Gamma(l-k+1/2)
    with prefactor N_{2l}/a * (width/2pi)^(1/4) and b^2 = width/2 + a^2.
    Catastrophic cancellation sets in around 2l ~ 30; use only for low orders.
    """
    alpha = math.sqrt(omega)
    beta = math.sqrt(width / 2.0 + omega)
    ratio = math.sqrt(2.0) * alpha / beta
    c = np.zeros(dim)
    for n in range(0, dim, 2):
        l = n // 2
        logpref = (0.5 * (math.log(alpha) - (n * math.log(2.0) + lgamma(n + 1)
                                             + 0.5 * math.log(math.pi)))
                   - math.log(alpha) + 0.25 * math.log(width / (2.0 * math.pi)))
        total = 0.0
        for k in range(l + 1):
            logt = (lgamma(2 * l + 1) - lgamma(2 * l - 2 * k + 1) - lgamma(k + 1)
                    + 2 * (l - k) * math.log(2.0)
                    + (2 * (l - k) + 1) * math.log(ratio)
                    + lgamma(l - k + 0.5))
            total += (-1) ** k * math.exp(logt + logpref)
        c[n] = total
    return c


def centered_product_coeffs(width: float, omega: float, dim: int) -> np.ndarray:
    """Centered-Gaussian coefficients from the cumulative product form.

    The alternating overlap sum collapses (binomial theorem on the
    Hermite-expansion sum) to

        c_0 = sqrt(2) (w0 omega)^(1/4) / beta,
        c_{2l} / c_{2(l-1)} = t sqrt((2l-1) / (2l)),

    with w0 = width/2, beta^2 = w0 + omega and t = (omega - w0)/beta^2; odd
    coefficients vanish.  Accurate to machine precision at every order.
    """
    w0 = width / 2.0
    beta2 = w0 + omega
    t = (omega - w0) / beta2
    c = np.zeros(dim)
    c[0] = math.sqrt(2.0) * (w0 * omega) ** 0.25 / math.sqrt(beta2)
    val = c[0]
    for l in range(1, (dim - 1) // 2 + 1):
        val *= t * math.sqrt((2 * l - 1) / (2.0 * l))
        c[2 * l] = val
    return c


def literal_shifted_coeffs(width: float, x0: float, omega: float, dim: int) -> np.ndarray:
    """The raw double overlap sum for a Gaussian centered at x0.

    Uses the even-moment value K_{2j} = 2^(j+1/2) Gamma(j+1/2) of
    integral y^{2j} e^{-y^2/2} dy.  Same cancellation caveat as the
    centered sum.
    """
    alpha = math.sqrt(omega)
    beta2 = width / 2.0 + omega
    beta = math.sqrt(beta2)
    c = np.zeros(dim)
    for n in range(dim):
        logpref = (0.5 * (math.log(alpha) - (n * math.log(2.0) + lgamma(n + 1)
                                             + 0.5 * math.log(math.pi)))
                   - math.log(beta) + 0.25 * math.log(width / (2.0 * math.pi))
                   - width * x0 * x0 * omega / (4.0 * beta2))
        total = 0.0
        zshift = width * x0 / (2.0 * beta)
        for k in range(n // 2 + 1):
            for j in range(0, (n - 2 * k) // 2 + 1):
                q = n - 2 * k - 2 * j
                base = (lgamma(n + 1) - lgamma(k + 1) - lgamma(2 * j + 1) - lgamma(q + 1)
                        + (n - 2 * k) * math.log(2.0)
                        + (n - 2 * k) * math.log(alpha / beta)
                        + (2 * j + 1) * 0.5 * math.log(2.0)
                        + lgamma(j + 0.5))
                if zshift == 0.0:
                    if q != 0:
                        continue
                    term = math.exp(base)
                else:
                    term = math.exp(base + q * math.log(abs(zshift)))
                    if zshift < 0 and q % 2 == 1:
                        term = -term
                total += (-1) ** k * term
        c[n] = total * math.exp(logpref)
    return c


def dvr_levels(coeffs, nlev: int) -> np.ndarray:
    """Lowest nlev eigenvalues of p^2/2 + V by the benchmark's sinc-DVR.

    perfbench/checks.py::reference_levels, loaded by file path (perfbench is
    not a package on the path): a numpy-only grid diagonalization, refined
    until two grids agree to 1e-12 relative.
    """
    path = Path(__file__).resolve().parent.parent / "perfbench" / "checks.py"
    spec = importlib.util.spec_from_file_location("perfbench_checks", path)
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    return checks.reference_levels(coeffs, nlev)


def golden_min(f, lo: float, hi: float, iters: int = 300):
    """Plain golden-section minimizer on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
        if abs(b - a) < 1e-15 * (1.0 + abs(a)):
            break
    return 0.5 * (a + b)


def position_power_closed_form(p: int, omega: float, dim: int, center: int = 0) -> np.ndarray:
    """Closed-form summation for (x^p)_{n,l}; independent of the ladder recurrence.

    For l - n = 2*lam (p = 2r even) or l - n = 2*lam + 1 (p = 2r+1 odd),
    lam >= 0 and r >= lam,

        (x^p)_{n,l} = sqrt(n! l!) / alpha^p *
            sum_k  p! / (2^(p-k-lam-e/2) (r-lam-k)! (n-k)! (2lam+e+k)! k!)

    with e = p mod 2 and k running to min(n, r-lam); all other elements
    vanish.  The alpha^p denominator is the convention that reproduces
    (x^2)_{00} = 1/(2 omega); terms are accumulated through log-gamma so
    factorials of large indices never appear explicitly.
    """
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


def basis_function_value(n: int, omega: float, x) -> float | np.ndarray:
    """Single basis function phi_n evaluated at x (scalar or array)."""
    if n < 0:
        raise ValueError(f"basis index must be >= 0, got {n}")
    vals = basis_functions(n + 1, omega, x)[n]
    if np.ndim(x) == 0:
        return float(vals[0])
    return vals


class ClosedFormBranchError(ValueError):
    """The closed-form stationary point is complex or non-positive."""


def pms_omega_quartic_closed_form(m_squared_signed: float, g: float, N: int) -> float:
    """Closed-form stationary frequency for V = (mu/2) x^2 + g x^4.

    m_squared_signed is the signed quadratic coefficient mu = 2*kappa_2
    (negative for a double well).  The trace is

        T_N = (N^2/4)(omega + mu/omega) + g N (1 + 2N^2) / (4 omega^2)

    and stationarity gives the depressed cubic omega^3 - mu*omega - 2G = 0
    with G = g (1 + 2N^2)/N.  The unique positive root is

        omega = -mu / X^(1/3) - X^(1/3) / 3,
        X = -27 G + sqrt(729 G^2 - 27 mu^3),

    evaluated here with X rationalized to -27 mu^3 / (27G + sqrt(...)) because
    the direct difference cancels catastrophically when |mu|^3 << 27 G^2.
    Raises ClosedFormBranchError when the square root turns complex (three
    real stationary points; the numeric search is authoritative there) or the
    root fails to be a positive stationary point.
    """
    if g <= 0.0:
        raise ValueError(f"quartic coupling must be positive, got {g!r}")
    if N < 1:
        raise ValueError(f"block dimension must be >= 1, got {N}")
    mu = float(m_squared_signed)
    G = g * (1.0 + 2.0 * N * N) / N
    disc = 729.0 * G * G - 27.0 * mu**3
    if disc < 0.0:
        raise ClosedFormBranchError(
            "closed form leaves the real branch (27 G^2 < mu^3); "
            "use the numeric search"
        )
    if mu == 0.0:
        omega = (2.0 * G) ** (1.0 / 3.0)
    else:
        x = -27.0 * mu**3 / (27.0 * G + math.sqrt(disc))
        u = math.copysign(abs(x) ** (1.0 / 3.0), x)
        omega = -mu / u - u / 3.0
    if not (omega > 0.0 and math.isfinite(omega)):
        raise ClosedFormBranchError(
            f"closed form produced a non-positive frequency {omega!r}"
        )
    # stationarity gate: omega * dT/domega relative to T
    t_val = (N * N / 4.0) * (omega + mu / omega) + g * N * (1 + 2 * N * N) / (4.0 * omega**2)
    dt = (N * N / 4.0) * (1.0 - mu / omega**2) - g * N * (1 + 2 * N * N) / (2.0 * omega**3)
    if abs(omega * dt) > 1e-9 * max(abs(t_val), 1.0):
        raise ClosedFormBranchError(
            f"closed-form root is not stationary (residual {omega * dt:.3e})"
        )
    return omega


@functools.lru_cache(maxsize=None)
def _ladder_diagonal(p: int, n: int) -> int:
    """<n|(a + a^dagger)^p|n> exactly, by applying the ladder to |n> p times.

    With the state written as sum_m u_m sqrt(m!/n!) |m>, a^dagger moves u_m to
    u_{m+1} and a moves m u_m to u_{m-1}, so every u_m stays an integer.
    """
    u = {n: 1}
    for _ in range(p):
        nxt = defaultdict(int)
        for m, v in u.items():
            nxt[m + 1] += v
            if m:
                nxt[m - 1] += m * v
        u = nxt
    return u.get(n, 0)


def _exact_moment(p: int, dim: int, center: int) -> Fraction:
    """sum_n (x^p)_{n,n} omega^(p/2) over [center, center+dim), p even, exactly."""
    return Fraction(sum(_ladder_diagonal(p, n) for n in range(center, center + dim)),
                    2**(p // 2))


def _trace_monomials(coeffs, dim: int, center: int):
    """The block trace as sum_t c_t sigma^k_t omega^e_t, exactly: (c_t, k_t, e_t).

    The kinetic sum is (N (N + 2c) / 4) omega.  Each even i and each j >= i
    gives kappa_j C(j, i) D_i sigma^(j-i) omega^(-i/2), the binomial expansion
    of V(x + sigma) kept term by term, with the float coefficients taken as
    exact rationals and D_0 = N.
    """
    out = [(Fraction(dim * (dim + 2 * center), 4), 0, 1)]
    for i in range(0, len(coeffs), 2):
        d_i = _exact_moment(i, dim, center) if i else Fraction(dim)
        for j in range(i, len(coeffs)):
            if coeffs[j] != 0.0:
                out.append((Fraction(coeffs[j]) * math.comb(j, i) * d_i, j - i, -(i // 2)))
    return out


def _mp(q: Fraction):
    return mpmath.mpf(q.numerator) / q.denominator


def exact_trace(pot, cfg, dps: int = 50):
    """(T, scale) of the block trace at dps digits, as mpmath numbers.

    T is exact to the working precision for the float inputs (coefficients,
    omega and sigma taken as exact binary values).  scale is the sum of the
    magnitudes of its terms (kinetic, and every binomial kappa-term times its
    block moment), the size of the rounding a float evaluation can make.
    """
    with mpmath.workdps(dps):
        omega, sigma = mpmath.mpf(cfg.omega), mpmath.mpf(cfg.sigma)
        terms = [_mp(c) * sigma**k * omega**e
                 for c, k, e in _trace_monomials(pot.coeffs, cfg.dim, cfg.center)]
        return mpmath.fsum(terms), mpmath.fsum(abs(t) for t in terms)


def exact_stationary_point(pot, dim: int, omega0: float, sigma0=None, dps: int = 40,
                           center: int = 0):
    """Stationary point of the exact trace of the block [center, center+dim)
    near omega0, sigma0.

    Newton on the analytic gradient at dps + 10 digits: in omega alone at
    sigma = 0 when sigma0 is None, else in (omega, sigma).  Returns
    (omega, sigma) as floats.
    """
    with mpmath.workdps(dps + 10):
        mono = [(_mp(c), k, e) for c, k, e in _trace_monomials(pot.coeffs, dim, center)]

        def d_omega(omega, sigma):
            return mpmath.fsum(c * e * sigma**k * omega**(e - 1) for c, k, e in mono if e)

        def d_sigma(omega, sigma):
            return mpmath.fsum(c * k * sigma**(k - 1) * omega**e for c, k, e in mono if k)

        tol = mpmath.mpf(10)**(-dps)
        if sigma0 is None:
            omega = mpmath.findroot(lambda w: d_omega(w, mpmath.mpf(0)),
                                    mpmath.mpf(omega0), tol=tol)
            return float(omega), 0.0
        omega, sigma = mpmath.findroot(lambda w, s: [d_omega(w, s), d_sigma(w, s)],
                                       (mpmath.mpf(omega0), mpmath.mpf(sigma0)), tol=tol)
        return float(omega), float(sigma)


def lower_bands(a: np.ndarray) -> np.ndarray:
    """Lower band storage out[k, i] = a[i+k, i] for k = 0..kd, kd the bandwidth of a.

    Checks exact symmetry on the way: each diagonal must equal its mirror,
    and the bands must hold every nonzero entry of a, so nothing outside
    them can break the symmetry.
    """
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    outside = np.count_nonzero(a)
    bands = []
    for k in range(n):
        low = np.diagonal(a, -k)
        if not np.array_equal(low, np.diagonal(a, k)):
            raise ValueError("matrix is not exactly symmetric")
        bands.append(np.pad(low, (0, k)))
        outside -= np.count_nonzero(low) * (2 if k else 1)
        if outside == 0:
            break
    return np.array(bands)


def _densify(bands: np.ndarray) -> np.ndarray:
    """Symmetric dense matrix from upper bands out[k, i] = M_{i, i+k}."""
    dim = bands.shape[1]
    out = np.zeros((dim, dim))
    idx = np.arange(dim)
    for k in range(min(bands.shape[0], dim)):
        out[idx[:dim - k], idx[k:]] = bands[k, :dim - k]
        out[idx[k:], idx[:dim - k]] = bands[k, :dim - k]
    return out


def dense(h) -> np.ndarray:
    """The full dim x dim matrix of a HamiltonianMatrix, exactly symmetric."""
    return _densify(h.bands)


def position_power_matrix(p: int, omega: float, dim: int, center: int = 0) -> np.ndarray:
    """Exact matrix elements (x^p)_{n,l} for n, l in [center, center+dim).

    The dense form of the package's bands of the monomial x^p: exactly
    symmetric, banded with half bandwidth p, and with exact zeros wherever
    p + n + l is odd.
    """
    _check_omega(omega)
    if p < 0:
        raise ValueError(f"power must be >= 0, got {p}")
    return _densify(_polynomial_bands((0.0,) * p + (1.0,), omega, dim, center))


def momentum_squared_matrix(omega: float, dim: int, center: int = 0) -> np.ndarray:
    """Matrix of p^2 from its closed form, which the package never builds:
    diagonal omega (2n + 1)/2, second off-diagonal -(omega/2) sqrt((n+1)(n+2)),
    and a zero first off-diagonal by parity."""
    _check_omega(omega)
    n = center + np.arange(dim, dtype=float)
    out = np.diag(omega * (2.0 * n + 1.0) / 2.0)
    i = np.arange(max(dim - 2, 0))
    out[i, i + 2] = out[i + 2, i] = -(omega / 2.0) * np.sqrt((n[i] + 1.0) * (n[i] + 2.0))
    return out
def block_levels_mp(bands: np.ndarray, dps: int = 30) -> np.ndarray:
    """Every eigenvalue of the block with these upper bands, ascending.

    mpmath.eigsy on the densified bands at dps digits: the float entries
    are taken as exact binary values, so the result is the block's own
    spectrum, rounded once to float.  Cost O(dim^3) at dps digits, about
    half a second at dim = 40.
    """
    with mpmath.workdps(dps):
        levels = mpmath.eigsy(mpmath.matrix(_densify(bands).tolist()), eigvals_only=True)
        return np.sort(np.array([float(e) for e in levels]))


def eigenbasis_position_power(p: int, state) -> np.ndarray:
    """(x^p)_{nl} between eigenstates n, l of an evolution state: D X D^T over the block.

    x is the basis coordinate; a shifted basis adds sigma to it.
    """
    cfg, d = state.solution.config, state.solution.vectors
    return d @ position_power_matrix(p, cfg.omega, cfg.dim, cfg.center) @ d.T


def _strang_moments(v, psi0, times, dt: float, lo: float, hi: float, points: int):
    """<x> and <x^2> of Strang steps A K A (A = e^{-iV dt/2}, K = e^{-i p^2 dt/2}).

    n steps are A K (V K)^(n-1) A = A (K V)^n A^-1 with V = A^2, and the outer
    A is a phase that leaves |psi|^2 unchanged, so the loop applies K V alone.
    """
    x = np.linspace(lo, hi, points, endpoint=False)
    k = 2.0 * np.pi * np.fft.fftfreq(points, x[1] - x[0])
    steps = np.asarray(times, dtype=float) / dt
    if not np.array_equal(steps, np.rint(steps)):
        raise ValueError(f"every time must be a whole number of steps {dt}")
    kinetic = np.exp(-0.5j * dt * k * k)
    potential = np.exp(-1j * dt * v(x))
    phi = np.exp(0.5j * dt * v(x)) * psi0(x)
    out = np.empty((2, steps.size))
    done = 0
    for j, n in enumerate(steps.astype(int)):
        for _ in range(n - done):
            phi = np.fft.ifft(kinetic * np.fft.fft(potential * phi))
        done = n
        rho = phi.real**2 + phi.imag**2
        out[:, j] = (x * rho).sum() / rho.sum(), (x * x * rho).sum() / rho.sum()
    return out


def split_operator_moments(v, psi0, times, dt: float, levels: int = 4,
                           lo: float = -30.0, hi: float = 30.0, points: int = 256):
    """<x>(t) and <x^2>(t) under H = p^2/2 + v(x) by an FFT split-operator propagator.

    An independent propagator for the evolution layer: no basis, no
    eigenpairs, only the sorted times (each a whole number of steps dt) on a
    periodic grid of points on [lo, hi).  Strang splitting is symmetric, so
    its error expands in even powers of dt; Richardson extrapolation over
    dt, dt/2, ..., dt/2^(levels-1) cancels the first levels-1 of them.
    """
    f = [_strang_moments(v, psi0, times, dt / 2**j, lo, hi, points) for j in range(levels)]
    for order in range(1, levels):
        c = 4.0**order
        f = [(c * fine - coarse) / (c - 1.0) for coarse, fine in zip(f, f[1:])]
    return f[0]
