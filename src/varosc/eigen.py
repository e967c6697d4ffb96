"""Symmetric eigensolves of a Hamiltonian block, whole or for selected levels.

The block arrives in LAPACK lower band storage (HamiltonianMatrix.bands),
symmetric by construction, and every request goes to LAPACK's banded
symmetric solver (scipy.linalg.eig_banded).  The solver reduces the band to
tridiagonal form and then:

- the whole block with eigenvectors (time evolution needs every one):
  divide and conquer (?sbevd), giving orthonormal eigenvector rows, each
  with the sign LAPACK gives it (no output depends on it);
- the whole block's energies only (a spectrum without --levels): the
  eigenvalue-only branch of the same driver, which forms no eigenvector;
- a strict subset of the levels (spectra with --levels, convergence
  tables): bisection for the requested eigenvalues only (?sbevx).

When every odd band is exactly zero (an even potential at sigma = 0), H is
the direct sum of its even-state and odd-state sectors, each of half the
size and half the bandwidth, and a request that starts at the block's
lowest level is solved sector by sector and merged; any other request is
one solve of the whole bands.

The lowest levels of an uncentered block (a request whose top level is
below _CERTIFY_TOP, on a sector of at least _CERTIFY_MIN states) are first
sought in a leading sub-block of each sector (or of the whole bands), since
PMS puts the low levels in the first basis states.  The sub-block of 64
states, doubled up to half the sector, is bisected for its energies; Cauchy
interlacing makes each an upper bound on the sector's level, and an inertia
count (Haynsworth's additivity over the sub-block and its Schur complement,
one banded LU and one banded Cholesky per level) places the level above a
lower end set below it by a margin of eps times a bound on the sub-block's
norm.  The upper ends are the levels returned.  The count is a check at the
level of rounding, not a proof: it reads the sub-block's inertia from its
computed energies, whose error is a small multiple of that margin.  A level
that fails it (a doublet split by less than the margin, or a sub-block that
has not converged) sends the request to the bisection of the whole sector,
bit for bit.  The tests sweep seeded quartics, double wells, sextics and
shifted quartics: 33 of 42 sectors pass, and on a 100-state sector the
levels that pass are within 7.4e-16 of max(1, |E|) of their 30-digit values.

Levels are global indices throughout: level center + k is the k-th
eigenvalue of a block whose basis starts at index center, and every
EigenSolution carries the global levels its energies belong to.  No dense
matrix is formed on any path, and energies come back ascending.

scipy is imported inside diagonalize, so it loads on a process's first
eigensolve: importing varosc, a trace scan and a config check need numpy only.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .oscbasis import BasisConfig, HamiltonianMatrix

__all__ = ["EigenSolution", "DiagonalizationError", "diagonalize"]

# levels requests on uncentered sectors of at least _CERTIFY_MIN states, with a
# top level below _CERTIFY_TOP, try a leading sub-block first
# (_certified_levels), starting at _LEAD_START states.  Over 24 quartic and
# double-well sectors, levels 0..9, one BLAS thread: the sub-block path took
# 121% of the whole sector's bisection time at 128 states, 100% at 160 and 94%
# at 192.  Over quartics, double wells and a sextic at N = 400-1600, levels
# 0..15 and 6..15 took 54% and 42% of the whole block's bisection time in sum,
# while levels 0..63 and 54..63 took up to 1.6x and 2.9x at N = 400-800, where
# the top levels need sub-blocks past 64 states
_CERTIFY_MIN = 192
_CERTIFY_TOP = 16
_LEAD_START = 64
_EPS = float(np.finfo(float).eps)


class DiagonalizationError(ArithmeticError):
    """The eigensolver failed to converge on the given matrix."""


@dataclass(frozen=True)
class EigenSolution:
    """Energies in ascending order of the global levels `levels`; row k of
    `vectors` holds the components of eigenstate levels[k] in the basis,
    or vectors is None when only energies were solved for.  Eigenvector rows
    that are not orthonormal to 1e-10 are rejected here, once per solution,
    since every evolution rotates by them as by an orthogonal matrix."""

    energies: np.ndarray
    vectors: np.ndarray | None
    config: BasisConfig
    levels: range

    def __post_init__(self):
        self.energies.flags.writeable = False
        if self.vectors is not None:
            d = self.vectors
            gram_err = np.max(np.abs(d @ d.T - np.eye(d.shape[0])))
            if gram_err > 1e-10:
                raise ValueError(
                    f"eigenvector rows are not orthonormal (max deviation {gram_err:.3e})"
                )
            d.flags.writeable = False


def diagonalize(h: HamiltonianMatrix, levels: range | None = None) -> EigenSolution:
    """Eigenvalues (and, for levels=None, eigenvectors) of a symmetric block.

    levels=None returns every eigenpair.  Energies come back sorted
    ascending, and each eigenvector row keeps LAPACK's sign: every use
    downstream (a projection times its row, the observables and the
    wavefunction) is even in the sign of each row, so none is fixed.

    levels, a contiguous range of global levels inside the block's
    range(center, center + dim), returns only those energies, with
    vectors=None.  The whole block takes the eigenvalue-only branch of the
    full solver; a strict subset is found by bisection, which for the whole
    block would take ten times as much.  The eigenvalue-only and the
    eigenvector branches reach the same energies through different
    tridiagonal solvers, so they may differ in the last bits.  On an
    uncentered block, the lowest levels are first read from a leading
    sub-block that an inertia count checks (see the module docstring), which
    differs from the whole sector's bisection in the last bits too.

    When every odd band is zero and the request starts at the block's lowest
    level (levels None or levels[0] == center), the even basis states
    (bands[0::2, 0::2]) and the odd ones (bands[0::2, 1::2]) are solved for
    their ranks 0..hi, hi the request's top block rank, and a stable sort of
    the merged energies keeps ranks 0..hi.  That names level k exactly only
    because every sector level below it was solved, so a request starting
    mid-block, which would need each sector solved from rank 0, is one solve
    of the whole bands instead.  A doublet split by less than roundoff still
    comes back ascending (even state first on an exact tie), and a sector's
    eigenvector rows are zero on the other parity.
    """
    from scipy.linalg import eig_banded  # here, not at the top: see the module docstring

    center, dim = h.config.center, h.config.dim
    block = range(center, center + dim)
    if levels is not None and (levels.step != 1 or not levels
                               or levels[0] not in block or levels[-1] not in block):
        raise ValueError(
            f"levels {levels} are not a contiguous non-empty range of the "
            f"block's levels [{block.start}, {block.stop})"
        )
    lo, hi = (0, dim - 1) if levels is None else (levels[0] - center, levels[-1] - center)
    split = lo == 0 and not h.bands[1::2].any()
    # each sector: the basis states it holds and its bands
    sectors = ([(slice(p, None, 2), h.bands[0::2, p::2]) for p in range(min(dim, 2))]
               if split else [(slice(None), h.bands)])
    energies, rows = [], []
    for states, bands in sectors:
        top = min(hi, bands.shape[1] - 1)
        whole = lo == 0 and top == bands.shape[1] - 1
        try:
            bracket = None
            # the sub-block must also hold the coupling's kd x kd corner
            if (levels is not None and center == 0 and bands.shape[1] >= _CERTIFY_MIN
                    and top < _CERTIFY_TOP and len(bands) <= _LEAD_START):
                bracket = _certified_levels(bands, lo, top)
            out = bracket[1] if bracket is not None else eig_banded(
                bands, lower=True, eigvals_only=levels is not None,
                select="a" if whole else "i", select_range=None if whole else (lo, top))
        except np.linalg.LinAlgError as exc:
            raise DiagonalizationError(f"banded eigensolver failed: {exc}") from exc
        if levels is None:
            out, columns = out
            sector_rows = np.zeros((len(out), dim))
            sector_rows[:, states] = columns.T
            rows.append(sector_rows)
        energies.append(out)
    energies = np.concatenate(energies)
    order = np.argsort(energies, kind="stable")[:hi - lo + 1]
    energies = energies[order]
    if levels is not None:
        return EigenSolution(energies=energies, vectors=None, config=h.config, levels=levels)
    return EigenSolution(energies=energies, vectors=np.concatenate(rows)[order],
                         config=h.config, levels=block)


def _certified_levels(bands, lo, top):
    """Brackets (lower, upper) of levels lo..top < _LEAD_START of a banded
    block, checked from its leading m x m block A, or None when no A of at
    most half the block passes; m starts at _LEAD_START and doubles after
    each failure.  diagonalize returns the upper ends.

    Write C for the trailing block and B for the coupling, nonzero only in a
    kd x kd corner.  Cauchy interlacing gives E_k <= E_k(A), the upper end
    (for A's exact energies; the computed ones carry A's rounding, and on a
    deep double well's 192-state sector the 30-digit levels lay up to 0.3
    margins above them).
    For the lower end s_k = E_k(A) - margin: if A has exactly k energies
    below s_k and the Schur complement C - s_k - B^T (A - s_k)^-1 B is
    positive definite, Haynsworth's inertia additivity counts exactly k
    levels of the block below s_k, so E_k >= s_k.  The correction is a
    kd x kd corner, from one banded LU solve of A - s_k with kd right-hand
    sides, and one banded Cholesky of the trailing bands shows the
    complement positive definite.

    The margin is 8 eps max(1, |E_k(A)|), or eps ||A|| where that is larger.
    The count of A's energies below s_k is read from A's computed energies,
    whose error is a small multiple of eps ||A|| (the band reduction and the
    bisection each add some), so this is a check at the level of rounding,
    not a proof; the sign of det(A - s_k) from the LU must agree with the
    count, which catches a miscount by one level but not by two.  The first
    margin alone passed a double-well sector whose m = 64 block was 8.5e-13
    short of convergence.  A wider margin is no safer: the upper end is
    returned, and a wider bracket passes sub-blocks further from convergence
    (measured over a seeded sweep of 168 sectors: at 16 eps ||A|| the upper
    ends moved up to 1.0e-13 of max(1, |E|) from the whole sector's
    bisection, at 64 eps ||A|| up to 7.9e-13, against 3.6e-14 here).
    """
    from scipy.linalg import eig_banded, get_lapack_funcs

    gbsv, pbtrf = get_lapack_funcs(("gbsv", "pbtrf"), (bands,))
    kd, n, m = bands.shape[0] - 1, bands.shape[1], _LEAD_START
    r, c = np.nonzero(np.tri(kd, dtype=bool))  # a kd x kd lower triangle
    while m <= n // 2:
        # A's bands, and the coupling[j, i] = H[m - kd + j, m + i] they leave out
        a, coupling = bands[:, :m].copy(), np.zeros((kd, kd))
        for j in range(kd):
            coupling[j, :j + 1] = a[kd - j:, m - kd + j]
            a[kd - j:, m - kd + j] = 0.0
        upper = eig_banded(a, lower=True, eigvals_only=True, select="i", select_range=(0, top))
        peaks = np.abs(a).max(axis=1)
        rounding = _EPS * (peaks[0] + 2.0 * peaks[1:].sum())  # eps times a bound on ||A||
        # A in ?gbsv's general band storage: A[i, j] at row 2 kd + i - j
        general = np.zeros((3 * kd + 1, m))
        general[2 * kd:] = a
        for d in range(1, kd + 1):
            general[2 * kd - d, d:] = a[d, :m - d]
        rhs = np.zeros((m, kd))
        rhs[m - kd:] = coupling
        unswapped = np.arange(m)
        lower = upper.copy()
        for k in range(top, lo - 1, -1):  # the top level is the likeliest to fail
            s = lower[k] = upper[k] - max(8.0 * _EPS * max(1.0, abs(upper[k])), rounding)
            if k and upper[k - 1] >= s:
                break
            ab = general.copy()
            ab[2 * kd] -= s
            lu, piv, x, info = gbsv(kd, kd, ab, rhs, overwrite_ab=1)
            # det(A - s_k) has the sign (-1)^(row swaps + negative pivots); piv is 0-based
            flips = np.count_nonzero(piv != unswapped) + np.count_nonzero(lu[2 * kd] < 0.0)
            if info or (flips - k) % 2:
                break
            schur = bands[:, m:].copy()
            schur[0] -= s
            schur[r - c, c] -= (coupling.T @ x[m - kd:])[r, c]  # B^T (A - s_k)^-1 B
            if pbtrf(schur, lower=1, overwrite_ab=1)[1]:
                break
        else:
            return lower[lo:], upper[lo:]
        m *= 2
    return None
