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


class DiagonalizationError(ArithmeticError):
    """The eigensolver failed to converge on the given matrix."""


@dataclass(frozen=True)
class EigenSolution:
    """Energies in ascending order of the global levels `levels`; row k of
    `vectors` holds the components of eigenstate levels[k] in the basis,
    or vectors is None when only energies were solved for."""

    energies: np.ndarray
    vectors: np.ndarray | None
    config: BasisConfig
    levels: range

    def __post_init__(self):
        self.energies.flags.writeable = False
        if self.vectors is not None:
            self.vectors.flags.writeable = False


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
    tridiagonal solvers, so they may differ in the last bits.

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
            out = eig_banded(bands, lower=True, eigvals_only=levels is not None,
                             select="a" if whole else "i",
                             select_range=None if whole else (lo, top))
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
