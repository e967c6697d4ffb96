"""Symmetric eigensolves of a Hamiltonian block, whole or for selected levels.

The block arrives in LAPACK lower band storage (HamiltonianMatrix.bands),
symmetric by construction, and every request goes to LAPACK's banded
symmetric solver (scipy.linalg.eig_banded) with those bands as they are.
The solver reduces the band to tridiagonal form and then:

- the whole block with eigenvectors (time evolution needs every one):
  divide and conquer (?sbevd), giving orthonormal eigenvector rows, here
  with deterministic signs;
- the whole block's energies only (a spectrum without --levels): the
  eigenvalue-only branch of the same driver, which forms no eigenvector;
- a strict subset of the levels (spectra with --levels, convergence
  tables): bisection for the requested eigenvalues only (?sbevx).

Levels are global indices throughout: level center + k is the k-th
eigenvalue of a block whose basis starts at index center, and every
EigenSolution carries the global levels its energies belong to.  No dense
matrix is formed on any path, and energies come back ascending.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eig_banded

from .oscbasis import BasisConfig, HamiltonianMatrix

__all__ = ["EigenSolution", "DiagonalizationError", "diagonalize"]


class DiagonalizationError(RuntimeError):
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

    Every request is solved from the bands by one eig_banded call.
    levels=None returns every eigenpair.  Energies come back sorted
    ascending, and each eigenvector row is rescaled so its largest-magnitude
    entry is positive, making the output deterministic; downstream
    projections rely only on orthonormality, so any fixed convention works.

    levels, a contiguous range of global levels inside the block's
    range(center, center + dim), returns only those energies, with
    vectors=None.  The whole block takes the eigenvalue-only branch of the
    full solver; a strict subset is found by bisection, which for the whole
    block would take ten times as much.  The eigenvalue-only and the
    eigenvector branches reach the same energies through different
    tridiagonal solvers, so they may differ in the last bits.
    """
    center = h.config.center
    block = range(center, center + h.config.dim)
    if levels is not None and (levels.step != 1 or not levels
                               or levels[0] not in block or levels[-1] not in block):
        raise ValueError(
            f"levels {levels} are not a contiguous non-empty range of the "
            f"block's levels [{block.start}, {block.stop})"
        )
    subset = levels is not None and len(levels) < len(block)
    try:
        out = eig_banded(h.bands, lower=True, eigvals_only=levels is not None,
                         select="i" if subset else "a",
                         select_range=(levels[0] - center, levels[-1] - center) if subset else None)
    except np.linalg.LinAlgError as exc:
        raise DiagonalizationError(f"banded eigensolver failed: {exc}") from exc
    if levels is not None:
        return EigenSolution(energies=out, vectors=None, config=h.config, levels=levels)
    energies, columns = out
    vectors = columns.T.copy()
    lead = np.abs(vectors).argmax(axis=1)
    signs = np.sign(vectors[np.arange(vectors.shape[0]), lead])
    signs[signs == 0] = 1.0
    vectors *= signs[:, None]
    return EigenSolution(energies=energies, vectors=vectors, config=h.config, levels=block)
