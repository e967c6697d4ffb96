"""Symmetric eigensolves of a Hamiltonian block, whole or for selected levels.

The block arrives in LAPACK lower band storage (HamiltonianMatrix.bands),
symmetric by construction.  Two paths, one contract (ascending energies):

- the whole block: the bands are densified and handed to LAPACK's dense
  symmetric solver via numpy.linalg.eigh, with orthonormal eigenvector rows
  and deterministic signs.  Time evolution needs every eigenvector and uses
  this path;
- selected levels: the bands go straight to LAPACK's banded solver
  (scipy.linalg.eigvals_banded, select='i'), which reduces to tridiagonal
  form and bisects for the requested eigenvalues only.  No eigenvector and
  no dense matrix is formed; spectra and convergence tables use this path.
  A request for every level takes the dense solver and drops its vectors,
  so whole-block energies never depend on which path asked for them.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigvals_banded

from .oscbasis import BasisConfig, HamiltonianMatrix

__all__ = ["EigenSolution", "DiagonalizationError", "diagonalize"]


class DiagonalizationError(RuntimeError):
    """The eigensolver failed to converge on the given matrix."""


@dataclass(frozen=True)
class EigenSolution:
    """Energies in ascending order for block indices offset, offset+1, ...;
    row n of `vectors` holds the components of eigenstate n in the basis,
    or vectors is None when only energies were solved for."""

    energies: np.ndarray
    vectors: np.ndarray | None
    config: BasisConfig
    offset: int = 0

    def __post_init__(self):
        self.energies.flags.writeable = False
        if self.vectors is not None:
            self.vectors.flags.writeable = False


def diagonalize(h: HamiltonianMatrix, levels: range | None = None) -> EigenSolution:
    """Eigenvalues (and, for the whole block, eigenvectors) of a symmetric block.

    levels=None solves the whole block with dense eigh.  Energies come back
    sorted ascending, and each eigenvector row is rescaled so its
    largest-magnitude entry is positive, making the output deterministic;
    downstream projections rely only on orthonormality, so any fixed
    convention works.

    levels, a contiguous range of block indices, returns only those
    energies, with vectors=None and offset=levels.start.  A strict subset of
    the block is solved from its bands.  The whole block goes through eigh
    as with levels=None, so its energies carry the same bits however they
    are asked for.
    """
    dim = h.config.dim
    if levels is not None:
        if levels.step != 1 or not 0 <= levels.start < levels.stop <= dim:
            raise ValueError(
                f"levels {levels} are not a contiguous non-empty range of the "
                f"block indices [0, {dim})"
            )
        if len(levels) < dim:
            try:
                energies = eigvals_banded(h.bands, lower=True, select="i",
                                          select_range=(levels.start, levels.stop - 1))
            except np.linalg.LinAlgError as exc:
                raise DiagonalizationError(f"banded eigensolver failed: {exc}") from exc
            return EigenSolution(energies=energies, vectors=None, config=h.config,
                                 offset=levels.start)
    try:
        energies, columns = np.linalg.eigh(h.dense())
    except np.linalg.LinAlgError as exc:
        raise DiagonalizationError(f"eigensolver did not converge: {exc}") from exc
    if levels is not None:
        return EigenSolution(energies=energies, vectors=None, config=h.config)
    vectors = columns.T.copy()
    lead = np.abs(vectors).argmax(axis=1)
    signs = np.sign(vectors[np.arange(vectors.shape[0]), lead])
    signs[signs == 0] = 1.0
    vectors *= signs[:, None]
    return EigenSolution(energies=energies, vectors=vectors, config=h.config)
