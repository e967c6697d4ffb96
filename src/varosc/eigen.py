"""Symmetric eigensolves of a Hamiltonian block, whole or for selected levels.

Two paths, one contract (ascending energies, an exactly symmetric input):

- the whole block: LAPACK's dense symmetric solver via numpy.linalg.eigh,
  with orthonormal eigenvector rows and deterministic signs.  Time
  evolution needs every eigenvector and uses this path;
- selected levels: the block is banded, so its lower bands go to LAPACK's
  banded solver (scipy.linalg.eigvals_banded, select='i'), which reduces to
  tridiagonal form and bisects for the requested eigenvalues only.  No
  eigenvector is formed; spectra and convergence tables use this path.  A
  request for every level takes the dense solver and drops its vectors, so
  whole-block energies never depend on which path asked for them.
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


def _lower_bands(a: np.ndarray) -> np.ndarray:
    """Lower bands out[k, i] = a[i+k, i] for k = 0..kd, kd the bandwidth of a.

    Checks exact symmetry on the way: each diagonal must equal its mirror,
    and the bands must hold every nonzero entry of a, so nothing outside
    them can break the symmetry.
    """
    n = a.shape[0]
    outside = np.count_nonzero(a)
    bands = []
    for k in range(n):
        low = np.diagonal(a, -k)
        if not np.array_equal(low, np.diagonal(a, k)):
            raise ValueError("Hamiltonian block is not exactly symmetric")
        bands.append(np.pad(low, (0, k)))
        outside -= np.count_nonzero(low) * (2 if k else 1)
        if outside == 0:
            break
    return np.array(bands)


def diagonalize(h: HamiltonianMatrix, levels: range | None = None) -> EigenSolution:
    """Eigenvalues (and, for the whole block, eigenvectors) of a symmetric block.

    levels=None solves the whole block with dense eigh.  Energies come back
    sorted ascending, and each eigenvector row is rescaled so its
    largest-magnitude entry is positive, making the output deterministic;
    downstream projections rely only on orthonormality, so any fixed
    convention works.

    levels, a contiguous range of block indices, returns only those
    energies, with vectors=None and offset=levels.start.  A strict subset of
    the block is solved from the nonzero bands of the block.  The whole
    block goes through eigh as with levels=None, so its energies carry the
    same bits however they are asked for.
    """
    a = np.asarray(h.entries, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if levels is not None:
        if levels.step != 1 or not 0 <= levels.start < levels.stop <= a.shape[0]:
            raise ValueError(
                f"levels {levels} are not a contiguous non-empty range of the "
                f"block indices [0, {a.shape[0]})"
            )
        if len(levels) < a.shape[0]:
            lower = _lower_bands(a)
            try:
                energies = eigvals_banded(lower, lower=True, select="i",
                                          select_range=(levels.start, levels.stop - 1))
            except np.linalg.LinAlgError as exc:
                raise DiagonalizationError(f"banded eigensolver failed: {exc}") from exc
            return EigenSolution(energies=energies, vectors=None, config=h.config,
                                 offset=levels.start)
    if not np.array_equal(a, a.T):
        raise ValueError("Hamiltonian block is not exactly symmetric")
    try:
        energies, columns = np.linalg.eigh(a)
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
