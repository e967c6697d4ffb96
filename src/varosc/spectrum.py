"""Spectrum pipeline: potential -> PMS parameters -> Hamiltonian -> eigenpairs.

One path, solve_spectrum, serves the lowest N levels and blocks centered on a
highly excited target level; both label levels by their global index, from
the eigensolve to the CSV.  Also provides self-referential convergence
studies (errors measured against a larger reference block), plus the CSV
emitters for levels, convergence tables, and trace scans.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .eigen import EigenSolution, diagonalize
from .oscbasis import BasisConfig, assemble_hamiltonian
from .pms import PmsResult, pms_optimize
from .potential import PolynomialPotential

__all__ = [
    "SpectrumReport",
    "ConvergenceStudy",
    "solve_spectrum",
    "convergence_study",
    "block_levels",
    "write_levels_csv",
    "write_convergence_csv",
    "write_trace_scan_csv",
]

_FMT = "{:.17g}"


@dataclass(frozen=True)
class ConvergenceStudy:
    """Per-dimension energies and deviations from a reference block.

    rows holds (dim, level, energy, delta) with delta = |E_n(dim) - E_n(ref)|;
    pms_omegas maps each dim to the frequency the trace criterion picked.
    """

    n_ref: int
    rows: tuple[tuple[int, int, float, float], ...]
    pms_omegas: dict[int, float] = field(default_factory=dict)


@dataclass(frozen=True)
class SpectrumReport:
    """PMS result and eigensolution of one block, and the convergence study
    that produced them, if any."""

    pms: PmsResult
    solution: EigenSolution
    convergence: ConvergenceStudy | None = None

    @property
    def requested_levels(self) -> range:
        """Global indices of the levels the solution holds."""
        return self.solution.levels

    def energy(self, level: int) -> float:
        """Energy of the given global level index."""
        levels = self.solution.levels
        if level not in levels:
            raise ValueError(
                f"level {level} lies outside the solved levels [{levels.start}, {levels.stop})"
            )
        return float(self.energies[level - levels.start])

    @property
    def energies(self) -> np.ndarray:
        return self.solution.energies


def block_levels(N: int, target_level: int | None = None) -> range:
    """Global level indices of an N-dimensional block.

    range(N) without a target; with one, the block is centered on it:
    center = max(0, target_level - N//2), so the target sits mid-block and is
    shielded from border contamination.
    """
    if target_level is None:
        return range(N)
    if target_level < 0:
        raise ValueError(f"target level must be >= 0, got {target_level}")
    center = max(0, target_level - N // 2)
    return range(center, center + N)


def solve_spectrum(pot: PolynomialPotential, N: int, optimize_sigma: bool = False,
                   levels: range | None = None,
                   target_level: int | None = None) -> SpectrumReport:
    """PMS-optimized spectrum of the N-dimensional block block_levels(N, target_level).

    Runs the trace optimization on the block's own diagonal, assembles the
    Hamiltonian at the optimal (omega, sigma), and diagonalizes.  With levels
    (global indices inside the block), only those energies are solved and no
    eigenvector is formed; without, the whole block is solved with
    eigenvectors.  A block centered on target_level labels its level k as
    center+k; the labelling is an approximation validated against uncentered
    runs in tests, not assumed exact.
    """
    center = block_levels(N, target_level).start
    pms = pms_optimize(pot, N, optimize_sigma=optimize_sigma, center=center)
    h = assemble_hamiltonian(pot, BasisConfig(dim=N, omega=pms.omega, sigma=pms.sigma,
                                              center=center))
    return SpectrumReport(pms=pms, solution=diagonalize(h, levels))


def convergence_study(pot: PolynomialPotential, level_set, N_list,
                      N_ref: int | None = None,
                      optimize_sigma: bool = False) -> SpectrumReport:
    """Tabulate level errors against a large reference block.

    delta(N, n) = |E_n(N) - E_n(N_ref)|.  N_ref defaults to 2.5x the largest
    requested dimension and must exceed it.  Every block solves only the
    levels from the lowest to the highest requested one, without
    eigenvectors.  The per-N PMS frequencies are recorded as diagnostics.
    """
    N_list = sorted(int(n) for n in N_list)
    levels = sorted(int(n) for n in level_set)
    if not levels:
        raise ValueError("a convergence study needs at least one level")
    if N_ref is None:
        N_ref = int(math.ceil(2.5 * max(N_list)))
    if N_ref < max(N_list):
        raise ValueError(
            f"reference dimension {N_ref} must be at least every studied dimension"
        )
    if levels[0] < 0 or levels[-1] >= min(N_list):
        raise ValueError(
            f"levels {levels[0]}..{levels[-1]} are outside the smallest block N={min(N_list)}"
        )
    span = range(levels[0], levels[-1] + 1)
    ref = solve_spectrum(pot, N_ref, optimize_sigma=optimize_sigma, levels=span)
    rows = []
    omegas = {N_ref: ref.pms.omega}
    for n_dim in N_list:
        rep = solve_spectrum(pot, n_dim, optimize_sigma=optimize_sigma, levels=span)
        omegas[n_dim] = rep.pms.omega
        for lvl in levels:
            e = rep.energy(lvl)
            delta = abs(e - ref.energy(lvl))
            rows.append((n_dim, lvl, e, delta))
    study = ConvergenceStudy(n_ref=N_ref, rows=tuple(rows), pms_omegas=omegas)
    return SpectrumReport(pms=ref.pms, solution=ref.solution, convergence=study)


def write_levels_csv(path, report: SpectrumReport, levels: range | None = None):
    """Write (n, E_n) rows; floats carry 17 significant digits."""
    levels = levels if levels is not None else report.requested_levels
    lines = ["n,energy"]
    for n in levels:
        lines.append(f"{n},{_FMT.format(report.energy(n))}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_convergence_csv(path, study: ConvergenceStudy):
    """Write (N, n, delta) rows from a convergence study."""
    lines = ["N,n,delta"]
    for n_dim, lvl, _e, delta in study.rows:
        lines.append(f"{n_dim},{lvl},{_FMT.format(delta)}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_trace_scan_csv(path, dim: int, omegas: np.ndarray, values: np.ndarray,
                         omega_pms: float | None):
    """Write (omega, trace_over_n, is_pms) rows for one block dimension.

    is_pms flags the grid point closest to the stationary frequency, when one
    was found inside the grid.
    """
    mark = -1
    if omega_pms is not None:
        mark = int(np.argmin(np.abs(np.asarray(omegas) - omega_pms)))
    lines = [f"# dim={dim}", "omega,trace_over_n,is_pms"]
    for i, (w, v) in enumerate(zip(omegas, values)):
        lines.append(f"{_FMT.format(w)},{_FMT.format(v)},{1 if i == mark else 0}")
    Path(path).write_text("\n".join(lines) + "\n")
