"""Variational oscillator-basis spectral solver for 1D polynomial potentials.

Pipeline: a confining polynomial potential is represented exactly, the
oscillator-basis frequency (and optionally a coordinate shift) is fixed at a
stationary point of the truncated Hamiltonian trace, the resulting banded
symmetric matrix is assembled in band storage and diagonalized from its
bands (no dense matrix is formed), and Gaussian initial states are
propagated by the method of stationary states.
"""

from .eigen import DiagonalizationError, EigenSolution, diagonalize
from .evolve import (
    EvolutionState,
    InitialGaussian,
    make_evolution,
    observables_series,
    project_shifted_gaussian,
    wavefunction_at,
)
from .oscbasis import (
    BasisConfig,
    HamiltonianMatrix,
    assemble_hamiltonian,
    basis_functions,
)
from .pms import (
    ConvergenceError,
    PmsResult,
    pms_optimize,
    trace,
    trace_scan,
)
from .potential import PolynomialPotential, asym_demo, from_double_well, from_quartic
from .spectrum import (
    ConvergenceStudy,
    SpectrumReport,
    convergence_study,
    solve_spectrum,
)

__version__ = "0.1.0"
