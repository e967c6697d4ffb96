import math
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyval

from varosc import (
    BasisConfig,
    EigenSolution,
    InitialGaussian,
    PolynomialPotential,
    asym_demo,
    assemble_hamiltonian,
    basis_functions,
    diagonalize,
    from_double_well,
    from_quartic,
    make_evolution,
    observables_series,
    project_shifted_gaussian,
    solve_spectrum,
    wavefunction_at,
)

from varosc.evolve import write_observables_csv, write_wavefunction_csv

from oracles import (
    centered_product_coeffs,
    eigenbasis_position_power,
    gaussian,
    literal_centered_coeffs,
    literal_shifted_coeffs,
    project_by_quadrature,
    split_operator_moments,
)

DW_MASS = math.sqrt(1.0 / 24.0)  # slow-roll double-well mass for a=5, lam=0.01
DWELL = from_double_well(0.01, 5.0)


def slowroll_state(dim=60, width=DW_MASS, x0=0.0):
    rep = solve_spectrum(DWELL, dim)
    c = project_shifted_gaussian(InitialGaussian(width, x0), rep.solution.config)
    return make_evolution(c, rep.solution), rep


# -------------------------------------------------------------- projections

def test_matched_width_is_pure_ground_state():
    basis = BasisConfig(dim=20, omega=0.35)
    c = project_shifted_gaussian(InitialGaussian(2.0 * basis.omega), basis)
    assert c[0] == pytest.approx(1.0, rel=1e-14)
    assert np.max(np.abs(c[1:])) < 1e-14


def test_centered_coefficients_vanish_for_odd_index():
    basis = BasisConfig(dim=31, omega=1.0)
    c = project_shifted_gaussian(InitialGaussian(0.7), basis)
    assert np.all(c[1::2] == 0.0)


def test_centered_matches_quadrature_elementwise():
    rng = np.random.default_rng(19)
    for _ in range(8):
        omega = float(rng.uniform(0.1, 5.0))
        ratio = float(rng.uniform(0.2, 5.0))
        width = 2.0 * omega / ratio  # packet width parameter
        basis = BasisConfig(dim=80, omega=omega)
        gauss = InitialGaussian(width)
        closed = project_shifted_gaussian(gauss, basis)
        quad = project_by_quadrature(gauss, basis, n_nodes=300)
        assert np.max(np.abs(closed - quad)) < 1e-10


def test_centered_completeness_deficit():
    m = DW_MASS
    for ratio in (0.2, 0.5, 2.0, 5.0):
        basis = BasisConfig(dim=60, omega=ratio * m / 2.0)
        c = project_shifted_gaussian(InitialGaussian(m), basis)
        assert np.sum(c * c) >= 1.0 - 1e-10
        assert np.sum(c * c) <= 1.0 + 1e-12


def test_centered_agrees_with_literal_sum_at_low_order():
    basis = BasisConfig(dim=24, omega=0.48)
    c = project_shifted_gaussian(InitialGaussian(DW_MASS), basis)
    lit = literal_centered_coeffs(DW_MASS, basis.omega, basis.dim)
    assert np.max(np.abs(c - lit)) < 1e-10


def test_shifted_reduces_to_centered_at_origin():
    basis = BasisConfig(dim=50, omega=0.9)
    g = InitialGaussian(0.4, 0.0)
    np.testing.assert_allclose(project_shifted_gaussian(g, basis),
                               centered_product_coeffs(0.4, basis.omega, basis.dim),
                               rtol=0, atol=1e-15)


def test_shifted_coherent_state_pattern():
    # width matched to the basis (width = 2 omega): c_n = e^{-w x0^2/8} (w/4)^{n/2} x0^n / sqrt(n!)
    omega, x0 = 0.8, 1.7
    width = 2.0 * omega
    basis = BasisConfig(dim=40, omega=omega)
    c = project_shifted_gaussian(InitialGaussian(width, x0), basis)
    n = np.arange(40)
    lgf = np.array([math.lgamma(k + 1) for k in n])
    ref = np.exp(-width * x0 * x0 / 8.0
                 + 0.5 * n * np.log(width / 4.0) + n * np.log(x0) - 0.5 * lgf)
    np.testing.assert_allclose(c, ref, rtol=1e-11, atol=1e-14)


def test_shifted_matches_quadrature_elementwise():
    rng = np.random.default_rng(29)
    for _ in range(8):
        omega = float(rng.uniform(0.2, 3.0))
        ratio = float(rng.uniform(0.25, 4.0))  # basis-to-packet width ratio
        width = 2.0 * omega / ratio
        x0 = float(rng.uniform(-3.0, 3.0))
        basis = BasisConfig(dim=80, omega=omega)
        gauss = InitialGaussian(width, x0)
        closed = project_shifted_gaussian(gauss, basis)
        quad = project_by_quadrature(gauss, basis, n_nodes=320)
        assert np.max(np.abs(closed - quad)) < 1e-10


def test_shifted_agrees_with_literal_double_sum_at_low_order():
    basis = BasisConfig(dim=22, omega=0.48)
    for width, x0 in ((DW_MASS, 5.0), (2 * DW_MASS, -2.0)):
        c = project_shifted_gaussian(InitialGaussian(width, x0), basis)
        lit = literal_shifted_coeffs(width, x0, basis.omega, basis.dim)
        assert np.max(np.abs(c - lit)) < 5e-10


def test_slowroll_shifted_completeness():
    rep = solve_spectrum(DWELL, 80)
    basis = rep.solution.config
    m = DW_MASS
    for width in (m, 2 * m):
        c = project_shifted_gaussian(InitialGaussian(width, 5.0), basis)
        assert np.sum(c * c) >= 1.0 - 1e-8


def test_closed_forms_reject_shifted_or_centered_bases():
    for g in (InitialGaussian(1.0), InitialGaussian(1.0, 2.0)):
        with pytest.raises(ValueError):
            project_shifted_gaussian(g, BasisConfig(dim=8, omega=1.0, center=2))


def test_shifted_basis_matches_quadrature_elementwise():
    # asym_demo's PMS basis has sigma = -3.595: the closed form sees the
    # packet at x0 - sigma, the quadrature samples it at x + sigma
    basis = solve_spectrum(asym_demo(), 40, optimize_sigma=True).solution.config
    assert basis.sigma < -3.0
    for width, x0 in ((20.0, -3.6), (31.0, -3.0), (60.0, -4.5), (120.0, -3.0)):
        gauss = InitialGaussian(width, x0)
        closed = project_shifted_gaussian(gauss, basis)
        quad = project_by_quadrature(gauss, basis, n_nodes=320)
        assert np.max(np.abs(closed - quad)) < 1e-12


@pytest.mark.parametrize("width, x0", [
    (math.nan, 0.0), (math.inf, 0.0), (1.0, math.nan), (1.0, math.inf), (1.0, -math.inf),
])
def test_initial_gaussian_rejects_non_finite(width, x0):
    with pytest.raises(ValueError):
        InitialGaussian(width, x0)


def test_quadrature_projects_basis_function_to_unit_vector():
    basis = BasisConfig(dim=12, omega=1.4)
    psi = lambda x: basis_functions(BasisConfig(dim=4, omega=basis.omega), x)[3]
    c = project_by_quadrature(psi, basis)
    want = np.zeros(12)
    want[3] = 1.0
    np.testing.assert_allclose(c, want, atol=1e-12)


def test_quadrature_odd_function_has_no_even_content():
    basis = BasisConfig(dim=16, omega=1.0)
    norm = (2.0 / math.pi) ** 0.25  # x * Gaussian, unit L2 norm for width 1
    psi = lambda x: 2.0 * norm * x * np.exp(-x * x / 2.0)
    c = project_by_quadrature(psi, basis)
    assert np.max(np.abs(c[0::2])) < 1e-12


def test_quadrature_signals_unresolved_state():
    # the oracle's own guard: a 4-state basis cannot hold the far packet
    basis = BasisConfig(dim=4, omega=0.48)
    with pytest.raises(ArithmeticError, match="last basis coefficient"):
        project_by_quadrature(InitialGaussian(DW_MASS, 5.0), basis)


# ---------------------------------------------------------------- rotation

def test_identity_rotation_for_matched_sho():
    m = 1.3
    pot = PolynomialPotential((0.0, 0.0, m * m / 2.0))
    sol = diagonalize(assemble_hamiltonian(pot, BasisConfig(dim=25, omega=m)))
    c = project_shifted_gaussian(InitialGaussian(0.9), sol.config)
    state = make_evolution(c, sol)
    np.testing.assert_allclose(state.a, c, atol=1e-13)


def test_rotation_is_isometric():
    state, rep = slowroll_state(40)
    c = project_shifted_gaussian(InitialGaussian(DW_MASS), rep.solution.config)
    assert float(np.sum(state.a**2)) == pytest.approx(float(np.sum(c**2)), rel=1e-12)
    assert state.truncation_loss == pytest.approx(1.0 - float(np.sum(c**2)), abs=1e-12)


def test_rotation_matches_linear_solve():
    rep = solve_spectrum(from_quartic(1.0, 1000.0), 40)
    c = project_shifted_gaussian(InitialGaussian(30.0), rep.solution.config)
    state = make_evolution(c, rep.solution)
    # the printed inversion: a solves c = d^T a
    a_solve = np.linalg.solve(rep.solution.vectors.T, c)
    np.testing.assert_allclose(state.a, a_solve, atol=1e-11)


def test_solution_rejects_broken_orthonormality():
    # the Gram check runs once, when the solution is made, not per rotation
    sol = solve_spectrum(DWELL, 10).solution
    bad_vectors = sol.vectors.copy()
    bad_vectors[0] *= 1.0 + 1e-6
    with pytest.raises(ValueError, match="not orthonormal"):
        EigenSolution(energies=sol.energies.copy(), vectors=bad_vectors,
                      config=sol.config, levels=sol.levels)
    with pytest.raises(ValueError):
        make_evolution(np.zeros(7), sol)


def test_rotation_rejects_energies_only_solution():
    c = np.zeros(40)
    c[0] = 1.0
    for levels in (range(0, 10), range(40)):
        sol = solve_spectrum(DWELL, 40, levels=levels).solution
        assert sol.vectors is None
        with pytest.raises(ValueError, match="energies only"):
            make_evolution(c, sol)


# ------------------------------------------------------------- observables

def test_initial_second_moment_is_gaussian_variance():
    state, _ = slowroll_state(80)
    x2_0 = observables_series(state, [0.0])[1][0]
    assert x2_0 == pytest.approx(1.0 / DW_MASS, rel=1e-10)
    assert x2_0 == pytest.approx(2.0 * math.sqrt(6.0), rel=1e-6)


def test_sho_breathing_mode_period():
    m = 1.1
    pot = PolynomialPotential((0.0, 0.0, m * m / 2.0))
    rep = solve_spectrum(pot, 40)
    c = project_shifted_gaussian(InitialGaussian(3.7 * m), rep.solution.config)
    state = make_evolution(c, rep.solution)
    period = math.pi / m  # breathing frequency 2m
    ts = np.array([0.0, 0.42, 1.9])
    _, x2 = observables_series(state, ts)
    _, x2_later = observables_series(state, ts + period)
    assert x2_later == pytest.approx(x2, rel=1e-8)
    # and it genuinely oscillates
    _, (x2_0, x2_half) = observables_series(state, [0.0, period / 2])
    assert abs(x2_half - x2_0) > 1e-3


def test_second_moment_positive_at_random_times():
    state, _ = slowroll_state(40)
    rng = np.random.default_rng(47)
    ts = rng.uniform(0.0, 500.0, size=1000)
    x_mean, x2_mean = observables_series(state, ts)
    assert np.all(x2_mean > 0.0)


def test_time_reversal_symmetry():
    state, _ = slowroll_state(40)
    ts = np.array([0.3, 7.7, 123.0])
    assert observables_series(state, ts)[1] == pytest.approx(
        observables_series(state, -ts)[1], rel=1e-12)


def test_mean_position_of_shifted_packet():
    state, _ = slowroll_state(80, width=2 * DW_MASS, x0=5.0)
    assert observables_series(state, [0.0])[0][0] == pytest.approx(5.0, abs=1e-8)


def test_mean_position_stays_zero_in_symmetric_well():
    state, _ = slowroll_state(60)
    x_mean, _ = observables_series(state, [0.0, 3.0, 50.0, 200.0])
    assert np.all(np.abs(x_mean) < 1e-9)


def cos_sum_moments(state, ts):
    """<x> and <x^2> as all-mode sums sum_nl a_n a_l M_nl cos((E_n - E_l) t), one time at a time.

    M is x + sigma and (x + sigma)^2 rotated into the eigenbasis, so the
    reference shares neither the basis-coefficient kernel nor its shift.
    """
    s = state.solution.config.sigma
    x = eigenbasis_position_power(1, state)
    eye = np.eye(x.shape[0])
    aa = np.outer(state.a, state.a)
    wx = aa * (x + s * eye)
    wx2 = aa * (eigenbasis_position_power(2, state) + 2.0 * s * x + s * s * eye)
    bohr = np.subtract.outer(state.solution.energies, state.solution.energies)
    want_x, want_x2 = np.empty(ts.size), np.empty(ts.size)
    for j, t in enumerate(ts):
        phase = np.cos(bohr * t)
        want_x[j], want_x2[j] = np.sum(wx * phase), np.sum(wx2 * phase)
    return want_x, want_x2


def test_series_matches_pointwise_evaluations():
    # independent all-modes cos-sum on a dyadic grid whose offset table every
    # block reuses, a grid of more than two time blocks whose length is not a
    # block multiple, so an error at a block boundary shows, and an irregular
    # grid where every block fills its own
    state, _ = slowroll_state(40, x0=5.0)
    rng = np.random.default_rng(61)
    for ts in (np.arange(3001) * 0.25, np.linspace(0.0, 400.0, 1301),
               np.sort(rng.uniform(0.0, 400.0, 1000))):
        x_mean, x2_mean = observables_series(state, ts)
        want_x, want_x2 = cos_sum_moments(state, ts)
        assert x_mean == pytest.approx(want_x, rel=1e-12, abs=1e-12)
        assert x2_mean == pytest.approx(want_x2, rel=1e-12)


def shifted_basis_state(width=60.0):
    rep = solve_spectrum(asym_demo(), 40, optimize_sigma=True)
    c = project_shifted_gaussian(InitialGaussian(width, -3.0), rep.solution.config)
    return make_evolution(c, rep.solution)


def lossy_shifted_basis_state():
    # 6% of the packet lies outside the block, so sigma must be weighted by
    # the kept norm^2 (a unit weight put <x> off by sigma * loss = -0.21)
    state = shifted_basis_state(width=2.0)
    assert state.truncation_loss > 0.05
    return state


def centered_block_state():
    # levels 20..39 of a quartic in the block [20, 40), any unit vector in it
    rep = solve_spectrum(from_quartic(1.0, 1.0), 20, target_level=30)
    c = np.random.default_rng(83).normal(size=20)
    return make_evolution(c / np.linalg.norm(c), rep.solution)


@pytest.mark.parametrize("make_state", [shifted_basis_state, lossy_shifted_basis_state,
                                        centered_block_state],
                         ids=["sigma", "sigma-lossy", "center"])
def test_series_matches_cos_sum_on_shifted_and_centered_blocks(make_state):
    state = make_state()
    cfg = state.solution.config
    assert cfg.sigma != 0.0 or cfg.center != 0
    rng = np.random.default_rng(67)
    for ts in (np.arange(601) * 0.01, np.sort(rng.uniform(0.0, 6.0, 300))):
        x_mean, x2_mean = observables_series(state, ts)
        want_x, want_x2 = cos_sum_moments(state, ts)
        assert x_mean == pytest.approx(want_x, rel=1e-12, abs=1e-12)
        assert x2_mean == pytest.approx(want_x2, rel=1e-12)


def test_translating_potential_and_packet_moves_moments_by_the_kept_norm():
    # V(x) -> V(x - s) and x0 -> x0 + s move the PMS sigma by s and leave
    # omega, the amplitudes and the loss as they are; psi_N moves by s, so
    # <x> gains s sum a^2 and <x^2> gains 2 s <x> + s^2 sum a^2 (6% loss
    # here; measured 6.8e-13 and 3.2e-12, set by the PMS precision)
    shift = 1.5
    ts = np.arange(201) * 0.05
    runs = []
    for pot, x0 in ((asym_demo(), -3.0), (asym_demo().shift(-shift), -3.0 + shift)):
        rep = solve_spectrum(pot, 40, optimize_sigma=True)
        c = project_shifted_gaussian(InitialGaussian(2.0, x0), rep.solution.config)
        state = make_evolution(c, rep.solution)
        runs.append((state, *observables_series(state, ts)))
    (before, x_a, x2_a), (after, x_b, x2_b) = runs
    norm2 = float(before.a @ before.a)
    assert before.truncation_loss > 0.05
    assert after.truncation_loss == pytest.approx(before.truncation_loss, abs=1e-12)
    assert np.max(np.abs(x_b - (x_a + shift * norm2))) <= 1e-10
    want_x2 = x2_a + 2.0 * shift * x_a + shift * shift * norm2
    assert np.max(np.abs(x2_b - want_x2)) <= 1e-10 * np.max(want_x2)


def test_series_memory_is_bounded_in_grid_length():
    state, _ = slowroll_state(160, x0=5.0)
    assert np.all(np.abs(state.a) >= 1e-14)  # K = 160 modes in every product

    def traced_peak(n_times):
        times = np.arange(n_times) * 0.25
        tracemalloc.start()
        try:
            observables_series(state, times)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert traced_peak(20001) <= 1.2 * traced_peak(2001)


@pytest.mark.parametrize("width, x0, t_max", [(DW_MASS, 0.0, 200.0), (2 * DW_MASS, 5.0, 400.0)],
                         ids=["centered", "shifted"])
def test_series_matches_split_operator_propagator(width, x0, t_max):
    # the same packet propagated on an FFT grid with no basis; the well is
    # written out with its constant lam a^4 / 24, a global phase
    state, _ = slowroll_state(80, width=width, x0=x0)
    g = gaussian(width, x0)
    ts = np.arange(0.0, t_max + 0.125, 0.25)
    x_ref, x2_ref = split_operator_moments(lambda x: 0.01 * (x * x - 25.0) ** 2 / 24.0,
                                           g, ts, dt=0.25)
    x_mean, x2_mean = observables_series(state, ts)
    # scale is max <x^2> (its root for <x>); the lost weight psi_T can move
    # each moment by up to 2 |psi_T| |x^k psi|
    scale = float(np.max(x2_ref))
    err_x = float(np.max(np.abs(x_mean - x_ref))) / math.sqrt(scale)
    err_x2 = float(np.max(np.abs(x2_mean - x2_ref))) / scale
    print(f"split operator: <x> off by {err_x:.1e}, <x^2> by {err_x2:.1e} of scale")
    tol = 1e-10 + 4.0 * math.sqrt(state.truncation_loss)
    assert err_x <= tol
    assert err_x2 <= tol


def test_mode_dropping_matches_full_sum():
    # matched SHO packet concentrates weight on one mode; the rest fall
    # below the cutoff and must not change the observable
    m = 0.9
    pot = PolynomialPotential((0.0, 0.0, m * m / 2.0))
    rep = solve_spectrum(pot, 30)
    c = project_shifted_gaussian(InitialGaussian(2 * m * (1 + 1e-10)), rep.solution.config)
    state = make_evolution(c, rep.solution)
    x2 = eigenbasis_position_power(2, state)
    full = np.array([
        np.conj(state.a * np.exp(-1j * state.solution.energies * t))
        @ x2 @ (state.a * np.exp(-1j * state.solution.energies * t))
        for t in (0.0, 2.0)
    ]).real
    assert observables_series(state, [0.0, 2.0])[1] == pytest.approx(full, rel=1e-12)


# ------------------------------------------------------------ conservation

def test_norm_is_time_independent():
    state, _ = slowroll_state(60)
    n0, n1 = (float(np.sum(np.abs(state.a * np.exp(-1j * state.solution.energies * t)) ** 2))
              for t in (0.0, 1e4))
    assert abs(n0 - n1) <= 1e-14


def test_energy_expectation_matches_quadrature():
    from scipy.special import roots_hermite

    state, rep = slowroll_state(60)
    cfg = rep.solution.config
    alpha = math.sqrt(cfg.omega)
    spectral = float(np.sum(state.a**2 * state.solution.energies))

    y, w = roots_hermite(240)
    x = y / alpha
    b = state.a @ state.solution.vectors  # basis-coefficient view of the state
    phi = basis_functions(BasisConfig(dim=cfg.dim + 1, omega=cfg.omega), x)
    psi = b @ phi[:cfg.dim]
    # phi_k' = alpha (sqrt(k/2) phi_{k-1} - sqrt((k+1)/2) phi_{k+1})
    dpsi = np.zeros_like(psi)
    for k in range(cfg.dim):
        term = -math.sqrt((k + 1) / 2.0) * phi[k + 1]
        if k > 0:
            term = term + math.sqrt(k / 2.0) * phi[k - 1]
        dpsi += b[k] * alpha * term
    v_vals = polyval(x, DWELL.coeffs)
    integrand = 0.5 * dpsi**2 + v_vals * psi**2
    quad = float(np.sum(w * np.exp(y * y) * integrand) / alpha)
    assert spectral == pytest.approx(quad, rel=1e-8)


def test_no_secular_growth_of_spread():
    state, _ = slowroll_state(40)
    coarse = np.linspace(0.0, 60.0, 1201)
    _, x2 = observables_series(state, coarse)
    peak_idx = next(i for i in range(1, len(x2) - 1)
                    if x2[i] >= x2[i - 1] and x2[i] >= x2[i + 1])
    t_collapse = coarse[peak_idx]  # packet has spread and starts contracting
    horizon = 10.0 * t_collapse
    long_ts = np.linspace(0.0, 2.0 * horizon, 8001)
    _, x2_long = observables_series(state, long_ts)
    assert np.all(x2_long >= 0.0)
    # rigorous time-independent envelope of the trigonometric double sum
    keep = np.abs(state.a) >= 1e-14
    a = np.abs(state.a[keep])
    x2 = eigenbasis_position_power(2, state)
    envelope = float(a @ np.abs(x2[np.ix_(keep, keep)]) @ a)
    assert float(np.max(x2_long)) <= envelope
    # quasi-periodic recurrences, but no upward trend past the first windows
    in_horizon = float(np.max(x2_long[long_ts <= horizon]))
    beyond = float(np.max(x2_long[long_ts > horizon]))
    assert beyond <= 1.01 * in_horizon


# ------------------------------------------------------------ wavefunction

def test_wavefunction_at_time_zero_matches_projection():
    state, rep = slowroll_state(50)
    cfg = rep.solution.config
    xs = np.linspace(-8.0, 8.0, 17)
    c = state.a @ state.solution.vectors
    direct = c @ basis_functions(cfg, xs)
    psi = wavefunction_at(state, xs, 0.0)
    np.testing.assert_allclose(psi.real, direct, atol=1e-10)
    np.testing.assert_allclose(psi.imag, np.zeros_like(direct), atol=1e-12)


def test_wavefunction_norm_is_unitary():
    from scipy.special import roots_hermite

    state, rep = slowroll_state(50)
    cfg = rep.solution.config
    alpha = math.sqrt(cfg.omega)
    y, w = roots_hermite(220)
    target = float(np.sum(state.a**2))
    for t in (0.0, 5.0, 50.0):
        psi = wavefunction_at(state, y / alpha, t)
        norm = float(np.sum(w * np.exp(y * y) * np.abs(psi) ** 2) / alpha)
        assert norm == pytest.approx(target, rel=1e-10)


def test_sho_phase_period():
    m = 1.3
    pot = PolynomialPotential((0.0, 0.0, m * m / 2.0))
    rep = solve_spectrum(pot, 30)
    c = project_shifted_gaussian(InitialGaussian(1.1 * m), rep.solution.config)
    state = make_evolution(c, rep.solution)
    period = 4.0 * math.pi / m
    for t in (0.0, 0.7):
        a = wavefunction_at(state, 0.0, t)
        b = wavefunction_at(state, 0.0, t + period)
        assert abs(a - b) < 1e-8
        # after half the phase period the wavefunction at the origin flips sign
        c_val = wavefunction_at(state, 0.0, t + period / 2.0)
        assert abs(a + c_val) < 1e-8


def test_scalar_argument_returns_scalar():
    state, _ = slowroll_state(20)
    val = wavefunction_at(state, 0.3, 1.0)
    assert isinstance(val, complex)


# ----------------------------------------------------------------- writers

def _per_row_csv(header, *columns):
    row = ",".join(["{:.17g}"] * len(columns)).format
    return "\n".join(header + [row(*r) for r in zip(*columns)]) + "\n"


@pytest.mark.parametrize("n_rows", [0, 1, 7, 4001])
def test_writers_match_per_row_formatting(tmp_path, n_rows):
    rng = np.random.default_rng(n_rows)
    cols = rng.normal(size=(5, n_rows)) * 10.0 ** rng.integers(-150, 150, size=(5, n_rows))
    t, x, x2, re, im = cols.tolist()
    if n_rows:
        x2[0] = -0.0
        x2[-1] = -abs(x2[-1])  # roundoff below zero clamps to 0
        re[0], im[0] = -0.0, 0.0
    write_observables_csv(tmp_path / "obs.csv", t, x, x2, 1.25e-3)
    want = _per_row_csv(["# truncation_loss=0.00125", "t,x_mean,x2_mean,sqrt_x2"],
                        t, x, x2, [math.sqrt(max(v, 0.0)) for v in x2])
    assert (tmp_path / "obs.csv").read_text() == want
    psi = np.empty(n_rows, dtype=complex)
    psi.real, psi.imag = re, im  # re + 1j * im would turn -0.0 into 0.0
    write_wavefunction_csv(tmp_path / "psi.csv", t, psi)
    want = _per_row_csv(["x,re,im,abs2"], t, re, im,
                        [abs(complex(r, i)) ** 2 for r, i in zip(re, im)])
    assert (tmp_path / "psi.csv").read_text() == want
