import math

import numpy as np
import pytest

from varosc import (
    BasisConfig,
    PolynomialPotential,
    assemble_hamiltonian,
    basis_functions,
    from_double_well,
    from_quartic,
)
from varosc.oscbasis import _block_moments, _polynomial_bands

from oracles import (
    _densify,
    basis_function_value,
    dense,
    gh_position_block,
    momentum_squared_matrix,
    position_power_closed_form,
    position_power_matrix,
)


def rel_compare(a, b, rtol):
    """Relative comparison on genuinely nonzero entries, absolute (scaled)
    where the reference is only roundoff away from zero."""
    scale = np.max(np.abs(b))
    nz = np.abs(b) > 1e-13 * scale
    assert np.all(np.abs(a[~nz] - b[~nz]) <= 1e-12 * scale)
    assert np.all(np.abs(a[nz] - b[nz]) <= rtol * np.abs(b[nz]))


# ---------------------------------------------------------------- position

def test_x2_ground_state_variance():
    for omega in (0.3, 1.0, 31.179):
        m = position_power_matrix(2, omega, 4)
        assert m[0, 0] == pytest.approx(1.0 / (2.0 * omega), rel=1e-14)


def test_x_single_quantum_element():
    for omega in (0.5, 2.0):
        m = position_power_matrix(1, omega, 4)
        assert m[0, 1] == pytest.approx(1.0 / math.sqrt(2.0 * omega), rel=1e-14)


def test_x4_ground_state_moment():
    # quartic diagonal: 3/(4 omega^2), cross-checked against quadrature
    omega = 1.7
    m = position_power_matrix(4, omega, 6)
    assert m[0, 0] == pytest.approx(3.0 / (4.0 * omega**2), rel=1e-13)
    q = gh_position_block(4, omega, 6)
    assert m[0, 0] == pytest.approx(q[0, 0], rel=1e-13)


def test_x3_offdiagonal_fixed_by_quadrature():
    # (x^3)_{01} at omega=1 equals 3/(2)^{3/2} = 1.0606601717798212
    m = position_power_matrix(3, 1.0, 4)
    assert m[0, 1] == pytest.approx(1.0606601717798212, rel=1e-13)
    q = gh_position_block(3, 1.0, 4)
    assert m[0, 1] == pytest.approx(q[0, 1], rel=1e-13)


def test_zeroth_power_is_identity():
    np.testing.assert_array_equal(position_power_matrix(0, 2.0, 5), np.eye(5))


def test_position_powers_match_quadrature():
    rng = np.random.default_rng(42)
    for p in range(1, 9):
        for _ in range(3):
            omega = float(rng.uniform(0.1, 50.0))
            banded = position_power_matrix(p, omega, 20)
            quad = gh_position_block(p, omega, 20)
            rel_compare(banded, quad, rtol=1e-10)


def test_position_powers_match_quadrature_centered():
    for p, center in ((2, 5), (4, 17), (5, 30)):
        banded = position_power_matrix(p, 0.8, 8, center=center)
        quad = gh_position_block(p, 0.8, 8, center=center, nodes=128)
        rel_compare(banded, quad, rtol=1e-10)


def test_parity_zeros_are_exact():
    for p in (1, 2, 3, 4, 5):
        m = position_power_matrix(p, 1.3, 12)
        for n in range(12):
            for l in range(12):
                if (p + n + l) % 2 == 1:
                    assert m[n, l] == 0.0


def test_band_structure_zeros_are_exact():
    p = 4
    m = position_power_matrix(p, 0.6, 15)
    for n in range(15):
        for l in range(15):
            if abs(n - l) > p:
                assert m[n, l] == 0.0


def test_scaling_law():
    rng = np.random.default_rng(3)
    base = {p: position_power_matrix(p, 1.0, 10) for p in range(1, 7)}
    for _ in range(5):
        omega = float(rng.uniform(0.05, 40.0))
        for p, ref in base.items():
            scaled = position_power_matrix(p, omega, 10)
            np.testing.assert_allclose(scaled, ref * omega ** (-p / 2.0), rtol=1e-13)
    p2 = momentum_squared_matrix(1.0, 10)
    np.testing.assert_allclose(momentum_squared_matrix(5.5, 10), 5.5 * p2, rtol=1e-14)


def test_exact_symmetry():
    for p in (2, 3, 5, 8):
        m = position_power_matrix(p, 0.37, 25, center=4)
        assert np.array_equal(m, m.T)


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        position_power_matrix(2, 0.0, 5)
    with pytest.raises(ValueError):
        position_power_matrix(2, -1.0, 5)
    with pytest.raises(ValueError):
        position_power_matrix(-1, 1.0, 5)
    with pytest.raises(ValueError):
        momentum_squared_matrix(-2.0, 5)


# ---------------------------------------------------------------- closed form

def test_closed_form_matches_banded_product():
    rng = np.random.default_rng(9)
    for p in range(0, 9):
        omega = float(rng.uniform(0.1, 30.0))
        a = position_power_matrix(p, omega, 21)
        b = position_power_closed_form(p, omega, 21)
        rel_compare(a, b, rtol=1e-10)


def test_closed_form_matches_banded_product_centered():
    a = position_power_matrix(6, 2.3, 9, center=40)
    b = position_power_closed_form(6, 2.3, 9, center=40)
    rel_compare(a, b, rtol=1e-10)


def test_closed_form_matches_band_recurrence_large_block():
    coeffs = np.random.default_rng(6).uniform(-2.0, 2.0, 7)  # a degree-6 polynomial
    for center in (0, 40):
        closed = [position_power_closed_form(p, 1.7, 200, center=center) for p in range(9)]
        for p in range(1, 9):
            rel_compare(position_power_matrix(p, 1.7, 200, center=center), closed[p], rtol=1e-10)
        rel_compare(_densify(_polynomial_bands(coeffs, 1.7, 200, center)),
                    sum(c * m for c, m in zip(coeffs, closed)), rtol=1e-10)


def test_diagonal_path_matches_matrix_diagonal():
    # the exact block moments D_j against the diagonal of the banded x^j at omega = 1
    for center in (0, 40):
        moments = _block_moments(30, center, 12)
        assert len(moments) == 6
        for j, d in zip(range(2, 13, 2), moments):
            full = np.diag(position_power_matrix(j, 1.0, 30, center=center))
            np.testing.assert_allclose(d, full.sum(), rtol=1e-12)


# ---------------------------------------------------------------- momentum

def test_momentum_matrix_entries():
    omega = 1.9
    m = momentum_squared_matrix(omega, 6)
    assert m[0, 0] == pytest.approx(omega / 2.0, rel=1e-15)
    assert m[3, 3] == pytest.approx(omega * 7.0 / 2.0, rel=1e-15)
    assert m[0, 2] == pytest.approx(-(omega / 2.0) * math.sqrt(2.0), rel=1e-15)
    assert m[0, 3] == 0.0
    assert np.array_equal(m, m.T)


# ---------------------------------------------------------------- assembly

def test_sho_matched_basis_is_diagonal():
    m_osc = 1.7
    pot = PolynomialPotential((0.0, 0.0, m_osc**2 / 2.0))
    cfg = BasisConfig(dim=12, omega=m_osc)
    h = dense(assemble_hamiltonian(pot, cfg))
    # kappa_2 - omega^2/2 is exactly 0, so only omega (n + 1/2) is left
    np.testing.assert_array_equal(h, np.diag(m_osc * (np.arange(12) + 0.5)))


def test_single_element_quartic_block():
    pot = from_quartic(1.0, 1000.0)
    for omega in (5.0, 40.0):
        h = dense(assemble_hamiltonian(pot, BasisConfig(dim=1, omega=omega)))
        expected = omega / 4.0 + 1.0 / (4.0 * omega) + 3000.0 / (4.0 * omega**2)
        assert h[0, 0] == pytest.approx(expected, rel=1e-14)


def test_double_well_is_sign_flipped_quartic():
    lam, a = 0.01, 5.0
    m2, g = lam * a * a / 6.0, lam / 24.0
    cfg = BasisConfig(dim=10, omega=0.5)
    h_dw = dense(assemble_hamiltonian(from_double_well(lam, a), cfg))
    h_up = dense(assemble_hamiltonian(from_quartic(m2, g, 1), cfg))
    x2 = position_power_matrix(2, cfg.omega, cfg.dim)
    np.testing.assert_allclose(h_dw, h_up - m2 * x2, rtol=1e-13, atol=1e-16)


def test_assembled_matrix_symmetric_and_banded():
    pot = from_quartic(2.0, 3.0, -1).shift(0.0)
    cfg = BasisConfig(dim=18, omega=1.1, sigma=0.4)
    h = dense(assemble_hamiltonian(pot, cfg))
    assert np.array_equal(h, h.T)
    bw = max(pot.degree, 2)
    for n in range(18):
        for l in range(18):
            if abs(n - l) > bw:
                assert h[n, l] == 0.0


def test_bands_are_read_only_and_trimmed_to_the_block():
    h = assemble_hamiltonian(from_quartic(1.0, 2.0), BasisConfig(dim=12, omega=1.0))
    assert h.bands.shape == (5, 12)
    with pytest.raises(ValueError):
        h.bands[0, 0] = 0.0
    small = assemble_hamiltonian(from_quartic(1.0, 2.0), BasisConfig(dim=2, omega=1.0))
    assert small.bands.shape == (2, 2)


def test_assembly_applies_shift_to_potential():
    pot = from_quartic(1.0, 2.0)
    cfg = BasisConfig(dim=8, omega=1.0, sigma=-0.6)
    h = dense(assemble_hamiltonian(pot, cfg))
    manual = 0.5 * momentum_squared_matrix(1.0, 8)
    for j, kj in enumerate(pot.shift(-0.6).coeffs):
        if kj != 0.0:
            manual += kj * position_power_matrix(j, 1.0, 8)
    np.testing.assert_allclose(h, manual, rtol=1e-15)


# ---------------------------------------------------------------- functions

def test_ground_state_value_at_origin():
    assert basis_function_value(0, 1.0, 0.0) == pytest.approx(math.pi**-0.25, rel=1e-14)
    # general omega: phi_0(0) = (omega/pi)^(1/4)
    assert basis_function_value(0, 4.0, 0.0) == pytest.approx((4.0 / math.pi) ** 0.25,
                                                             rel=1e-14)


def test_odd_states_vanish_at_origin():
    for omega in (0.2, 3.0):
        assert basis_function_value(1, omega, 0.0) == 0.0
        assert basis_function_value(7, omega, 0.0) == 0.0


def test_normalization_by_quadrature():
    from scipy.special import roots_hermite

    omega = 2.4
    alpha = math.sqrt(omega)
    y, w = roots_hermite(80)
    for n in (5, 50):
        vals = basis_functions(BasisConfig(dim=n + 1, omega=omega), y / alpha)[n]
        # integral phi_n^2 dx with the Gaussian weight folded back out
        norm = np.sum(w * np.exp(y * y) * vals**2) / alpha
        assert norm == pytest.approx(1.0, abs=1e-12)


def test_basis_functions_match_explicit_hermite():
    from oracles import hermite_function

    xs = np.linspace(-4.0, 4.0, 41)
    vals = basis_functions(BasisConfig(dim=20, omega=1.3), xs)
    for n in (0, 3, 11, 19):
        np.testing.assert_allclose(vals[n], hermite_function(n, 1.3, xs),
                                   rtol=1e-12, atol=1e-13)


def test_basis_functions_read_the_block_and_shift_of_their_config():
    # rows center..center+dim-1 of the recurrence, at x - sigma
    xs = np.linspace(-3.0, 5.0, 9)
    full = basis_functions(BasisConfig(dim=12, omega=0.7), xs - 1.25)
    block = basis_functions(BasisConfig(dim=5, omega=0.7, sigma=1.25, center=7), xs)
    assert block.shape == (5, 9)
    assert np.array_equal(block, full[7:])


def test_basis_config_validation():
    with pytest.raises(ValueError):
        BasisConfig(dim=0, omega=1.0)
    with pytest.raises(ValueError):
        BasisConfig(dim=5, omega=-1.0)
    with pytest.raises(ValueError):
        BasisConfig(dim=5, omega=1.0, center=-1)


@pytest.mark.parametrize("omega, sigma", [
    (math.inf, 0.0), (math.nan, 0.0), (1.0, math.nan), (1.0, math.inf), (-math.inf, 0.0),
])
def test_basis_config_rejects_non_finite(omega, sigma):
    with pytest.raises(ValueError):
        BasisConfig(dim=5, omega=omega, sigma=sigma)
    if not math.isfinite(omega):  # the oracles' bare matrix builders agree
        for build in (lambda: position_power_matrix(2, omega, 3),
                      lambda: momentum_squared_matrix(omega, 3)):
            with pytest.raises(ValueError):
                build()
