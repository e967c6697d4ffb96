import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyval

from varosc import PolynomialPotential, asym_demo, from_double_well, from_quartic
from varosc.potential import _shifted_coeffs


def test_quartic_constructor():
    pot = from_quartic(1.0, 1000.0, 1)
    assert pot.coeffs == (0.0, 0.0, 0.5, 0.0, 1000.0)
    assert pot.degree == 4


def test_quartic_sign_flip_only_touches_quadratic():
    up = from_quartic(1.0, 1.0, 1)
    down = from_quartic(1.0, 1.0, -1)
    assert down.coeffs[2] == -up.coeffs[2] == -0.5
    assert down.coeffs[4] == up.coeffs[4]


def test_quartic_massless_is_pure_quartic():
    pot = from_quartic(0.0, 1.0, 1)
    assert pot.coeffs == (0.0, 0.0, 0.0, 0.0, 1.0)


def test_quartic_rejects_nonpositive_coupling():
    with pytest.raises(ValueError):
        from_quartic(1.0, 0.0, 1)
    with pytest.raises(ValueError):
        from_quartic(1.0, -2.0, 1)
    with pytest.raises(ValueError):
        from_quartic(1.0, 1.0, 2)


def test_double_well_coefficients():
    pot = from_double_well(0.01, 5.0)
    assert pot.coeffs[2] == pytest.approx(-1.0 / 48.0, rel=1e-15)
    assert pot.coeffs[4] == pytest.approx(1.0 / 2400.0, rel=1e-15)
    # equivalently the quartic with m^2 = lam a^2/6 and reversed sign
    m2 = 0.01 * 25.0 / 6.0
    assert m2 == pytest.approx(1.0 / 24.0, rel=1e-15)
    assert pot.coeffs == from_quartic(m2, 0.01 / 24.0, -1).coeffs


def test_double_well_degenerate_minimum_is_pure_quartic():
    assert from_double_well(24.0, 0.0).coeffs == (0.0, 0.0, 0.0, 0.0, 1.0)


def test_double_well_rejects_nonpositive_coupling():
    with pytest.raises(ValueError):
        from_double_well(0.0, 5.0)


def test_validation_rejects_unconfined():
    with pytest.raises(ValueError):
        PolynomialPotential((0.0, 1.0, 0.0, 1.0))  # odd degree
    with pytest.raises(ValueError):
        PolynomialPotential((0.0, 0.0, -1.0))  # negative leading
    with pytest.raises(ValueError):
        PolynomialPotential((1.0,))  # constant
    with pytest.raises(ValueError):
        PolynomialPotential(())


@pytest.mark.parametrize("coeffs", [
    (0.0, 0.0, math.nan),
    (0.0, 0.0, math.inf),
    (math.nan, 0.0, 1.0),
    (0.0, -math.inf, 1.0),
    (0.0, 0.0, 1.0, math.nan, 1.0),
])
def test_validation_rejects_non_finite(coeffs):
    with pytest.raises(ValueError):
        PolynomialPotential(coeffs)


def test_validation_accepts_finite_coefficients_whose_sum_overflows():
    pot = PolynomialPotential((1e308, 0.0, 1e308))
    assert pot.coeffs == (1e308, 0.0, 1e308)


def test_trailing_zeros_stripped():
    pot = PolynomialPotential((0.0, 0.0, 2.0, 0.0, 0.0))
    assert pot.coeffs == (0.0, 0.0, 2.0)
    assert pot.degree == 2


def test_shift_quadratic_binomial():
    pot = PolynomialPotential((0.0, 0.0, 1.0))
    s = 0.37
    assert pot.shift(s).coeffs == pytest.approx((s * s, 2 * s, 1.0), rel=1e-15)


def test_shift_pure_quartic_by_one():
    pot = PolynomialPotential((0.0, 0.0, 0.0, 0.0, 1.0))
    assert pot.shift(1.0).coeffs == pytest.approx((1.0, 4.0, 6.0, 4.0, 1.0), rel=1e-15)


@pytest.mark.parametrize("degree", [4, 6])
def test_taylor_shift_matches_exact_expansion(degree):
    # kappa'_i = sum_{j>=i} kappa_j C(j, i) sigma^(j-i) in exact rationals, held
    # to 1e-15 of the sum of the terms' magnitudes
    rng = np.random.default_rng(degree)
    worst = 0.0
    for _ in range(200):
        coeffs = (*rng.normal(scale=10.0, size=degree).tolist(), float(rng.uniform(0.1, 20.0)))
        sigma = float(rng.uniform(-6.0, 6.0))
        got = _shifted_coeffs(coeffs, sigma)
        for i in range(degree + 1):
            terms = [(kj, math.comb(j, i), j - i) for j, kj in enumerate(coeffs) if j >= i]
            exact = sum(Fraction(kj) * c * Fraction(sigma) ** k for kj, c, k in terms)
            scale = sum(abs(kj) * c * abs(sigma) ** k for kj, c, k in terms)
            worst = max(worst, float(abs(Fraction(got[i]) - exact)) / scale)
    print(f"worst Taylor-shift error, degree {degree}: {worst:.1e} of the term scale")
    assert worst <= 1e-15


def test_shift_roundtrip_recovers_coefficients():
    pot = asym_demo()
    back = pot.shift(0.8123).shift(-0.8123)
    for a, b in zip(back.coeffs, pot.coeffs):
        assert a == pytest.approx(b, rel=1e-12, abs=1e-12)


def test_shift_matches_pointwise_evaluation():
    rng = np.random.default_rng(7)
    pot = asym_demo()
    for _ in range(25):
        sigma = float(rng.uniform(-3, 3))
        x = float(rng.uniform(-4, 4))
        lhs = polyval(x, pot.shift(sigma).coeffs)
        rhs = polyval(x + sigma, pot.coeffs)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


def test_shift_preserves_degree_and_leading():
    pot = asym_demo()
    shifted = pot.shift(-2.5)
    assert shifted.degree == pot.degree
    assert shifted.coeffs[-1] == pot.coeffs[-1]


def test_evaluate_asymmetric_benchmark_points():
    pot = asym_demo()
    assert polyval(0.0, pot.coeffs) == 11.0
    # 11 - 118 - 44 + 80 + 16
    assert polyval(1.0, pot.coeffs) == pytest.approx(-55.0, rel=1e-15)


def test_evaluate_at_origin_returns_constant_term():
    # coeffs run from x^0 upward, so V(0) is coeffs[0]
    rng = np.random.default_rng(11)
    for _ in range(10):
        c0 = float(rng.normal())
        pot = PolynomialPotential((c0, rng.normal(), 1.0, 0.0, 0.5))
        assert polyval(0.0, pot.coeffs) == c0


def test_potential_is_immutable():
    pot = from_quartic(1.0, 1.0)
    with pytest.raises(Exception):
        pot.coeffs = (1.0, 2.0, 3.0)
