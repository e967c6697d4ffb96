"""Polynomial potentials V(x) = sum_j kappa_j x^j with only bound states.

A potential is confining (bound states only) when its degree is even and the
leading coefficient is positive.  Coefficients are stored densely from j = 0
upward; degrees stay small (<= ~12) so sparsity buys nothing.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PolynomialPotential",
    "from_quartic",
    "from_double_well",
    "asym_demo",
]


def _shifted_coeffs(coeffs: tuple[float, ...], sigma: float) -> list[float]:
    """Coefficients kappa'_i of V(x + sigma), i = 0 .. deg V, on plain floats.

    Taylor shift: deg V rounds of synthetic division by (x - sigma), each
    round a Horner pass that fixes one more coefficient from the bottom up.
    """
    c = list(coeffs)
    for i in range(len(c) - 1):
        for j in range(len(c) - 2, i - 1, -1):
            c[j] += sigma * c[j + 1]
    return c


@dataclass(frozen=True)
class PolynomialPotential:
    """Immutable polynomial potential defined by its coefficient list.

    coeffs[j] multiplies x^j.  Trailing zeros are stripped on construction so
    the degree is well defined; the resulting degree must be even and >= 2
    with a positive leading coefficient, otherwise the spectrum is not purely
    discrete and the potential is rejected.
    """

    coeffs: tuple[float, ...] = field()

    def __post_init__(self):
        c = [float(v) for v in self.coeffs]
        if not all(math.isfinite(v) for v in c):
            raise ValueError(f"potential coefficients must be finite, got {tuple(c)}")
        while c and c[-1] == 0.0:
            c.pop()
        if len(c) < 3:
            raise ValueError(
                "potential must have even degree >= 2 to confine bound states"
            )
        degree = len(c) - 1
        if degree % 2 != 0:
            raise ValueError(f"potential degree must be even, got {degree}")
        if c[-1] <= 0.0:
            raise ValueError(
                f"leading coefficient must be positive, got {c[-1]!r}"
            )
        object.__setattr__(self, "coeffs", tuple(c))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading(self) -> float:
        return self.coeffs[-1]

    def shift(self, sigma: float) -> "PolynomialPotential":
        """Return the potential V(x + sigma), re-expanded exactly.

        The coefficients come from _shifted_coeffs, the one re-expansion
        path; degree and leading coefficient are unchanged.
        """
        return PolynomialPotential(tuple(_shifted_coeffs(self.coeffs, sigma)))

    def evaluate(self, x):
        """Evaluate V(x) by Horner's rule; accepts scalars or arrays."""
        acc = np.zeros_like(np.asarray(x, dtype=float))
        for kj in reversed(self.coeffs):
            acc = acc * x + kj
        if np.ndim(x) == 0:
            return float(acc)
        return acc

    def derivative_coeffs(self) -> tuple[float, ...]:
        """Coefficients of V'(x)."""
        return tuple(j * kj for j, kj in enumerate(self.coeffs) if j >= 1)


def from_quartic(m_squared: float, g: float, sign: int = 1) -> PolynomialPotential:
    """Quartic oscillator V(x) = sign * (m^2/2) x^2 + g x^4.

    sign=+1 gives the anharmonic oscillator, sign=-1 the inverted quadratic
    term of a double well.  Requires g > 0 (otherwise unbounded below).
    """
    if g <= 0.0:
        raise ValueError(f"quartic coupling must be positive, got {g!r}")
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    return PolynomialPotential((0.0, 0.0, sign * m_squared / 2.0, 0.0, g))


def from_double_well(lam: float, a: float) -> PolynomialPotential:
    """Symmetric double well lam*(x^2 - a^2)^2/24 with the constant dropped.

    Expands to -lam*a^2/12 x^2 + lam/24 x^4, i.e. the quartic form with
    m^2 = lam*a^2/6 and g = lam/24 and the quadratic sign reversed.  The
    additive constant lam*a^4/24 is omitted: expectation values and level
    spacings do not depend on it, and absolute energies are reported relative
    to this convention.
    """
    if lam <= 0.0:
        raise ValueError(f"well coupling must be positive, got {lam!r}")
    return PolynomialPotential((0.0, 0.0, -lam * a * a / 12.0, 0.0, lam / 24.0))


def asym_demo() -> PolynomialPotential:
    """Strongly asymmetric quartic used as the two-parameter benchmark.

    V(x) = 11 - 118 x - 44 x^2 + 80 x^3 + 16 x^4.  Its single deep well sits
    near x = -3.979, far from the origin, which makes the coordinate shift a
    genuinely useful variational parameter.
    """
    return PolynomialPotential((11.0, -118.0, -44.0, 80.0, 16.0))
