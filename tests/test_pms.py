import math

import numpy as np
import pytest

from varosc import (
    BasisConfig,
    PolynomialPotential,
    assemble_hamiltonian,
    asym_demo,
    from_double_well,
    from_quartic,
    pms_optimize,
    solve_spectrum,
    trace,
    trace_scan,
)
from varosc import pms

from oracles import (
    ClosedFormBranchError,
    dense,
    exact_stationary_point,
    exact_trace,
    golden_min,
    pms_omega_quartic_closed_form,
)


def quartic_trace_formula(omega, mu2, g, N):
    return (N * N / 4.0) * (omega + mu2 / omega) + g * N * (1 + 2 * N * N) / (4.0 * omega**2)


# ------------------------------------------------------------------- trace

def test_sho_trace_is_level_sum():
    pot = PolynomialPotential((0.0, 0.0, 0.5))  # m = 1
    val = trace(pot, 3, 1.0)
    assert val == pytest.approx(0.5 + 1.5 + 2.5, rel=1e-15)


def test_quartic_trace_closed_formula_both_signs():
    rng = np.random.default_rng(5)
    for sign in (1, -1):
        for _ in range(6):
            omega = float(rng.uniform(0.2, 20.0))
            g = float(rng.uniform(0.01, 2000.0))
            N = int(rng.integers(1, 40))
            pot = from_quartic(1.0, g, sign)
            got = trace(pot, N, omega)
            want = quartic_trace_formula(omega, sign * 1.0, g, N)
            assert got == pytest.approx(want, rel=1e-13)


def test_trace_matches_assembled_hamiltonian():
    rng = np.random.default_rng(17)
    for _ in range(12):
        degree = int(rng.choice([2, 4, 6, 8]))
        coeffs = list(rng.normal(size=degree)) + [float(rng.uniform(0.1, 5.0))]
        pot = PolynomialPotential(tuple(coeffs))
        cfg = BasisConfig(
            dim=int(rng.integers(1, 31)),
            omega=float(rng.uniform(0.1, 20.0)),
            sigma=float(rng.uniform(-2.0, 2.0)),
            center=int(rng.integers(0, 4)),
        )
        diag_path = trace(pot, cfg.dim, cfg.omega, cfg.sigma, cfg.center)
        matrix_path = float(np.trace(dense(assemble_hamiltonian(pot, cfg))))
        assert diag_path == pytest.approx(matrix_path, rel=1e-12)


@pytest.mark.parametrize("degree", [2, 4, 6, 8, 10, 12])
def test_trace_matches_exact_oracle(degree):
    # 50-digit reference from exact rationals; the error is held to 1e-15 of
    # the sum of the magnitudes of the trace's terms, the size of the
    # rounding any float evaluation of them can make
    rng = np.random.default_rng(100 + degree)
    for case in range(40):
        coeffs = rng.normal(size=degree + 1)
        coeffs[rng.random(degree + 1) < 0.25] = 0.0
        coeffs[-1] = rng.uniform(0.01, 5.0)
        pot = PolynomialPotential(tuple(float(c) for c in coeffs))
        omega = float(10.0 ** rng.uniform(-2.0, 3.0))
        if case % 2:
            omega = np.float64(omega)
        sigma = 0.0 if case % 3 == 0 else float(rng.uniform(-3.0, 3.0))
        dim, center = int(rng.integers(1, 301)), int(rng.integers(0, 60))
        got = trace(pot, dim, omega, sigma, center)
        assert type(got) is float
        want, scale = exact_trace(pot, BasisConfig(dim, omega, sigma, center))
        assert abs(got - want) <= 1e-15 * scale, (case, float((got - want) / scale))


@pytest.mark.parametrize("degree", [2, 4, 6, 8, 12])
def test_trace_on_an_array_is_the_scalar_calls(degree):
    # trace_scan is one trace call per omega, so at any omega, dyadic or not,
    # it is T/N of the searches bit for bit, within the oracle's bound
    rng = np.random.default_rng(200 + degree)
    for _ in range(10):
        coeffs = rng.normal(size=degree + 1)
        coeffs[-1] = rng.uniform(0.01, 5.0)
        pot = PolynomialPotential(tuple(float(c) for c in coeffs))
        dim = int(rng.integers(1, 301))
        omegas = 10.0 ** rng.uniform(-2.0, 3.0, size=40)
        got = trace_scan(pot, dim, omegas)
        assert got.tolist() == [trace(pot, dim, w) / dim for w in omegas.tolist()]
        for w, t in zip(omegas[:5].tolist(), got[:5].tolist()):
            want, scale = exact_trace(pot, BasisConfig(dim, w))
            assert abs(t - want / dim) <= 1e-15 * scale / dim


# ------------------------------------------------------------- closed form

def test_closed_form_double_well_benchmark():
    # frozen from the golden-section oracle on the trace (N=10, g=1000, mu=-1)
    omega = pms_omega_quartic_closed_form(-1.0, 1000.0, 10)
    assert omega == pytest.approx(34.246692861173514, rel=1e-12)


def test_closed_form_matches_numeric_minimum_on_grid():
    from scipy.optimize import brentq

    for mu2 in (1.0, -1.0):
        for g in (1.0, 10.0, 1000.0):
            for N in (2, 10, 50):
                closed = pms_omega_quartic_closed_form(mu2, g, N)
                f = lambda lw: quartic_trace_formula(math.exp(lw), mu2, g, N)
                # golden section brackets the minimum; a derivative root-find
                # sharpens it past the sqrt(eps) floor of value-only search
                coarse = golden_min(f, math.log(closed) - 2.0, math.log(closed) + 2.0)
                h = 1e-6

                def dtrace(w):
                    return (quartic_trace_formula(w * (1 + h), mu2, g, N)
                            - quartic_trace_formula(w * (1 - h), mu2, g, N))

                lo, hi = 0.5 * math.exp(coarse), 2.0 * math.exp(coarse)
                numeric = brentq(dtrace, lo, hi, xtol=1e-13, rtol=1e-14)
                assert abs(closed - numeric) / numeric <= 1e-8


def test_closed_form_is_stationary():
    for mu2, g, N in ((1.0, 1000.0, 100), (-1.0 / 24.0, 1.0 / 2400.0, 80)):
        omega = pms_omega_quartic_closed_form(mu2, g, N)
        h = 1e-6 * omega
        f = lambda w: quartic_trace_formula(w, mu2, g, N)
        deriv = (f(omega + h) - f(omega - h)) / (2 * h)
        assert abs(omega * deriv) <= 1e-9 * abs(f(omega))


def test_closed_form_massless_limit():
    g, N = 7.0, 12
    omega = pms_omega_quartic_closed_form(0.0, g, N)
    assert omega == pytest.approx((2.0 * g * (1 + 2 * N * N) / N) ** (1.0 / 3.0), rel=1e-14)


def test_closed_form_signals_complex_branch():
    # 27 g^2 (1+2N^2)^2 < N^2 mu^3: large positive mass, tiny coupling
    with pytest.raises(ClosedFormBranchError):
        pms_omega_quartic_closed_form(1.0, 1e-9, 2)


def test_closed_form_rejects_bad_inputs():
    with pytest.raises(ValueError):
        pms_omega_quartic_closed_form(1.0, -1.0, 10)
    with pytest.raises(ValueError):
        pms_omega_quartic_closed_form(1.0, 1.0, 0)


# ---------------------------------------------------------------- optimize

def test_sho_optimum_is_oscillator_frequency():
    for m in (0.5, 1.0, 3.0):
        pot = PolynomialPotential((0.0, 0.0, m * m / 2.0))
        res = pms_optimize(pot, 8)
        assert res.omega == pytest.approx(m, rel=1e-9)
        assert res.sigma == 0.0


def test_sho_limit_of_weak_coupling():
    pot = from_quartic(1.0, 1e-9, 1)
    res = pms_optimize(pot, 6)
    assert abs(res.omega - 1.0) <= 1e-6


def test_optimum_matches_closed_form_for_quartic():
    for pot, mu2 in ((from_quartic(1.0, 1000.0), 1.0),
                     (from_double_well(0.01, 5.0), -1.0 / 24.0)):
        g = pot.coeffs[4]
        for N in (10, 80):
            res = pms_optimize(pot, N)
            closed = pms_omega_quartic_closed_form(mu2, g, N)
            assert res.omega == pytest.approx(closed, rel=1e-9)


def test_stationarity_residual_invariant():
    for pot, kwargs in ((from_quartic(1.0, 1000.0), {}),
                        (asym_demo(), {"optimize_sigma": True}),
                        (from_double_well(0.01, 5.0), {})):
        res = pms_optimize(pot, 12, **kwargs)
        assert res.stationarity_residual <= 1e-13 * max(abs(res.trace_value), 1.0)


@pytest.mark.parametrize("pot, N, optimize_sigma, center", [
    (asym_demo(), 11, True, 0),
    (asym_demo(), 41, True, 0),
    (from_quartic(1.0, 1000.0), 100, False, 0),
    (from_double_well(0.01, 5.0), 80, False, 0),
    (from_double_well(0.01, 5.0), 40, False, 25),
    (PolynomialPotential((0.0, 0.3, -2.0, 0.0, 0.5, 0.0, 0.02)), 30, False, 0),
], ids=["asym_demo-N11", "asym_demo-N41", "quartic_g1000-N100", "slowroll-N80",
        "slowroll-N40-center25", "sextic-N30"])
def test_optimum_matches_exact_stationary_point(pot, N, optimize_sigma, center):
    # the stationary point of the exact trace, found at 40 digits from the
    # search's own result; Newton on the exact derivatives lands on it to
    # within the rounding of the float gradient
    res = pms_optimize(pot, N, optimize_sigma=optimize_sigma, center=center)
    omega, sigma = exact_stationary_point(pot, N, res.omega,
                                          res.sigma if optimize_sigma else None,
                                          center=center)
    assert abs(res.omega - omega) <= 1e-13 * omega
    assert abs(res.sigma - sigma) <= 1e-13


def test_symmetric_potentials_keep_zero_shift():
    for pot in (from_quartic(1.0, 1000.0), from_double_well(0.01, 5.0)):
        res = pms_optimize(pot, 10, optimize_sigma=True)
        assert abs(res.sigma) <= 1e-6


@pytest.mark.parametrize("lam, sigma", [(1.0, 4.3413786608294895), (10.0, 4.825665065221513)])
def test_even_potential_reports_positive_shift(lam, sigma):
    # a deep double well: the two mirror-image minima at +-sigma have the same
    # trace to the last bit, and the positive one is reported
    res = pms_optimize(from_double_well(lam, 5.0), 10, optimize_sigma=True)
    assert res.sigma == pytest.approx(sigma, rel=1e-14)


def test_lowest_trace_minimum_wins_over_maximum_and_higher_minimum():
    # V = 40x^2 - 30x^4 + 4x^6 at N = 2: T is stationary at omega ~ 6.5588
    # (minimum), 2.9096 (maximum) and 0.90892 (minimum, the lower trace)
    pot = PolynomialPotential((0.0, 0.0, 40.0, 0.0, -30.0, 0.0, 4.0))
    res = pms_optimize(pot, 2)
    assert res.omega == pytest.approx(0.9089195715346063, rel=1e-14)
    traces = [trace(pot, 2, w) for w in (0.90892, 2.9096, 6.5588)]
    assert traces[0] < traces[2] < traces[1]


def _reflected(pot):
    return PolynomialPotential(tuple(c * (-1) ** j for j, c in enumerate(pot.coeffs)))


@pytest.mark.parametrize("N", [11, 21, 41])
def test_reflection_negates_shift(N):
    # V(x) -> V(-x) mirrors the whole problem: omega and the levels stay, sigma flips
    rng = np.random.default_rng(3)
    pots = [asym_demo()] + [
        PolynomialPotential((*rng.uniform([-10, -50, -40, -20], [10, 50, 20, 20]).tolist(),
                             float(rng.uniform(1.0, 20.0)))) for _ in range(30)]
    worst_w = worst_s = worst_e = 0.0
    for pot in pots:
        a = solve_spectrum(pot, N, optimize_sigma=True, levels=range(5))
        b = solve_spectrum(_reflected(pot), N, optimize_sigma=True, levels=range(5))
        worst_w = max(worst_w, abs(a.pms.omega - b.pms.omega) / a.pms.omega)
        worst_s = max(worst_s, abs(a.pms.sigma + b.pms.sigma))
        worst_e = max(worst_e, float(np.max(np.abs(a.energies - b.energies)
                                            / np.maximum(1.0, np.abs(a.energies)))))
    print(f"N = {N}: omega {worst_w:.1e} relative, sigma {worst_s:.1e}, "
          f"levels 0-4 {worst_e:.1e} of max(1, |E|)")
    assert worst_w <= 1e-14 and worst_s <= 1e-14
    assert worst_e <= 1e-13


_ASYM_OTHER = PolynomialPotential((3.0, -20.0, -10.0, 6.0, 2.0))


@pytest.mark.parametrize("pot, N, s", [(asym_demo(), 11, 0.5), (asym_demo(), 21, -1.25),
                                       (_ASYM_OTHER, 11, 3.0), (_ASYM_OTHER, 21, -1.25)])
def test_translation_moves_shift_only(pot, N, s):
    # V(x) -> V(x - s) moves the whole problem by s: sigma follows, omega and the
    # levels stay (the shifted coefficients are rounded, so not bit for bit)
    a = solve_spectrum(pot, N, optimize_sigma=True, levels=range(5))
    b = solve_spectrum(pot.shift(-s), N, optimize_sigma=True, levels=range(5))
    assert abs(b.pms.sigma - a.pms.sigma - s) <= 7.1e-15 * max(1.0, abs(s))
    assert abs(b.pms.omega - a.pms.omega) <= 5.3e-15 * a.pms.omega
    assert np.all(np.abs(b.energies - a.energies) <= 1e-13 * np.maximum(1.0, np.abs(a.energies)))


@pytest.mark.parametrize("pot", [from_quartic(1.0, 1.0), from_double_well(0.01, 5.0),
                                 asym_demo(), _ASYM_OTHER])
def test_constant_offset_moves_levels_only(pot):
    # kappa_0 enters neither the stationary polynomial nor the gradient in omega
    a = solve_spectrum(pot, 20, levels=range(6))
    for c in (-7.5, 100.0, 1e3):
        b = solve_spectrum(PolynomialPotential((pot.coeffs[0] + c, *pot.coeffs[1:])), 20,
                           levels=range(6))
        assert b.pms.omega == a.pms.omega
        scale = max(1.0, abs(c), float(np.max(np.abs(a.energies))))
        assert np.all(np.abs(b.energies - a.energies - c) <= 1.7e-14 * scale)


def test_pure_quartic_levels_scale_as_cube_root_of_coupling():
    # x -> g^(-1/6) x maps g x^4 to g^(1/3) times x^4, basis and truncation included
    ref = solve_spectrum(PolynomialPotential((0.0, 0.0, 0.0, 0.0, 1.0)), 20, levels=range(6))
    for g in (1e-3, 8.0, 1e6):
        res = solve_spectrum(PolynomialPotential((0.0, 0.0, 0.0, 0.0, g)), 20, levels=range(6))
        want = g ** (1.0 / 3.0) * ref.energies
        assert np.all(np.abs(res.energies - want) <= 1.7e-14 * np.abs(want))


@pytest.mark.parametrize("pot, N, optimize_sigma", [(asym_demo(), 11, True),
                                                     (from_double_well(1.0, 6.0), 40, False)])
def test_power_of_two_rescaling_maps_the_optimum_bit_for_bit(pot, N, optimize_sigma):
    # V written with x -> 2^k x is V(2^-k x): coefficient j times 2^(k(j+2)) after
    # the factor 2^2k on H.  Both are solved in the same normalised frame, so
    # omega, sigma and T are exact powers of two of the original's
    ref = pms_optimize(pot, N, optimize_sigma=optimize_sigma)
    for k in (-80, -3, 5, 80):
        image = PolynomialPotential(tuple(math.ldexp(c, k * (j + 2))
                                          for j, c in enumerate(pot.coeffs)))
        res = pms_optimize(image, N, optimize_sigma=optimize_sigma)
        assert (res.omega, res.sigma, res.trace_value) == (
            math.ldexp(ref.omega, 2 * k), math.ldexp(ref.sigma, -k),
            math.ldexp(ref.trace_value, 2 * k)), k


@pytest.mark.parametrize("N", [20, 100])
@pytest.mark.parametrize("kappa2", [1e-300, 1.0, 1e300, 1e306, 1e308])
def test_harmonic_optimum_is_square_root_of_twice_kappa2(kappa2, N):
    # T = N^2 (omega/4 + kappa2 / (2 omega)) is stationary at omega^2 = 2 kappa2.
    # The search runs on V rescaled by a power of two to kappa2' in [1/16, 1), so
    # log(omega') is small and omega keeps its last bits at either end of the range
    res = pms_optimize(PolynomialPotential((0.0, 0.0, kappa2)), N)
    want = 2.0 * math.sqrt(kappa2 / 2.0)
    assert abs(res.omega - want) <= 1e-15 * want
    assert res.trace_value == pytest.approx(N * N * want / 2.0, rel=1e-15)


def test_even_single_well_runs_each_2d_start_once(monkeypatch):
    # V' has no nonzero real root, so every sigma start is 0: one Nelder-Mead run
    # per omega start, not five copies of each
    calls = []
    inner = pms._nelder_mead
    monkeypatch.setattr(pms, "_nelder_mead", lambda *args: calls.append(1) or inner(*args))
    res = pms_optimize(from_quartic(1.0, 1.0), 20, optimize_sigma=True)
    assert len(calls) == 5
    assert (res.omega, res.sigma) == (4.38798345638625, 0.0)


def _recorded(f):
    """f, and the points it is called at as float.hex pairs."""
    points = []

    def g(z):
        points.append(tuple(float(v).hex() for v in z))
        return f(z)
    return g, points


def assert_nelder_mead_is_scipys(f, z0):
    """pms._nelder_mead and scipy's Nelder-Mead with pms's options evaluate f at
    the same points, in the same order, and end at the same point, bit for bit;
    returns scipy's result."""
    from scipy.optimize import minimize

    ours, our_points = _recorded(f)
    end = pms._nelder_mead(ours, z0)
    theirs, their_points = _recorded(f)
    with np.errstate(all="ignore"):  # scipy's arrays warn on inf - inf
        res = minimize(theirs, z0, method="Nelder-Mead", options={
            "xatol": pms._TOL_2D, "fatol": pms._TOL_2D, "maxiter": pms._MAXITER_2D})
    assert our_points == their_points
    assert [v.hex() for v in end] == [v.hex() for v in res.x.tolist()]
    return res


def test_nelder_mead_is_scipys_on_the_pms_objective(monkeypatch):
    # every 2D start of three random asymmetric quartics, one per block size
    runs = []
    inner = pms._nelder_mead
    monkeypatch.setattr(pms, "_nelder_mead", lambda f, z0: runs.append((f, z0)) or inner(f, z0))
    rng = np.random.default_rng(32)
    for dim in (11, 21, 41):
        coeffs = rng.uniform(-5.0, 5.0, 4).tolist() + [rng.uniform(0.5, 5.0)]
        pms_optimize(PolynomialPotential(tuple(coeffs)), dim, optimize_sigma=True)
    monkeypatch.undo()
    assert len(runs) == 75
    for f, z0 in runs:
        assert_nelder_mead_is_scipys(f, z0)


def fine_steps(z):
    # constant on squares of side _TOL_2D, each a multiple 0, 1 or 2 of _TOL_2D
    # near the minimum: vertices tie, and differ by exactly the tolerance
    return pms._TOL_2D * float(math.floor(z[0] / pms._TOL_2D) ** 2
                               + math.floor(z[1] / pms._TOL_2D) ** 2)


def terraces(z):
    # integer-valued rings, so a reflection and its expansion can tie
    return float(math.floor(z[0] ** 2 + z[1] ** 2))


def fenced_bowl(z):
    # inf on one side of the minimum at (1, -0.8) and nan on another
    if z[0] > 1.1:
        return math.inf
    if z[1] < -0.85:
        return math.nan
    return (z[0] - 1.0) ** 2 + 10.0 * (z[1] + 0.8) ** 2


@pytest.mark.parametrize("f", [fine_steps, terraces, fenced_bowl])
def test_nelder_mead_is_scipys_through_ties_inf_and_nan(f):
    # the fixed starts put the first simplex astride the inf and the nan fence
    rng = np.random.default_rng(7)
    starts = [[0.0, 0.0], [1e-7, 3e-8], [1.08, 0.0], [0.0, -0.84]]
    for z0 in np.array(starts + rng.uniform(-2.0, 2.0, (12, 2)).tolist()):
        assert_nelder_mead_is_scipys(f, z0)


def test_nelder_mead_is_scipys_up_to_the_iteration_cap():
    # a plane has no minimum: the simplex grows until its vertices overflow
    res = assert_nelder_mead_is_scipys(lambda z: z[0] + 2.0 * z[1], np.array([0.3, -0.7]))
    assert res.nit == pms._MAXITER_2D


def test_extreme_double_well_simplex_stops_on_relative_change(monkeypatch):
    # lambda = 1e20 puts T near -1e20; an absolute 1e-8 stop on T took ~81,000
    # trace calls here, a relative one takes a few thousand
    calls = []
    inner = pms.trace
    monkeypatch.setattr(pms, "trace", lambda *args: calls.append(1) or inner(*args))
    res = pms_optimize(from_double_well(1e20, 5.0), 20, optimize_sigma=True)
    assert len(calls) < 10_000
    assert res.sigma == pytest.approx(5.0, rel=1e-8)


def test_asymmetric_quartic_benchmark_small_block():
    # benchmark two-parameter optimum; the quoted digits belong to the block
    # of 11 basis functions (indices 0..10)
    res = pms_optimize(asym_demo(), 11, optimize_sigma=True)
    assert res.sigma == pytest.approx(-3.889, abs=5e-3)
    assert res.omega == pytest.approx(31.179, abs=5e-2)


def test_asymmetric_quartic_benchmark_large_block():
    res = pms_optimize(asym_demo(), 41, optimize_sigma=True)
    assert res.sigma == pytest.approx(-3.583, abs=5e-3)
    assert res.omega == pytest.approx(27.431, abs=5e-2)


def test_optimize_is_deterministic():
    a = pms_optimize(asym_demo(), 10, optimize_sigma=True)
    b = pms_optimize(asym_demo(), 10, optimize_sigma=True)
    assert (a.omega, a.sigma, a.trace_value) == (b.omega, b.sigma, b.trace_value)


def test_optimum_far_above_typical_frequencies():
    # optimal frequency ~ (2 g (1+2N^2)/N)^(1/3) ~ 3e10
    res = pms_optimize(from_quartic(1.0, 1e30), 10)
    closed = pms_omega_quartic_closed_form(1.0, 1e30, 10)
    assert res.omega == pytest.approx(closed, rel=1e-12)


def test_optimum_of_stiff_oscillator_is_its_frequency():
    # m = 1e6: the quartic shifts the optimum by ~(1+2N^2)/(N m^3) ~ 2e-17
    res = pms_optimize(from_quartic(1e12, 1.0), 10)
    assert res.omega == pytest.approx(1e6, rel=1e-12)


def test_trace_scan_values():
    pot = from_quartic(1.0, 1000.0)
    omegas = np.logspace(0, 2, 7)
    vals = trace_scan(pot, 10, omegas)
    for w, v in zip(omegas, vals):
        assert v == pytest.approx(trace(pot, 10, w) / 10.0, rel=1e-15)


# fixed ids keep the names that recorded test runs already use for these cases
@pytest.mark.parametrize("dim, omegas", [
    (0, [1.0]),
    (4, [1.0, 0.0]),
    (4, [1.0, math.nan]),
    (4, [1.0, math.inf]),
], ids=[f"{dim}-omegas{k}-0.0" for k, dim in enumerate((0, 4, 4, 4))])
def test_trace_scan_rejects_bad_inputs(dim, omegas):
    with pytest.raises(ValueError):
        trace_scan(from_quartic(1.0, 1.0), dim, np.array(omegas))
