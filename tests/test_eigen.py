import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import eig_banded

from varosc import (
    BasisConfig,
    EigenSolution,
    InitialGaussian,
    PolynomialPotential,
    asym_demo,
    assemble_hamiltonian,
    diagonalize,
    from_double_well,
    from_quartic,
    make_evolution,
    observables_series,
    pms_optimize,
    project_shifted_gaussian,
    solve_spectrum,
    wavefunction_at,
)
from varosc import eigen
from varosc.oscbasis import HamiltonianMatrix

from oracles import block_levels_mp, dense, lower_bands


def wrap(matrix):
    """A dense symmetric test matrix as a HamiltonianMatrix of its bands."""
    matrix = np.asarray(matrix, dtype=float)
    cfg = BasisConfig(dim=matrix.shape[0], omega=1.0)
    return HamiltonianMatrix(bands=lower_bands(matrix), config=cfg)


def random_symmetric(rng, n):
    a = rng.normal(size=(n, n))
    return (a + a.T) / 2.0


def test_diagonal_input_sorts_and_permutes():
    sol = diagonalize(wrap(np.diag([3.0, -1.0, 2.0])))
    np.testing.assert_allclose(sol.energies, [-1.0, 2.0, 3.0], rtol=1e-15)
    perm = np.zeros((3, 3))
    perm[0, 1] = perm[1, 2] = perm[2, 0] = 1.0
    np.testing.assert_allclose(sol.vectors, perm, atol=1e-15)


def test_two_by_two_exchange_matrix():
    sol = diagonalize(wrap([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(sol.energies, [-1.0, 1.0], rtol=1e-15)
    s = 1.0 / np.sqrt(2.0)
    np.testing.assert_allclose(np.abs(sol.vectors), [[s, s], [s, s]], rtol=1e-14)
    # up to each row's sign: (1, -1)/sqrt 2 for E = -1, (1, 1)/sqrt 2 for E = 1
    assert sol.vectors[0, 0] * sol.vectors[0, 1] < 0 < sol.vectors[1, 0] * sol.vectors[1, 1]


def test_sho_matched_basis_gives_exact_ladder():
    m = 2.0
    pot = PolynomialPotential((0.0, 0.0, m * m / 2.0))
    sol = diagonalize(assemble_hamiltonian(pot, BasisConfig(dim=15, omega=m)))
    np.testing.assert_allclose(sol.energies, m * (np.arange(15) + 0.5), rtol=1e-14)
    np.testing.assert_allclose(sol.vectors, np.eye(15), atol=1e-14)


def test_orthonormality_and_residual_invariants():
    rng = np.random.default_rng(23)
    for n in (5, 40, 120):
        h = random_symmetric(rng, n)
        sol = diagonalize(wrap(h))
        gram = sol.vectors @ sol.vectors.T
        assert np.max(np.abs(gram - np.eye(n))) <= 1e-10
        for k in range(n):
            resid = np.linalg.norm(h @ sol.vectors[k] - sol.energies[k] * sol.vectors[k])
            assert resid / max(1.0, abs(sol.energies[k])) <= 1e-10
        assert np.all(np.diff(sol.energies) >= 0.0)


def test_trace_preserved():
    rng = np.random.default_rng(31)
    for n in (8, 64):
        h = random_symmetric(rng, n)
        sol = diagonalize(wrap(h))
        assert float(np.sum(sol.energies)) == pytest.approx(float(np.trace(h)),
                                                            rel=1e-10)


def test_eigenvalues_invariant_under_orthogonal_similarity():
    rng = np.random.default_rng(37)
    h = random_symmetric(rng, 12)
    q, _ = np.linalg.qr(rng.normal(size=(12, 12)))
    rotated = (q @ h @ q.T + (q @ h @ q.T).T) / 2.0
    e1 = diagonalize(wrap(h)).energies
    e2 = diagonalize(wrap(rotated)).energies
    np.testing.assert_allclose(e1, e2, rtol=1e-10, atol=1e-12)


def test_deterministic_across_runs():
    rng = np.random.default_rng(41)
    h = random_symmetric(rng, 30)
    a = diagonalize(wrap(h))
    b = diagonalize(wrap(h.copy()))
    assert np.array_equal(a.energies, b.energies)
    assert np.array_equal(a.vectors, b.vectors)


def test_row_signs_reach_no_output():
    # diagonalize fixes no eigenvector sign: a_n d_nk, the observables' product
    # and the wavefunction are even in the sign of each row, bit for bit
    rng = np.random.default_rng(43)
    sol = solve_spectrum(asym_demo(), 30, optimize_sigma=True).solution
    flips = rng.choice([-1.0, 1.0], size=(30, 1))
    flipped = EigenSolution(energies=sol.energies.copy(), vectors=flips * sol.vectors,
                            config=sol.config, levels=sol.levels)
    c = project_shifted_gaussian(InitialGaussian(0.5, 1.0), sol.config)
    times, xs = np.linspace(0.0, 20.0, 301), np.linspace(-4.0, 4.0, 41)
    states = [make_evolution(c, s) for s in (sol, flipped)]
    assert states[0].truncation_loss == states[1].truncation_loss
    for got, want in zip(*(observables_series(state, times) for state in states)):
        assert np.array_equal(got, want)
    for t in (0.0, 3.7):
        assert np.array_equal(wavefunction_at(states[1], xs, t), wavefunction_at(states[0], xs, t))


def test_rejects_bands_not_2d_or_not_dim_wide():
    cfg = BasisConfig(dim=3, omega=1.0)
    for bad in (np.zeros(3), np.zeros((1, 2, 3)), np.zeros((2, 2)), np.zeros((2, 4))):
        with pytest.raises(ValueError):
            HamiltonianMatrix(bands=bad, config=cfg)


def test_solution_is_immutable():
    sol = diagonalize(wrap(np.diag([1.0, 2.0])))
    with pytest.raises(ValueError):
        sol.energies[0] = 0.0


# ------------------------------------------------------------ selected levels

EPS = np.finfo(float).eps


def random_confining_block(rng, degree):
    coeffs = tuple(rng.uniform(-1.0, 1.0, size=degree)) + (float(rng.uniform(0.05, 1.0)),)
    cfg = BasisConfig(dim=int(rng.integers(20, 61)), omega=float(rng.uniform(0.5, 4.0)),
                      sigma=float(rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 1.0)),
                      center=int(rng.integers(1, 30)))
    return assemble_hamiltonian(PolynomialPotential(coeffs), cfg)


def test_selected_levels_match_the_whole_block():
    rng = np.random.default_rng(53)
    for degree in (2, 4, 6, 8):
        for _ in range(10):
            h = random_confining_block(rng, degree)
            n, c = h.config.dim, h.config.center
            full = diagonalize(h).energies
            a = int(rng.integers(0, n - 1))
            b = int(rng.integers(a + 1, n + 1))
            sel = diagonalize(h, range(c + a, c + b))
            assert sel.vectors is None and sel.levels == range(c + a, c + b)
            want = full[a:b]
            # both solvers are normwise backward stable, so they may differ by
            # a few eps*||H|| (measured up to 2.1): at degree 8 that is 2e-11
            # of |E|
            tol = 1e-13 * np.maximum(1.0, np.abs(want)) + 4 * EPS * np.max(np.abs(full))
            assert np.all(np.abs(sel.energies - want) <= tol), (degree, n, a, b)


def test_selected_levels_resolve_a_deep_doublet():
    pot = from_double_well(1.0, 6.0)
    h = assemble_hamiltonian(pot, BasisConfig(dim=200, omega=pms_optimize(pot, 200).omega))
    full = diagonalize(h).energies
    assert full[1] - full[0] < 1e-8
    sel = diagonalize(h, range(0, 4)).energies
    np.testing.assert_array_less(np.abs(sel - full[:4]),
                                 1e-13 * np.maximum(1.0, np.abs(full[:4])))
    assert np.all(np.diff(sel) >= 0.0)


def test_selected_levels_of_a_dense_matrix():
    # a full-bandwidth block goes through the banded solver too
    rng = np.random.default_rng(59)
    h = random_symmetric(rng, 30)
    full = diagonalize(wrap(h)).energies
    sel = diagonalize(wrap(h), range(3, 9)).energies
    tol = 1e-13 * np.maximum(1.0, np.abs(full[3:9])) + 4 * EPS * np.max(np.abs(full))
    assert np.all(np.abs(sel - full[3:9]) <= tol)


def test_whole_block_energies_agree_with_and_without_vectors():
    # the eigenvalue-only and eigenvector branches of the banded solver run
    # different tridiagonal solvers, so they agree to a few eps*||H||, not
    # bit for bit; the gap grows with the block (6.2 eps*||H|| measured on
    # the slow-roll well at N = 160)
    rng = np.random.default_rng(61)
    quartic = from_quartic(1.0, 1000.0)
    cfg = BasisConfig(dim=40, omega=pms_optimize(quartic, 40).omega)
    for h in (wrap(random_symmetric(rng, 12)), assemble_hamiltonian(quartic, cfg)):
        n = h.config.dim
        whole = diagonalize(h, range(n))
        assert whole.vectors is None and whole.levels == range(n)
        full = diagonalize(h).energies
        assert np.max(np.abs(whole.energies - full)) <= 4 * EPS * np.max(np.abs(full))


def test_whole_block_levels_match_30_digit_eigenvalues():
    # the block's own spectrum at 30 digits; the banded solver is within
    # 1.1e-15 on both blocks, where dense eigh of the same quartic block is
    # 5.8e-15 off, so the bound tells the two apart
    for pot, n, optimize_sigma in ((from_quartic(1.0, 1000.0), 40, False),
                                   (asym_demo(), 41, True)):
        pms = pms_optimize(pot, n, optimize_sigma=optimize_sigma)
        h = assemble_hamiltonian(pot, BasisConfig(dim=n, omega=pms.omega, sigma=pms.sigma))
        want = block_levels_mp(h.bands)[:10]
        for sol in (diagonalize(h), diagonalize(h, range(n))):
            err = np.max(np.abs(sol.energies[:10] - want) / np.maximum(1.0, np.abs(want)))
            print(f"N={n} vectors={sol.vectors is not None}: {err:.1e} of max(1, |E|)")
            assert err <= 2e-15


def test_selected_levels_reject_bad_ranges():
    h = wrap(np.diag([3.0, -1.0, 2.0]))
    for bad in (range(0, 0), range(2, 4), range(-1, 2), range(0, 3, 2)):
        with pytest.raises(ValueError):
            diagonalize(h, bad)


def test_levels_are_global_indices():
    # a block whose basis starts at index 10 holds levels 10..14
    cfg = BasisConfig(dim=5, omega=1.0, center=10)
    h = HamiltonianMatrix(bands=np.array([[3.0, -1.0, 2.0, 5.0, 0.0]]), config=cfg)
    assert diagonalize(h).levels == range(10, 15)
    low = diagonalize(h, range(10, 13))
    assert low.levels == range(10, 13) and low.vectors is None
    np.testing.assert_allclose(low.energies, [-1.0, 0.0, 2.0], rtol=0.0, atol=1e-14)
    for bad in (range(0, 3), range(9, 12), range(13, 16)):
        with pytest.raises(ValueError):
            diagonalize(h, bad)


def test_levels_path_never_densifies():
    # one dense 1600 x 1600 block is 20.5 MB; the bands are 64 kB
    pot = from_double_well(0.01, 5.0)
    h = assemble_hamiltonian(pot, BasisConfig(dim=1600, omega=0.5))
    assert h.bands.shape == (5, 1600)
    for levels in (range(0, 10), range(1600)):
        tracemalloc.start()
        try:
            sol = diagonalize(h, levels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sol.energies.shape == (len(levels),)
        assert peak < 1e6, (levels, peak)


# ------------------------------------------------------------- parity sectors

QUARTIC_G1000, SLOW_ROLL = from_quartic(1.0, 1000.0), from_double_well(0.01, 5.0)


def even_blocks():
    """Blocks of two even potentials at sigma = 0, every odd band exactly 0."""
    for pot in (QUARTIC_G1000, SLOW_ROLL):
        omega = pms_optimize(pot, 40).omega
        for dim in (1, 2, 3, 40, 41):
            for center in (0, 1):
                h = assemble_hamiltonian(pot, BasisConfig(dim=dim, omega=omega, center=center))
                assert not h.bands[1::2].any()
                yield h


def test_parity_sectors_match_30_digit_eigenvalues():
    for h in even_blocks():
        c, n = h.config.center, h.config.dim
        want = block_levels_mp(h.bands)
        for levels in (None, range(c, c + n), range(c, c + min(n, 10))):
            sol = diagonalize(h, levels)
            got = want[:len(sol.energies)]
            err = np.max(np.abs(sol.energies - got) / np.maximum(1.0, np.abs(got)))
            assert err <= 2e-15, (n, c, levels, err)


def test_parity_sector_vectors_are_orthonormal_eigenvectors_of_one_parity():
    for h in even_blocks():
        sol = diagonalize(h)
        full = dense(h)
        norm = np.linalg.norm(full, 2)
        n = h.config.dim
        assert np.max(np.abs(sol.vectors @ sol.vectors.T - np.eye(n))) <= 1e-13
        for e, v in zip(sol.energies, sol.vectors):
            assert not v[0::2].any() or not v[1::2].any()
            assert np.linalg.norm(full @ v - e * v) <= 1e-13 * norm


def count_solves(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return eig_banded(*args, **kwargs)

    # diagonalize imports eig_banded from scipy.linalg at each call
    monkeypatch.setattr(scipy.linalg, "eig_banded", counted)
    return calls


@pytest.mark.parametrize("pot, sigma, target, levels, solves", [
    (QUARTIC_G1000, 0.0, None, None, 2),
    (QUARTIC_G1000, 0.0, None, range(0, 10), 2),
    (SLOW_ROLL, 0.0, None, range(0, 60), 2),
    (SLOW_ROLL, 0.0, None, range(5, 10), 1),  # mid-block
    (SLOW_ROLL, 0.3, None, None, 1),
    (asym_demo(), 0.0, None, None, 1),
    (QUARTIC_G1000, 0.0, 40, range(36, 46), 1),  # centered on level 40, mid-block
])
def test_parity_split_only_from_the_lowest_level_of_an_even_block(monkeypatch, pot, sigma,
                                                                  target, levels, solves):
    center = 0 if target is None else target - 30
    h = assemble_hamiltonian(pot, BasisConfig(dim=60, omega=2.0, sigma=sigma, center=center))
    calls = count_solves(monkeypatch)
    sol = diagonalize(h, levels)
    assert len(calls) == solves
    assert len(sol.energies) == (60 if levels is None else len(levels))


@pytest.mark.parametrize("pot, levels, solves", [
    (QUARTIC_G1000, range(0, 10), 2),  # one 64-state sub-block per sector
    (from_double_well(0.5, 4.5), range(0, 10), 4),  # 64 fails, 128 passes, per sector
    (QUARTIC_G1000, range(0, 800), 2),  # the whole block: no sub-block can serve it
    (QUARTIC_G1000, range(0, 17), 2),  # top at _CERTIFY_TOP: each sector's bisection
    (QUARTIC_G1000, range(100, 110), 1),  # mid-block: one bisection of the whole bands
    (QUARTIC_G1000, range(6, 16), 2),  # 64 fails, 128 passes, on the whole bands
])
def test_certified_path_solve_counts_at_n800(monkeypatch, pot, levels, solves):
    h = assemble_hamiltonian(pot, BasisConfig(dim=800, omega=pms_optimize(pot, 800).omega))
    calls = count_solves(monkeypatch)
    assert len(diagonalize(h, levels).energies) == len(levels)
    assert len(calls) == solves


def test_sub_roundoff_doublets_come_back_ascending():
    # lambda = 1, a = 6: the lowest doublet is split by less than roundoff.
    # The ten lowest levels, the doublets, are compared with one unsplit
    # solve; high in the spectrum the split and unsplit whole-block solves
    # part by up to 16 eps*||H|| (measured), as two tridiagonal solvers may
    pot = from_double_well(1.0, 6.0)
    h = assemble_hamiltonian(pot, BasisConfig(dim=400, omega=pms_optimize(pot, 400).omega))
    unsplit = eig_banded(h.bands, lower=True, eigvals_only=True)
    assert unsplit[1] - unsplit[0] < 1e-12
    tol = 4 * EPS * np.max(np.abs(unsplit))
    for levels in (None, range(0, 10), range(400)):
        got = diagonalize(h, levels).energies
        assert np.all(np.diff(got) >= 0.0)
        assert np.max(np.abs(got[:10] - unsplit[:10])) <= tol


# -------------------------------------------------------- certified low levels

def sweep_blocks(seed, count):
    """Seeded quartics, double wells and sextics at sigma = 0 (split into
    parity sectors) and sigma != 0 quartics (one unsplit block), each at its
    PMS omega and at least _CERTIFY_MIN states per sector."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        kind, sigma = i % 4, 0.0
        n = int(rng.choice([2 * eigen._CERTIFY_MIN, 600, 800]))
        if kind == 0:
            pot = from_quartic(1.0, float(np.exp(rng.uniform(np.log(1e-2), np.log(1e4)))))
        elif kind == 1:
            pot = from_double_well(float(np.exp(rng.uniform(np.log(0.1), np.log(2.0)))),
                                   float(rng.uniform(3.0, 6.0)))
        elif kind == 2:
            pot = PolynomialPotential((0.0, 0.0, float(rng.uniform(-2.0, 2.0)), 0.0,
                                       float(rng.uniform(-1.0, 1.0)), 0.0,
                                       float(rng.uniform(0.01, 1.0))))
        else:
            pot = PolynomialPotential((0.0, float(rng.uniform(-1.0, 1.0)), float(rng.uniform(0.1, 2.0)),
                                       float(rng.uniform(-1.0, 1.0)), float(rng.uniform(0.5, 5.0))))
            sigma, n = float(rng.uniform(-1.0, 1.0)), int(rng.choice([eigen._CERTIFY_MIN, 300, 400]))
        h = assemble_hamiltonian(pot, BasisConfig(dim=n, omega=pms_optimize(pot, n).omega,
                                                  sigma=sigma))
        assert (sigma == 0.0) == (not h.bands[1::2].any())
        yield h


def test_certified_levels_lie_in_their_brackets():
    # the lower end's margin is at least eps ||A||, the rounding of the
    # sub-block's own solve; the bisection of the whole sector may sit
    # that much above the upper end (measured: up to 0.25 bracket widths
    # over seeds 100-105), so it must lie within one width of either end
    certified = sectors = 0
    for h in sweep_blocks(71, 24):
        split = not h.bands[1::2].any()
        served = []
        for bands in ([h.bands[0::2, 0::2], h.bands[0::2, 1::2]] if split else [h.bands]):
            sectors += 1
            bracket = eigen._certified_levels(bands, 0, 9)
            whole = eig_banded(bands, lower=True, eigvals_only=True, select="i", select_range=(0, 9))
            if bracket is None:
                served.append(whole)
                continue
            certified += 1
            lower, upper = bracket
            served.append(upper)
            assert np.all(lower < upper) and np.all(lower[1:] > upper[:-1])
            assert np.all(whole >= lower) and np.all(whole - upper <= upper - lower)
        # diagonalize serves each sector by its helper, or by the whole sector's bisection
        got = diagonalize(h, range(10)).energies
        assert np.array_equal(got, np.sort(np.concatenate(served), kind="stable")[:10])
    print(f"{certified} of {sectors} sectors certified")
    assert certified >= 0.7 * sectors


def test_certified_levels_match_30_digit_eigenvalues(monkeypatch):
    # the odd sector of the slow-roll well, 100 states at the PMS omega of
    # N = 100, where a sub-block of 16 or 32 states passes levels 0..9.
    # The 30-digit levels lie above every lower end and within one bracket
    # width of the upper end, which carries the rounding of the sub-block's
    # solve, and the certified levels meet the bound the other 30-digit tests
    # set for the whole-sector paths.
    # Measured in eps of max(1, |E|): 3.3 for both here; on the even sector of
    # quartic_g1000 the certified 3.2 against the whole sector's 2.7 (one
    # 30-digit solve of 100 states takes 2-3 s, so the suite runs one)
    h = assemble_hamiltonian(SLOW_ROLL, BasisConfig(dim=200, omega=pms_optimize(SLOW_ROLL, 100).omega))
    bands = np.ascontiguousarray(h.bands[0::2, 1::2])
    want = block_levels_mp(bands)[:10]
    monkeypatch.setattr(eigen, "_LEAD_START", 16)
    lower, upper = eigen._certified_levels(bands, 0, 9)
    whole = eig_banded(bands, lower=True, eigvals_only=True, select="i", select_range=(0, 9))
    assert np.all(want >= lower) and np.all(want - upper <= upper - lower)
    errs = [np.max(np.abs(e - want) / np.maximum(1.0, np.abs(want))) for e in (upper, whole)]
    print(f"certified {errs[0]:.1e}, whole sector {errs[1]:.1e} of max(1, |E|)")
    assert max(errs) <= 2e-15


def test_unconverged_sub_block_is_not_certified():
    # the even sector of this double well at N = 400 holds 200 states, and its
    # 64-state block is short of level 9 by more than a margin of
    # 8 eps max(1, |E|): a bisection of that block off by more than the
    # margin made such a margin alone pass it, so the margin also covers
    # eps ||A|| and the LU's determinant sign must agree with the count
    pot = from_double_well(0.9773865070289698, 4.904283187622916)
    h = assemble_hamiltonian(pot, BasisConfig(dim=400, omega=pms_optimize(pot, 400).omega))
    bands = h.bands[0::2, 0::2]
    lead = eig_banded(lower_bands(dense(h)[0::2, 0::2][:64, :64]), lower=True,
                      eigvals_only=True, select="i", select_range=(0, 9))
    whole = eig_banded(bands, lower=True, eigvals_only=True, select="i", select_range=(0, 9))
    print(f"the 64-state block is {lead[9] - whole[9]:.1e} short of level 9")
    assert lead[9] - whole[9] > 100 * 8 * EPS * max(1.0, abs(whole[9]))
    assert eigen._certified_levels(bands, 0, 9) is None


def test_uncertifiable_doublets_fall_back_to_the_whole_block_bits(monkeypatch):
    # lambda = 1, a = 6 at sigma = 0, asked for levels 1..9: a request that
    # does not start at level 0 is one unsplit solve, and the lowest doublet
    # is split by less than any margin, so no sub-block passes level 1
    pot = from_double_well(1.0, 6.0)
    h = assemble_hamiltonian(pot, BasisConfig(dim=800, omega=pms_optimize(pot, 800).omega))
    assert eigen._certified_levels(h.bands, 1, 9) is None
    whole = eig_banded(h.bands, lower=True, eigvals_only=True, select="i", select_range=(1, 9))
    calls = count_solves(monkeypatch)
    assert np.array_equal(diagonalize(h, range(1, 10)).energies, whole)
    assert len(calls) == 4  # sub-blocks of 64, 128 and 256 states, then the whole block
