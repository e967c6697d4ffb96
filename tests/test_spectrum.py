import math

import numpy as np
import pytest

from varosc import (
    BasisConfig,
    PolynomialPotential,
    assemble_hamiltonian,
    asym_demo,
    convergence_study,
    diagonalize,
    from_double_well,
    from_quartic,
    solve_spectrum,
)
from varosc.spectrum import write_convergence_csv, write_levels_csv

from oracles import dense, golden_min


def test_sho_levels_are_exact():
    m = 2.0
    pot = PolynomialPotential((0.0, 0.0, m * m / 2.0))
    rep = solve_spectrum(pot, 20)
    np.testing.assert_allclose(rep.energies, m * (np.arange(20) + 0.5), rtol=1e-13)


def test_quartic_ground_state_reference_value():
    # E0 of p^2 + x^2 + 2000 x^4 is twice the ground state of the solved form
    rep = solve_spectrum(from_quartic(1.0, 1000.0), 60)
    assert 2.0 * rep.energies[0] == pytest.approx(13.3884417010081, rel=1e-11)


def test_asymmetric_quartic_ground_state():
    rep = solve_spectrum(asym_demo(), 40, optimize_sigma=True)
    assert rep.energies[0] == pytest.approx(-1229.1160510460046, rel=1e-12)


def test_spectrum_invariant_under_potential_shift():
    pot = from_quartic(1.0, 1.0)
    base = solve_spectrum(pot, 60, optimize_sigma=True)
    moved = solve_spectrum(pot.shift(0.7), 60, optimize_sigma=True)
    np.testing.assert_allclose(moved.energies[:15], base.energies[:15], rtol=1e-9)


def test_rayleigh_ritz_monotonicity_fixed_basis():
    pot = from_quartic(1.0, 1000.0)
    omega = 30.0
    prev = math.inf
    for n in range(5, 31):
        sol = diagonalize(assemble_hamiltonian(pot, BasisConfig(dim=n, omega=omega)))
        e0 = float(sol.energies[0])
        assert e0 <= prev + 1e-13
        prev = e0


def test_reoptimized_ground_state_stays_above_reference():
    pot = from_quartic(1.0, 1000.0)
    ref = float(solve_spectrum(pot, 200).energies[0])
    for n in (10, 20, 40, 80):
        e0 = float(solve_spectrum(pot, n).energies[0])
        assert e0 >= ref - 1e-12


def test_double_well_eigenvectors_have_definite_parity():
    rep = solve_spectrum(from_double_well(0.01, 5.0), 40)
    for row in rep.solution.vectors:
        even_part = np.max(np.abs(row[0::2]))
        odd_part = np.max(np.abs(row[1::2]))
        assert min(even_part, odd_part) < 1e-10


def test_centered_block_at_origin_matches_plain_solve():
    pot = from_quartic(1.0, 1000.0)
    plain = solve_spectrum(pot, 10)
    centered = solve_spectrum(pot, 10, target_level=0)
    assert centered.solution.config.center == 0
    np.testing.assert_allclose(centered.energies, plain.energies, rtol=1e-14)
    assert centered.pms.omega == pytest.approx(plain.pms.omega, rel=1e-12)


def test_single_element_center_is_variational_value():
    # an N=1 block centered on level n minimizes the single diagonal element
    pot = from_quartic(1.0, 1000.0)
    full = solve_spectrum(pot, 60)
    for n in (0, 7):
        rep = solve_spectrum(pot, 1, target_level=n)

        def diag(logw):
            cfg = BasisConfig(dim=1, omega=math.exp(logw), center=n)
            return float(dense(assemble_hamiltonian(pot, cfg))[0, 0])

        best = diag(golden_min(diag, math.log(1.0), math.log(500.0)))
        assert rep.energies[0] == pytest.approx(best, rel=1e-9)
        # crude but already at the few-percent level
        assert rep.energies[0] == pytest.approx(float(full.energies[n]), rel=5e-2)
    # the Rayleigh quotient bounds the lowest level from above
    e0_single = solve_spectrum(pot, 1, target_level=0).energies[0]
    assert e0_single >= full.energies[0] - 1e-10


def test_centered_block_reaches_high_level():
    # a 41-state window around level 30 carries lower-edge contamination at
    # the 1e-8 level; the acceptance suite exercises the deeper 161-state case
    pot = from_quartic(1.0, 1000.0)
    rep = solve_spectrum(pot, 41, target_level=30)
    assert rep.solution.config.center == 10
    assert rep.requested_levels == range(10, 51)
    ref = solve_spectrum(pot, 120)
    got = rep.energy(30)
    assert got == pytest.approx(float(ref.energies[30]), rel=1e-6)


def test_centered_selected_levels_match_full_block():
    pot = from_quartic(1.0, 1000.0)
    full = solve_spectrum(pot, 81, target_level=60)
    sel = solve_spectrum(pot, 81, levels=range(55, 66), target_level=60)
    assert full.requested_levels == range(20, 101)
    assert sel.solution.vectors is None
    assert sel.requested_levels == range(55, 66)
    assert sel.pms == full.pms
    for n in range(55, 66):
        e = full.energy(n)
        assert abs(sel.energy(n) - e) <= 1e-13 * max(1.0, abs(e))
    for outside in (54, 66):
        with pytest.raises(ValueError):
            sel.energy(outside)
    with pytest.raises(ValueError):
        solve_spectrum(pot, 81, levels=range(10, 30), target_level=60)  # below the block


def test_selected_levels_match_plain_solve():
    pot = asym_demo()
    full = solve_spectrum(pot, 41, optimize_sigma=True)
    sel = solve_spectrum(pot, 41, optimize_sigma=True, levels=range(3, 8))
    np.testing.assert_allclose(sel.energies, full.energies[3:8], rtol=1e-13)
    with pytest.raises(ValueError):
        solve_spectrum(pot, 41, levels=range(40, 42))


def test_convergence_study_solves_only_the_level_span():
    rep = convergence_study(from_quartic(1.0, 1000.0), [4, 2], [10, 20], N_ref=40)
    assert rep.requested_levels == range(2, 5)
    assert rep.solution.vectors is None
    plain = solve_spectrum(from_quartic(1.0, 1000.0), 40)
    for lvl in (2, 3, 4):
        assert rep.energy(lvl) == pytest.approx(plain.energy(lvl), rel=1e-13)
    with pytest.raises(ValueError):
        convergence_study(from_quartic(1.0, 1000.0), [], [10])


def test_convergence_study_table():
    pot = from_quartic(1.0, 1000.0)
    rep = convergence_study(pot, [0, 3], [10, 20, 30], N_ref=50)
    study = rep.convergence
    assert study.n_ref == 50
    assert set(study.pms_omegas) == {10, 20, 30, 50}
    deltas = {(n, lvl): d for n, lvl, _e, d in study.rows}
    assert len(deltas) == 6
    # errors shrink with block size
    assert deltas[(30, 0)] < deltas[(20, 0)] < deltas[(10, 0)]
    # reference block reproduces itself
    same = convergence_study(pot, [0], [10, 50], N_ref=50)
    self_delta = {(n, lvl): d for n, lvl, _e, d in same.convergence.rows}
    assert self_delta[(50, 0)] == 0.0


def test_convergence_study_validates_dimensions():
    pot = from_quartic(1.0, 1000.0)
    with pytest.raises(ValueError):
        convergence_study(pot, [0], [10, 60], N_ref=50)
    with pytest.raises(ValueError):
        convergence_study(pot, [12], [10, 20], N_ref=50)


def test_convergence_default_reference():
    pot = from_quartic(1.0, 1000.0)
    rep = convergence_study(pot, [0], [10, 20])
    assert rep.convergence.n_ref == 50


def test_report_rejects_levels_outside_block():
    pot = from_quartic(1.0, 1000.0)
    rep = solve_spectrum(pot, 21, target_level=30)
    with pytest.raises(ValueError):
        rep.energy(100)  # above the block
    with pytest.raises(IndexError):
        rep.energies[999]


def test_levels_csv_roundtrip(tmp_path):
    rep = solve_spectrum(from_quartic(1.0, 1000.0), 12)
    path = tmp_path / "levels.csv"
    write_levels_csv(path, rep)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "n,energy"
    for k, line in enumerate(lines[1:]):
        n_str, e_str = line.split(",")
        assert int(n_str) == k
        assert float(e_str) == float(rep.energies[k])  # 17g round-trips exactly


def test_convergence_csv_columns(tmp_path):
    rep = convergence_study(from_quartic(1.0, 1000.0), [0], [10], N_ref=30)
    path = tmp_path / "convergence.csv"
    write_convergence_csv(path, rep.convergence)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "N,n,delta"
    n_str, lvl_str, d_str = lines[1].split(",")
    assert (int(n_str), int(lvl_str)) == (10, 0)
    assert float(d_str) == rep.convergence.rows[0][3]
