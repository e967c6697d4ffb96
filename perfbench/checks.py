"""Output checks for benchmark jobs, with an independent reference spectrum.

Every job's files are read back and checked after the job; a job whose
outputs fail a check counts as failed.  The reference energies come from a
sinc discrete-variable-representation (DVR) grid diagonalization built from
numpy primitives only, so they share no code with the program under test.
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

# Level tolerances are relative to scale(E) = max(1, |E|, E - V_min): the
# energy above the potential's minimum, which does not move with the constant
# term of V, or |E| where that is larger and sets the roundoff.
# Generated spectra at N >= 400 agree with the DVR to ~3e-13 of that scale;
# the tolerance leaves three decades for roundoff growth in larger blocks.
LEVEL_REL_TOL = 1e-10
# Two-parameter PMS jobs use small blocks, so truncation dominates and only
# lifts levels (Rayleigh-Ritz).  Worst (E_N - E) / (E - V_min) of levels 0..2
# over ~200 generated potentials per size: 1.9e-3 (N=11), 5.6e-5 (N=21),
# 1.2e-9 (N=41); each bound is 15-25x that, for the heavy tail.
ASYM_REL_TOL = {11: 3e-2, 21: 1e-3, 41: 3e-8}
ASYM_LEVELS = 3
# A truncated level may not sit below the exact one by more than roundoff;
# the largest such deviation seen was 2e-11 of scale(E).
VARIATIONAL_SLACK = 1e-9
# Largest |E_n(N) - E_n(N_ref)| allowed at the largest block of a convergence table.
CONVERGED_DELTA = 1e-9
# Floor of the moment check at t = 0 before the truncation-loss term.
MOMENT_FLOOR = 1e-9


class CheckFailed(AssertionError):
    """A job's outputs disagree with what the job must produce."""


def _require(cond: bool, msg: str):
    if not cond:
        raise CheckFailed(msg)


# --- independent reference --------------------------------------------------

def potential_coeffs(potential: dict) -> list[float]:
    """Coefficients (constant first) of a config's potential block."""
    kind = potential["kind"]
    if kind == "quartic":
        return [0.0, 0.0, potential.get("sign", 1) * potential["m2"] / 2.0, 0.0,
                potential["g"]]
    if kind == "double_well":
        lam, a = potential["lambda"], potential["a"]
        return [0.0, 0.0, -lam * a * a / 12.0, 0.0, lam / 24.0]
    if kind == "coeffs":
        return [float(c) for c in potential["coeffs"]]
    raise ValueError(f"no reference for potential kind {kind!r}")


def _dvr_solve(poly, lo: float, hi: float, dx: float, nlev: int) -> np.ndarray:
    m = int(math.ceil((hi - lo) / dx)) + 1
    x = np.linspace(lo, hi, m)
    dx = x[1] - x[0]
    d = np.subtract.outer(np.arange(m), np.arange(m)).astype(float)
    off = np.where(d == 0.0, 1.0, d)
    kinetic = np.where(d == 0.0, math.pi**2 / 3.0, 2.0 * np.cos(math.pi * d) / off**2)
    h = kinetic / (2.0 * dx * dx) + np.diag(poly(x))
    return np.linalg.eigvalsh(h)[:nlev]


def _window(poly, emax: float, decay: float = 25.0) -> tuple[float, float]:
    """Interval outside which every state below emax has decayed by e^-decay."""
    roots = (poly - emax).roots()
    real = roots[np.abs(roots.imag) < 1e-9].real
    lo, hi = float(real.min()), float(real.max())
    step = (hi - lo) / 200.0

    def extend(x: float, dx: float) -> float:
        count = 256
        while True:
            xs = x + dx * np.arange(1, count + 1)
            acc = np.cumsum(np.sqrt(np.maximum(2.0 * (poly(xs) - emax), 0.0))) * abs(dx)
            k = int(np.searchsorted(acc, decay))
            if k < count:
                return float(xs[k])
            count *= 2

    return extend(lo, -step), extend(hi, step)


def potential_minimum(coeffs) -> float:
    """Global minimum of a confining polynomial potential."""
    poly = np.polynomial.Polynomial(np.asarray(coeffs, dtype=float))
    crit = poly.deriv().roots()
    return float(min(poly(crit[np.abs(crit.imag) < 1e-9].real)))


def reference_levels(coeffs, nlev: int, tol: float = 1e-12) -> np.ndarray:
    """Lowest nlev eigenvalues of p^2/2 + V(x) by sinc-DVR.

    The grid spans the classically allowed region of the highest wanted level
    plus a tunnelling margin; the spacing is refined until two successive
    grids agree to ``tol`` relative.
    """
    poly = np.polynomial.Polynomial(np.asarray(coeffs, dtype=float))
    vmin = potential_minimum(coeffs)
    emax = vmin + 1.0
    prev = None
    for per_wave in (1.0, 1.5, 2.0, 2.5, 3.0, 4.0):
        while True:
            lo, hi = _window(poly, emax)
            dx = math.pi / math.sqrt(2.0 * (emax - vmin)) / per_wave
            if (hi - lo) / dx + 1 < nlev + 10:
                emax = vmin + 2.0 * (emax - vmin)
                continue
            levels = _dvr_solve(poly, lo, hi, dx, nlev)
            if levels[-1] <= emax:
                break
            emax = levels[-1] + 0.5 * (levels[-1] - vmin)
        if prev is not None and np.max(np.abs(levels - prev)) <= tol * max(
                1.0, float(np.max(np.abs(levels)))):
            return levels
        prev = levels
    raise RuntimeError("DVR reference did not converge")


def reference_for(job) -> tuple[np.ndarray, float] | None:
    """The reference levels a job's check needs, with the potential's minimum."""
    kind = job.expect["kind"]
    if kind not in ("levels", "asym_levels"):
        return None
    coeffs = potential_coeffs(job.config["potential"])
    nlev = ASYM_LEVELS if kind == "asym_levels" else int(job.levels.split("..")[1]) + 1
    return reference_levels(coeffs, nlev), potential_minimum(coeffs)


def _scale(energy: float, vmin: float) -> float:
    return max(1.0, abs(energy), energy - vmin)


# --- readers ----------------------------------------------------------------

def _rows(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def _finite(values, what: str):
    arr = np.asarray(values, dtype=float)
    _require(arr.size > 0 and bool(np.all(np.isfinite(arr))), f"{what}: empty or not finite")
    return arr


def read_levels(path: Path) -> dict[int, float]:
    return {int(r["n"]): float(r["energy"]) for r in _rows(path)}


# --- checks -----------------------------------------------------------------

def _check_levels(out: Path, wanted: range, ref: np.ndarray, vmin: float):
    levels = read_levels(out / "levels.csv")
    _require(list(levels) == list(wanted),
             f"levels.csv holds levels {list(levels)[:3]}..., expected {wanted}")
    e = _finite(list(levels.values()), "levels.csv")
    _require(bool(np.all(np.diff(e) >= 0.0)), "levels.csv energies are not ascending")
    pms = json.loads((out / "pms.json").read_text())
    _require(pms["omega"] > 0.0 and math.isfinite(pms["omega"]), "pms.json omega")
    for n, ref_n in zip(wanted, ref[wanted.start:]):
        got = levels[n]
        _require(abs(got - ref_n) <= LEVEL_REL_TOL * _scale(ref_n, vmin),
                 f"level {n}: {got!r} vs reference {ref_n!r}")


def _check_trace_scan(out: Path, recipe: dict):
    dims = recipe["solver"]["dims"]
    points = recipe["scan"]["points"]
    for dim in dims:
        rows = _rows(out / f"trace_scan_n{dim}.csv")
        _require(len(rows) == points, f"trace_scan_n{dim}.csv has {len(rows)} rows")
        vals = _finite([r["trace_over_n"] for r in rows], f"trace_scan_n{dim}.csv")
        marks = [i for i, r in enumerate(rows) if r["is_pms"] == "1"]
        _require(len(marks) == 1, f"trace_scan_n{dim}.csv marks {len(marks)} PMS points")
        # the marked grid point is the one nearest the stationary minimum
        _require(abs(int(np.argmin(vals)) - marks[0]) <= 1,
                 f"trace_scan_n{dim}.csv: PMS mark is not at the scan minimum")


def _check_convergence(out: Path, recipe: dict):
    dims = recipe["solver"]["dims"]
    lo, hi = (int(v) for v in recipe["solver"]["levels"].split(".."))
    rows = _rows(out / "convergence.csv")
    _require(len(rows) == len(dims) * (hi - lo + 1), "convergence.csv row count")
    delta = _finite([r["delta"] for r in rows], "convergence.csv")
    _require(bool(np.all(delta >= 0.0)), "convergence.csv has negative deltas")
    # convergence is exponential in N: at N = 60 every level of the recipe
    # matches the reference block to ~1e-12, at N = 10 the ground state to ~3e-6
    largest = [float(r["delta"]) for r in rows if int(r["N"]) == max(dims)]
    _require(max(largest) <= CONVERGED_DELTA, f"convergence.csv: largest block off by {max(largest)!r}")
    ground = {int(r["N"]): float(r["delta"]) for r in rows if int(r["n"]) == lo}
    _require(ground[min(dims)] > ground[max(dims)], "convergence.csv: no convergence in N")
    omegas = _rows(out / "pms_omegas.csv")
    _require(len(omegas) == len(dims) + 1, "pms_omegas.csv row count")
    _require(bool(np.all(_finite([r["omega"] for r in omegas], "pms_omegas.csv") > 0)),
             "pms_omegas.csv has a non-positive omega")


def _check_evolution(out: Path, cfg: dict):
    ev = cfg["evolution"]
    widths = ev.get("widths", [ev.get("width")])
    x0 = float(ev.get("x0", 0.0))
    t_max, t_step = float(ev["t_max"]), float(ev["t_step"])
    n_times = len(np.arange(0.0, t_max + 0.5 * t_step, t_step)) if t_max > 0 else 1
    for w in widths:
        tag = "" if len(widths) == 1 else f"_w{w:g}"
        path = out / f"observables{tag}.csv"
        header = path.read_text().split("\n", 1)[0]
        _require(header.startswith("# truncation_loss="), f"{path.name}: no loss header")
        loss = max(float(header.split("=", 1)[1]), 0.0)
        rows = _rows(path)
        _require(len(rows) == n_times, f"{path.name}: {len(rows)} rows, expected {n_times}")
        x_mean = _finite([r["x_mean"] for r in rows], path.name)
        x2_mean = _finite([r["x2_mean"] for r in rows], path.name)
        _require(float(rows[0]["t"]) == 0.0, f"{path.name}: first row is not t = 0")
        # exact moments of the initial Gaussian: variance 1/width about x0.  The
        # truncated state psi_N = psi - psi_T with |psi_T|^2 = loss, so by
        # Cauchy-Schwarz each moment can move by ~2 sqrt(<x^2k> loss).
        m2 = x0 * x0 + 1.0 / w
        m4 = x0**4 + 6.0 * x0 * x0 / w + 3.0 / (w * w)
        tol_x = MOMENT_FLOOR * (1.0 + math.sqrt(m2)) + 4.0 * math.sqrt(m2 * loss)
        tol_x2 = MOMENT_FLOOR * m2 + 4.0 * math.sqrt(m4 * loss)
        _require(abs(x_mean[0] - x0) <= tol_x,
                 f"{path.name}: <x>(0) = {x_mean[0]!r}, expected {x0!r} +- {tol_x:.2e}")
        _require(abs(x2_mean[0] - m2) <= tol_x2,
                 f"{path.name}: <x^2>(0) = {x2_mean[0]!r}, expected {m2!r} +- {tol_x2:.2e}")
        _require(bool(np.all(x2_mean - x_mean**2 >= -1e-9 * np.maximum(x2_mean, 1.0))),
                 f"{path.name}: negative variance")
        for t_snap in ev.get("snapshot_times", []):
            spath = out / f"wavefunction{tag}_t{t_snap:g}.csv"
            rows = _rows(spath)
            _require(len(rows) == ev.get("x_points", 201), f"{spath.name} row count")
            re = _finite([r["re"] for r in rows], spath.name)
            im = _finite([r["im"] for r in rows], spath.name)
            abs2 = _finite([r["abs2"] for r in rows], spath.name)
            _require(bool(np.allclose(abs2, re * re + im * im, rtol=1e-12, atol=1e-300)),
                     f"{spath.name}: abs2 != re^2 + im^2")


def check_job(job, out: Path, config: dict, reference: tuple[np.ndarray, float] | None):
    """Raise CheckFailed unless the job's outputs in ``out`` are right.

    ``config`` is the config the program read (a recipe for anchors);
    ``reference`` is what reference_for(job) returned.
    """
    kind = job.expect["kind"]
    if kind == "ground_state":
        e0 = read_levels(out / "levels.csv")[0]
        want = job.expect["e0"]
        _require(abs(e0 - want) <= job.expect["rel"] * abs(want),
                 f"E0 = {e0!r}, expected {want!r} within {job.expect['rel']:g} relative")
    elif kind == "asym_pms":
        pms = json.loads((out / "pms.json").read_text())
        _require(abs(pms["sigma"] - job.expect["sigma"]) <= job.expect["sigma_tol"] and
                 abs(pms["omega"] - job.expect["omega"]) <= job.expect["omega_tol"],
                 f"(sigma, omega) = ({pms['sigma']!r}, {pms['omega']!r})")
    elif kind == "levels":
        a, b = (int(v) for v in job.levels.split(".."))
        _check_levels(out, range(a, b + 1), *reference)
    elif kind == "asym_levels":
        ref, vmin = reference
        dim = config["solver"]["dim"]
        levels = read_levels(out / "levels.csv")
        _require(list(levels) == list(range(dim)), "levels.csv does not hold the whole block")
        e = _finite(list(levels.values()), "levels.csv")
        _require(bool(np.all(np.diff(e) >= 0.0)), "levels.csv energies are not ascending")
        for n in range(ASYM_LEVELS):
            _require(levels[n] - ref[n] <= ASYM_REL_TOL[dim] * (ref[n] - vmin) and
                     ref[n] - levels[n] <= VARIATIONAL_SLACK * _scale(ref[n], vmin),
                     f"level {n}: {levels[n]!r} vs reference {ref[n]!r}")
    elif kind == "trace_scan":
        _check_trace_scan(out, config)
    elif kind == "convergence":
        _check_convergence(out, config)
    elif kind == "evolution":
        _check_evolution(out, config)
    else:
        raise ValueError(f"unknown check kind {kind!r}")
