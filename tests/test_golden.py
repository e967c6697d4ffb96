"""Every shipped recipe against its committed golden outputs.

The files under tests/golden/<case>/ are the CLI's own outputs at 17 digits
(observables thinned to every THIN-th row).  They are written only by
tests/golden/regenerate.py; nothing here writes them.  Each field has a
stated bound:

- levels within LEVEL_TOL * scale(E), scale(E) = max(1, |E|, E - V_min);
- PMS omega and sigma within PMS_TOL relative;
- trace values (the scan column and the PMS trace) within TRACE_TOL
  relative, with the is_pms mark identical;
- convergence deltas within DELTA_TOL * scale(E_n) absolute;
- observables within OBS_TOL of the column's max |value| (for <x>, of the
  larger of that and the max of sqrt(<x^2>));
- the truncation loss within LOSS_TOL absolute.

Bounds only ever tighten.
"""
import json
import math
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

import varosc
from varosc.cli import build_potential, main

ROOT = Path(__file__).resolve().parent.parent
RECIPES = ROOT / "recipes"
GOLDEN = Path(__file__).resolve().parent / "golden"

THIN = 8
LEVEL_TOL = 1e-12
PMS_TOL = 1e-9
TRACE_TOL = 1e-13
DELTA_TOL = 2e-12
OBS_TOL = 1e-10
LOSS_TOL = 1e-12


class Case(NamedTuple):
    name: str
    command: str
    recipe: str
    extra: tuple = ()


CASES = (
    Case("asym_quartic_large", "spectrum", "asym_quartic_large.json"),
    Case("asym_quartic_small", "spectrum", "asym_quartic_small.json"),
    Case("quartic_convergence", "convergence", "quartic_convergence.json"),
    Case("quartic_g1000", "spectrum", "quartic_g1000.json"),
    Case("quartic_g1000_levels0-9", "spectrum", "quartic_g1000.json", ("--levels", "0..9")),
    Case("quartic_trace_scan", "trace-scan", "quartic_trace_scan.json"),
    Case("slowroll_centered", "evolve", "slowroll_centered.json"),
    Case("slowroll_shifted", "evolve", "slowroll_shifted.json"),
)


def run_case(case: Case, out: Path):
    argv = [case.command, "--config", str(RECIPES / case.recipe), "--out", str(out),
            *case.extra]
    assert main(argv) == 0, f"{case.name}: {' '.join(argv)} failed"


def thinned(text: str) -> str:
    """Comment and header lines, then every THIN-th data row."""
    lines = text.splitlines()
    head = [ln for ln in lines if ln.startswith("#")]
    body = lines[len(head):]
    return "\n".join(head + body[:1] + body[1::THIN]) + "\n"


def _table(text: str):
    """(comment lines, header, rows of floats) of a CSV."""
    lines = text.strip().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    rest = lines[len(comments):]
    return comments, rest[0], [[float(v) for v in ln.split(",")] for ln in rest[1:]]


def _v_min(pot) -> float:
    """Global minimum of a confining polynomial over the real line."""
    roots = np.roots(pot.derivative_coeffs()[::-1])
    real = roots[np.abs(roots.imag) <= 1e-9 * np.maximum(1.0, np.abs(roots))].real
    return min(pot.evaluate(float(x)) for x in real)


def _scale(e: float, v_min: float) -> float:
    return max(1.0, abs(e), e - v_min)


def _close_rel(got, want, tol, what):
    assert abs(got - want) <= tol * abs(want), f"{what}: {got!r} vs golden {want!r}"


def _levels(got, want, cfg):
    v_min = _v_min(build_potential(cfg))
    g_comments, g_head, g_rows = _table(got)
    assert (g_comments, g_head) == ([], "n,energy")
    rows = _table(want)[2]
    assert [r[0] for r in g_rows] == [r[0] for r in rows], "level indices differ"
    for (n, e), (_n, e_gold) in zip(g_rows, rows):
        assert abs(e - e_gold) <= LEVEL_TOL * _scale(e_gold, v_min), \
            f"level {int(n)}: {e!r} vs golden {e_gold!r}"


def _pms(got, want, cfg):
    got, want = json.loads(got), json.loads(want)
    assert set(got) == set(want)
    assert (got["dim"], got["center"]) == (want["dim"], want["center"])
    _close_rel(got["omega"], want["omega"], PMS_TOL, "omega")
    _close_rel(got["sigma"], want["sigma"], PMS_TOL, "sigma")
    _close_rel(got["trace"], want["trace"], TRACE_TOL, "trace")
    # the residual is a roundoff-level diagnostic of the search; only its
    # presence and finiteness are pinned
    assert math.isfinite(got["stationarity_residual"])


def _convergence(got, want, cfg):
    pot = build_potential(cfg)
    v_min = _v_min(pot)
    ref = varosc.solve_spectrum(pot, cfg["solver"]["n_ref"])
    g_rows, rows = _table(got)[2], _table(want)[2]
    assert [r[:2] for r in g_rows] == [r[:2] for r in rows], "(N, n) rows differ"
    for (n_dim, lvl, d), (_nd, _l, d_gold) in zip(g_rows, rows):
        bound = DELTA_TOL * _scale(ref.energy(int(lvl)), v_min)
        assert abs(d - d_gold) <= bound, \
            f"delta(N={int(n_dim)}, n={int(lvl)}): {d!r} vs golden {d_gold!r}"


def _pms_omegas(got, want, cfg):
    g_rows, rows = _table(got)[2], _table(want)[2]
    assert [r[0] for r in g_rows] == [r[0] for r in rows]
    for (n_dim, w), (_n, w_gold) in zip(g_rows, rows):
        _close_rel(w, w_gold, PMS_TOL, f"omega(N={int(n_dim)})")


def _trace_scan(got, want, cfg):
    g_comments, g_head, g_rows = _table(got)
    comments, head, rows = _table(want)
    assert (g_comments, g_head) == (comments, head)
    assert len(g_rows) == len(rows)
    for (w, t, mark), (w_gold, t_gold, mark_gold) in zip(g_rows, rows):
        _close_rel(w, w_gold, TRACE_TOL, "scan omega")
        _close_rel(t, t_gold, TRACE_TOL, f"trace at omega={w_gold!r}")
        assert mark == mark_gold, f"is_pms moved at omega={w_gold!r}"


def _observables(got, want, cfg):
    g_comments, g_head, g_rows = _table(thinned(got))
    comments, head, rows = _table(want)
    assert g_head == head
    loss = float(g_comments[0].partition("=")[2])
    loss_gold = float(comments[0].partition("=")[2])
    assert abs(loss - loss_gold) <= LOSS_TOL, f"truncation loss {loss!r} vs {loss_gold!r}"
    g_cols, cols = np.array(g_rows).T, np.array(rows).T
    assert g_cols.shape == cols.shape
    names = head.split(",")
    scales = np.max(np.abs(cols), axis=1)
    # |<x>| <= sqrt(<x^2>): a centered packet's <x> is roundoff around 0, so
    # its own column max is no scale; the packet's rms size is
    scales[names.index("x_mean")] = max(scales[names.index("x_mean")],
                                        scales[names.index("sqrt_x2")])
    for name, g_col, col, scale in zip(names, g_cols, cols, scales):
        err = float(np.max(np.abs(g_col - col)))
        assert err <= OBS_TOL * scale, f"column {name}: moved by {err:.3e} (scale {scale:.3e})"


def _compare(name: str):
    if name == "levels.csv":
        return _levels
    if name == "pms.json":
        return _pms
    if name == "convergence.csv":
        return _convergence
    if name == "pms_omegas.csv":
        return _pms_omegas
    if name.startswith("trace_scan_n"):
        return _trace_scan
    if name.startswith("observables"):
        return _observables
    raise AssertionError(f"no comparison for golden file {name}")


@pytest.mark.parametrize("case", CASES, ids=[c.name for c in CASES])
def test_recipe_matches_golden(case, tmp_path):
    run_case(case, tmp_path)
    golden = GOLDEN / case.name
    produced = sorted(p.name for p in tmp_path.iterdir())
    assert produced == sorted(p.name for p in golden.iterdir())
    cfg = json.loads((RECIPES / case.recipe).read_text())
    for name in produced:
        _compare(name)((tmp_path / name).read_text(), (golden / name).read_text(), cfg)
