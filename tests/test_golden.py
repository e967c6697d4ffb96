"""Every shipped recipe against its committed golden outputs.

The files under tests/golden/<case>/ are the CLI's own outputs at 17 digits
(observables thinned to every THIN-th row).  They are written only by
tests/golden/regenerate.py; nothing here writes them, and
`regenerate.py --report` prints how far each field moved in the scales
below.  Each field has a stated bound:

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
from numpy.polynomial.polynomial import polyder, polyval

import varosc
from varosc.cli import _validate, main

ROOT = Path(__file__).resolve().parent.parent
RECIPES = ROOT / "recipes"
GOLDEN = Path(__file__).resolve().parent / "golden"

THIN = 8
LEVEL_TOL = 1e-12
PMS_TOL = 1e-12
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
    Case("quartic_centered_levels245-255", "spectrum", "quartic_centered.json",
         ("--levels", "245..255")),
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
    roots = np.roots(polyder(pot.coeffs)[::-1])
    real = roots[np.abs(roots.imag) <= 1e-9 * np.maximum(1.0, np.abs(roots))].real
    return min(float(polyval(float(x), pot.coeffs)) for x in real)


def _scale(e: float, v_min: float) -> float:
    return max(1.0, abs(e), e - v_min)


class Moved(NamedTuple):
    """One field against its golden value: within bound when err <= tol * scale."""

    field: str
    err: float
    scale: float
    tol: float


def _rel(field, got, want, tol):
    return Moved(field, abs(got - want), abs(want), tol)


def _levels(got, want, vals):
    v_min = _v_min(vals["potential"])
    g_comments, g_head, g_rows = _table(got)
    assert (g_comments, g_head) == ([], "n,energy")
    rows = _table(want)[2]
    assert [r[0] for r in g_rows] == [r[0] for r in rows], "level indices differ"
    return [Moved(f"level {int(n)}", abs(e - e_gold), _scale(e_gold, v_min), LEVEL_TOL)
            for (n, e), (_n, e_gold) in zip(g_rows, rows)]


def _reject_constant(name):
    raise ValueError(f"pms.json holds {name}, which is not JSON")


def _pms(got, want, vals):
    got, want = (json.loads(t, parse_constant=_reject_constant) for t in (got, want))
    assert set(got) == set(want)
    assert (got["dim"], got["center"]) == (want["dim"], want["center"])
    # the residual is a roundoff-level diagnostic of the search; only its
    # presence and finiteness are pinned
    assert math.isfinite(got["stationarity_residual"])
    return [_rel("omega", got["omega"], want["omega"], PMS_TOL),
            _rel("sigma", got["sigma"], want["sigma"], PMS_TOL),
            _rel("trace", got["trace"], want["trace"], TRACE_TOL)]


def _convergence(got, want, vals):
    pot = vals["potential"]
    v_min = _v_min(pot)
    ref = varosc.solve_spectrum(pot, vals["solver"]["n_ref"])
    g_rows, rows = _table(got)[2], _table(want)[2]
    assert [r[:2] for r in g_rows] == [r[:2] for r in rows], "(N, n) rows differ"
    return [Moved(f"delta(N={int(n_dim)}, n={int(lvl)})", abs(d - d_gold),
                  _scale(ref.energy(int(lvl)), v_min), DELTA_TOL)
            for (n_dim, lvl, d), (_nd, _l, d_gold) in zip(g_rows, rows)]


def _pms_omegas(got, want, vals):
    g_rows, rows = _table(got)[2], _table(want)[2]
    assert [r[0] for r in g_rows] == [r[0] for r in rows]
    return [_rel(f"omega(N={int(n_dim)})", w, w_gold, PMS_TOL)
            for (n_dim, w), (_n, w_gold) in zip(g_rows, rows)]


def _trace_scan(got, want, vals):
    g_comments, g_head, g_rows = _table(got)
    comments, head, rows = _table(want)
    assert (g_comments, g_head) == (comments, head)
    assert len(g_rows) == len(rows)
    moved = []
    for (w, t, mark), (w_gold, t_gold, mark_gold) in zip(g_rows, rows):
        assert mark == mark_gold, f"is_pms moved at omega={w_gold!r}"
        moved += [_rel(f"scan omega {w_gold!r}", w, w_gold, TRACE_TOL),
                  _rel(f"trace at omega={w_gold!r}", t, t_gold, TRACE_TOL)]
    return moved


def _observables(got, want, vals):
    g_comments, g_head, g_rows = _table(thinned(got))
    comments, head, rows = _table(want)
    assert g_head == head
    loss = float(g_comments[0].partition("=")[2])
    loss_gold = float(comments[0].partition("=")[2])
    moved = [Moved("truncation loss", abs(loss - loss_gold), 1.0, LOSS_TOL)]
    g_cols, cols = np.array(g_rows).T, np.array(rows).T
    assert g_cols.shape == cols.shape
    names = head.split(",")
    scales = np.max(np.abs(cols), axis=1)
    # |<x>| <= sqrt(<x^2>): a centered packet's <x> is roundoff around 0, so
    # its own column max is no scale; the packet's rms size is
    scales[names.index("x_mean")] = max(scales[names.index("x_mean")],
                                        scales[names.index("sqrt_x2")])
    for name, g_col, col, scale in zip(names, g_cols, cols, scales):
        moved.append(Moved(f"column {name}", float(np.max(np.abs(g_col - col))),
                           float(scale), OBS_TOL))
    return moved


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


def compare_case(case: Case, out: Path) -> list[tuple[str, Moved]]:
    """Every field of the outputs in out against the golden files of case.

    Asserts that the same files, headers and row keys were produced; returns
    (file name, Moved) for each field, within bound or not.
    """
    golden = GOLDEN / case.name
    produced = sorted(p.name for p in out.iterdir())
    assert produced == sorted(p.name for p in golden.iterdir())
    vals = _validate(case.command, json.loads((RECIPES / case.recipe).read_text()))
    return [(name, m) for name in produced
            for m in _compare(name)((out / name).read_text(), (golden / name).read_text(), vals)]


@pytest.mark.parametrize("case", CASES, ids=[c.name for c in CASES])
def test_recipe_matches_golden(case, tmp_path):
    run_case(case, tmp_path)
    for name, m in compare_case(case, tmp_path):
        assert m.err <= m.tol * m.scale, \
            f"{name} {m.field}: moved by {m.err:.3e} (bound {m.tol:g} x scale {m.scale:.3e})"
