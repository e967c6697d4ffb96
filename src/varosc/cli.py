"""Command-line front end: config-driven runs that emit CSV/JSON files.

Subcommands: spectrum, trace-scan, evolve, convergence.  Configs are single
JSON documents (the one canonical on-disk form); every numeric field is
validated before any computation starts.  Exit codes: 0 ok, 2 config error,
3 numerical failure.  All floats are written with 17 significant digits so
re-running a recipe is byte-identical.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import evolve as ev
from . import spectrum as sp
from .eigen import DiagonalizationError
from .pms import ConvergenceError, pms_optimize, trace_scan
from .potential import PolynomialPotential, asym_demo, from_double_well, from_quartic

_FMT = "{:.17g}"


class ConfigError(ValueError):
    """Invalid or missing configuration field."""


def _get(cfg: dict, path: str, default=None, required=False):
    node = cfg
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            if required:
                raise ConfigError(f"missing required config field '{path}'")
            return default
        node = node[part]
    return node


def _is_number(val) -> bool:
    """A finite JSON number (JSON's NaN and Infinity parse to non-finite floats)."""
    return (isinstance(val, (int, float)) and not isinstance(val, bool)
            and math.isfinite(val))


_ABSENT = object()


def _num(cfg, path, kind=float, required=False, default=None, positive=False):
    """A finite number field, default when absent; JSON null is a config error."""
    val = _get(cfg, path, default=_ABSENT, required=required)
    if val is _ABSENT:
        return default
    if not _is_number(val):
        raise ConfigError(f"config field '{path}' must be a finite number, got {val!r}")
    if kind is int and not float(val).is_integer():
        raise ConfigError(f"config field '{path}' must be an integer, got {val!r}")
    val = kind(val)
    if positive and not val > 0:
        raise ConfigError(f"config field '{path}' must be positive, got {val}")
    return val


def _flag(cfg: dict, path: str) -> bool:
    """A JSON true/false field; absent means false."""
    val = _get(cfg, path, default=False)
    if not isinstance(val, bool):
        raise ConfigError(f"config field '{path}' must be true or false, got {val!r}")
    return val


def _dims(dims) -> list[int]:
    """A non-empty list of positive integer block dimensions (JSON true is not one)."""
    if not isinstance(dims, list) or not dims or not all(
            isinstance(v, int) and not isinstance(v, bool) and v >= 1 for v in dims):
        raise ConfigError(
            "config field 'solver.dims' must be a non-empty list of positive integers"
        )
    return dims


def build_potential(cfg: dict) -> PolynomialPotential:
    """Construct the potential named by config['potential']."""
    block = _get(cfg, "potential", required=True)
    if not isinstance(block, dict):
        raise ConfigError("config field 'potential' must be an object")
    kind = _get(cfg, "potential.kind", required=True)
    try:
        if kind == "quartic":
            m2 = _num(cfg, "potential.m2", required=True)
            g = _num(cfg, "potential.g", required=True)
            sign = _num(cfg, "potential.sign", kind=int, default=1)
            return from_quartic(m2, g, sign)
        if kind == "double_well":
            lam = _num(cfg, "potential.lambda", required=True)
            a = _num(cfg, "potential.a", required=True)
            return from_double_well(lam, a)
        if kind == "coeffs":
            coeffs = _get(cfg, "potential.coeffs", required=True)
            if not isinstance(coeffs, list) or not all(_is_number(v) for v in coeffs):
                raise ConfigError(
                    "config field 'potential.coeffs' must be a list of finite numbers"
                )
            return PolynomialPotential(tuple(float(v) for v in coeffs))
        if kind == "asym_demo":
            return asym_demo()
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"invalid potential: {exc}") from exc
    raise ConfigError(
        f"unknown potential.kind {kind!r}; expected quartic, double_well, coeffs, or asym_demo"
    )


def _parse_levels(spec: str, lo: int, hi: int) -> range:
    """Parse 'a..b' (inclusive) into a range clipped to [lo, hi)."""
    try:
        a_s, b_s = spec.split("..")
        a, b = int(a_s), int(b_s)
    except Exception as exc:
        raise ConfigError(f"levels must look like 'a..b', got {spec!r}") from exc
    if a > b:
        raise ConfigError(f"empty level range {spec!r}")
    if a < lo or b >= hi:
        raise ConfigError(f"levels {spec!r} fall outside the solved block [{lo}, {hi})")
    return range(a, b + 1)


def _outdir(cfg: dict, args) -> Path:
    out = args.out or _get(cfg, "output.dir", default="out")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_pms_json(path: Path, report: sp.SpectrumReport):
    payload = {
        "omega": report.pms.omega,
        "sigma": report.pms.sigma,
        "trace": report.pms.trace_value,
        "stationarity_residual": report.pms.stationarity_residual,
        "dim": report.solution.config.dim,
        "center": report.solution.config.center,
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")


def cmd_spectrum(cfg: dict, args) -> int:
    pot = build_potential(cfg)
    n_dim = _num(cfg, "solver.dim", kind=int, required=True, positive=True)
    opt_sigma = _flag(cfg, "solver.optimize_sigma")
    target = _num(cfg, "solver.target_level", kind=int)
    if target is not None and opt_sigma:
        raise ConfigError("solver.optimize_sigma cannot be combined with "
                          "solver.target_level: a centered block is solved at sigma = 0")
    levels = sp.block_levels(n_dim, target)
    if args.levels:
        levels = _parse_levels(args.levels, levels.start, levels.stop)
    if target is not None:
        report = sp.solve_centered(pot, target, n_dim, levels=levels)
    else:
        report = sp.solve_spectrum(pot, n_dim, optimize_sigma=opt_sigma, levels=levels)
    out = _outdir(cfg, args)
    sp.write_levels_csv(out / "levels.csv", report, levels)
    _write_pms_json(out / "pms.json", report)
    print(f"spectrum: wrote {out/'levels.csv'} and {out/'pms.json'} "
          f"(omega={report.pms.omega:.6g}, sigma={report.pms.sigma:.6g})")
    return 0


def cmd_trace_scan(cfg: dict, args) -> int:
    pot = build_potential(cfg)
    dims = _get(cfg, "solver.dims")
    if dims is None:
        dims = [_num(cfg, "solver.dim", kind=int, required=True, positive=True)]
    dims = _dims(dims)
    w_lo = _num(cfg, "scan.omega_min", required=True, positive=True)
    w_hi = _num(cfg, "scan.omega_max", required=True, positive=True)
    pts = _num(cfg, "scan.points", kind=int, default=101, positive=True)
    if not w_hi > w_lo:
        raise ConfigError("scan.omega_max must exceed scan.omega_min")
    omegas = np.logspace(math.log10(w_lo), math.log10(w_hi), pts)
    out = _outdir(cfg, args)
    for dim in dims:
        values = trace_scan(pot, dim, omegas)
        omega_pms = None
        try:
            omega_pms = pms_optimize(pot, dim).omega
        except ConvergenceError:
            pass
        if omega_pms is not None and not (w_lo <= omega_pms <= w_hi):
            print(f"warning: stationary frequency {omega_pms:.6g} lies outside "
                  f"the scan window for dim={dim}", file=sys.stderr)
            omega_pms = None
        path = out / f"trace_scan_n{dim}.csv"
        sp.write_trace_scan_csv(path, dim, omegas, values, omega_pms)
        print(f"trace-scan: wrote {path}")
    return 0


def cmd_convergence(cfg: dict, args) -> int:
    pot = build_potential(cfg)
    dims = _dims(_get(cfg, "solver.dims", required=True))
    n_ref = _num(cfg, "solver.n_ref", kind=int, positive=True)
    level_spec = _get(cfg, "solver.levels", default="0..0")
    levels = _parse_levels(level_spec, 0, min(dims))
    opt_sigma = _flag(cfg, "solver.optimize_sigma")
    report = sp.convergence_study(pot, levels, dims, N_ref=n_ref,
                                  optimize_sigma=opt_sigma)
    out = _outdir(cfg, args)
    sp.write_convergence_csv(out / "convergence.csv", report.convergence)
    omegas_path = out / "pms_omegas.csv"
    lines = ["N,omega"] + [
        f"{n},{_FMT.format(w)}" for n, w in sorted(report.convergence.pms_omegas.items())
    ]
    omegas_path.write_text("\n".join(lines) + "\n")
    print(f"convergence: wrote {out/'convergence.csv'} and {omegas_path}")
    return 0


def _initial_states(cfg: dict) -> list[tuple[str, ev.InitialGaussian]]:
    kind = _get(cfg, "evolution.initial", required=True)
    if kind not in ("centered", "shifted"):
        raise ConfigError(
            f"evolution.initial must be 'centered' or 'shifted', got {kind!r}"
        )
    x0 = _num(cfg, "evolution.x0", default=0.0)
    if kind == "centered" and x0 != 0.0:
        raise ConfigError("centered initial state must have x0 = 0")
    widths = _get(cfg, "evolution.widths")
    if widths is None:
        widths = [_num(cfg, "evolution.width", required=True, positive=True)]
    if not isinstance(widths, list) or not widths or not all(
            _is_number(v) and v > 0 for v in widths):
        raise ConfigError("evolution.widths must be a non-empty list of positive finite numbers")
    states = []
    for w in widths:
        tag = "" if len(widths) == 1 else f"_w{w:g}"
        states.append((tag, ev.InitialGaussian(width_param=float(w), x0=x0)))
    return states


def cmd_evolve(cfg: dict, args) -> int:
    pot = build_potential(cfg)
    n_dim = _num(cfg, "solver.dim", kind=int, required=True, positive=True)
    opt_sigma = _flag(cfg, "solver.optimize_sigma")
    t_max = _num(cfg, "evolution.t_max", required=True)
    t_step = _num(cfg, "evolution.t_step", required=True, positive=True)
    if t_max < 0:
        raise ConfigError(f"evolution.t_max must be >= 0, got {t_max}")
    use_quadrature = _flag(cfg, "evolution.quadrature")
    initial_states = _initial_states(cfg)
    snap_times = _get(cfg, "evolution.snapshot_times", default=[])
    if not isinstance(snap_times, list) or not all(_is_number(t) for t in snap_times):
        raise ConfigError("evolution.snapshot_times must be a list of finite numbers")
    x_lo = _num(cfg, "evolution.x_min", default=-10.0)
    x_hi = _num(cfg, "evolution.x_max", default=10.0)
    x_pts = _num(cfg, "evolution.x_points", kind=int, default=201, positive=True)
    xs = np.linspace(x_lo, x_hi, x_pts)
    times = np.arange(0.0, t_max + 0.5 * t_step, t_step) if t_max > 0 else np.array([0.0])
    report = sp.solve_spectrum(pot, n_dim, optimize_sigma=opt_sigma)
    basis = report.solution.config
    out = _outdir(cfg, args)
    for tag, gauss in initial_states:
        if use_quadrature or basis.sigma != 0.0 or basis.center != 0:
            c = ev.project_by_quadrature(gauss, basis)
        else:
            c = ev.project_shifted_gaussian(gauss, basis)
        state = ev.make_evolution(c, report.solution)
        x_mean, x2_mean = ev.observables_series(state, times)
        path = out / f"observables{tag}.csv"
        ev.write_observables_csv(path, times, x_mean, x2_mean, state.truncation_loss)
        print(f"evolve: wrote {path} (truncation_loss={state.truncation_loss:.3e})")
        for t_snap in snap_times:
            psi = ev.wavefunction_at(state, xs, float(t_snap))
            spath = out / f"wavefunction{tag}_t{t_snap:g}.csv"
            ev.write_wavefunction_csv(spath, xs, psi)
            print(f"evolve: wrote {spath}")
    return 0


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "trace-scan": cmd_trace_scan,
    "convergence": cmd_convergence,
    "evolve": cmd_evolve,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="varosc",
        description="Variational oscillator-basis solver: spectra, trace scans, "
                    "convergence tables, and stationary-state time evolution.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a JSON run config")
        p.add_argument("--out", help="output directory (overrides output.dir)")
        if name == "spectrum":
            p.add_argument("--levels", help="level range a..b for levels.csv")
    args = parser.parse_args(argv)

    try:
        cfg = json.loads(Path(args.config).read_text())
    except FileNotFoundError:
        print(f"config error: no such file {args.config!r}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"config error: {args.config} is not valid JSON ({exc})", file=sys.stderr)
        return 2
    if not isinstance(cfg, dict):
        print("config error: top level must be a JSON object", file=sys.stderr)
        return 2

    try:
        return _COMMANDS[args.command](cfg, args)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, DiagonalizationError, ev.BasisResolutionError,
            np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
