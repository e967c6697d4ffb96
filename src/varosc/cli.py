"""Command-line front end: config-driven runs that emit CSV/JSON files.

Subcommands: spectrum, trace-scan, evolve, convergence.  A config is one JSON
document, checked whole against the table _COMMANDS before any work starts:
an unknown key, a null, a wrong type or an out-of-range value is a config
error, and no output directory is made.  Exit codes: 0 ok, 2 config error,
3 numerical failure.  CSV floats are written with 17 significant digits
(varosc.output) and pms.json floats as their shortest repr; both round-trip
exactly, so re-running a recipe is byte-identical.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import evolve as ev
from . import spectrum as sp
from .output import write_csv
from .pms import pms_optimize, trace_scan
from .potential import PolynomialPotential, asym_demo, from_double_well, from_quartic

# caps far above every recipe and benchmark job (block 1600, 4001 times, 201 x
# points, t_max 1000) so no count alone exhausts memory; levels stay exact in
# float arithmetic, and |t| <= _MAX_TIME keeps the phases E t finite for every
# |E| below 1e296 (cmd_evolve checks the solved energies against the times)
_MAX_DIM, _MAX_POINTS, _MAX_STEPS, _MAX_LEVEL, _MAX_TIME = 5000, 10_001, 1_000_000, 2**52, 1e12


class ConfigError(ValueError):
    """Invalid or missing configuration field."""


class _Field(NamedTuple):
    """A config field of type "number" (finite), "integer", "bool" or "string"; gt is
    an exclusive bound, ge and le inclusive.  A many field is a list (non-empty unless
    empty_ok) whose items each obey type, bounds and choices."""

    type: str
    required: bool = False
    default: object = None
    gt: float = -math.inf
    ge: float = -math.inf
    le: float = math.inf
    choices: tuple = ()
    many: bool = False
    empty_ok: bool = False


_TYPES = {"number": (int, float), "integer": (int, float), "bool": bool, "string": str}
_NOUNS = {"number": ("a finite number", "finite numbers"), "integer": ("an integer", "integers"),
          "bool": ("true or false", None), "string": ("a string", None)}
_DIM = _Field("integer", ge=1, le=_MAX_DIM)
_FLAG = _Field("bool", default=False)

# potential.kind -> (constructor, its fields in argument order)
_POTENTIALS = {
    "quartic": (from_quartic, {"m2": _Field("number", required=True),
                               "g": _Field("number", required=True, gt=0.0),
                               "sign": _Field("integer", default=1, choices=(1, -1))}),
    "double_well": (from_double_well, {"lambda": _Field("number", required=True, gt=0.0),
                                       "a": _Field("number", required=True)}),
    "coeffs": (PolynomialPotential, {"coeffs": _Field("number", required=True, many=True)}),
    "asym_demo": (asym_demo, {}),
}
_KIND = _Field("string", required=True, choices=tuple(_POTENTIALS))


def _describe(spec: _Field) -> str:
    """The rule spec states, as in 'an integer >= 1 and <= 5000'."""
    one, many = _NOUNS[spec.type]
    noun = f"a {'' if spec.empty_ok else 'non-empty '}list of {many}" if spec.many else one
    rules = [f"{op} {b:g}" for op, b in ((">", spec.gt), (">=", spec.ge), ("<=", spec.le))
             if math.isfinite(b)] + ([f"in {spec.choices}"] if spec.choices else [])
    return f"{noun} {' and '.join(rules)}".rstrip()


def _scalar(val, spec: _Field):
    """val as the field's plain value, or None when it breaks the field's rules."""
    # JSON true and false load as bools, which Python also counts as ints
    if isinstance(val, bool) != (spec.type == "bool") or not isinstance(val, _TYPES[spec.type]):
        return None
    if spec.type in ("number", "integer"):
        # abs(val) <= max also rules out inf, nan and integers past the float range
        if not (abs(val) <= sys.float_info.max and val > spec.gt and spec.ge <= val <= spec.le
                and (spec.type == "number" or float(val).is_integer())):
            return None
        val = int(val) if spec.type == "integer" else float(val)
    return val if not spec.choices or val in spec.choices else None


def _value(path: str, block: dict, key: str, spec: _Field):
    """block[key] as a plain value, or the field's default when absent."""
    if key not in block:
        if spec.required:
            raise ConfigError(f"missing required config field '{path}'")
        return spec.default
    raw = block[key]
    listed = spec.many and isinstance(raw, list) and (raw or spec.empty_ok)
    vals = [_scalar(v, spec) for v in raw] if listed else [None if spec.many else _scalar(raw, spec)]
    if None in vals:
        raise ConfigError(f"config field '{path}' must be {_describe(spec)}, got {raw!r}")
    return tuple(vals) if spec.many else vals[0]


def _walk(path: str, block, fields: dict | None) -> dict:
    """A config object as plain values; fields maps keys to _Fields or to blocks' fields."""
    if not isinstance(block, dict):
        where = f"config field '{path}'" if path else "the config"
        raise ConfigError(f"{where} must be a JSON object, got {block!r}")
    if fields is None:  # the potential's fields follow its kind
        fields = {"kind": _KIND, **_POTENTIALS[_value("potential.kind", block, "kind", _KIND)][1]}
    for key in block:
        if key not in fields:
            raise ConfigError(f"unknown config field '{path}{'.' if path else ''}{key}'")
    return {key: _value(f"{path}.{key}", block, key, spec) if isinstance(spec, _Field)
            else _walk(key, block.get(key, {}), spec) for key, spec in fields.items()}


def _potential(fields: dict) -> PolynomialPotential:
    kind, *args = fields.values()
    try:
        return _POTENTIALS[kind][0](*args)
    except ValueError as exc:
        raise ConfigError(f"invalid potential: {exc}") from exc


def _tagged(path: str, tag: str, values: tuple) -> dict:
    """Output-file tag -> value, as '_w0.5' for tag 'w'; values that print alike are an error."""
    tagged = {f"_{tag}{v:g}": v for v in values}
    if len(tagged) < len(values):
        raise ConfigError(f"config field '{path}' names one output file twice: {list(values)!r}")
    return tagged


def _validate(command: str, cfg) -> dict:
    """The config as plain values: the walk checks each field, then the rules across fields."""
    vals = _walk("", cfg, {"potential": None, "output": {"dir": _Field("string", default="out")},
                           **_COMMANDS[command][1]})
    vals["potential"] = _potential(vals["potential"])
    solver = vals["solver"]
    if command == "spectrum" and solver["optimize_sigma"] and solver["target_level"] is not None:
        raise ConfigError("solver.optimize_sigma cannot be combined with "
                          "solver.target_level: a centered block is solved at sigma = 0")
    if command == "trace-scan":
        solver["dims"] = _tagged("solver.dims", "n", solver["dims"])
        scan = vals["scan"]
        if not scan["omega_max"] > scan["omega_min"]:
            raise ConfigError("scan.omega_max must exceed scan.omega_min")
        with np.errstate(over="ignore"):
            scan["omegas"] = np.logspace(math.log10(scan["omega_min"]),
                                         math.log10(scan["omega_max"]), scan["points"])
        if not math.isfinite(scan["omegas"][-1]):
            raise ConfigError("scan.omega_max rounds to infinity on the logarithmic grid")
    if command == "convergence":
        if len(set(solver["dims"])) < len(solver["dims"]):
            raise ConfigError(f"config field 'solver.dims' repeats a dimension: {list(solver['dims'])}")
        solver["levels"] = _parse_levels(solver["levels"], 0, min(solver["dims"]))
        if solver["n_ref"] is not None and solver["n_ref"] < max(solver["dims"]):
            raise ConfigError("solver.n_ref must be at least every dimension in solver.dims")
    if command == "evolve":
        evo = vals["evolution"]
        widths = evo["widths"]
        # one width writes untagged files
        evo["widths"] = (_tagged("evolution.widths", "w", widths) if len(widths) > 1
                         else {"": widths[0]})
        evo["snapshot_times"] = _tagged("evolution.snapshot_times", "t", evo["snapshot_times"])
        if evo["initial"] == "centered" and evo["x0"] != 0.0:
            raise ConfigError("centered initial state must have x0 = 0")
        if not evo["t_max"] / evo["t_step"] < _MAX_STEPS:
            raise ConfigError(f"evolution.t_max / evolution.t_step must be < {_MAX_STEPS}")
        with np.errstate(over="ignore", invalid="ignore"):
            evo["xs"] = np.linspace(evo["x_min"], evo["x_max"], evo["x_points"])
        if not np.all(np.isfinite(evo["xs"])):
            raise ConfigError("evolution.x_min to evolution.x_max overflows the snapshot grid")
    return vals


def _parse_levels(spec: str, lo: int, hi: int) -> range:
    """Parse 'a..b' (inclusive) into a range clipped to [lo, hi)."""
    try:
        a_s, b_s = spec.split("..")
        a, b = int(a_s), int(b_s)
    except ValueError as exc:
        raise ConfigError(f"levels must look like 'a..b', got {spec!r}") from exc
    if a > b:
        raise ConfigError(f"empty level range {spec!r}")
    if a < lo or b >= hi:
        raise ConfigError(f"levels {spec!r} fall outside the solved block [{lo}, {hi})")
    return range(a, b + 1)


def _outdir(vals: dict, args) -> Path:
    path = Path(args.out or vals["output"]["dir"])
    path.mkdir(parents=True, exist_ok=True)
    return path


def cmd_spectrum(vals: dict, args) -> int:
    pot, solver = vals["potential"], vals["solver"]
    n_dim, target = solver["dim"], solver["target_level"]
    levels = sp.block_levels(n_dim, target)
    if args.levels:
        levels = _parse_levels(args.levels, levels.start, levels.stop)
    report = sp.solve_spectrum(pot, n_dim, optimize_sigma=solver["optimize_sigma"],
                               levels=levels, target_level=target)
    pms, basis = report.pms, report.solution.config
    payload = {"omega": pms.omega, "sigma": pms.sigma, "trace": pms.trace_value,
               "stationarity_residual": pms.stationarity_residual,
               "dim": basis.dim, "center": basis.center}
    # a non-finite float is not JSON: a ValueError here, before any file is made
    text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    out = _outdir(vals, args)
    sp.write_levels_csv(out / "levels.csv", report)
    (out / "pms.json").write_text(text)
    print(f"spectrum: wrote {out/'levels.csv'} and {out/'pms.json'} "
          f"(omega={pms.omega:.6g}, sigma={pms.sigma:.6g})")
    return 0


def cmd_trace_scan(vals: dict, args) -> int:
    pot, scan = vals["potential"], vals["scan"]
    w_lo, w_hi, omegas = scan["omega_min"], scan["omega_max"], scan["omegas"]
    # every scan and mark first, so a numerical failure makes no output directory
    scans = []
    for tag, dim in vals["solver"]["dims"].items():
        values = trace_scan(pot, dim, omegas)
        if not np.all(np.isfinite(values)):
            raise ValueError(f"the trace scan for dim={dim} is not finite over the scan window")
        try:
            omega_pms = pms_optimize(pot, dim).omega
        except ArithmeticError:  # the search failed: the scan goes unmarked
            omega_pms = None
        if omega_pms is not None and not (w_lo <= omega_pms <= w_hi):
            print(f"warning: stationary frequency {omega_pms:.6g} lies outside "
                  f"the scan window for dim={dim}", file=sys.stderr)
            omega_pms = None
        scans.append((tag, dim, values, omega_pms))
    out = _outdir(vals, args)
    for tag, dim, values, omega_pms in scans:
        path = out / f"trace_scan{tag}.csv"
        sp.write_trace_scan_csv(path, dim, omegas, values, omega_pms)
        print(f"trace-scan: wrote {path}")
    return 0


def cmd_convergence(vals: dict, args) -> int:
    solver = vals["solver"]
    report = sp.convergence_study(vals["potential"], solver["levels"], solver["dims"],
                                  N_ref=solver["n_ref"], optimize_sigma=solver["optimize_sigma"])
    out = _outdir(vals, args)
    sp.write_convergence_csv(out / "convergence.csv", report.convergence)
    write_csv(out / "pms_omegas.csv", "N,omega", *zip(*sorted(report.convergence.pms_omegas.items())))
    print(f"convergence: wrote {out/'convergence.csv'} and {out/'pms_omegas.csv'}")
    return 0


def cmd_evolve(vals: dict, args) -> int:
    evo, solver = vals["evolution"], vals["solver"]
    t_max, t_step, widths = evo["t_max"], evo["t_step"], evo["widths"]
    xs = evo["xs"]
    if evo["quadrature"]:
        print("warning: evolution.quadrature is ignored: every Gaussian is projected "
              "in closed form", file=sys.stderr)
    # k t_step for k = 0..n, the last passing t_max by no more than rounding
    times = t_step * np.arange(math.floor(t_max / t_step * (1.0 + 4 * np.finfo(float).eps)) + 1)
    report = sp.solve_spectrum(vals["potential"], solver["dim"],
                               optimize_sigma=solver["optimize_sigma"])
    # the phases e^(-iEt) take absolute energies, which a huge constant term in
    # V lifts past what the time caps allow for
    e_max = float(np.max(np.abs(report.solution.energies)))
    t_far = max([float(times[-1]), *map(abs, evo["snapshot_times"].values())])
    if not math.isfinite(e_max * t_far):
        raise ConfigError(f"evolution.t_max: the phases E·t overflow, with max|E| = {e_max:g} "
                          f"and times up to {t_far:g}")
    basis = report.solution.config
    out = _outdir(vals, args)
    for tag, w in widths.items():
        c = ev.project_shifted_gaussian(ev.InitialGaussian(width_param=w, x0=evo["x0"]), basis)
        state = ev.make_evolution(c, report.solution)
        x_mean, x2_mean = ev.observables_series(state, times)
        path = out / f"observables{tag}.csv"
        ev.write_observables_csv(path, times, x_mean, x2_mean, state.truncation_loss)
        print(f"evolve: wrote {path} (truncation_loss={state.truncation_loss:.3e})")
        for t_tag, t_snap in evo["snapshot_times"].items():
            psi = ev.wavefunction_at(state, xs, t_snap)
            spath = out / f"wavefunction{tag}{t_tag}.csv"
            ev.write_wavefunction_csv(spath, xs, psi)
            print(f"evolve: wrote {spath}")
    return 0


# command -> (runner, block -> field name -> field); every command also reads
# the potential (_POTENTIALS) and output.dir
_COMMANDS = {
    "spectrum": (cmd_spectrum, {
        "solver": {"dim": _DIM._replace(required=True), "optimize_sigma": _FLAG,
                   "target_level": _Field("integer", ge=0, le=_MAX_LEVEL)},
    }),
    "trace-scan": (cmd_trace_scan, {
        "solver": {"dims": _DIM._replace(required=True, many=True)},
        "scan": {"omega_min": _Field("number", required=True, gt=0.0),
                 "omega_max": _Field("number", required=True, gt=0.0),
                 "points": _Field("integer", default=101, ge=1, le=_MAX_POINTS)},
    }),
    "convergence": (cmd_convergence, {
        "solver": {"dims": _DIM._replace(required=True, many=True), "n_ref": _DIM,
                   "levels": _Field("string", default="0..0"), "optimize_sigma": _FLAG},
    }),
    "evolve": (cmd_evolve, {
        "solver": {"dim": _DIM._replace(required=True), "optimize_sigma": _FLAG},
        "evolution": {
            "initial": _Field("string", required=True, choices=("centered", "shifted")),
            "x0": _Field("number", default=0.0),
            "widths": _Field("number", required=True, gt=0.0, many=True),
            "t_max": _Field("number", required=True, ge=0.0, le=_MAX_TIME),
            "t_step": _Field("number", required=True, gt=0.0),
            # accepted and ignored (cmd_evolve says so): benchmark configs still set it
            "quadrature": _FLAG,
            "snapshot_times": _Field("number", default=(), many=True, empty_ok=True,
                                     ge=-_MAX_TIME, le=_MAX_TIME),
            "x_min": _Field("number", default=-10.0), "x_max": _Field("number", default=10.0),
            "x_points": _Field("integer", default=201, ge=1, le=_MAX_POINTS),
        },
    }),
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
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
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    try:
        cfg = json.loads(Path(args.config).read_text())
        return _COMMANDS[args.command][0](_validate(args.command, cfg), args)
    except (FileNotFoundError, json.JSONDecodeError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    # past the checks, a ValueError (LinAlgError is one) or ArithmeticError means the numbers failed
    except (ValueError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
