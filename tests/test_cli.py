import contextlib
import copy
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import varosc
from varosc.cli import main

RECIPES = Path(__file__).resolve().parent.parent / "recipes"


def run(recipe, out, command="spectrum", extra=()):
    return main([command, "--config", str(RECIPES / recipe), "--out", str(out), *extra])


def _reject_constant(name):
    raise ValueError(f"pms.json holds {name}, which is not JSON")


def read_pms(path):
    """pms.json as strict JSON: NaN and Infinity are an error."""
    return json.loads(path.read_text(), parse_constant=_reject_constant)


def write_config(tmp_path, body, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(body))
    return path


def test_quartic_recipe_ground_state(tmp_path):
    assert run("quartic_g1000.json", tmp_path / "q") == 0
    lines = (tmp_path / "q" / "levels.csv").read_text().strip().splitlines()
    assert lines[0] == "n,energy"
    e0 = float(lines[1].split(",")[1])
    assert f"{2.0 * e0:.12f}".startswith("13.3884417010")
    pms = read_pms(tmp_path / "q" / "pms.json")
    assert pms["sigma"] == 0.0
    assert pms["dim"] == 100


def test_asym_recipes_reproduce_benchmark_parameters(tmp_path):
    assert run("asym_quartic_small.json", tmp_path / "a") == 0
    pms = read_pms(tmp_path / "a" / "pms.json")
    assert pms["sigma"] == pytest.approx(-3.889, abs=5e-3)
    assert pms["omega"] == pytest.approx(31.179, abs=5e-2)

    assert run("asym_quartic_large.json", tmp_path / "b") == 0
    pms = read_pms(tmp_path / "b" / "pms.json")
    assert pms["sigma"] == pytest.approx(-3.583, abs=5e-3)
    assert pms["omega"] == pytest.approx(27.431, abs=5e-2)
    lines = (tmp_path / "b" / "levels.csv").read_text().strip().splitlines()
    assert float(lines[1].split(",")[1]) == pytest.approx(-1229.1160510460046, rel=1e-12)


@pytest.mark.parametrize("command, cfg, files", [
    ("spectrum", {"potential": {"kind": "quartic", "m2": 1.0, "g": 1000.0}, "solver": {"dim": 30}},
     ["levels.csv", "pms.json"]),
    ("trace-scan", {"potential": {"kind": "asym_demo"}, "solver": {"dims": [6, 10]},
                    "scan": {"omega_min": 1.0, "omega_max": 100.0, "points": 31}},
     ["trace_scan_n10.csv", "trace_scan_n6.csv"]),
    ("convergence", {"potential": {"kind": "asym_demo"},
                     "solver": {"dims": [8, 12], "levels": "0..3", "optimize_sigma": True}},
     ["convergence.csv", "pms_omegas.csv"]),
    ("evolve", {"potential": {"kind": "double_well", "lambda": 0.01, "a": 5.0},
                "solver": {"dim": 30},
                "evolution": {"initial": "shifted", "x0": 1.0, "widths": [0.5], "t_max": 2.0,
                              "t_step": 0.25, "snapshot_times": [0.0, 1.5], "x_points": 21}},
     ["observables.csv", "wavefunction_t0.csv", "wavefunction_t1.5.csv"]),
])
def test_rerun_is_byte_identical(tmp_path, command, cfg, files):
    path = write_config(tmp_path, cfg)
    for sub in ("r1", "r2"):
        assert main([command, "--config", str(path), "--out", str(tmp_path / sub)]) == 0
    for sub in ("r1", "r2"):
        assert sorted(p.name for p in (tmp_path / sub).iterdir()) == files
    for name in files:
        assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()


def test_levels_flag_selects_range(tmp_path):
    cfg = {"potential": {"kind": "quartic", "m2": 1.0, "g": 1.0}, "solver": {"dim": 15}}
    path = write_config(tmp_path, cfg)
    assert main(["spectrum", "--config", str(path), "--out", str(tmp_path / "o"),
                 "--levels", "2..5"]) == 0
    lines = (tmp_path / "o" / "levels.csv").read_text().strip().splitlines()
    assert [row.split(",")[0] for row in lines[1:]] == ["2", "3", "4", "5"]


@pytest.mark.parametrize("solver, levels", [
    ({"dim": 15}, "10..15"),
    ({"dim": 15}, "-1..3"),
    ({"dim": 21, "target_level": 30}, "5..12"),
    ({"dim": 21, "target_level": 30}, "35..45"),
])
def test_levels_outside_block_exit_before_solving(tmp_path, monkeypatch, capsys,
                                                  solver, levels):
    import varosc.spectrum

    def never(*args, **kwargs):
        raise AssertionError("the solver ran")

    monkeypatch.setattr(varosc.spectrum, "pms_optimize", never)
    monkeypatch.setattr(varosc.spectrum, "diagonalize", never)
    cfg = {"potential": {"kind": "quartic", "m2": 1.0, "g": 1.0}, "solver": solver}
    path = write_config(tmp_path, cfg)
    out = tmp_path / "o"
    assert main(["spectrum", "--config", str(path), "--out", str(out),
                 f"--levels={levels}"]) == 2
    assert "outside the solved block" in capsys.readouterr().err
    assert not out.exists()


def test_levels_csv_roundtrips_exactly(tmp_path):
    import varosc

    cfg = {"potential": {"kind": "quartic", "m2": 1.0, "g": 10.0}, "solver": {"dim": 12}}
    path = write_config(tmp_path, cfg)
    assert main(["spectrum", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    # the CLI solves exactly the levels it writes, here the whole block
    rep = varosc.solve_spectrum(varosc.from_quartic(1.0, 10.0), 12, levels=range(12))
    lines = (tmp_path / "o" / "levels.csv").read_text().strip().splitlines()
    for k, row in enumerate(lines[1:]):
        assert float(row.split(",")[1]) == float(rep.energies[k])


def test_missing_config_file_is_config_error(tmp_path, capsys):
    assert main(["spectrum", "--config", str(tmp_path / "nope.json")]) == 2
    assert "config error" in capsys.readouterr().err


def test_invalid_json_is_config_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["spectrum", "--config", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_empty_potential_names_missing_field(tmp_path, capsys):
    path = write_config(tmp_path, {"solver": {"dim": 10}})
    assert main(["spectrum", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "potential" in err


def test_bad_field_types_are_reported(tmp_path, capsys):
    path = write_config(tmp_path, {
        "potential": {"kind": "quartic", "m2": "one", "g": 1.0},
        "solver": {"dim": 10},
    })
    assert main(["spectrum", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "potential.m2" in capsys.readouterr().err


def test_unbounded_potential_is_config_error(tmp_path, capsys):
    path = write_config(tmp_path, {
        "potential": {"kind": "coeffs", "coeffs": [0.0, 0.0, 1.0, 1.0]},
        "solver": {"dim": 10},
    })
    assert main(["spectrum", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("kappa2", [1.0, 1e306, 1e308])
def test_harmonic_coefficient_up_to_the_float_range_solves(tmp_path, kappa2):
    # V = kappa2 x^2 has its PMS frequency at sqrt(2 kappa2), past 1e154 at the top
    path = write_config(tmp_path, {"potential": {"kind": "coeffs", "coeffs": [0.0, 0.0, kappa2]},
                                   "solver": {"dim": 20}})
    assert main(["spectrum", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    pms = read_pms(tmp_path / "o" / "pms.json")
    want = 2.0 * math.sqrt(kappa2 / 2.0)
    assert abs(pms["omega"] - want) <= 1e-15 * want
    assert math.isfinite(pms["trace"])


_EVOLVE_CFG = {
    "potential": {"kind": "double_well", "lambda": 0.01, "a": 5.0},
    "solver": {"dim": 20},
    "evolution": {"initial": "shifted", "x0": 1.0, "widths": [0.5],
                  "t_max": 1.0, "t_step": 0.5},
}


@pytest.mark.parametrize("block, patch", [
    ("potential", {"kind": "coeffs", "coeffs": [0.0, math.nan, 1.0]}),
    ("potential", {"kind": "coeffs", "coeffs": [0.0, 0.0, math.inf]}),
    ("potential", {"kind": "quartic", "m2": 1.0, "g": math.nan}),
    ("potential", {"lambda": math.inf}),
    ("solver", {"dim": math.nan}),
    ("evolution", {"t_max": math.nan}),
    ("evolution", {"t_step": math.inf}),
    ("evolution", {"x0": -math.inf}),
    ("evolution", {"widths": [0.5, math.nan]}),
    ("evolution", {"snapshot_times": [0.0, math.inf]}),
    ("evolution", {"x_max": math.nan}),
    ("evolution", {"t_max": 1e9, "t_step": 1e-9}),  # 1e18 time points
    ("scan", {"omega_max": 1.7976931348623157e308}),  # top grid point rounds to inf
    # the snapshot grid's span overflows, so linspace gives nan positions
    ("evolution", {"x_min": -1e308, "x_max": 1e308, "x_points": 3, "snapshot_times": [0]}),
    # 1.8e4 steps, but e^(-iEt) would be nan at t ~ 1e308: t_max is capped
    ("evolution", {"t_max": 1.7976e308, "t_step": 1e304}),
    # snapshot times take the same cap as t_max
    ("evolution", {"snapshot_times": [1e300]}),
])
def test_non_finite_input_is_config_error(tmp_path, capsys, block, patch):
    command, cfg = ("trace-scan", _SCAN_CFG) if block == "scan" else ("evolve", _EVOLVE_CFG)
    cfg = json.loads(json.dumps(cfg))
    cfg[block].update(patch)
    path = write_config(tmp_path, cfg)
    assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


_QUARTIC = {"kind": "quartic", "m2": 1.0, "g": 1.0}


@pytest.mark.parametrize("command, cfg", [
    ("spectrum", {"potential": _QUARTIC,
                  "solver": {"dim": 6, "optimize_sigma": "false"}}),
    ("spectrum", {"potential": _QUARTIC, "solver": {"dim": 6, "optimize_sigma": 1}}),
    ("spectrum", {"potential": _QUARTIC,
                  "solver": {"dim": 6, "optimize_sigma": None}}),
    ("convergence", {"potential": _QUARTIC,
                     "solver": {"dims": [4, 6], "optimize_sigma": "true"}}),
    ("evolve", {**_EVOLVE_CFG, "solver": {"dim": 20, "optimize_sigma": 0}}),
    ("evolve", {**_EVOLVE_CFG,
                "evolution": {**_EVOLVE_CFG["evolution"], "quadrature": "false"}}),
    ("trace-scan", {"potential": _QUARTIC, "solver": {"dims": [True, 4]},
                    "scan": {"omega_min": 0.1, "omega_max": 10.0, "points": 5}}),
    ("convergence", {"potential": _QUARTIC, "solver": {"dims": [4, True]}}),
])
def test_non_boolean_flags_and_boolean_dims_are_config_errors(tmp_path, capsys,
                                                              command, cfg):
    path = write_config(tmp_path, cfg)
    assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_optimize_sigma_with_target_level_is_config_error(tmp_path, capsys, monkeypatch):
    import varosc.spectrum

    def never(*args, **kwargs):
        raise AssertionError("the solver ran")

    monkeypatch.setattr(varosc.spectrum, "pms_optimize", never)
    path = write_config(tmp_path, {
        "potential": {"kind": "asym_demo"},
        "solver": {"dim": 21, "target_level": 30, "optimize_sigma": True},
    })
    assert main(["spectrum", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "target_level" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


_SCAN = {"omega_min": 0.1, "omega_max": 10.0, "points": 5}
_SCAN_CFG = {"potential": _QUARTIC, "solver": {"dims": [4]}, "scan": _SCAN}


@pytest.mark.parametrize("command, cfg", [
    ("evolve", {**_EVOLVE_CFG, "evolution": {**_EVOLVE_CFG["evolution"], "widths": []}}),
    ("trace-scan", {"potential": _QUARTIC, "solver": {"dims": []}, "scan": _SCAN}),
    ("convergence", {"potential": _QUARTIC, "solver": {"dims": []}}),
])
def test_empty_lists_are_config_errors(tmp_path, capsys, command, cfg):
    path = write_config(tmp_path, cfg)
    assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "non-empty list" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, cfg, name", [
    ("spectrum", {"potential": _QUARTIC, "solver": {"dim": 6, "optimise_sigma": True}},
     "solver.optimise_sigma"),
    ("spectrum", {"potential": {"kind": "asym_demo", "g": 1.0}, "solver": {"dim": 6}},
     "potential.g"),
    ("spectrum", {"potential": _QUARTIC, "solver": {"dim": 6}, "scan": _SCAN}, "scan"),
    ("spectrum", {"potential": _QUARTIC, "solver": {"dim": 6}, "output": "x"}, "output"),
    ("evolve", {**_EVOLVE_CFG, "evolution": {**_EVOLVE_CFG["evolution"], "tmax": 2.0}},
     "evolution.tmax"),
    # values that print alike under {:g} would overwrite each other's files
    ("evolve", {**_EVOLVE_CFG, "evolution": {"initial": "centered", "t_max": 1.0, "t_step": 0.5,
                                             "widths": [0.2041241, 0.2041242]}},
     "evolution.widths"),
    ("evolve", {**_EVOLVE_CFG, "evolution": {**_EVOLVE_CFG["evolution"],
                                             "snapshot_times": [1.0000001, 1.0000002]}},
     "evolution.snapshot_times"),
    ("trace-scan", {"potential": _QUARTIC, "solver": {"dims": [4, 6, 4]}, "scan": _SCAN},
     "solver.dims"),
    # a repeated dimension would be solved and written twice
    ("convergence", {"potential": _QUARTIC, "solver": {"dims": [4, 6, 4]}}, "solver.dims"),
    # one spelling per setting: a single width or dim is a one-entry list
    ("evolve", {**_EVOLVE_CFG, "evolution": {**_EVOLVE_CFG["evolution"], "width": 0.5}},
     "evolution.width"),
    ("trace-scan", {**_SCAN_CFG, "solver": {"dim": 4}}, "solver.dim"),
    ("trace-scan", {**_SCAN_CFG, "solver": {"dims": [4], "dim": 4}}, "solver.dim"),
    # and the list is required
    ("evolve", {**_EVOLVE_CFG, "evolution": {"initial": "centered", "t_max": 1.0, "t_step": 0.5}},
     "evolution.widths"),
    ("trace-scan", {**_SCAN_CFG, "solver": {}}, "solver.dims"),
])
def test_unread_blocks_and_keys_are_named_config_errors(tmp_path, capsys, command, cfg, name):
    path = write_config(tmp_path, cfg)
    assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and f"'{name}'" in err
    assert not (tmp_path / "o").exists()


def test_far_shifted_packet_reports_its_loss(tmp_path, capsys):
    from varosc.evolve import InitialGaussian, project_shifted_gaussian
    from varosc.oscbasis import BasisConfig

    cfg = json.loads(json.dumps(_EVOLVE_CFG))
    cfg["evolution"]["x0"] = 1e300
    path = write_config(tmp_path, cfg)
    code = main(["evolve", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code in (0, 3)
    if code == 0:
        header = (tmp_path / "o" / "observables.csv").read_text().splitlines()[0]
        assert header == "# truncation_loss=1"
    # the second basis makes v = 2 sqrt(omega) w0 x0 / beta^2 overflow as well
    for width, omega in ((0.5, 1.0), (1e4, 1e10)):
        for x0 in (1e300, -1e300):
            c = project_shifted_gaussian(InitialGaussian(width, x0), BasisConfig(20, omega))
            assert np.all(np.isfinite(c))


def test_shifted_basis_evolution_needs_no_quadrature(tmp_path, monkeypatch):
    # asym_demo's PMS basis is shifted (sigma = -3.595); the closed form
    # serves it, once per width, even when the config asks for quadrature
    import varosc.evolve

    calls = []
    closed_form = varosc.evolve.project_shifted_gaussian
    monkeypatch.setattr(varosc.evolve, "project_shifted_gaussian",
                        lambda *args: calls.append(args) or closed_form(*args))
    path = write_config(tmp_path, {
        "potential": {"kind": "asym_demo"}, "solver": {"dim": 40, "optimize_sigma": True},
        "evolution": {"initial": "shifted", "x0": -3.0, "widths": [60.0],
                      "t_max": 1.0, "t_step": 0.5, "quadrature": True},
    })
    assert main(["evolve", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    assert len(calls) == 1 and calls[0][1].sigma < -3.0
    header = (tmp_path / "o" / "observables.csv").read_text().splitlines()[0]
    assert float(header.split("=")[1]) < 1e-12


def test_unresolved_evolution_reports_its_loss(tmp_path):
    # a 4-state basis holds little of the packet 5 off its center: a run
    # that reports the closed form's loss, not a failure
    from varosc import from_double_well, solve_spectrum
    from varosc.evolve import InitialGaussian, make_evolution, project_shifted_gaussian

    width = 0.2041241452319315
    path = write_config(tmp_path, {
        "potential": {"kind": "double_well", "lambda": 0.01, "a": 5.0},
        "solver": {"dim": 4},
        "evolution": {"initial": "shifted", "x0": 5.0, "widths": [width],
                      "t_max": 1.0, "t_step": 0.5, "quadrature": True},
    })
    assert main(["evolve", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    sol = solve_spectrum(from_double_well(0.01, 5.0), 4).solution
    loss = make_evolution(project_shifted_gaussian(InitialGaussian(width, 5.0), sol.config),
                          sol).truncation_loss
    assert loss > 0.01
    header = (tmp_path / "o" / "observables.csv").read_text().splitlines()[0]
    assert header == f"# truncation_loss={loss:.17g}"


@pytest.mark.parametrize("cfg, loss", [
    # Gauss-Hermite at N + 40 nodes overflowed exp(y^2/2) here: exit 3, empty directory
    ({"potential": {"kind": "coeffs", "coeffs": [0.0, 0.0, 0.5]}, "solver": {"dim": 700},
      "evolution": {"initial": "centered", "widths": [2.0], "t_max": 1.0, "t_step": 0.5}},
     None),
    # and it lost this narrow packet whole: truncation_loss=1, exit 0
    ({"potential": {"kind": "double_well", "lambda": 1.0, "a": 3.0}, "solver": {"dim": 40},
      "evolution": {"initial": "centered", "widths": [1e6], "t_max": 1.0, "t_step": 0.5}},
     "0.98195576227188874"),
], ids=["harmonic_N700", "narrow_packet"])
def test_quadrature_flag_is_ignored(tmp_path, capsys, cfg, loss):
    note = "evolution.quadrature is ignored: every Gaussian is projected in closed form"
    outputs = {}
    for flag in (False, True):
        path = write_config(tmp_path, {**cfg, "evolution": {**cfg["evolution"], "quadrature": flag}})
        out = tmp_path / f"o{flag}"
        assert main(["evolve", "--config", str(path), "--out", str(out)]) == 0
        assert (note in capsys.readouterr().err) == flag
        outputs[flag] = {f.name: f.read_bytes() for f in out.iterdir()}
    assert outputs[True] == outputs[False]
    header = outputs[True]["observables.csv"].decode().splitlines()[0]
    if loss is None:
        assert float(header.split("=")[1]) < 1e-12
    else:
        assert header == f"# truncation_loss={loss}"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command, cfg, name", [
    # omega^-2 in T ~ kappa_4 D_4 / omega^2 overflows libm's pow at omega = 1e-300
    ("trace-scan", {"potential": _QUARTIC, "solver": {"dims": [8]},
                    "scan": {"omega_min": 1e-300, "omega_max": 1e300, "points": 11}},
     "trace_scan_n8.csv"),
])
def test_non_finite_output_is_numerical_failure(tmp_path, capsys, command, cfg, name):
    path = write_config(tmp_path, cfg)
    code = main([command, "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err
    assert not (tmp_path / "o" / name).exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("cfg, named", [
    # omega^-2 overflows libm's pow at the first grid point
    ({"potential": _QUARTIC, "solver": {"dims": [8]},
      "scan": {"omega_min": 1e-300, "omega_max": 10.0, "points": 50}}, "omega = 1e-300"),
    # kappa_0 N overflows the trace at dim 8 only, after dim 1 scanned cleanly
    ({"potential": {"kind": "coeffs", "coeffs": [2.5e307, 0.0, 1.0]}, "solver": {"dims": [1, 8]},
      "scan": {"omega_min": 0.5, "omega_max": 8.0, "points": 11}}, "dim=8"),
])
def test_failed_trace_scan_makes_no_directory(tmp_path, capsys, cfg, named):
    path = write_config(tmp_path, cfg)
    assert main(["trace-scan", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and named in err
    assert not (tmp_path / "o").exists()


def test_infinite_pms_trace_is_numerical_failure(tmp_path, capsys):
    # kappa_0 N overflows the trace; pms.json would hold Infinity, which is not JSON
    path = write_config(tmp_path, {"potential": {"kind": "coeffs", "coeffs": [1e308, 0.0, 1.0]},
                                   "solver": {"dim": 20}})
    assert main(["spectrum", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
    assert "numerical failure" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("coeffs", [
    # x = 2^166 y brings kappa_4 to ~1 and sends kappa_1 past 1e308
    [0.0, 1e200, 1e-300, 0.0, 1e-300],
    # x = 2^-250 y brings |kappa_2| to ~1 and sends the leading kappa_4 to 0
    [0.0, 0.0, -1e300, 0.0, 1e-10],
])
def test_coefficients_past_one_float_frame_are_numerical_failure(tmp_path, capsys, coeffs):
    path = write_config(tmp_path, {"potential": {"kind": "coeffs", "coeffs": coeffs},
                                   "solver": {"dim": 20}})
    assert main(["spectrum", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and "more than one float frame" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.filterwarnings("error")
def test_overflowing_trace_in_the_2d_search_is_numerical_failure(tmp_path, capsys):
    # an omega^-h of the Nelder-Mead objective overflows libm's pow
    path = write_config(tmp_path, {"potential": {"kind": "coeffs", "coeffs": [
        6.165991893650534e+287, -1e+308, -5.3015644291930646e-278, -8.136968504584047e+44,
        -9.799243241128219e-272, -1.3908417576959126e+227, 2.2530146801578686e+282]},
        "solver": {"dim": 34, "optimize_sigma": True}})
    assert main(["spectrum", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and "Traceback" not in err
    assert "the trace of the 34-state block overflows at omega = " in err
    # the omega named is the caller's, with the solve frame's value beside it
    caller, frame, m = re.search(r"omega = (\S+) \((\S+) in x = 2\^-(\d+) y\)", err).groups()
    assert m == "118" and float(caller) == math.ldexp(float(frame), 2 * int(m))
    assert not (tmp_path / "o").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("coeffs, dim, omega", [
    # kappa_0 N ~ 2e21 at sigma = 1e10 once passed a candidate 1e3 off stationary
    ([0.0, -2e10, 1.0], 20, math.sqrt(2.0)),
    # the minimum sits at omega = sqrt(2 kappa_2) ~ 3e-162, sigma ~ 3e181
    ([-8.08419670499228e-152, -3.171111269230141e-142, 5e-324], 38, 3.143455569405257e-162),
])
def test_2d_search_reports_the_stationary_omega(tmp_path, coeffs, dim, omega):
    path = write_config(tmp_path, {"potential": {"kind": "coeffs", "coeffs": coeffs},
                                   "solver": {"dim": dim, "optimize_sigma": True}})
    assert main(["spectrum", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    assert read_pms(tmp_path / "o" / "pms.json")["omega"] == pytest.approx(omega, rel=1e-7)


def test_stiff_quartic_spectrum_is_solved(tmp_path):
    # the shipped quartic with m2 = 1e12: PMS frequency ~ m = 1e6, levels
    # ~ m (n + 1/2), far outside any fixed frequency window
    cfg = json.loads((RECIPES / "quartic_g1000.json").read_text())
    cfg["potential"]["m2"] = 1e12
    path = write_config(tmp_path, cfg)
    assert main(["spectrum", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    pms = read_pms(tmp_path / "o" / "pms.json")
    assert pms["omega"] == pytest.approx(1e6, rel=1e-12)
    lines = (tmp_path / "o" / "levels.csv").read_text().strip().splitlines()
    assert float(lines[1].split(",")[1]) == pytest.approx(0.5e6, rel=1e-6)


def test_trace_scan_marks_interior_minimum(tmp_path):
    cfg = {
        "potential": {"kind": "coeffs", "coeffs": [0.0, 0.0, 2.0]},  # SHO m = 2
        "solver": {"dims": [8]},
        "scan": {"omega_min": 0.5, "omega_max": 8.0, "points": 61},
    }
    path = write_config(tmp_path, cfg)
    assert main(["trace-scan", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    rows = (tmp_path / "o" / "trace_scan_n8.csv").read_text().strip().splitlines()[2:]
    parsed = [row.split(",") for row in rows]
    omegas = np.array([float(r[0]) for r in parsed])
    values = np.array([float(r[1]) for r in parsed])
    flags = [int(r[2]) for r in parsed]
    assert sum(flags) == 1
    marked = omegas[flags.index(1)]
    assert marked == pytest.approx(2.0, rel=0.1)  # nearest grid point to omega = m
    interior = np.argmin(values)
    assert 0 < interior < len(values) - 1


def test_trace_scan_warns_when_window_misses_minimum(tmp_path, capsys):
    cfg = {
        "potential": {"kind": "coeffs", "coeffs": [0.0, 0.0, 2.0]},
        "solver": {"dims": [8]},
        "scan": {"omega_min": 10.0, "omega_max": 50.0, "points": 11},
    }
    path = write_config(tmp_path, cfg)
    assert main(["trace-scan", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    assert "warning" in capsys.readouterr().err
    assert (tmp_path / "o" / "trace_scan_n8.csv").exists()


def test_convergence_recipe(tmp_path):
    assert run("quartic_convergence.json", tmp_path / "c", command="convergence") == 0
    rows = (tmp_path / "c" / "convergence.csv").read_text().strip().splitlines()[1:]
    deltas = {}
    for row in rows:
        n, lvl, d = row.split(",")
        deltas[(int(n), int(lvl))] = float(d)
    assert deltas[(60, 0)] < deltas[(10, 0)]
    omegas = (tmp_path / "c" / "pms_omegas.csv").read_text().strip().splitlines()[1:]
    assert len(omegas) == 7  # six block sizes plus the reference


def test_evolve_zero_horizon_gives_initial_moments(tmp_path):
    width = 0.5
    cfg = {
        "potential": {"kind": "double_well", "lambda": 0.01, "a": 5.0},
        "solver": {"dim": 60},
        "evolution": {"initial": "centered", "widths": [width],
                      "t_max": 0.0, "t_step": 1.0},
    }
    path = write_config(tmp_path, cfg)
    assert main(["evolve", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    lines = (tmp_path / "o" / "observables.csv").read_text().strip().splitlines()
    assert lines[0].startswith("# truncation_loss=")
    assert lines[1] == "t,x_mean,x2_mean,sqrt_x2"
    assert len(lines) == 3
    t, xm, x2, sx = (float(v) for v in lines[2].split(","))
    assert t == 0.0
    assert xm == pytest.approx(0.0, abs=1e-10)
    assert x2 == pytest.approx(1.0 / width, rel=1e-9)
    assert sx == pytest.approx(math.sqrt(1.0 / width), rel=1e-9)


def test_evolve_writes_snapshots(tmp_path):
    cfg = {
        "potential": {"kind": "double_well", "lambda": 0.01, "a": 5.0},
        "solver": {"dim": 40},
        "evolution": {"initial": "centered", "widths": [0.2041241452319315],
                      "t_max": 1.0, "t_step": 0.5,
                      "snapshot_times": [0.0, 1.0],
                      "x_min": -12.0, "x_max": 12.0, "x_points": 51},
    }
    path = write_config(tmp_path, cfg)
    assert main(["evolve", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    snap = (tmp_path / "o" / "wavefunction_t0.csv").read_text().strip().splitlines()
    assert snap[0] == "x,re,im,abs2"
    assert len(snap) == 52
    x, re, im, a2 = (float(v) for v in snap[1].split(","))
    assert x == -12.0
    assert a2 == pytest.approx(re * re + im * im, rel=1e-12, abs=1e-300)
    assert (tmp_path / "o" / "wavefunction_t1.csv").exists()


def test_slowroll_recipe_initial_spread(tmp_path):
    assert run("slowroll_centered.json", tmp_path / "s", command="evolve") == 0
    lines = (tmp_path / "s" / "observables.csv").read_text().strip().splitlines()
    assert lines[0].startswith("# truncation_loss=")
    first = lines[2].split(",")
    assert float(first[0]) == 0.0
    assert float(first[3]) == pytest.approx(2.2134, abs=1e-4)
    assert len(lines) == 2 + 401  # t = 0..200 step 0.5


def test_shifted_sweep_writes_one_file_per_width(tmp_path):
    cfg = {
        "potential": {"kind": "double_well", "lambda": 0.01, "a": 5.0},
        "solver": {"dim": 50},
        "evolution": {"initial": "shifted", "x0": 5.0,
                      "widths": [0.2041241452319315, 0.408248290463863],
                      "t_max": 2.0, "t_step": 1.0},
    }
    path = write_config(tmp_path, cfg)
    assert main(["evolve", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    names = sorted(p.name for p in (tmp_path / "o").iterdir())
    assert names == ["observables_w0.204124.csv", "observables_w0.408248.csv"]


@pytest.mark.parametrize("command, cfg, field", [
    ("spectrum", {"potential": _QUARTIC, "solver": {"dim": 6}}, "solver.dim"),
    ("spectrum", {"potential": _QUARTIC, "solver": {"dim": 6}}, "potential.g"),
    ("spectrum", {"potential": _QUARTIC, "solver": {"dim": 6}}, "potential.m2"),
    ("evolve", _EVOLVE_CFG, "potential.a"),
    ("trace-scan", _SCAN_CFG, "scan.omega_max"),
    ("trace-scan", _SCAN_CFG, "scan.points"),
    ("evolve", _EVOLVE_CFG, "evolution.t_step"),
])
def test_null_number_fields_are_config_errors(tmp_path, capsys, command, cfg, field):
    cfg = json.loads(json.dumps(cfg))
    block, key = field.split(".")
    cfg[block][key] = None
    path = write_config(tmp_path, cfg)
    assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and field in err
    assert not (tmp_path / "o").exists()


def test_bad_arguments_exit_alike_on_every_call(capsys):
    # the parser is built once per process and reused by every later call
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--levels", "0..3"])
        assert exc.value.code == 2
        assert "--config" in capsys.readouterr().err


def test_t_max_cap_names_the_field(tmp_path, capsys):
    cfg = json.loads(json.dumps(_EVOLVE_CFG))
    cfg["evolution"].update(t_max=1e13, t_step=1e8)  # 1e5 steps, under the step cap
    path = write_config(tmp_path, cfg)
    assert main(["evolve", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "evolution.t_max" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_overflowing_phases_are_config_error(tmp_path, capsys):
    # t_max and the step count are under their caps, but E ~ 1e300 makes E·t
    # overflow; the solved energies are checked before any file is written
    cfg = json.loads(json.dumps(_EVOLVE_CFG))
    cfg["potential"] = {"kind": "coeffs", "coeffs": [1e300, 0.0, 1.0]}
    cfg["evolution"].update(t_max=1e9, t_step=1e4)
    path = write_config(tmp_path, cfg)
    assert main(["evolve", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "evolution.t_max" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("potential, t_max, t_step, want", [
    # 2 x 0.6 passes t_max = 1
    (_EVOLVE_CFG["potential"], 1.0, 0.6, [0.0, 0.6]),
    # E·t_max is finite but E·t_step is not, so a time past t_max cannot be written
    ({"kind": "coeffs", "coeffs": [1.5e296, 0.0, 1.0]}, 1e12, 1.5e12, [0.0]),
])
def test_evolve_times_stop_at_t_max(tmp_path, potential, t_max, t_step, want):
    cfg = {"potential": potential, "solver": {"dim": 4},
           "evolution": {"initial": "centered", "widths": [1.0],
                         "t_max": t_max, "t_step": t_step}}
    path = write_config(tmp_path, cfg)
    assert main(["evolve", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    rows = (tmp_path / "o" / "observables.csv").read_text().strip().splitlines()[2:]
    assert [float(r.split(",")[0]) for r in rows] == want


@pytest.mark.parametrize("command, cfg", [
    ("trace-scan", _SCAN_CFG),
    ("evolve", _EVOLVE_CFG),
    ("convergence", {"potential": _QUARTIC, "solver": {"dims": [4, 6]}}),
])
def test_levels_flag_is_spectrum_only(tmp_path, capsys, command, cfg):
    path = write_config(tmp_path, cfg)
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(path), "--out", str(tmp_path / "o"),
              "--levels", "0..3"])
    assert exc.value.code == 2
    assert "--levels" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# --- fuzzed boundary ----------------------------------------------------------

_FUZZ_RECIPES = (("spectrum", "quartic_g1000.json"), ("spectrum", "asym_quartic_small.json"),
                 ("convergence", "quartic_convergence.json"),
                 ("trace-scan", "quartic_trace_scan.json"),
                 ("evolve", "slowroll_centered.json"), ("evolve", "slowroll_shifted.json"))
_FUZZ_VALUES = (None, True, False, 0, -1, -2.5, 0.5, 3, 1e300, -1e300, 1e-300, 10**400,
                "x", "0..3", [], [2], [0.5, -1.0], {})


def _small(cfg):
    """A recipe with its block sizes, point counts and step counts capped, for run time."""
    solver = cfg["solver"]
    if "dim" in solver:
        solver["dim"] = min(solver["dim"], 20)
    if "dims" in solver:
        solver["dims"] = [d for d in solver["dims"] if d <= 20]
        solver["n_ref"] = 30
    if "scan" in cfg:
        cfg["scan"]["points"] = 11
    if "evolution" in cfg:
        evo = cfg["evolution"]
        evo["t_max"] = min(evo["t_max"], 20 * evo["t_step"])
        evo.update(snapshot_times=[0.0, 1.0], x_points=11)
    return cfg


def _slots(node):
    """Every (container, key) of a config: blocks, fields and list items."""
    for key, val in (node.items() if isinstance(node, dict) else enumerate(node)):
        yield node, key
        if isinstance(val, (dict, list)):
            yield from _slots(val)


@st.composite
def _mutated_recipes(draw):
    command, recipe = draw(st.sampled_from(_FUZZ_RECIPES))
    cfg = _small(json.loads((RECIPES / recipe).read_text()))
    for _ in range(draw(st.integers(1, 2))):
        node, key = draw(st.sampled_from(list(_slots(cfg))))
        action = draw(st.sampled_from(("set", "misspell", "drop", "add block")))
        if action == "set":
            node[key] = copy.deepcopy(draw(st.sampled_from(_FUZZ_VALUES)))
        elif action == "misspell" and isinstance(node, dict):
            node[key.replace("i", "e", 1) + "_"] = node.pop(key)
        elif action == "drop":
            node.pop(key)
        elif action == "add block":
            block = draw(st.sampled_from(("scan", "evolution", "solver", "extra")))
            if not isinstance(cfg.get(block), dict):
                cfg[block] = {}
            cfg[block]["points"] = 5
    return command, cfg


@settings(derandomize=True, database=None, deadline=None, max_examples=150,
          suppress_health_check=[HealthCheck.too_slow])
@given(_mutated_recipes())
def test_mutated_recipes_exit_cleanly(case):
    """One or two fields of a shipped recipe broken: a clean exit, and no output on exit 2."""
    command, cfg = case
    with tempfile.TemporaryDirectory() as tmp:
        path = write_config(Path(tmp), cfg)
        out = Path(tmp) / "o"
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main([command, "--config", str(path), "--out", str(out)])
        assert code in (0, 2, 3)
        if code == 2:
            assert not out.exists()


def test_readme_config_table_names_every_field():
    # the table in README is the config's documentation: no field may be added
    # to or removed from the checking tables without it
    from varosc.cli import _COMMANDS, _POTENTIALS

    accepted = {"potential.kind", "output.dir"}
    accepted |= {f"potential.{key}" for _, fields in _POTENTIALS.values() for key in fields}
    accepted |= {f"{block}.{key}" for _, blocks in _COMMANDS.values()
                 for block, fields in blocks.items() for key in fields}
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    table = readme.split("| field | type | bounds | default | read by |", 1)[1].split("\n\n", 1)[0]
    documented = {name for row in table.splitlines()[2:]
                  for name in re.findall(r"`([\w.]+)`", row.split("|")[1])}
    assert documented == accepted


def test_cli_import_loads_no_optimizer():
    # a cold start of the console script pays for no scipy.optimize or
    # scipy.special import
    code = ("import sys, varosc.cli; "
            "sys.exit(any(m in sys.modules for m in ('scipy.optimize', 'scipy.special')))")
    src = str(Path(varosc.__file__).resolve().parents[1])
    subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                   check=True, timeout=120)
