"""The library names that perfbench/tracer.py binds by name.

The tracer wraps the public functions of the layer modules where they are
bound, and it reads its counts from argument names and result fields.  A
rename here would make a benchmark metric read 0 or fail the benchmark run,
and the benchmark's own self-test is not part of this suite.
"""
import importlib
import importlib.util
import inspect
import json
import sys
from pathlib import Path

import pytest

import varosc.evolve
import varosc.pms
import varosc.spectrum
from varosc import BasisConfig, PolynomialPotential, assemble_hamiltonian, asym_demo, from_quartic

LAYERS = ("cli", "potential", "pms", "oscbasis", "eigen", "spectrum", "evolve")
ROOT = Path(__file__).resolve().parent.parent


def params(fn):
    return list(inspect.signature(fn).parameters)


def public_functions(module, prefix):
    return [getattr(module, name) for name in module.__all__
            if name.startswith(prefix) and inspect.isfunction(getattr(module, name))]


def test_names_perfbench_binds():
    for layer in LAYERS:
        importlib.import_module(f"varosc.{layer}")
    assert varosc.spectrum.pms_optimize is varosc.pms.pms_optimize
    assert inspect.isfunction(PolynomialPotential.__dict__["shift"])
    h = assemble_hamiltonian(from_quartic(1.0, 1.0), BasisConfig(dim=4, omega=1.0))
    assert h.config.dim == 4
    assert params(varosc.evolve.observables_series)[:2] == ["state", "times"]
    for module in (varosc.spectrum, varosc.evolve):
        writers = public_functions(module, "write_")
        assert writers, module.__name__
        for fn in writers:
            assert params(fn)[0] == "path", fn.__name__
    assert params(varosc.spectrum.write_levels_csv)[1:3] == ["report", "levels"]
    assert params(varosc.spectrum.write_convergence_csv)[1] == "study"
    assert public_functions(varosc.evolve, "project_")


def test_pms_search_calls_the_module_trace_and_builds_no_config(monkeypatch):
    # the tracer counts pms.trace spans inside pms_optimize (its self-test
    # wants more than 100 per 2D search), so the search must look trace up
    # in the module; it passes plain numbers, with no BasisConfig per call
    calls = {"trace": 0, "config": 0}
    trace, check = varosc.pms.trace, BasisConfig.__post_init__

    def counted_trace(*args):
        calls["trace"] += 1
        return trace(*args)

    def counted_check(self):
        calls["config"] += 1
        check(self)

    monkeypatch.setattr(varosc.pms, "trace", counted_trace)
    monkeypatch.setattr(BasisConfig, "__post_init__", counted_check)
    varosc.pms.pms_optimize(asym_demo(), 11, optimize_sigma=True)
    assert calls["config"] == 0
    assert calls["trace"] > 100


def test_every_benchmark_config_passes_the_schema(monkeypatch):
    # a field the schema drops, or a bound it tightens, fails the benchmark
    # jobs that set it; loaded by file path, as perfbench is not a package
    # (its dataclasses look their module up in sys.modules)
    from varosc.cli import ConfigError, _validate

    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    jobs = [job for name in workloads.WORKLOADS for cycle in (0, 1)
            for job in workloads.cycle_jobs(name, 1, cycle)]
    assert len(jobs) == 64
    for job in jobs:
        cfg = (json.loads((ROOT / "recipes" / f"{job.recipe}.json").read_text()) if job.recipe
               else json.loads(job.config_bytes()))
        try:
            _validate(job.command, cfg)
        except ConfigError as exc:
            pytest.fail(f"{job.label}: {exc}")
