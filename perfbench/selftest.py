"""Tests of the benchmark itself: inputs, output checks, tracing.

Run from the repository root:

    python3 perfbench/selftest.py
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import types
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from worker import Runner  # noqa: E402


def _generated(workload: str, seed: int, cycle: int):
    return [job for job in workloads.cycle_jobs(workload, seed, cycle) if job.recipe is None]


class SeededInputs(unittest.TestCase):
    def test_same_seed_gives_identical_config_bytes(self):
        for name in workloads.WORKLOADS:
            for cycle in range(3):
                first = [j.config_bytes() for j in _generated(name, 7, cycle)]
                again = [j.config_bytes() for j in _generated(name, 7, cycle)]
                other = [j.config_bytes() for j in _generated(name, 8, cycle)]
                self.assertEqual(first, again, name)
                self.assertNotEqual(first, other, name)

    def test_cycles_keep_the_same_job_classes(self):
        for name in workloads.WORKLOADS:
            labels = [[j.label for j in workloads.cycle_jobs(name, s, c)]
                      for s, c in ((1, 0), (1, 5), (9, 2))]
            self.assertEqual(labels[0], labels[1])
            self.assertEqual(labels[0], labels[2])


class Reference(unittest.TestCase):
    def test_harmonic_oscillator(self):
        levels = checks.reference_levels([0.0, 0.0, 0.5], 6)
        np.testing.assert_allclose(levels, np.arange(6) + 0.5, rtol=1e-12)

    def test_quartic_benchmark_energy(self):
        e0 = checks.reference_levels(checks.potential_coeffs(
            {"kind": "quartic", "m2": 1.0, "g": 1000.0, "sign": 1}), 1)[0]
        self.assertAlmostEqual(2.0 * e0 / 13.3884417010081, 1.0, delta=1e-11)


class _Workdir(unittest.TestCase):
    def setUp(self):
        self.tmp = Path(tempfile.mkdtemp(prefix="perfbench-test-"))
        self.runner = Runner(ROOT, self.tmp)

    def tearDown(self):
        self.runner.close()
        shutil.rmtree(self.tmp, ignore_errors=True)


def _perturbing_cli(real_main, edit):
    """A stand-in for varosc.cli whose main runs the real one, then edits an output."""
    def main(argv):
        rc = real_main(argv)
        edit(Path(argv[argv.index("--out") + 1]))
        return rc
    return types.SimpleNamespace(main=main)


def _scale_level(path: Path, level: int, factor: float):
    lines = path.read_text().splitlines()
    for i, line in enumerate(lines):
        n, _, e = line.partition(",")
        if n == str(level):
            lines[i] = f"{n},{float(e) * float(factor)!r}"
    path.write_text("\n".join(lines) + "\n")


class PerturbedOutputsFail(_Workdir):
    def _job(self, workload, label):
        return next(j for j in workloads.cycle_jobs(workload, 3, 0) if j.label == label)

    def _assert_counted(self, job, edit):
        self.runner.run(job)
        self.assertEqual(self.runner.failures, [], "unperturbed job must pass")
        self.runner.cli = _perturbing_cli(self.runner.cli.main, edit)
        self.runner.run(job)
        self.assertEqual(self.runner.attempted, 2)
        self.assertEqual(len(self.runner.failures), 1, self.runner.failures)

    def test_anchor_ground_state(self):
        job = self._job("spectrum-large", "anchor/quartic_g1000")
        self._assert_counted(job, lambda out: _scale_level(out / "levels.csv", 0, 1 + 1e-9))

    def test_generated_spectrum(self):
        job = self._job("spectrum-large", "spectrum/quartic/N400")
        self._assert_counted(job, lambda out: _scale_level(out / "levels.csv", 0, 1 + 1e-9))

    def test_generated_asymmetric_spectrum_below_reference(self):
        job = self._job("pms-asym", "spectrum/asym/N41")
        # a level 1e-8 below the exact one breaks the variational bound
        self._assert_counted(job, lambda out: _scale_level(
            out / "levels.csv", 0, 1 - 1e-8 * np.sign(checks.read_levels(out / "levels.csv")[0])))

    def test_evolution_moment(self):
        job = self._job("evolve-sweep", "anchor/slowroll_centered")

        def edit(out):
            path = out / "observables.csv"
            lines = path.read_text().splitlines()
            t, x, rest = lines[2].split(",", 2)
            lines[2] = f"{t},{float(x) + 1e-6!r},{rest}"
            path.write_text("\n".join(lines) + "\n")

        self._assert_counted(job, edit)


class Tracing(_Workdir):
    def test_every_binding_is_wrapped_and_restored(self):
        import varosc.pms
        import varosc.spectrum

        original = varosc.pms.pms_optimize
        self.assertIs(varosc.spectrum.pms_optimize, original)
        tracer = Tracer()
        tracer.install()
        try:
            self.assertIsNot(varosc.pms.pms_optimize, original)
            self.assertIs(varosc.spectrum.pms_optimize, varosc.pms.pms_optimize)
        finally:
            tracer.uninstall()
        self.assertIs(varosc.pms.pms_optimize, original)
        self.assertIs(varosc.spectrum.pms_optimize, original)

    def test_self_times_add_up_to_job_wall_time(self):
        jobs = [j for name in workloads.WORKLOADS for j in workloads.cycle_jobs(name, 5, 0)
                if j.label in ("anchor/asym_quartic_small", "anchor/quartic_convergence",
                               "spectrum/quartic/N400", "anchor/slowroll_shifted")]
        tracer = Tracer()
        untraced, traced = [], []
        for i, job in enumerate(jobs):
            untraced.append(self.runner.run(job))
            tracer.install()
            try:
                traced.append(self.runner.run(job, tracer, job_id=i))
            finally:
                tracer.uninstall()
        self.assertEqual(self.runner.failures, [])
        per_job = tracer.job_self_ms()
        for i, wall in enumerate(traced):
            # the root cli.main span covers the timed call but for the wrapper's entry
            self.assertAlmostEqual(per_job[i], 1e3 * wall, delta=0.01 * 1e3 * wall + 0.1)
        summary = tracer.summary(len(jobs))
        layer_sum = sum(summary[f"layer.{layer}.self_ms"][0] for layer in LAYERS)
        self.assertAlmostEqual(layer_sum, sum(per_job.values()) / len(jobs), places=6)
        overhead = abs(sum(traced) - sum(untraced))
        self.assertLessEqual(abs(1e-3 * sum(per_job.values()) - sum(untraced)),
                             overhead + 1e-3 * len(jobs))
        self.assertGreater(summary["pms.trace_per_optimize"][0], 100)
        self.assertEqual(summary["cli.main.calls"][0], 1.0)


class BareDirectory(unittest.TestCase):
    def test_fails_without_the_program(self):
        with tempfile.TemporaryDirectory(prefix="perfbench-bare-") as tmp:
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
            proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "pms-asym",
                                   "--seed", "1", "--seconds", "1", "--trace", "0"],
                                  cwd=tmp, env=env, capture_output=True, text=True, timeout=120)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
