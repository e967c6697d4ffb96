"""One closed-loop run of one workload, in a fresh process.

run.py starts this script with OPENBLAS/OMP/MKL_NUM_THREADS pinned to 1 in
its environment, so the BLAS thread count is fixed before numpy loads
(``varosc --threads`` needs threadpoolctl, which varosc does not depend on;
without it the flag does nothing).

One client sends one job at a time and waits for it: each job is an
in-process call of ``varosc.cli.main`` on one config file.  A job fails when
main raises, returns non-zero, or its outputs fail their check.  Checks and
their reference spectra run after each job, outside the timed region.

With ``--trace 1`` each job runs twice, untraced and then traced, over a fixed
number of cycles, so per-job counts repeat exactly for a given seed.

The last stdout line is one JSON object that run.py reads.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import calib
from checks import CheckFailed, check_job, reference_for
from tracer import Tracer
from workloads import MIN_JOBS, WORKLOADS, cycle_jobs

# cycles in a traced run; each job there runs untraced and traced
TRACE_CYCLES = 2
# stop starting new jobs after this much wall time, whatever --seconds says
DEADLINE_S = 140.0


class Runner:
    def __init__(self, root: Path, work: Path):
        import varosc.cli

        self.cli = varosc.cli
        self.recipes = root / "recipes"
        self.work = work
        self.out = work / "out"
        self.latencies: list[float] = []
        self.labels: list[str] = []
        self.calibration_ms: list[float] = []
        self.failures: list[str] = []
        self.attempted = 0
        self._devnull = open(os.devnull, "w")

    def close(self):
        self._devnull.close()

    def run(self, job, tracer=None, job_id=None) -> float:
        """Run and check one job; return its latency in seconds."""
        self.calibration_ms.append(calib.kernel_ms())
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        if job.recipe is not None:
            cfg_path = self.recipes / f"{job.recipe}.json"
            config = json.loads(cfg_path.read_text())
        else:
            cfg_path = self.work / "config.json"
            cfg_path.write_bytes(job.config_bytes())
            config = job.config
        argv = [job.command, "--config", str(cfg_path), "--out", str(self.out)]
        if job.levels is not None:
            argv += ["--levels", job.levels]
        if tracer is not None:
            tracer.begin_job(job_id)
        err = io.StringIO()
        problem = None
        with contextlib.redirect_stdout(self._devnull), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                rc = self.cli.main(argv)
            except Exception:  # a crash of the program is a failed job, not a crash here
                rc, problem = None, traceback.format_exc(limit=3)
            elapsed = time.perf_counter() - start
        self.attempted += 1
        if problem is None and rc != 0:
            problem = f"exit code {rc}: {err.getvalue().strip()}"
        if problem is None:
            try:
                check_job(job, self.out, config, reference_for(job))
            except (CheckFailed, OSError, LookupError, ValueError) as exc:
                # missing or unreadable outputs fail the job like wrong ones
                problem = f"check failed: {exc!r}"
        if problem is not None:
            self.failures.append(f"{job.label}: {problem}")
        self.latencies.append(elapsed)
        self.labels.append(job.label)
        return elapsed


def versions() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        openblas = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": openblas,
            "threads": {k: os.environ.get(k) for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


def timed_run(runner: Runner, workload: str, seed: int, seconds: float) -> dict:
    wall0 = time.monotonic()
    busy, cycle = 0.0, 0
    while busy < seconds or len(runner.latencies) < MIN_JOBS:
        for job in cycle_jobs(workload, seed, cycle):
            busy += runner.run(job)
            if time.monotonic() - wall0 > DEADLINE_S:
                break
        cycle += 1
        if time.monotonic() - wall0 > DEADLINE_S:
            break
    return {"cycles": cycle, "busy_s": busy}


def traced_run(runner: Runner, workload: str, seed: int, spans_path: Path) -> dict:
    tracer = Tracer()
    untraced, traced = [], []

    def run_traced(job):
        tracer.install()
        try:
            traced.append(runner.run(job, tracer, job_id=len(traced)))
        finally:
            tracer.uninstall()

    for cycle in range(TRACE_CYCLES):
        for job in cycle_jobs(workload, seed, cycle):
            # alternate which side runs first, so warm-up favours neither
            if len(traced) % 2:
                run_traced(job)
                untraced.append(runner.run(job))
            else:
                untraced.append(runner.run(job))
                run_traced(job)
    tracer.write(spans_path)
    per_job_self = tracer.job_self_ms()
    return {"cycles": TRACE_CYCLES,
            "untraced_ms": [1e3 * t for t in untraced],
            "traced_ms": [1e3 * t for t in traced],
            "self_sum_ms": [per_job_self.get(i, 0.0) for i in range(len(traced))],
            "per_layer": {k: list(v) for k, v in tracer.summary(len(traced)).items()},
            "spans_file": str(spans_path)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--root", required=True, type=Path)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)

    src = (args.root / "src").resolve()
    sys.path.insert(0, str(src))
    import varosc.cli

    if Path(varosc.cli.__file__).resolve().parent.parent != src:
        print(f"varosc was imported from {varosc.cli.__file__}, not {src}", file=sys.stderr)
        return 2

    work = args.out / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(args.root, work)
    wall0 = time.monotonic()
    try:
        if args.trace:
            spans = args.out / f"spans-{args.workload}.csv.gz"
            result = traced_run(runner, args.workload, args.seed, spans)
        else:
            result = timed_run(runner, args.workload, args.seed, args.seconds)
    finally:
        runner.close()
        shutil.rmtree(work, ignore_errors=True)
    result.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "attempted": runner.attempted, "failed": len(runner.failures),
        "failures": runner.failures[:20],
        "latencies_ms": [1e3 * t for t in runner.latencies], "labels": runner.labels,
        "calibration_ms": runner.calibration_ms + [calib.kernel_ms()],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "wall_s": time.monotonic() - wall0, "versions": versions(),
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
