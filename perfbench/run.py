"""Benchmark of the varosc chain: potential -> PMS -> Hamiltonian -> eigen -> evolve -> CSV.

Usage, from the repository root:

    python3 perfbench/run.py --workload pms-asym --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One run starts fresh worker processes with OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS and MKL_NUM_THREADS set to 1 before Python starts.  With
``--trace 0`` it prints every end-to-end metric; with ``--trace 1`` it runs the
separate traced run and prints the per-layer metrics.  The last stdout line is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  A fuller record
(latencies, tail percentile and sample count, failures, versions, thread
count) goes to perfbench/out/.  See perfbench/README.md for the metrics.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from calib import REFERENCE_MS, normalise  # noqa: E402
from workloads import TAIL_PERCENTILE, WORKLOADS  # noqa: E402

PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 165.0
# the probe times the kernel right after its import, to normalise that sample
_IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); import varosc.cli; "
                 "done = time.time(); sys.path.insert(0, sys.argv[2]); import calib, statistics; "
                 "print(done, statistics.median(calib.kernel_ms() for _ in range(5)), "
                 "varosc.cli.__file__)")


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED)
    env.pop("PYTHONPATH", None)
    return env


def setup_seconds(src: Path) -> tuple[list[float], list[float]]:
    """Wall time from starting a fresh interpreter to a completed import varosc.cli.

    Returns the raw samples and the samples at the reference machine speed.
    """
    raw, normalised = [], []
    for _ in range(SETUP_SAMPLES):
        start = time.time()
        proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(src), str(HERE)],
                              env=child_env(), capture_output=True, text=True, timeout=60,
                              check=True)
        done, kernel, path = proc.stdout.strip().split(maxsplit=2)
        if Path(path).resolve().parent.parent != src:
            raise RuntimeError(f"varosc was imported from {path}, not from {src}")
        raw.append(float(done) - start)
        normalised.append(raw[-1] * REFERENCE_MS / float(kernel))
    return raw, normalised


def run_worker(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--out", str(OUT)]
    proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def nearest_rank(values: list[float], pct: float) -> tuple[float, int]:
    """Value at a percentile (nearest rank) and how many samples lie beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def latency_metrics(lat: list[float]) -> tuple[float, float, float, int]:
    """jobs_per_s, p50 and tail of job latencies in ms, and the jobs beyond the tail."""
    tail, beyond = nearest_rank(lat, TAIL_PERCENTILE)
    return len(lat) / (sum(lat) / 1e3), statistics.median(lat), tail, beyond


def end_to_end(rec: dict, setup: tuple[list[float], list[float]]) -> tuple[dict, dict]:
    raw_lat = rec["latencies_ms"]
    rate, p50, tail, beyond = latency_metrics(normalise(raw_lat, rec["calibration_ms"]))
    raw_rate, raw_p50, raw_tail, _ = latency_metrics(raw_lat)
    ok = rec["attempted"] - rec["failed"]
    metrics = {
        "setup_s": (statistics.median(setup[1]), "s"),
        "jobs_per_s": (rate, "1/s"),
        "job_ms.p50": (p50, "ms"),
        "job_ms.tail": (tail, "ms"),
        "peak_rss_mb": (rec["peak_rss_mb"], "MB"),
        "jobs_ok_frac": (ok / rec["attempted"], "fraction"),
    }
    notes = {
        "job_ms.tail": f"p{TAIL_PERCENTILE} of {len(raw_lat)} jobs, {beyond} beyond it",
        "jobs_failed_frac": f"{rec['failed'] / rec['attempted']:.6g} "
                            f"({rec['failed']} of {rec['attempted']} jobs)",
        "raw wall time": f"setup_s {statistics.median(setup[0]):.4f} s, jobs_per_s "
                         f"{raw_rate:.4f} 1/s, job_ms.p50 {raw_p50:.3f} ms, job_ms.tail "
                         f"{raw_tail:.3f} ms; calibration kernel median "
                         f"{statistics.median(rec['calibration_ms']):.3f} ms "
                         f"(reference {REFERENCE_MS} ms)",
    }
    return metrics, notes


def per_layer(rec: dict) -> tuple[dict, dict]:
    metrics = {k: tuple(v) for k, v in rec["per_layer"].items()}
    traced, untraced = rec["traced_ms"], rec["untraced_ms"]
    overhead = statistics.median(traced) - statistics.median(untraced)
    metrics["trace.job_ms"] = (statistics.fmean(traced), "ms/job")
    metrics["trace.overhead_ms"] = (overhead, "ms")
    notes = {
        "trace.overhead_ms": f"p50 traced {statistics.median(traced):.3f} ms - p50 untraced "
                             f"{statistics.median(untraced):.3f} ms over {len(traced)} jobs",
        "self time": f"sum of span self times {statistics.fmean(rec['self_sum_ms']):.3f} ms/job "
                     f"vs traced job wall {statistics.fmean(traced):.3f} ms/job",
        "bases": f"pms.trace_per_optimize over "
                 f"{metrics['pms.pms_optimize.calls'][0] * len(traced):.0f} pms_optimize calls; "
                 f"eigen.useful_ratio over "
                 f"{metrics['eigen.pairs_computed'][0] * len(traced):.0f} eigenpairs computed; "
                 f"evolve.z_bytes = 16 B x {metrics['evolve.mode_steps'][0]:.6g} mode-steps/job",
        "spans": rec["spans_file"],
    }
    return metrics, notes


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    src = (ROOT / "src").resolve()
    if not (src / "varosc" / "cli.py").is_file() or not (ROOT / "recipes").is_dir():
        raise FileNotFoundError(f"no varosc sources or recipes under {ROOT}")
    OUT.mkdir(exist_ok=True)
    setup = ([], []) if trace else setup_seconds(src)
    rec = run_worker(workload, seed, seconds, trace)
    metrics, notes = per_layer(rec) if trace else end_to_end(rec, setup)
    rec.update({"metrics": metrics, "notes": notes, "setup_samples_s": setup[0],
                "setup_normalised_s": setup[1]})
    (OUT / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(rec, indent=1))
    return rec


def report(rec: dict):
    print(f"== {rec['workload']} seed={rec['seed']} trace={rec['trace']} "
          f"cycles={rec['cycles']} jobs={rec['attempted']} failed={rec['failed']}")
    for name, (value, unit) in rec["metrics"].items():
        print(f"{name:40s} {value:16.6g} {unit}")
    for name, text in rec["notes"].items():
        print(f"  {name}: {text}")
    v = rec["versions"]
    print(f"  python {v['python']}, numpy {v['numpy']}, scipy {v['scipy']}, {v['blas']}, "
          f"threads {v['threads']}")
    for failure in rec["failures"]:
        print(f"  FAILED {failure}")


def result_line(recs: list[dict]) -> str:
    attempted = sum(r["attempted"] for r in recs)
    failed = sum(r["failed"] for r in recs)
    metrics = {}
    for r in recs:
        prefix = "" if len(recs) == 1 else f"{r['workload']}/"
        for name, (value, unit) in r["metrics"].items():
            metrics[prefix + name] = {"value": value, "unit": unit}
    return json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                       "metrics": metrics})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        recs = [measure(name, args.seed, args.seconds, args.trace) for name in names]
    except (OSError, RuntimeError, ValueError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    for rec in recs:
        report(rec)
    print(result_line(recs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
