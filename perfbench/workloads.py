"""Seeded job generators for the benchmark workloads.

A workload is a sequence of cycles.  Every cycle holds the same fixed anchor
jobs (shipped recipes, read from ``recipes/``) plus generated jobs whose
parameters are drawn from ``random.Random("<workload>/<seed>/<cycle>")``, so a
seed fixes every input and the run length only decides how many cycles run.
Each cycle has the same mix of job classes (command, block size, packet kind),
which keeps the latency quantiles of two seeds comparable: a run always stops
on a cycle boundary.

This module uses only the standard library; the program under test receives
nothing but the JSON configs built here.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

# The tail latency is reported at this fixed percentile.  It is the highest of
# 50/75/90/95/99 that leaves at least ten jobs beyond it at MIN_JOBS, the
# smallest run the worker makes; a fixed choice keeps the metric comparable
# when a faster program completes more jobs in the same time.
TAIL_PERCENTILE = 75
MIN_JOBS = 40


@dataclass(frozen=True)
class Job:
    """One CLI command on one config.

    ``recipe`` names a shipped recipe (an anchor); otherwise ``config`` is the
    generated config.  ``levels`` is the ``--levels`` argument, if any, and
    ``expect`` carries what the output check needs to know about the job.
    """

    label: str
    command: str
    config: dict | None = None
    recipe: str | None = None
    levels: str | None = None
    expect: dict = field(default_factory=dict)

    def config_bytes(self) -> bytes:
        """The exact bytes handed to the program for a generated config."""
        return (json.dumps(self.config, indent=1, sort_keys=True) + "\n").encode()


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _expand(coeffs_in_y: list[float], shift: float) -> list[float]:
    """Coefficients in x of p(y) with y = x - shift (binomial expansion)."""
    out = [0.0] * len(coeffs_in_y)
    for j, c in enumerate(coeffs_in_y):
        for k in range(j + 1):
            out[k] += c * math.comb(j, k) * (-shift) ** (j - k)
    return out


# --- pms-asym ---------------------------------------------------------------
# Why: the two-parameter PMS search (trace plus potential.shift, thousands of
# calls per job) does about 97% of the work; assembly and the eigensolve of an
# N <= 41 block are under 1%.  A closed-form PMS should show its gain here and
# nowhere else.

def _asym_quartic(rng: random.Random, stratum: tuple[int, int], strata: int) -> list[float]:
    """A confining quartic whose deepest well sits up to +-5 from the origin.

    V = v0 + k2 y^2 + k3 y^3 + k4 y^4 with y = x - xw.  The cubic/quadratic
    ratio r = 9 k3^2 / (32 k2 k4) sets the asymmetry; r > 1 would add a second
    stationary point (asym_demo itself sits at r ~ 1.03), r in [0.2, 1] keeps
    one well with a strong shoulder on one side.  r and xw are drawn from the
    given strata of their ranges, so every cycle covers both ranges evenly.
    """
    k_ratio, k_well = stratum
    xw = rng.uniform(-5.0 + 10.0 * k_well / strata, -5.0 + 10.0 * (k_well + 1) / strata)
    k4 = _log_uniform(rng, 4.0, 64.0)
    k2 = _log_uniform(rng, 100.0, 1000.0)
    ratio = rng.uniform(0.2 + 0.8 * k_ratio / strata, 0.2 + 0.8 * (k_ratio + 1) / strata)
    k3 = rng.choice((-1.0, 1.0)) * math.sqrt(ratio * 32.0 * k2 * k4 / 9.0)
    v0 = rng.uniform(-50.0, 50.0)
    return _expand([v0, 0.0, k2, k3, k4], xw)


def _pms_asym(rng: random.Random) -> list[Job]:
    jobs = []
    for dim in (11, 21, 41):
        wells = [0, 1, 2]
        rng.shuffle(wells)
        for k_ratio, k_well in enumerate(wells):
            coeffs = _asym_quartic(rng, (k_ratio, k_well), 3)
            cfg = {"potential": {"kind": "coeffs", "coeffs": coeffs},
                   "solver": {"dim": dim, "optimize_sigma": True}}
            jobs.append(Job(f"spectrum/asym/N{dim}", "spectrum", cfg,
                            expect={"kind": "asym_levels"}))
    return jobs


# --- spectrum-large ---------------------------------------------------------
# Why: dense assembly (matrix powers) plus a full dense eigh is about 95% of
# the work at N in {400, 800, 1600}; PMS is about 1%, and only 10 of up to 1600
# computed eigenpairs are written.  Banded assembly and a selective eigensolve
# should show their gain here.  Six of the twelve jobs in a cycle are N=800,
# ranked 5th to 10th by latency, so the median and the tail percentile both
# fall inside that class; the two N=1600 jobs carry most of the job time and
# so most of jobs_per_s.

def _quartic(rng: random.Random) -> dict:
    return {"kind": "quartic", "m2": 1.0, "g": _log_uniform(rng, 1e-2, 1e4), "sign": 1}


def _deep_double_well(rng: random.Random) -> dict:
    # barrier lambda a^4 / 24 between 0.8 and ~190: several doublets lie below it
    return {"kind": "double_well", "lambda": _log_uniform(rng, 0.1, 2.0),
            "a": rng.uniform(3.0, 6.0)}


def _spectrum_large(rng: random.Random) -> list[Job]:
    plan = [(400, _quartic),
            (800, _quartic), (800, _deep_double_well), (800, _quartic),
            (800, _deep_double_well), (800, _quartic), (800, _deep_double_well),
            (1600, _quartic), (1600, _deep_double_well)]
    jobs = [Job(f"spectrum/{make.__name__.strip('_')}/N{dim}", "spectrum",
                {"potential": make(rng), "solver": {"dim": dim}}, levels="0..9",
                expect={"kind": "levels"})
            for dim, make in plan]
    # a centered block: the target sits mid-block, away from the lowest states
    target = rng.randint(220, 300)
    jobs.append(Job("spectrum/centered/N400", "spectrum",
                    {"potential": _quartic(rng),
                     "solver": {"dim": 400, "target_level": target}},
                    levels=f"{target - 4}..{target + 5}", expect={"kind": "levels"}))
    return jobs


# --- evolve-sweep -----------------------------------------------------------
# Why: observables_series (a T x K x K contraction per width), the per-width
# make_evolution rotation and the CSV writers dominate, and memory grows with
# steps x modes.  Unlike spectrum-large this workload needs every eigenvector,
# so a selective eigensolve that helps there must not slow this one.  Steps
# per width are chosen so the centred jobs of all three sizes cost about the
# same and form one latency tier, with the shifted jobs (about twice the
# active modes) in a slower tier: the median falls inside the centred tier and
# the tail percentile inside the shifted one.

_EVOLVE_PLAN = ((80, 4000), (120, 2000), (160, 2000))


def _evolve_sweep(rng: random.Random) -> list[Job]:
    jobs = []
    for dim, steps in _EVOLVE_PLAN:
        for initial in ("centered", "shifted"):
            # around the slow-roll recipe (lambda 0.01, a 5); the ranges are
            # narrow because the active mode count, and with it the cost,
            # varies steeply with the well and the packet
            lam = _log_uniform(rng, 0.008, 0.02)
            a = rng.uniform(3.5, 4.5)
            base = _log_uniform(rng, 0.25, 0.4)
            x0 = 0.0
            if initial == "shifted":
                x0 = rng.choice((-1.0, 1.0)) * rng.uniform(0.6, 0.9) * a
            t_step = 0.25
            evolution = {
                "initial": initial, "x0": x0,
                "widths": [base / 4.0, base / 2.0, base, 2.0 * base],
                "t_max": steps * t_step, "t_step": t_step,
                "snapshot_times": [round(rng.uniform(0.0, steps * t_step), 2)],
                "x_min": -2.0 * a, "x_max": 2.0 * a, "x_points": 201,
            }
            # the Gauss-Hermite path rejects broad off-centre packets that the
            # closed forms accept with a reported loss, so it runs centred
            if initial == "centered" and dim == 120:
                evolution["quadrature"] = True
            cfg = {"potential": {"kind": "double_well", "lambda": lam, "a": a},
                   "solver": {"dim": dim}, "evolution": evolution}
            jobs.append(Job(f"evolve/{initial}/N{dim}", "evolve", cfg,
                            expect={"kind": "evolution"}))
    return jobs


_ANCHORS = {
    "pms-asym": [
        Job("anchor/asym_quartic_small", "spectrum", recipe="asym_quartic_small",
            expect={"kind": "asym_pms", "sigma": -3.889, "omega": 31.179,
                    "sigma_tol": 5e-3, "omega_tol": 5e-2}),
        Job("anchor/asym_quartic_large", "spectrum", recipe="asym_quartic_large",
            expect={"kind": "ground_state", "e0": -1229.1160510460046, "rel": 1e-12}),
        Job("anchor/quartic_trace_scan", "trace-scan", recipe="quartic_trace_scan",
            expect={"kind": "trace_scan"}),
    ],
    "spectrum-large": [
        Job("anchor/quartic_g1000", "spectrum", recipe="quartic_g1000",
            expect={"kind": "ground_state", "e0": 13.3884417010081 / 2.0, "rel": 1e-12}),
        Job("anchor/quartic_convergence", "convergence", recipe="quartic_convergence",
            expect={"kind": "convergence"}),
    ],
    "evolve-sweep": [
        Job("anchor/slowroll_centered", "evolve", recipe="slowroll_centered",
            expect={"kind": "evolution"}),
        Job("anchor/slowroll_shifted", "evolve", recipe="slowroll_shifted",
            expect={"kind": "evolution"}),
    ],
}

_GENERATORS = {
    "pms-asym": _pms_asym,
    "spectrum-large": _spectrum_large,
    "evolve-sweep": _evolve_sweep,
}

WORKLOADS = tuple(_GENERATORS)


def cycle_jobs(workload: str, seed: int, cycle: int) -> list[Job]:
    """Anchor jobs followed by the generated jobs of one cycle."""
    rng = random.Random(f"{workload}/{seed}/{cycle}")
    return list(_ANCHORS[workload]) + _GENERATORS[workload](rng)
