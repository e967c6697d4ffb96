"""Span tracing of varosc from outside the library.

Each public function of the seven layer modules is wrapped at every place it
is bound across the loaded ``varosc.*`` modules (``spectrum.pms_optimize`` and
``pms.pms_optimize`` are one object, so both bindings are replaced), plus the
``PolynomialPotential.shift`` method.  Calls the library makes internally
therefore land in spans without editing it.  Spans are kept in memory as
(name, start, end, parent, job) and written out once, at the end of a run.

A span's self time is its duration minus the durations of its children; the
library is single-threaded, so children never overlap and the self times of
one job's spans add up to the duration of its root ``cli.main`` span.
"""
from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("cli", "potential", "pms", "oscbasis", "eigen", "spectrum", "evolve")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.job = None
        self._stack: list[int] = []
        self._patches: list = []
        # per-job counts that come from arguments and results, not from spans
        self.counts: dict[str, float] = defaultdict(float)
        self._used_solutions: set = set()

    # --- wrapping -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        layer, func = name.split(".", 1)
        is_writer = func.startswith("write_")
        # argument-derived counts; never for the functions PMS calls in a loop
        counted = is_writer or layer in ("eigen", "evolve") or name == "oscbasis.assemble_hamiltonian"
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.job)
            if counted:
                arguments = signature.bind(*args, **kwargs).arguments
                self._count(name, is_writer, arguments, result)
            return result

        return traced

    def _count(self, name: str, is_writer: bool, arguments: dict, result):
        counts = self.counts
        path = arguments.get("path")
        if is_writer and path is not None:
            counts[f"{name.split('.')[0]}.bytes_written"] += Path(path).stat().st_size
        if name == "oscbasis.assemble_hamiltonian":
            counts["oscbasis.h_bytes"] += 8 * result.config.dim ** 2
        if name.startswith("eigen.") and hasattr(result, "energies"):
            counts["eigen.pairs_computed"] += len(result.energies)
        # eigenpairs that reach an output file or a downstream computation
        if name == "spectrum.write_levels_csv":
            levels = arguments.get("levels") or arguments["report"].requested_levels
            counts["eigen.pairs_used"] += len(levels)
        elif name == "spectrum.write_convergence_csv":
            rows = arguments["study"].rows
            counts["eigen.pairs_used"] += len(rows) + len({r[1] for r in rows})
        elif name.startswith("evolve."):
            for value in arguments.values():
                if hasattr(value, "energies") and hasattr(value, "vectors") \
                        and id(value) not in self._used_solutions:
                    self._used_solutions.add(id(value))
                    counts["eigen.pairs_used"] += len(value.energies)
            state, times = arguments.get("state"), arguments.get("times")
            if name == "evolve.observables_series" and state is not None:
                counts["evolve.mode_steps"] += len(state.a) * len(times)

    def install(self):
        """Wrap every target at every binding in the loaded varosc modules."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "varosc" or n.startswith("varosc.")]
        targets = {}
        for layer in LAYERS:
            mod = sys.modules[f"varosc.{layer}"]
            names = list(getattr(mod, "__all__", ())) + (["main"] if layer == "cli" else [])
            for name in names:
                obj = getattr(mod, name)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    targets[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        cls = sys.modules["varosc.potential"].PolynomialPotential
        shift = cls.__dict__["shift"]
        self._patches.append((cls, "shift", shift))
        setattr(cls, "shift", self._wrap("potential.shift", shift))

    def uninstall(self):
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    def begin_job(self, job_id: int):
        self.job = job_id
        self._used_solutions.clear()

    # --- results ------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time in seconds of every span, in recording order."""
        own = [s[2] - s[1] for s in self.spans]
        for name, start, end, parent, _job in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def job_self_ms(self) -> dict[int, float]:
        """Sum of all span self times per job, in ms."""
        out: dict[int, float] = defaultdict(float)
        for span, own in zip(self.spans, self.self_times()):
            out[span[4]] += 1e3 * own
        return dict(out)

    def write(self, path: Path):
        """Write the spans as gzip-compressed CSV: name,start,end,parent,job."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name,start_s,end_s,parent,job\n")
            for name, start, end, parent, job in self.spans:
                fh.write(f"{name},{start:.9f},{end:.9f},{parent},{job}\n")

    def summary(self, n_jobs: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics per traced job: name -> (value, unit)."""
        own = self.self_times()
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        under_opt = [False] * len(self.spans)
        traces_in_opt = 0
        for i, (name, start, end, parent, _job) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += own[i]
            total_s[name] += end - start
            under_opt[i] = name == "pms.pms_optimize" or (parent >= 0 and under_opt[parent])
            if name == "pms.trace" and under_opt[i]:
                traces_in_opt += 1

        def per_job_ms(names) -> float:
            return 1e3 * sum(self_s[n] for n in names) / n_jobs

        def prefixed(prefix):
            return [n for n in self_s if n.startswith(prefix)]

        c = self.counts
        m: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            m[f"layer.{layer}.self_ms"] = (per_job_ms(prefixed(layer + ".")), "ms/job")
        for name in ("cli.main", "potential.shift", "pms.pms_optimize", "pms.trace",
                     "oscbasis.assemble_hamiltonian", "oscbasis.position_power_matrix",
                     "eigen.diagonalize"):
            m[f"{name}.calls"] = (calls[name] / n_jobs, "calls/job")
            m[f"{name}.self_ms"] = (per_job_ms([name]), "ms/job")
        m["cli.self_ms"] = m.pop("cli.main.self_ms")
        m["pms.trace_per_optimize"] = (traces_in_opt / max(calls["pms.pms_optimize"], 1),
                                       "ratio")
        m["pms.trace_scan.self_ms"] = (per_job_ms(["pms.trace_scan"]), "ms/job")
        m["oscbasis.h_bytes"] = (c["oscbasis.h_bytes"] / n_jobs, "B/job")
        m["eigen.pairs_computed"] = (c["eigen.pairs_computed"] / n_jobs, "pairs/job")
        m["eigen.useful_ratio"] = (c["eigen.pairs_used"] / max(c["eigen.pairs_computed"], 1),
                                   "ratio")
        m["spectrum.self_ms"] = (per_job_ms(["spectrum.solve_spectrum", "spectrum.solve_centered",
                                             "spectrum.convergence_study"]), "ms/job")
        for layer in ("spectrum", "evolve"):
            writers = prefixed(f"{layer}.write_")
            m[f"{layer}.write_ms"] = (1e3 * sum(total_s[n] for n in writers) / n_jobs, "ms/job")
            m[f"{layer}.bytes_written"] = (c[f"{layer}.bytes_written"] / n_jobs, "B/job")
        project = prefixed("evolve.project_")
        m["evolve.project.calls"] = (sum(calls[n] for n in project) / n_jobs, "calls/job")
        m["evolve.project.self_ms"] = (per_job_ms(project), "ms/job")
        for name in ("make_evolution", "observables_series", "wavefunction_at"):
            m[f"evolve.{name}.self_ms"] = (per_job_ms([f"evolve.{name}"]), "ms/job")
        m["evolve.mode_steps"] = (c["evolve.mode_steps"] / n_jobs, "mode-steps/job")
        # the T x K complex amplitude matrix observables_series builds
        m["evolve.z_bytes"] = (16 * c["evolve.mode_steps"] / n_jobs, "B/job")
        m["trace.spans"] = (len(self.spans) / n_jobs, "spans/job")
        return m
