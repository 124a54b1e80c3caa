"""Closed-loop benchmark runner for grothlab.

One caller, one process, one thread: the next task is submitted only after
the previous one returns.  Tasks call grothlab's public Python API; each
output is checked against an independent route outside the timed region,
and a task that raises or disagrees counts as failed without stopping the
run.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import itertools
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import workloads
from tracer import LAYER_METRICS, Tracer

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
SPANS_PATH = REPO / ".bench_build" / "spans.tsv"  # written by every traced run
MODULES = ("polynomial", "shapes", "tableaux", "symfunc", "vertex", "diffops", "lpp")
WORKLOADS = ("tableau_routes", "algebraic_routes", "lpp")
SETUP_REPEATS = 21
STREAM_PASSES = 1500  # pre-generated passes; a run that outlasts them starts over
# Seconds one pass of each workload takes untraced on the reference machine
# (see README.md).  A traced run measures a fixed number of passes, about
# TRACED_SHARE of --seconds of untraced work, so that its counts repeat
# exactly for a given seed and --seconds.
NOMINAL_PASS_S = {"tableau_routes": 0.68, "algebraic_routes": 1.1, "lpp": 0.78}
TRACED_SHARE = 0.2
END_TO_END = (
    ("setup_s", "s"),
    ("tasks_per_s", "1/s"),
    ("task_p50_ms", "ms"),
    ("task_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


class SourceMissing(RuntimeError):
    pass


def import_grothlab():
    """Import grothlab afresh from the checkout's src/ and return its modules."""
    if not (SRC / "grothlab" / "__init__.py").is_file():
        raise SourceMissing(f"no grothlab sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "grothlab" or n.startswith("grothlab.")]:
        del sys.modules[name]
    mods = SimpleNamespace(**{m: importlib.import_module(f"grothlab.{m}") for m in MODULES})
    if Path(mods.polynomial.__file__).resolve().parent != SRC / "grothlab":
        raise SourceMissing(f"grothlab imported from {mods.polynomial.__file__}, not {SRC}")
    return mods


def setup(workload, seed, passes=STREAM_PASSES):
    """Import grothlab, generate the seeded inputs and warm up.

    Returns (modules, task stream, seconds taken).
    """
    t0 = time.perf_counter()
    mods = import_grothlab()
    stream = workloads.task_stream(workload, seed, passes, mods)
    for spec in workloads.WARMUP[workload]:
        workloads.run_task(mods, spec)
    return mods, stream, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# running and checking
# ---------------------------------------------------------------------------


def canonical(value):
    """JSON-able canonical form of an exact output."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if hasattr(value, "to_json_obj"):
        return value.to_json_obj()
    if isinstance(value, dict):
        return {str(k): canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    return value


@dataclass
class RunResult:
    latencies: list = field(default_factory=list)  # seconds per attempted task
    ok: list = field(default_factory=list)  # per task: ran and passed its check
    output_hashes: list = field(default_factory=list)
    exact_digest: object = field(default_factory=hashlib.sha256)
    mc_digest: object = field(default_factory=hashlib.sha256)
    exact_tasks: int = 0
    mc_tasks: int = 0
    errors: list = field(default_factory=list)

    @property
    def attempted(self):
        return len(self.latencies)

    @property
    def failed(self):
        return self.ok.count(False)

    @property
    def timed_s(self):
        return sum(self.latencies)

    def digests(self):
        return {"exact": {"sha256": self.exact_digest.hexdigest(), "tasks": self.exact_tasks},
                "mc_hits": {"sha256": self.mc_digest.hexdigest(), "tasks": self.mc_tasks}}


def run_tasks(mods, specs, budget_s=None, check=True, tracer=None):
    """Run specs in a closed loop until they run out or the timed seconds
    reach budget_s.  With check, every output is compared, untimed, with its
    independent reference."""
    res = RunResult()
    timed = 0.0
    for spec in specs:
        if budget_s is not None and timed >= budget_s:
            break
        error = None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = workloads.run_task(mods, spec)
            else:
                out = tracer.call("bench.task", workloads.run_task, mods, spec)
        except Exception as exc:  # a failing task is counted, not fatal
            out, error = None, exc
        dt = time.perf_counter() - t0
        timed += dt
        res.latencies.append(dt)
        if error is None and check:
            try:
                if not workloads.agrees(spec, out, workloads.reference(mods, spec)):
                    error = "disagrees"
            except Exception as exc:
                error = exc
        if error is None:
            outcome = canonical(out)
        else:
            outcome = {"error": error if isinstance(error, str) else type(error).__name__}
        line = json.dumps([canonical(spec), outcome],
                          sort_keys=True, separators=(",", ":")).encode() + b"\n"
        res.output_hashes.append(hashlib.sha256(line).hexdigest())
        if spec[0] == "mc":
            res.mc_digest.update(line)
            res.mc_tasks += 1
        else:
            res.exact_digest.update(line)
            res.exact_tasks += 1
        res.ok.append(error is None)
        if error is not None and len(res.errors) < 5:
            res.errors.append(f"{spec!r}: {error!r}")
    return res


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------


def timed_run(workload, seed, seconds):
    """End-to-end metrics, tracing off."""
    setups = []
    for _ in range(SETUP_REPEATS):
        mods = stream = None
        gc.collect()  # free the last set-up's copy of the package, so that
        # peak_rss_mb does not depend on when the collector last ran
        mods, stream, setup_s = setup(workload, seed)
        setups.append(setup_s)
    res = run_tasks(mods, itertools.cycle(stream), budget_s=seconds)
    lat_ms = [1e3 * s for s in res.latencies]
    completed = res.attempted - res.failed
    metrics = {
        "setup_s": statistics.median(setups),
        "tasks_per_s": completed / res.timed_s,
        "task_p50_ms": statistics.median(lat_ms),
        "task_p90_ms": statistics.quantiles(lat_ms, n=10)[8] if len(lat_ms) > 1 else lat_ms[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    info = {"digests": res.digests(),
            "error_rate": {"value": res.failed / res.attempted, "unit": "ratio"},
            "tasks_beyond_p90": sum(1 for v in lat_ms if v > metrics["task_p90_ms"])}
    return res, {k: (metrics[k], unit) for k, unit in END_TO_END}, info


def traced_passes(workload, seconds):
    return max(1, round(seconds * TRACED_SHARE / NOMINAL_PASS_S[workload]))


def traced_run(workload, seed, seconds):
    """Per-layer metrics: the same fixed task list untraced, then traced.
    Every span is written to SPANS_PATH."""
    passes = traced_passes(workload, seconds)
    mods, stream, _ = setup(workload, seed, passes)
    base = run_tasks(mods, stream)
    tracer = Tracer()
    tracer.install(mods)
    try:
        traced = run_tasks(mods, stream, check=False, tracer=tracer)
    finally:
        tracer.uninstall()
    # a task fails if either pass fails it or tracing changed its output
    mismatched = sum(a != b for a, b in zip(base.output_hashes, traced.output_hashes))
    traced.ok = [a and b and ha == hb for a, b, ha, hb in
                 zip(base.ok, traced.ok, base.output_hashes, traced.output_hashes)]
    SPANS_PATH.parent.mkdir(exist_ok=True)
    tracer.write_spans(SPANS_PATH)
    values = tracer.metrics(base.timed_s, traced.timed_s)
    metrics = {name: (values[name], unit) for name, unit, _ in LAYER_METRICS}
    info = {"digests": base.digests(), "traced_digests": traced.digests(),
            "spans": tracer.span_count(), "spans_file": str(SPANS_PATH.relative_to(REPO)),
            "mismatched_outputs": mismatched}
    return traced, metrics, info


def result_line(res, metrics):
    return json.dumps({
        "correct": res.failed == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })
