"""Self-tests of the benchmark.  Run with

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import harness
import workloads
from tracer import LAYER_METRICS, Tracer


@pytest.fixture
def mods():
    # fresh per test: a traced run re-imports the package, and the tracer
    # rebinds names in the modules that sys.modules holds
    return harness.import_grothlab()


def _stream(mods, workload, seed, passes=1):
    return workloads.task_stream(workload, seed, passes, mods)


@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_same_seed_gives_same_inputs(mods, workload):
    assert _stream(mods, workload, 7, 3) == _stream(mods, workload, 7, 3)


@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_different_seed_gives_different_inputs(mods, workload):
    assert _stream(mods, workload, 7, 3) != _stream(mods, workload, 8, 3)


@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_outputs_pass_their_checks(mods, workload):
    res = harness.run_tasks(mods, _stream(mods, workload, 3))
    assert res.attempted > 0
    assert res.failed == 0, res.errors


def _wrong(ref):
    if isinstance(ref, tuple):
        return tuple(_wrong(r) for r in ref)
    if ref is True:
        return False
    if isinstance(ref, Fraction):
        return (ref + 1) / 2
    return ref + 1


@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_wrong_reference_is_caught(mods, workload, monkeypatch):
    """Negative control: the oracle bites when a reference is wrong."""
    right = workloads.reference
    monkeypatch.setattr(workloads, "reference",
                        lambda m, spec: _wrong(right(m, spec)))
    specs = _stream(mods, workload, 3)
    res = harness.run_tasks(mods, specs)
    assert res.failed == res.attempted == len(specs)


@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_tracing_leaves_outputs_unchanged(mods, workload):
    specs = _stream(mods, workload, 5)
    plain = harness.run_tasks(mods, specs)
    tracer = Tracer()
    tracer.install(mods)
    try:
        traced = harness.run_tasks(mods, specs, check=False, tracer=tracer)
    finally:
        tracer.uninstall()
    assert traced.failed == 0
    assert traced.output_hashes == plain.output_hashes
    assert traced.digests() == plain.digests()
    assert tracer.span_count() > 0
    metrics = tracer.metrics(plain.timed_s, traced.timed_s)
    assert list(metrics) == [name for name, _, _ in LAYER_METRICS]
    assert metrics["trace_overhead_ratio"] > 0


def test_traced_run_writes_its_spans():
    res, metrics, info = harness.traced_run("lpp", 3, 1)
    assert res.failed == 0 and info["mismatched_outputs"] == 0
    assert info["digests"] == info["traced_digests"]
    header, first, *rest = harness.SPANS_PATH.read_text().splitlines()
    assert header.split("\t") == ["index", "parent", "name", "start_ns", "end_ns"]
    index, parent, name, start, end = first.split("\t")
    assert (index, parent, name) == ("0", "-1", "bench.task")
    assert int(start) <= int(end)
    assert len(rest) + 1 == info["spans"]


def test_uninstall_restores_the_package(mods):
    before = {name: dict(vars(getattr(mods, name))) for name in harness.MODULES}
    mul = mods.polynomial.Polynomial.__mul__
    tracer = Tracer()
    tracer.install(mods)
    assert mods.symfunc.determinant is not before["symfunc"]["determinant"]
    tracer.uninstall()
    assert {name: dict(vars(getattr(mods, name))) for name in harness.MODULES} == before
    assert mods.polynomial.Polynomial.__mul__ is mul


def _counts(mods, specs):
    tracer = Tracer()
    tracer.install(mods)
    try:
        harness.run_tasks(mods, specs, check=False, tracer=tracer)
    finally:
        tracer.uninstall()
    values = tracer.metrics(1.0, 1.0)
    return {name: values[name] for name, unit, _ in LAYER_METRICS if unit == "count"}


def test_counts_repeat_exactly(mods):
    specs = _stream(mods, "tableau_routes", 9)
    first = _counts(mods, specs)
    assert first["tableaux.objects"] > 0
    assert first["polynomial.mul.small_calls"] > 0
    assert _counts(mods, specs) == first


def test_nested_calls_are_seen(mods):
    """determinant and hk are reached through symfunc's own imports."""
    counts = _counts(mods, [("g", (3, 2, 2), 5), ("G", (2, 1), 3)])
    assert counts["polynomial.determinant.calls"] > 0
    assert counts["polynomial.hk_ek.calls"] > 0
    assert counts["polynomial.mul.large_calls"] > 0


def test_monte_carlo_catalogue_within_four_sigma(mods):
    """Every Monte Carlo task a run can draw passes its check."""
    specs = [("mc", *entry) for entry in workloads.mc_catalogue(mods)]
    res = harness.run_tasks(mods, specs)
    assert res.failed == 0, res.errors


def test_without_sources_it_fails_without_a_result(tmp_path):
    root = Path(__file__).resolve().parent.parent
    shutil.copytree(root / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(root / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    cmd = json.loads((root / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(cmd + ["--workload", "lpp", "--seed", "1", "--seconds", "1",
                                 "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
