"""Smoke of the benchmark suite itself (not part of tier-1).

    python -m pytest benchmarks/suite -q

Tiny unit counts: this checks names, shapes and oracles, not speeds.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.suite import adapter, driver, metrics, tracing
from benchmarks.suite.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
RUN = [sys.executable, "benchmarks/suite/run.py"]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
GATED = [m.name for m in metrics.END_TO_END if m.gated]
LAYERED = [m.name for m in metrics.END_TO_END if not m.gated] + [
    m.name for m in metrics.PER_LAYER]


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([*RUN, *args], cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=170)


def _last_json(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


def _values(result: dict) -> dict[str, float]:
    return {n: m["value"] for n, m in result["metrics"].items()}


@pytest.fixture(scope="module")
def traced():
    """``--trace 1`` result per workload, measured once on first use."""
    cache: dict[str, dict] = {}

    def get(name: str) -> dict:
        if name not in cache:
            cache[name] = _last_json(_run(
                "--workload", name, "--seed", "11", "--units", "3",
                "--trace", "1"))
        return cache[name]

    return get


def test_benchmark_json_is_the_tables():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert declared == metrics.benchmark_json(driver.RUN_SECONDS)
    assert set(declared) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    names = [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    names += [w["name"] for w in declared["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(UNIT.fullmatch(m["unit"])
               for m in declared["end_to_end"] + declared["per_layer"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in declared["workloads"])
    assert 2 <= len(declared["workloads"]) <= 8
    assert 1 <= len(declared["end_to_end"]) <= 16
    assert 1 <= len(declared["per_layer"]) <= 128
    assert all(0 < m["bound"] <= 0.25 for m in declared["end_to_end"])
    setup = [m for m in declared["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"]
                                   for m in declared["end_to_end"])}]


def test_thirteen_end_to_end_names_with_applicability():
    assert len(metrics.END_TO_END) == 13
    for metric in metrics.END_TO_END:
        assert set(metric.workloads) <= set(WORKLOADS)
        assert metric.bound is not None
    assert all(m.workloads == metrics.ALL for m in metrics.END_TO_END
               if m.gated)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_untraced_run_emits_the_gated_metrics(name):
    result = _last_json(_run("--workload", name, "--seed", "11",
                             "--units", "3", "--trace", "0"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == GATED
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_emits_every_layer_metric_once(name, traced):
    result = traced(name)
    assert result["correct"] is True and result["failed"] == 0
    assert sorted(result["metrics"]) == sorted(LAYERED)
    assert all(NAME.fullmatch(n) for n in result["metrics"])
    values = _values(result)
    assert "host.unattributed_share" in values
    assert values["host.unattributed_share"] <= 0.10
    assert values["host.trace_overhead_ratio"] > 0
    assert values["failed_ops_share"] == 0
    for metric in metrics.END_TO_END:
        if not metric.gated and name not in metric.workloads:
            assert values[metric.name] == 0, metric.name


def test_layers_separate_as_predicted(traced):
    batched = _values(traced("farm_batched"))
    per_task = _values(traced("farm_per_task"))
    space = _values(traced("space_mixed"))
    for farm in (batched, per_task):
        for name, value in farm.items():
            if name.startswith(("tuplespace.wal.", "tuplespace.durable.",
                                "tuplespace.sharding.", "snmp.")):
                assert value == 0, name
    assert space["sim.handoffs_per_op"] == 0
    assert space["net.messages_per_op"] == 0
    assert space["snmp.self_us_per_op"] == 0
    assert per_task["net.messages_per_op"] >= 20 * batched[
        "net.messages_per_op"] > 0
    assert _values(traced("paper_eval"))["snmp.pdus_per_virtual_s"] > 0
    for name in WORKLOADS:
        if name != "paper_eval":
            assert _values(traced(name))["snmp.pdus_per_virtual_s"] == 0


def test_traced_run_writes_span_records(traced):
    traced("farm_batched")
    written = json.loads(
        (driver.OUT_DIR / "spans_farm_batched.json").read_text())
    assert written["columns"] == list(tracing.Tracer.RECORD_COLUMNS)
    assert written["columns"][:5] == ["id", "parent", "name", "layer", "unit"]
    spans = written["spans"]
    assert spans and all(len(s) == len(written["columns"]) for s in spans)
    assert {s[4] for s in spans} <= {0, 1, 2}


def test_broken_oracle_fails_the_run():
    done = _run("--workload", "farm_batched", "--seed", "11", "--units", "3",
                "--break-oracle")
    assert done.returncode != 0
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] > 0
    assert "FAILED CHECK" in done.stdout


def test_make_config_omits_fields_the_program_dropped(capsys):
    config, omitted = adapter.make_config(worker_prefetch=6,
                                          knob_deleted_by_roadmap=1)
    assert omitted == ["knob_deleted_by_roadmap"]
    assert config.worker_prefetch == 6
    assert "knob_deleted_by_roadmap" in capsys.readouterr().err


def test_unresolved_boundary_is_listed_not_guessed(monkeypatch):
    assert adapter.resolve("repro.sim.kernel:SimKernel.renamed_away") is None
    assert adapter.resolve("repro.no_such_module:thing") is None
    monkeypatch.setattr(tracing, "BOUNDARIES", [
        tracing.Boundary("repro.sim.kernel:SimKernel.renamed_away"),
        tracing.Boundary("repro.sim.kernel:SimKernel.sleep")])
    monkeypatch.setattr(tracing, "CENSUS", [])
    tracer = tracing.Tracer()
    tracer.install(adapter)
    try:
        assert tracer.untraced == ["repro.sim.kernel:SimKernel.renamed_away"]
    finally:
        tracer.uninstall()
    kernel_sleep = adapter.resolve("repro.sim.kernel:SimKernel.sleep")[2]
    assert not hasattr(kernel_sleep, "__wrapped__")


def test_the_suite_imports_the_program_only_through_the_adapter():
    pattern = re.compile(r"^\s*(from|import)\s+(repro|tests|benchmarks\.run_micro)\b",
                         re.MULTILINE)
    for path in Path(driver.SUITE_DIR).glob("*.py"):
        if path.name != "adapter.py":
            assert not pattern.search(path.read_text()), path.name
    assert not re.search(r"^\s*(from|import)\s+(tests|benchmarks\.run_micro)\b",
                         (driver.SUITE_DIR / "adapter.py").read_text(),
                         re.MULTILINE)


def test_fails_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the suite, the
    command exits non-zero and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(driver.SUITE_DIR, tmp_path / "benchmarks" / "suite",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run("--workload", "farm_batched", "--seed", "1", "--seconds",
                "10", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
