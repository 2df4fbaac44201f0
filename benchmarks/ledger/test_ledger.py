"""Smoke test of the planner ledger (tiny inputs, a 5 s daemon window).

Run with ``PYTHONPATH=src python -m pytest benchmarks/ledger -q``; it is
outside the tier-1 ``testpaths`` because it starts plan servers.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = HERE / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: a span name per layer of the per-layer table
LAYER_SPANS = (
    "planner.manager.run",
    "planner.pass.validate",
    "planner.pass.cache_load",
    "planner.pass.atomic_partition",
    "planner.pass.coarsen",
    "planner.pass.profile_tensors",
    "planner.pass.stage_search",
    "planner.pass.allocate",
    "planner.pass.evaluate",
    "planner.pass.verify",
    "planner.pass.cache_store",
    "stage_dp.call",
    "store.get",
    "store.put",
    "store.refresh",
    "service.normalize",
    "service.handle",
)


def _run(*args, script=RUN):
    return subprocess.run([sys.executable, str(script), *args],
                          cwd=script.parents[2], capture_output=True,
                          text=True, timeout=600)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """Every workload untraced, then traced, in one ``--smoke`` run."""
    tmp = tmp_path_factory.mktemp("ledger")
    out, trace = tmp / "results.json", tmp / "trace.json"
    proc = _run("--smoke", "--seed", "3", "--out", str(out),
                "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout, json.loads(out.read_text()), json.loads(
        trace.read_text())


def test_every_declared_metric_is_printed_with_its_unit(smoke):
    stdout, doc, _ = smoke
    for workload in WORKLOADS:
        for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
            line = (rf"^{workload}\s+{re.escape(metric['name'])}\s+"
                    rf"-?\d+\.\d+ {re.escape(metric['unit'])}$")
            assert re.search(line, stdout, re.M), (workload, metric["name"])
        entry = doc["workloads"][workload]
        assert entry["failed"] == [0]
        assert "trace_overhead_frac" in entry
        assert set(entry["per_layer"]) == {m["name"]
                                           for m in SPEC["per_layer"]}


def test_trace_is_chrome_json_with_a_span_per_layer(smoke):
    _, _, trace = smoke
    spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    for event in spans:
        assert {"name", "ts", "dur", "pid", "tid", "args"} <= set(event)
        assert event["dur"] >= 0
    names = {e["name"] for e in spans}
    assert set(LAYER_SPANS) <= names, set(LAYER_SPANS) - names
    processes = {e["args"]["name"] for e in trace["traceEvents"]
                 if e["ph"] == "M"}
    assert "daemon-mixed/server" in processes


def test_one_workload_ends_with_the_json_result_line():
    proc = _run("--smoke", "--workload", "gpt10k-cold", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == 3
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_a_corrupted_pinned_plan_fails_the_run(tmp_path):
    pinned = json.loads((ROOT / "tests" / "data" /
                         "pinned_plans.json").read_text())
    pinned["bert-base/v100x8"]["num_microbatches"] += 1
    path = tmp_path / "pinned.json"
    path.write_text(json.dumps(pinned))
    proc = _run("--smoke", "--workload", "paper-cold", "--pinned", str(path))
    assert proc.returncode != 0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] == 1


def test_outside_a_checkout_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "ledger",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "paper-cold", "--seed", "1", "--seconds", "1",
                "--trace", "0",
                script=tmp_path / "benchmarks" / "ledger" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""
