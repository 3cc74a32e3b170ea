"""Self-test of the benchmark on the small-size mode of each workload.

Run from the repository root::

    python3 -m pytest perfbench -q

Each workload runs once untraced and once traced at ``--size small``
(a two-hour ephemeris and a few dozen requests). The tests assert that
every metric named in ``BENCHMARK.json`` prints with its unit, that the
traced run writes spans whose parent links are valid, and that the
benchmark fails cleanly when the program's sources are absent.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SERVING_LAYERS = {
    "orbits",
    "engine.linkstate",
    "routing",
    "network.simulator",
    "serve.engine",
    "serve.server",
}
EXPECTED_LAYERS = {
    "hour-hot": SERVING_LAYERS,
    "day-cold": SERVING_LAYERS | {"engine.budgets"},
    "rescue-ops": SERVING_LAYERS | {"faults", "engine.budgets"},
    "paper-sweep": {"orbits", "engine.budgets", "core.analysis"},
}


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable,
            str(cwd / "perfbench" / "run.py"),
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "0",
            "--trace",
            str(trace),
            "--size",
            "small",
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def _result(proc: subprocess.CompletedProcess) -> tuple[list[str], dict]:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return lines, result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_prints_with_its_unit(workload):
    lines, result = _result(_run(workload, 0))
    assert set(result["metrics"]) == {e["name"] for e in SPEC["end_to_end"]}
    for entry in SPEC["end_to_end"]:
        assert result["metrics"][entry["name"]]["unit"] == entry["unit"]
        printed = [line.split() for line in lines if line.split()[:1] == [entry["name"]]]
        assert printed and entry["unit"] in printed[0], entry["name"]
    assert any(line.startswith("samples ") and "latency_samples=" in line for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_writes_spans_with_valid_parent_links(workload):
    _, result = _result(_run(workload, 1))
    assert set(result["metrics"]) == {e["name"] for e in SPEC["per_layer"]}
    path = HERE / "out" / f"spans-{workload}-s7.jsonl"
    spans = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    assert len(spans) == result["metrics"]["trace.spans"]["value"]
    by_id = {span["id"]: span for span in spans}
    assert len(by_id) == len(spans)
    for span in spans:
        assert span["start_ns"] <= span["end_ns"]
        if span["parent"] is None:
            continue
        parent = by_id[span["parent"]]
        assert parent["start_ns"] <= span["start_ns"] <= span["end_ns"] <= parent["end_ns"]
        assert parent["req"] == span["req"]
    assert EXPECTED_LAYERS[workload] <= {span["layer"] for span in spans}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("hour-hot", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
