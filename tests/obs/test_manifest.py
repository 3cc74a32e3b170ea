"""Tests for the run manifest and its provenance helpers."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro import obs
from repro.obs.manifest import (
    MANIFEST_SCHEMA_VERSION,
    git_sha,
    host_info,
    run_manifest,
    write_run_manifest,
)


def _benchmarks_reporting():
    sys.path.insert(0, str(Path(__file__).resolve().parents[2]))
    try:
        from benchmarks import reporting
    finally:
        sys.path.pop(0)
    return reporting


@pytest.fixture
def scratch_repo(tmp_path):
    """A one-commit git repository with one tracked file."""
    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    repo = tmp_path / "repo"
    repo.mkdir()

    def git(*args):
        subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@example.invalid",
             "-c", "commit.gpgsign=false", *args],
            cwd=repo, check=True, capture_output=True,
        )

    git("init", "-q")
    (repo / "tracked.txt").write_text("v1\n")
    git("add", "tracked.txt")
    git("commit", "-q", "-m", "init")
    return repo


class TestProvenance:
    def test_git_sha_shape(self):
        sha = git_sha()
        assert sha == "unknown" or re.fullmatch(r"[0-9a-f]{40}(-dirty)?", sha)

    def test_git_sha_outside_checkout(self, tmp_path):
        assert git_sha(cwd=tmp_path) == "unknown"

    def test_git_sha_marks_dirty_tree(self, scratch_repo):
        clean = git_sha(cwd=scratch_repo)
        assert re.fullmatch(r"[0-9a-f]{40}", clean)
        (scratch_repo / "untracked.txt").write_text("bench output\n")
        assert git_sha(cwd=scratch_repo) == clean
        (scratch_repo / "tracked.txt").write_text("v2\n")
        assert git_sha(cwd=scratch_repo) == f"{clean}-dirty"

    def test_dirty_run_appends_after_parent_record(self, scratch_repo, tmp_path):
        """A run on uncommitted changes must not overwrite the record of
        the commit it sits on."""
        reporting = _benchmarks_reporting()
        out = tmp_path / "trajectory"
        clean = {"bench": "x", "git_sha": git_sha(cwd=scratch_repo)}
        reporting.append_trajectory(clean, trajectory_dir=out)
        (scratch_repo / "tracked.txt").write_text("v2\n")
        dirty = {"bench": "x", "git_sha": git_sha(cwd=scratch_repo)}
        path = reporting.append_trajectory(dirty, trajectory_dir=out)
        history = json.loads(path.read_text())["trajectory"]
        assert [e["git_sha"] for e in history] == [
            clean["git_sha"],
            f"{clean['git_sha']}-dirty",
        ]

    def test_host_info_fields(self):
        info = host_info()
        assert {"hostname", "platform", "machine", "python", "cpu_count"} <= set(info)

    def test_benchmarks_reporting_reexports(self):
        reporting = _benchmarks_reporting()
        assert reporting.git_sha is git_sha
        assert reporting.host_info is host_info


class TestWorkerReports:
    def test_disabled_reports_are_dropped(self):
        obs.reset()
        obs.record_worker_report({"pid": 1})
        assert obs.worker_reports() == []

    def test_enabled_reports_accumulate(self, telemetry):
        obs.record_worker_report({"pid": 1, "n_steps": 3})
        obs.record_worker_report({"pid": 2, "n_steps": 4})
        reports = obs.worker_reports()
        assert [r["pid"] for r in reports] == [1, 2]

    def test_reports_are_copies(self, telemetry):
        obs.record_worker_report({"pid": 1})
        obs.worker_reports()[0]["pid"] = 99
        assert obs.worker_reports()[0]["pid"] == 1


class TestRunManifest:
    def test_contains_all_sections(self, telemetry):
        obs.counter("m.c").inc()
        with obs.span("m-phase"):
            pass
        obs.record_worker_report({"pid": 1})
        manifest = run_manifest(command="sweep", argv=["sweep"], workload={"sizes": [6]})
        assert manifest["schema"] == MANIFEST_SCHEMA_VERSION
        assert manifest["command"] == "sweep"
        assert manifest["metrics"]["m.c"]["value"] == 1.0
        assert "m-phase" in manifest["profile"]
        assert manifest["workers"][0]["pid"] == 1
        assert manifest["workload"]["sizes"] == [6]

    def test_workload_paths_coerced(self, telemetry):
        manifest = run_manifest(workload={"out": Path("/tmp/x"), "none": None})
        assert manifest["workload"]["out"] == "/tmp/x"
        assert manifest["workload"]["none"] is None

    def test_write_is_valid_json(self, telemetry, tmp_path):
        path = write_run_manifest(tmp_path / "sub" / "manifest.json", command="t")
        loaded = json.loads(path.read_text())
        assert loaded["command"] == "t"
        assert loaded["git_sha"] == git_sha()


class TestServeLatencyHistogram:
    """The streaming front end's latency histogram lands in the manifest
    with the full field set the serve-smoke CI check asserts."""

    def test_latency_fields_present(self, telemetry):
        from repro.serve.server import LATENCY_BUCKETS_S

        hist = obs.histogram("serve.latency_s", buckets=LATENCY_BUCKETS_S)
        for v in (2e-5, 4e-4, 1.2e-3, 0.05):
            hist.observe(v)
        obs.counter("serve.requests.submitted").inc(4)
        manifest = run_manifest(command="serve")
        entry = manifest["metrics"]["serve.latency_s"]
        assert entry["type"] == "histogram"
        assert entry["bounds"] == list(LATENCY_BUCKETS_S)
        assert len(entry["bucket_counts"]) == len(LATENCY_BUCKETS_S) + 1
        assert entry["count"] == 4
        assert entry["sum"] == pytest.approx(2e-5 + 4e-4 + 1.2e-3 + 0.05)
        assert entry["min"] == 2e-5 and entry["max"] == 0.05
        assert manifest["metrics"]["serve.requests.submitted"]["value"] == 4.0

    def test_quantiles_recoverable_from_manifest(self, telemetry):
        from repro.serve.server import LATENCY_BUCKETS_S

        hist = obs.histogram("serve.latency_s", buckets=LATENCY_BUCKETS_S)
        for v in (1e-4, 2e-4, 5e-4, 1e-3, 5e-3):
            hist.observe(v)
        assert hist.quantile(0.5) <= hist.quantile(0.99)
        manifest = run_manifest(command="serve")
        entry = manifest["metrics"]["serve.latency_s"]
        assert sum(entry["bucket_counts"]) == entry["count"] == 5
