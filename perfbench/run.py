"""QNTN repository benchmark: one workload, end-to-end or traced.

Usage (from the repository root)::

    python3 perfbench/run.py --workload hour-hot --seed 7 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
splits the workload's time across layers (see ``layers.py``) and
reports the per-layer metrics plus the tracing overhead. Metric names,
units and directions come from ``BENCHMARK.json``. A run measures whole
passes over the workload's inputs: it starts passes until ``--seconds``
is used up, and always runs at least one. Correctness checks run after
the timed passes; any failure makes the run exit with code 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A record with
host context (CPU, nproc, Python, numpy, code identity and a
calibration loop) is written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
#: Set-ups timed per run (the median is reported).
MIN_SETUPS = 3
#: Latency samples per percentile block (each pass is split into blocks
#: of at least this many; a serving pass is one block).
LATENCY_BLOCK = 20_000


def host_context() -> dict:
    """What a record needs to be compared like-for-like with another."""
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
        git_sha = sha.stdout.strip() if sha.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        git_sha = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    host = {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    host["host_key"] = hashlib.sha256(json.dumps(host, sort_keys=True).encode()).hexdigest()[:16]
    host["git_sha"] = git_sha
    host["src_sha256"] = digest.hexdigest()
    host["calibration_ns_per_op"] = calibrate()
    return host


def calibrate(n: int = 200_000, repeats: int = 5) -> float:
    """Median ns per iteration of a fixed pure-Python loop."""
    per_op = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        acc = 0
        for i in range(n):
            acc += i * i
        per_op.append((time.perf_counter_ns() - t0) / n)
    return statistics.median(per_op)


def measure(workload, requests, seconds: float, tracer=None):
    """Set up and run passes until ``seconds`` are used (at least one pass).

    Returns ``(setup_times, passes, layer_runs)``; ``layer_runs`` holds
    one :func:`layers.layer_metrics` result per traced pass.
    """
    import layers

    setups: list[float] = []
    passes = []
    layer_runs = []
    t_start = time.perf_counter()
    with workload.running():
        while True:
            t_iter = time.perf_counter()
            if tracer is not None:
                tracer.start_pass()
                with tracer.installed():
                    t0 = time.perf_counter()
                    state = workload.setup(requests)
                    setups.append(time.perf_counter() - t0)
                    tracer.phase = "pass"
                    result = workload.run_pass(state, requests, tracer)
                run = layers.layer_metrics(tracer, pass_wall_s=result.wall_s, report=result.report)
                layer_runs.append(run)
                if len(layer_runs) == 1:
                    run["cross_checks"] = cross_checks(
                        run["metrics"], tracer.caches, workload, requests, result
                    )
                    OUT.mkdir(exist_ok=True)
                    path = OUT / f"spans-{workload.name}-s{workload.seed}.jsonl"
                    run["spans_written"] = tracer.write(path)
                tracer.start_pass()  # release the pass' caches before the next one
            else:
                t0 = time.perf_counter()
                state = workload.setup(requests)
                setups.append(time.perf_counter() - t0)
                result = workload.run_pass(state, requests)
            passes.append(result)
            del state
            gc.collect()
            now = time.perf_counter()
            if now - t_start + (now - t_iter) > seconds:
                break
        while len(setups) < MIN_SETUPS:
            t0 = time.perf_counter()
            state = workload.setup(requests)
            setups.append(time.perf_counter() - t0)
            del state
            gc.collect()
    return setups, passes, layer_runs


def cross_checks(metrics: dict, caches, workload, requests, result) -> list[str]:
    """A traced pass' counts against the program's own counters and outcomes."""
    failures = []
    if workload.serving:
        builds = sum(cache.n_tree_builds for cache in caches)
        if metrics["routing.tree_builds"] != builds:
            failures.append(f"routing.tree_builds {metrics['routing.tree_builds']} != {builds}")
        if metrics["engine.calls"] != len(requests):
            failures.append(f"engine.calls {metrics['engine.calls']} != {len(requests)}")
        purified = sum(o.purified for o in result.report.outcomes)
        if metrics["routing.rescued"] != purified:
            failures.append(f"routing.rescued {metrics['routing.rescued']} != {purified}")
    else:
        # sizes x steps batches, plus the set-up's first batch
        expected = len(result.sweep.points) * workload.size.sweep_steps + 1
        if metrics["analysis.serve_calls"] != expected:
            failures.append(f"analysis.serve_calls {metrics['analysis.serve_calls']} != {expected}")
    return failures


def end_to_end(workload, setups, passes) -> tuple[dict, dict]:
    """End-to-end metric values and their sample counts."""
    import numpy as np

    # Percentiles per block of consecutive samples, averaged over the
    # blocks: the host's speed drifts within a run, and a percentile
    # pooled over everything jumps between the fast and slow levels as
    # their shares cross one half.
    blocks = [
        block
        for p in passes
        for block in np.array_split(p.latencies_us, max(1, p.latencies_us.size // LATENCY_BLOCK))
    ]
    per_block = [np.percentile(block, [50.0, 99.0]) for block in blocks]
    p50 = float(np.mean([q[0] for q in per_block]))
    p99 = float(np.mean([q[1] for q in per_block]))
    first = passes[0]
    attempted = sum(p.n_requests for p in passes)
    errors = sum(p.n_errors for p in passes)
    values = {
        "setup_s": statistics.median(setups),
        "throughput_rps": statistics.median(p.n_requests / p.wall_s for p in passes),
        "latency_p50_us": p50,
        "latency_p99_us": p99,
        "sweep_s": statistics.median(p.wall_s for p in passes),
        "served_frac": first.served_frac,
        "mean_fidelity": float(np.mean(first.fidelities)) if first.fidelities else 0.0,
        "coverage_frac": workload.coverage(passes),
        "ok_frac": 1.0 - errors / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {
        "setups": len(setups),
        "passes": len(passes),
        "requests_per_pass": first.n_requests,
        "latency_samples": sum(p.latencies_us.size for p in passes),
        "latency_blocks": len(blocks),
        "latency_beyond_p99_per_block": min(
            int(np.count_nonzero(block > q[1])) for block, q in zip(blocks, per_block)
        ),
    }
    return values, samples


def per_layer(layer_runs, base_wall_s: float, traced_walls: list[float]) -> tuple[dict, dict]:
    """Median per-layer metrics over traced passes, plus the first pass' layer shares."""
    names = layer_runs[0]["metrics"]
    values = {
        name: statistics.median(run["metrics"][name] for run in layer_runs) for name in names
    }
    values["trace.overhead_ratio"] = statistics.median(traced_walls) / base_wall_s
    values["trace.spans"] = layer_runs[0]["spans_written"]
    shares = {
        layer: self_s / traced_walls[0]
        for layer, self_s in sorted(layer_runs[0]["layer_self_s"].items())
    }
    shares["(unattributed)"] = 1.0 - sum(shares.values())
    return values, shares


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir() or not spec_path.is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))

    from repro.engine.store import set_default_store

    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    set_default_store(None)  # artifact store off: every run computes from scratch
    host = host_context()
    workload = workloads.WORKLOADS[args.workload](workloads.SIZES[args.size], args.seed)
    requests = workload.requests()
    print(f"workload {workload.name} ({args.size}), seed {args.seed}, trace {args.trace}")
    print(f"host {json.dumps(host)}")

    if args.trace:
        from layers import Tracer

        _, base, _ = measure(workload, requests, 0.0)
        setups, passes, layer_runs = measure(workload, requests, args.seconds, Tracer())
        values, shares = per_layer(layer_runs, base[0].wall_s, [p.wall_s for p in passes])
        failures = layer_runs[0]["cross_checks"] + workload.check(requests, passes + base)
        samples = {"traced_passes": len(passes), "spans": values["trace.spans"]}
        print("layer self-time share of the first traced pass:")
        for layer, share in shares.items():
            print(f"  {layer:<20} {share:7.1%}")
    else:
        setups, passes, _ = measure(workload, requests, args.seconds)
        values, samples = end_to_end(workload, setups, passes)
        failures = workload.check(requests, passes)
        shares = None
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    print("samples " + ", ".join(f"{k}={v}" for k, v in samples.items()))

    metrics = {}
    for entry in wanted:
        name, unit = entry["name"], entry["unit"]
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"  {name:<28} {values[name]:>16.6g} {unit:<8} ({entry['better']} is better)")
    attempted = sum(p.n_requests for p in passes)
    failed = sum(p.n_errors for p in passes) + len(failures)
    correct = not failures and failed == 0
    OUT.mkdir(exist_ok=True)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "size": args.size,
        "seconds": args.seconds,
        "host": host,
        "samples": samples,
        "failures": failures,
        "metrics": metrics,
        "layer_shares": shares,
    }
    record_path = OUT / f"{workload.name}-s{args.seed}-t{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
