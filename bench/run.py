"""The calibra benchmark: end-to-end and per-layer figures for `run_eval`.

Usage (from the repository root):

    python3 bench/run.py --workload cold_cache --seed 1 --seconds 30 --trace 0

Set-up generates the workload's inputs from the seed, makes a plain
reference run of them (worker_count=1, no cache, no delay) and, for
warm_cache, fills the cache file. It then starts `bench/worker.py`, a fresh
process that repeats the measured run until `--seconds` have passed. Each
repeat's report must equal the reference byte for byte, and its backend
call count must equal the README contract minus cache hits.

With `--trace 0` the last stdout line carries the end-to-end metrics:
medians over the repeats, and the worker process's peak memory. With
`--trace 1` it carries the per-layer metrics of traced repeats, which
alternate with untraced ones to measure the tracing overhead. The command
exits 1 if any output check failed and 2 if the sources are missing.

End-to-end times are in reference-host seconds. On a shared virtual
machine the speed of a vCPU drifts by a quarter or more within minutes,
which swamps any code change. So the worker times a fixed pure-Python loop
(`worker.host_probe`) between repeats, and CPU seconds are rescaled by
PROBE_REFERENCE_S / probe time: all of `setup_s`, and in `evals_per_s`
and `cpu_s` the CPU seconds of the thread that called `run_eval`. Waiting
and pool threads are counted as measured. The unscaled medians are printed
on the "as measured:" line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from typing import Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
REQUIRED = (ROOT / "src" / "calibra" / "harness.py", ROOT / "tests" / "conftest.py")

sys.path.insert(0, str(BENCH))

from workload import METHODS, STRATEGIES, generate  # noqa: E402


@dataclass(frozen=True)
class Workload:
    n_items: int
    cache: Optional[str]  # None, "cold" (no file) or "warm" (pre-filled file)
    emit: bool  # set out_dir, so reports and transcripts are written
    latency: bool  # wrap the backend in LatencyBackend and use nproc workers


WORKLOADS = {
    # Cache appends and report emission do most of the work.
    "cold_cache": Workload(n_items=250, cache="cold", emit=True, latency=False),
    # Same inputs; every request hits the cache, so cache load and lookup
    # and the CPU layers do the work.
    "warm_cache": Workload(n_items=250, cache="warm", emit=True, latency=False),
    # No cache, no emission; waiting on the backend dominates. Fewer items,
    # because every backend call sleeps a few milliseconds.
    "latency_bound": Workload(n_items=200, cache=None, emit=False, latency=True),
}

END_TO_END = {"evals_per_s": "1/s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "backend.cache.put.count": "count",
    "backend.cache.put.busy_s": "s",
    "backend.cache.bytes": "B",
    "backend.cache.load_s": "s",
    "backend.cache.loaded": "count",
    "backend.cache.get.count": "count",
    "backend.cache.get.busy_s": "s",
    "backend.cache.hit_ratio": "frac",
    "backend.complete.count": "count",
    "backend.complete.self_s": "s",
    "backend.call.count": "count",
    "backend.call.busy_s": "s",
    "backend.call.delay_s": "s",
    "backend.requests.dup_share": "frac",
    "harness.pool.busy_share": "frac",
    "strategies.plan.count": "count",
    "strategies.plan.busy_s": "s",
    "strategies.render.count": "count",
    "strategies.render.busy_s": "s",
    "strategies.render.chars": "chars",
    "strategies.execute.count": "count",
    "strategies.execute.self_s": "s",
    **{f"strategies.calls_per_eval.{sid}": "calls/eval" for sid in STRATEGIES},
    **{
        f"confidence.{m}.{k}": unit
        for m in METHODS
        for k, unit in (("count", "count"), ("self_s", "s"))
    },
    "confidence.failures": "count",
    "qa.extract.count": "count",
    "qa.extract.busy_s": "s",
    "qa.exact_match.busy_s": "s",
    "concern.detect.count": "count",
    "concern.detect.busy_s": "s",
    "metrics.summarize.count": "count",
    "metrics.summarize.busy_s": "s",
    "metrics.curve.kde.busy_s": "s",
    "metrics.curve.histogram.busy_s": "s",
    "metrics.wins.busy_s": "s",
    "metrics.share_of_run": "frac",
    "harness.load_dataset.busy_s": "s",
    "harness.evaluate.wall_s": "s",
    "harness.aggregate.wall_s": "s",
    "harness.emit.busy_s": "s",
    "harness.emit.bytes": "B",
    "harness.run_eval.wall_s": "s",
    "trace.unaccounted_frac": "frac",
    "trace.overhead_frac": "frac",
}

MIN_REPEATS = 3
# A typical `worker.host_probe` time on a 2.1 GHz Xeon vCPU. Any fixed value
# works: it only sets the unit of the reference-host second.
PROBE_REFERENCE_S = 0.004
DEADLINE_S = 170.0  # the command must finish within 180 s


def _config(inputs: Path) -> dict:
    """The run settings every repeat and the reference share."""
    return {
        "dataset": str(inputs / "dataset.jsonl"),
        "script": str(inputs / "script.json"),
        "strategies": list(STRATEGIES),
        "methods": list(METHODS),
    }


def _run_in_process(spec: dict, cache_path: Optional[str] = None):
    from calibra.harness import RunConfig, run_eval

    config = RunConfig(
        dataset_path=[spec["dataset"]],
        strategy_ids=spec["strategies"],
        extraction_method_ids=spec["methods"],
        backend={"kind": "mock", "script_path": spec["script"]},
        worker_count=1,
        cache_path=cache_path,
    )
    return run_eval(config)


def _reference_problems(report, props: dict) -> list[str]:
    """Check the reference report against the generator's ground truth."""
    problems = []
    (block,) = report.datasets
    if block["n_items"] != props["n_items"]:
        problems.append(f"reference has {block['n_items']} items, expected {props['n_items']}")
    for sid in STRATEGIES:
        got = block["strategies"][sid]
        if got["accuracy"] != props["accuracy"][sid]:
            problems.append(f"{sid}: accuracy {got['accuracy']} != {props['accuracy'][sid]}")
        if got["concern_rate"] != props["concern_share"][sid]:
            problems.append(
                f"{sid}: concern_rate {got['concern_rate']} != {props['concern_share'][sid]}"
            )
    return problems


def _run_worker(spec: dict, timeout: float) -> tuple[Optional[dict], Optional[str]]:
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), json.dumps(spec)],
            capture_output=True, text=True, timeout=timeout, cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        return None, f"worker timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        return None, f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), None
    except (ValueError, IndexError):
        return None, f"worker printed no result: {proc.stdout[-500:]!r}"


def _check(result: dict, expect: dict) -> list[str]:
    problems = []
    if result["report_sha256"] != expect["report_sha256"]:
        problems.append("report body differs from the reference run")
    if result["report_file_matches"] is False:
        problems.append("report.json differs from the report body")
    if result["backend_calls"] != expect["backend_calls"]:
        problems.append(
            f"backend calls {result['backend_calls']} != contract {expect['backend_calls']}"
        )
    layers = result.get("layers")
    if layers:
        for sid in STRATEGIES:
            got = layers[f"strategies.calls_per_eval.{sid}"]
            if got != expect["calls_per_eval"][sid]:
                problems.append(f"{sid}: {got} requests per evaluation, contract says "
                                f"{expect['calls_per_eval'][sid]}")
        if abs(layers["backend.requests.dup_share"] - expect["dup_share"]) > 1e-12:
            problems.append(f"dup_share {layers['backend.requests.dup_share']} != "
                            f"{expect['dup_share']}")
    return problems


def _speed(rep: dict) -> float:
    """Host speed during a repeat, relative to the reference host (1.0 there)."""
    return PROBE_REFERENCE_S / rep["probe_s"]


def _rescaled(seconds: float, rep: dict) -> float:
    """`seconds` with the calling thread's CPU seconds counted at reference speed.

    The probe runs on the calling thread, so its speed is known; pool
    threads may run on another vCPU and are counted as measured.
    """
    return seconds + rep["main_cpu_s"] * (_speed(rep) - 1.0)


def _emit(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> None:
    for name, value in metrics.items():
        print(f"{name:40s} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))


def run(workload_name: str, seed: int, seconds: float, trace: bool, work: Path) -> int:
    started = time.monotonic()
    workload = WORKLOADS[workload_name]
    inputs = work / "inputs"
    props = generate(seed, workload.n_items, inputs)
    print("workload properties:", json.dumps(props, sort_keys=True))
    base = _config(inputs)

    reference = _run_in_process(base)
    problems = _reference_problems(reference, props)
    expect = {
        "report_sha256": hashlib.sha256(reference.to_json().encode("utf-8")).hexdigest(),
        "calls_per_eval": props["calls_per_eval"],
        "dup_share": props["dup_share"],
        "backend_calls": {
            None: props["requests"],
            "cold": props["distinct_requests"],
            "warm": 0,
        }[workload.cache],
    }
    warm_template = work / "warm_cache.jsonl"
    if workload.cache == "warm":
        _run_in_process(base, cache_path=str(warm_template))
    spec = {
        **base,
        "src": str(ROOT / "src"),
        "work": str(work / "repeats"),
        "cache": workload.cache,
        "warm_template": str(warm_template),
        "emit": workload.emit,
        "latency": workload.latency,
        "worker_count": len(os.sched_getaffinity(0)) if workload.latency else 1,
        "seconds": seconds,
        "min_repeats": 2 * MIN_REPEATS if trace else MIN_REPEATS,
        "trace": trace,
        "spans_path": str(WORK / f"{workload_name}.spans.jsonl"),
    }
    timeout = DEADLINE_S - (time.monotonic() - started)
    result, error = _run_worker(spec, timeout)
    repeats = result["repeats"] if result else []
    failed = 0
    for rep in repeats:
        rep_problems = problems + _check(rep, expect)
        if rep_problems:
            failed += 1
            print(f"repeat failed: {'; '.join(rep_problems)}", file=sys.stderr)
    if error:
        print(error, file=sys.stderr)

    evals = props["evals"]
    # A worker that died took all its repeats with it: count them as failed.
    attempted = max(len(repeats), 1) * evals
    failed = attempted if error else failed * evals
    correct = failed == 0
    untraced = [r for r in repeats if not r["traced"]]
    metrics: dict = {}
    if trace:
        from layers import combine

        if not error:
            metrics, unstable = combine([r["layers"] for r in repeats if r["traced"]])
            if unstable:
                correct = False
                print(f"counts differ between traced runs: {unstable}", file=sys.stderr)
            metrics["trace.overhead_frac"] = (
                metrics["harness.run_eval.wall_s"] / median(r["wall_s"] for r in untraced) - 1.0
            )
            metrics = {name: metrics[name] for name in PER_LAYER}
        _emit(correct, attempted, failed, metrics, PER_LAYER)
    else:
        if not error:
            raw = {
                "evals_per_s": median(evals / r["wall_s"] for r in untraced),
                "cpu_s": median(r["cpu_s"] for r in untraced),
                "setup_s": median(r["setup_s"] for r in untraced),
                "probe_s": median(r["probe_s"] for r in untraced),
            }
            print("as measured:", json.dumps(raw, sort_keys=True))
            metrics = {
                "evals_per_s": median(evals / _rescaled(r["wall_s"], r) for r in untraced),
                "cpu_s": median(_rescaled(r["cpu_s"], r) for r in untraced),
                "setup_s": median(r["setup_s"] * _speed(r) for r in untraced),
                "peak_rss_mb": result["peak_rss_mb"],
            }
        _emit(correct, attempted, failed, metrics, END_TO_END)
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.is_file()]
    if missing:
        print(f"cannot benchmark: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        return run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
