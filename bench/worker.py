"""Measured `run_eval` repeats in one fresh process.

Usage: python3 bench/worker.py '<spec JSON>'

The process reads only the generated inputs (and, for a warm run, a copy
of the pre-filled cache file). Each repeat builds the backend from the
script file (the set-up that is timed), runs the evaluation with its own
cache file and output directory, and records its timings, report digest
and backend call count. Repeats continue until "seconds" have passed and
at least "min_repeats" are done. With "trace" set, every second repeat is
traced, and the last traced repeat's spans are written to "spans_path".
The process prints one JSON line: the repeats and its peak memory.
"""

from __future__ import annotations

import hashlib
import json
import resource
import shutil
import sys
import time
from pathlib import Path


def host_probe(samples: int = 5) -> float:
    """Median time of a fixed pure-Python loop: how fast this host runs now."""
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i
        times.append(time.perf_counter() - start)
    return sorted(times)[samples // 2]


def _tree_bytes(path: Path) -> int:
    if not path.exists():
        return 0
    if path.is_file():
        return path.stat().st_size
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _repeat(spec: dict, rep: Path, traced: bool) -> dict:
    from calibra.backend import load_mock_script
    from calibra.harness import RunConfig, run_eval

    from latency import LatencyBackend

    rep.mkdir(parents=True)
    cache_path = rep / "cache.jsonl" if spec["cache"] else None
    if spec["cache"] == "warm":
        shutil.copyfile(spec["warm_template"], cache_path)
    out_dir = rep / "out" if spec["emit"] else None
    cache_bytes_before = _tree_bytes(cache_path) if cache_path else 0

    start = time.perf_counter()
    mock = load_mock_script(spec["script"])
    setup_s = time.perf_counter() - start
    backend = LatencyBackend(mock) if spec["latency"] else mock
    config = RunConfig(
        dataset_path=[spec["dataset"]],
        strategy_ids=spec["strategies"],
        extraction_method_ids=spec["methods"],
        backend={"kind": "mock", "script_path": spec["script"]},
        worker_count=spec["worker_count"],
        cache_path=str(cache_path) if cache_path else None,
        out_dir=str(out_dir) if out_dir else None,
    )

    tracer = None
    if traced:
        from layers import instrument
        from tracing import Tracer

        tracer = Tracer()
        instrument(tracer, backend)

    cpu0 = time.process_time()
    main_cpu0 = time.thread_time()
    t0 = time.perf_counter()
    try:
        if tracer:
            report = tracer.call_root("harness.run_eval", run_eval, config, backend=backend)
        else:
            report = run_eval(config, backend=backend)
    finally:
        if tracer:
            tracer.restore()
    wall_s = time.perf_counter() - t0
    main_cpu_s = time.thread_time() - main_cpu0
    cpu_s = time.process_time() - cpu0

    body = report.to_json()
    result = {
        "traced": traced,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "main_cpu_s": main_cpu_s,
        "report_sha256": hashlib.sha256(body.encode("utf-8")).hexdigest(),
        "report_file_matches": (
            (out_dir / "report.json").read_text(encoding="utf-8") == body + "\n"
            if out_dir else None
        ),
        "backend_calls": mock.call_count,
    }
    if tracer:
        from layers import layer_metrics

        layers = layer_metrics(tracer.spans, spec["worker_count"])
        layers["backend.cache.bytes"] = (
            _tree_bytes(cache_path) - cache_bytes_before if cache_path else 0
        )
        layers["backend.call.delay_s"] = backend.delay_s if spec["latency"] else 0.0
        layers["harness.emit.bytes"] = _tree_bytes(out_dir) if out_dir else 0
        result["layers"] = layers
        tracer.write(spec["spans_path"])
    shutil.rmtree(rep)
    return result


def main(spec: dict) -> dict:
    sys.path.insert(0, spec["src"])
    deadline = time.monotonic() + spec["seconds"]
    repeats = []
    probe_s = host_probe()
    while True:
        n = len(repeats)
        done = n >= spec["min_repeats"] and time.monotonic() >= deadline
        # A traced run alternates untraced and traced repeats and ends on a pair.
        if done and not (spec["trace"] and n % 2):
            break
        traced = spec["trace"] and n % 2 == 1
        result = _repeat(spec, Path(spec["work"]) / f"repeat-{n}", traced)
        probe_after = host_probe()
        result["probe_s"] = (probe_s + probe_after) / 2
        probe_s = probe_after
        repeats.append(result)
    return {
        "repeats": repeats,
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
