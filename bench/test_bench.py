"""Tests of the benchmark's own parts: generator, latency wrapper, tracer arithmetic."""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import latency
import run
import workload
from tracing import Span, Tracer, covered, self_times

from calibra.backend import CompletionRequest, mock_from_script
from calibra.harness import RunConfig, run_eval

BENCH = Path(__file__).resolve().parent


def _digest(directory: Path) -> dict:
    return {
        name: hashlib.sha256((directory / name).read_bytes()).hexdigest()
        for name in ("dataset.jsonl", "script.json")
    }


class TestGenerator:
    def test_same_seed_same_bytes(self, tmp_path):
        first = workload.generate(7, 24, tmp_path / "a")
        second = workload.generate(7, 24, tmp_path / "b")
        assert first == second
        assert _digest(tmp_path / "a") == _digest(tmp_path / "b")

    def test_other_seed_other_items_same_proportions(self, tmp_path):
        first = workload.generate(7, 24, tmp_path / "a")
        second = workload.generate(8, 24, tmp_path / "b")
        assert _digest(tmp_path / "a") != _digest(tmp_path / "b")
        for key in ("calls_per_eval", "requests", "dup_share"):
            assert first[key] == second[key]
        assert first["accuracy"]["far_final"] == second["accuracy"]["far_final"]

    def test_properties_match_a_run_of_the_inputs(self, tmp_path):
        props = workload.generate(3, 24, tmp_path)
        config = RunConfig(
            dataset_path=[str(tmp_path / "dataset.jsonl")],
            strategy_ids=list(workload.STRATEGIES),
            extraction_method_ids=list(workload.METHODS),
            backend={"kind": "mock", "script_path": str(tmp_path / "script.json")},
            worker_count=1,
        )
        report = run_eval(config)
        assert run._reference_problems(report, props) == []
        assert props["calls_per_eval"] == {"standard": 3, "far_final": 6, "self_consistency": 12}
        assert 0 < props["dup_share"] < 0.2


class TestLatencyBackend:
    def requests(self, n):
        return [CompletionRequest(prompt=f"prompt {i}", seed=i % 3) for i in range(n)]

    def test_delay_is_a_pure_function_of_the_request(self):
        for request in self.requests(50):
            twin = CompletionRequest.from_dict(request.to_dict())
            assert latency.request_delay(request) == latency.request_delay(twin)
        a, b = self.requests(2)
        assert latency.request_delay(a) != latency.request_delay(b)

    def test_delay_range_and_tail(self):
        delays = [latency.request_delay(r) for r in self.requests(4000)]
        assert all(0.001 <= d <= 0.012 for d in delays)
        tail = sum(1 for d in delays if d >= 0.008) / len(delays)
        assert 0.03 < tail < 0.07

    def test_wrapper_counts_and_passes_replies_through(self, monkeypatch):
        slept = []
        monkeypatch.setattr(latency.time, "sleep", slept.append)
        inner = mock_from_script({"prompt 0": "yes", "prompt 1": "no"}, fallback="unknown")
        backend = latency.LatencyBackend(inner)
        requests = self.requests(3)
        replies = [backend.complete(r).text for r in requests]
        assert replies == ["yes", "no", "UNKNOWN"]
        assert backend.calls == inner.call_count == 3
        assert slept == [latency.request_delay(r) for r in requests]
        assert backend.delay_s == pytest.approx(sum(slept))


class TestSelfTime:
    def test_covered_merges_overlaps_and_clips(self):
        assert covered(0, 10, []) == 0
        assert covered(0, 10, [(1, 3), (2, 5), (7, 8)]) == 5
        assert covered(0, 10, [(-5, 2), (9, 20)]) == 3
        assert covered(0, 10, [(2, 4), (2, 4)]) == 2
        assert covered(0, 10, [(11, 12)]) == 0

    def test_self_time_subtracts_children_only(self):
        spans = [
            Span(1, "root", 0.0, 10.0, None),
            Span(2, "a", 1.0, 4.0, 1),
            Span(3, "b", 2.0, 3.0, 2),
            Span(4, "c", 3.5, 6.0, 1),  # overlaps a, as on another thread
        ]
        own = self_times(spans)
        assert own == {1: 5.0, 2: 2.0, 3: 1.0, 4: 2.5}

    def test_tracer_nests_spans_and_restores_patches(self):
        ticks = iter(range(100))
        tracer = Tracer(clock=lambda: float(next(ticks)))
        module = types.SimpleNamespace(inner=lambda x: x + 1)
        module.outer = lambda x: module.inner(x) * 2
        original_inner = module.inner
        tracer.patch(module, "inner", "inner", tag=lambda args, result: result)
        tracer.patch(module, "outer", "outer")
        assert tracer.call_root("root", module.outer, 1) == 4
        spans = {s.name: s for s in tracer.spans}
        assert spans["inner"].parent == spans["outer"].id
        assert spans["outer"].parent == spans["root"].id
        assert spans["inner"].tag == 2
        own = self_times(tracer.spans)
        # root 0..5 encloses outer 1..4, which encloses inner 2..3.
        assert [own[spans[n].id] for n in ("root", "outer", "inner")] == [2.0, 2.0, 1.0]
        tracer.restore()
        assert module.inner is original_inner

    def test_tracer_tags_a_raising_call(self):
        tracer = Tracer()

        def boom():
            raise KeyError("x")

        with pytest.raises(KeyError):
            tracer.call("boom", boom)
        assert tracer.spans[0].tag == ("error", "KeyError")


def test_reference_host_scaling():
    at_reference = {"probe_s": run.PROBE_REFERENCE_S, "wall_s": 2.0, "main_cpu_s": 1.5}
    assert run._speed(at_reference) == 1.0
    assert run._rescaled(2.0, at_reference) == 2.0
    # A host at half speed: the 1.5 CPU seconds count as 0.75; the rest is kept.
    slow = dict(at_reference, probe_s=2 * run.PROBE_REFERENCE_S)
    assert run._speed(slow) == 0.5
    assert run._rescaled(2.0, slow) == 1.25


def test_benchmark_json_names_what_run_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cold_cache", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
