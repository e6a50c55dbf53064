"""Spans around the calls into each calibra module, and the per-layer metrics they give.

`instrument` wraps the module attributes through which calibra's own code
reaches each layer (for example `harness.plan`, `strategies.complete`), so
every call the harness makes is seen without editing the package.
"""

from __future__ import annotations

from statistics import median

from calibra import concern, confidence, harness, metrics, strategies
from calibra.backend import ResponseCache
from calibra.qa import ExtractedAnswer

from tracing import Span, Tracer, self_times
from workload import METHODS, STRATEGIES


def _curve_name(args, kwargs) -> str:
    kind = args[1] if len(args) > 1 else kwargs.get("kind", "kde")
    return f"metrics.curve.{kind}"


def instrument(tracer: Tracer, backend) -> None:
    """Wrap every layer entry point the harness uses, plus `backend.complete`."""
    tracer.patch(harness, "load_dataset", "harness.load_dataset")
    tracer.patch(harness, "emit_report", "harness.emit")
    tracer.patch(ResponseCache, "__init__", "backend.cache.load", tag=lambda a, r: len(a[0]))
    tracer.patch(ResponseCache, "get", "backend.cache.get", tag=lambda a, r: r is not None)
    tracer.patch(ResponseCache, "put", "backend.cache.put")
    # complete() is imported by name into both callers.
    for module in (strategies, confidence):
        tracer.patch(module, "complete", "backend.complete", tag=lambda a, r: a[1])
    tracer.patch(backend, "complete", "backend.call")
    tracer.patch(harness, "plan", "strategies.plan")
    tracer.patch(harness, "execute", "strategies.execute", tag=lambda a, r: a[0].strategy_id)
    tracer.patch(strategies, "render_step", "strategies.render", tag=lambda a, r: len(r))
    for method in METHODS:
        tracer.patch(strategies, f"{method}_confidence", f"confidence.{method}")
    tracer.patch(ExtractedAnswer, "from_text", "qa.extract")
    tracer.patch(harness, "exact_match", "qa.exact_match")
    # The harness flags concern once per record and again inside concern_rate.
    tracer.patch(harness, "detect_concern", "concern.detect")
    tracer.patch(concern, "detect_concern", "concern.detect")
    tracer.patch(harness, "concern_rate", "concern.rate")
    tracer.patch(metrics, "summarize", "metrics.summarize")
    tracer.patch(metrics, "distribution_curve", _curve_name)
    tracer.patch(metrics, "wins_table", "metrics.wins")


def _strategy_of(span: Span, by_id: dict) -> str | None:
    while span is not None:
        if span.name == "strategies.execute":
            return span.tag
        span = by_id.get(span.parent)
    return None


def layer_metrics(spans: list[Span], worker_count: int) -> dict[str, float]:
    """Per-layer counts and times from one traced `run_eval` (the root span)."""
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    by_id = {span.id: span for span in spans}
    own = self_times(spans)
    (root,) = by_name["harness.run_eval"]

    def of(name):
        return by_name.get(name, [])

    def count(name):
        return len(of(name))

    def busy(name):
        return sum(s.duration for s in of(name))

    def self_s(name):
        return sum(own[s.id] for s in of(name))

    gets = of("backend.cache.get")
    requests = [s.tag for s in of("backend.complete")]
    executes = of("strategies.execute")
    load_end = max(s.end for s in of("harness.load_dataset"))
    aggregate_start = min(s.start for s in of("concern.rate"))
    emits = of("harness.emit")
    aggregate_end = emits[0].start if emits else root.end
    evaluate_wall = aggregate_start - load_end

    out = {
        "backend.cache.put.count": count("backend.cache.put"),
        "backend.cache.put.busy_s": busy("backend.cache.put"),
        "backend.cache.load_s": busy("backend.cache.load"),
        "backend.cache.loaded": sum(s.tag for s in of("backend.cache.load")),
        "backend.cache.get.count": len(gets),
        "backend.cache.get.busy_s": busy("backend.cache.get"),
        "backend.cache.hit_ratio": (
            sum(1 for s in gets if s.tag is True) / len(gets) if gets else 0.0
        ),
        "backend.complete.count": len(requests),
        "backend.complete.self_s": self_s("backend.complete"),
        "backend.call.count": count("backend.call"),
        "backend.call.busy_s": busy("backend.call"),
        "backend.requests.dup_share": 1.0 - len(set(requests)) / len(requests),
        "harness.pool.busy_share": busy("strategies.execute") / (worker_count * evaluate_wall),
        "strategies.plan.count": count("strategies.plan"),
        "strategies.plan.busy_s": busy("strategies.plan"),
        "strategies.render.count": count("strategies.render"),
        "strategies.render.busy_s": busy("strategies.render"),
        "strategies.render.chars": sum(s.tag for s in of("strategies.render")),
        "strategies.execute.count": len(executes),
        "strategies.execute.self_s": self_s("strategies.execute"),
    }
    calls: dict[str, int] = {sid: 0 for sid in STRATEGIES}
    for span in of("backend.complete"):
        calls[_strategy_of(span, by_id)] += 1
    for sid in STRATEGIES:
        evals = sum(1 for s in executes if s.tag == sid)
        out[f"strategies.calls_per_eval.{sid}"] = calls[sid] / evals
    failures = 0
    for method in METHODS:
        name = f"confidence.{method}"
        out[f"{name}.count"] = count(name)
        out[f"{name}.self_s"] = self_s(name)
        failures += sum(1 for s in of(name) if isinstance(s.tag, tuple))
    metric_busy = sum(
        busy(name) for name in
        ("metrics.summarize", "metrics.curve.kde", "metrics.curve.histogram", "metrics.wins")
    )
    out.update({
        "confidence.failures": failures,
        "qa.extract.count": count("qa.extract"),
        "qa.extract.busy_s": busy("qa.extract"),
        "qa.exact_match.busy_s": busy("qa.exact_match"),
        "concern.detect.count": count("concern.detect"),
        "concern.detect.busy_s": busy("concern.detect"),
        "metrics.summarize.count": count("metrics.summarize"),
        "metrics.summarize.busy_s": busy("metrics.summarize"),
        "metrics.curve.kde.busy_s": busy("metrics.curve.kde"),
        "metrics.curve.histogram.busy_s": busy("metrics.curve.histogram"),
        "metrics.wins.busy_s": busy("metrics.wins"),
        "metrics.share_of_run": metric_busy / root.duration,
        "harness.load_dataset.busy_s": busy("harness.load_dataset"),
        "harness.evaluate.wall_s": evaluate_wall,
        "harness.aggregate.wall_s": aggregate_end - aggregate_start,
        "harness.emit.busy_s": busy("harness.emit"),
        "harness.run_eval.wall_s": root.duration,
        "trace.unaccounted_frac": own[root.id] / root.duration,
    })
    return out


# Per-layer figures that are counts: they must repeat exactly between runs
# of the same inputs. The rest are times, shares of time, and byte sizes of
# files that carry wall-clock timestamps.
COUNT_KEYS = frozenset((
    "backend.cache.put.count", "backend.cache.loaded",
    "backend.cache.get.count", "backend.cache.hit_ratio", "backend.complete.count",
    "backend.call.count", "backend.call.delay_s", "backend.requests.dup_share",
    "strategies.plan.count", "strategies.render.count", "strategies.render.chars",
    "strategies.execute.count", "confidence.failures", "qa.extract.count",
    "concern.detect.count", "metrics.summarize.count",
    *(f"strategies.calls_per_eval.{sid}" for sid in STRATEGIES),
    *(f"confidence.{m}.count" for m in METHODS),
))

def combine(runs: list[dict]) -> tuple[dict, list[str]]:
    """Median of each figure over traced runs, and the counts that did not repeat."""
    keys = runs[0].keys()
    merged = {key: median(run[key] for run in runs) for key in keys}
    unstable = [k for k in keys if k in COUNT_KEYS and len({run[k] for run in runs}) > 1]
    return merged, unstable
