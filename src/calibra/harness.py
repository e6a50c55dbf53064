"""Run orchestration: dataset loading, evaluation runs, reports, and sweeps.

Everything on disk is JSONL or JSON, compact with sorted keys. Report bodies
carry no timestamps (those live in a sidecar) so identical configurations
produce byte-identical reports regardless of worker count.
"""

from __future__ import annotations

import csv
import json
import logging
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Mapping, Optional, Sequence, TextIO

from . import metrics as cal
from .backend import (
    LINE_ENCODER,
    Backend,
    HttpBackend,
    ResponseCache,
    _check_request_fields,
    load_mock_script,
)
from .concern import ConcernLexicon, concern_rate, detect_concern
from .confidence import METHOD_IDS
from .qa import EvalRecord, QAItem, accuracy, exact_match
from .strategies import STRATEGY_IDS, StrategyConfig, execute, plan

logger = logging.getLogger(__name__)


class ConfigError(Exception):
    pass


class DataError(Exception):
    pass


# Where a run reads and writes, and how many workers it uses. No result
# depends on them (the lexicon is recorded by its version instead), so the
# report's config snapshot leaves them out.
_RUN_ONLY_FIELDS = ("cache_path", "out_dir", "worker_count", "concern_lexicon_path")


@dataclass(kw_only=True)
class RunConfig(StrategyConfig):
    dataset_path: list[str]
    strategy_ids: list[str] = field(default_factory=lambda: ["standard"])
    backend: dict = field(default_factory=dict)
    num_buckets: int = 10
    kde_grid_size: int = 256
    cache_path: Optional[str] = None
    out_dir: Optional[str] = None
    worker_count: int = 4
    concern_lexicon_path: Optional[str] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if isinstance(self.dataset_path, (str, Path)):
            self.dataset_path = [str(self.dataset_path)]
        else:
            self.dataset_path = [str(p) for p in self.dataset_path]
        if not self.dataset_path:
            raise ConfigError("at least one dataset path required")
        # Curve CSVs and the records' dataset column use the file stem, so stems must differ.
        stems = [Path(p).stem for p in self.dataset_path]
        for stem in stems:
            if stems.count(stem) > 1:
                raise ConfigError(f"two dataset paths share the file stem {stem!r}")
        # Checked here, before any request: a repeated id would count its rows twice.
        for key, known in (("strategy_ids", STRATEGY_IDS), ("extraction_method_ids", METHOD_IDS)):
            ids = list(getattr(self, key))
            setattr(self, key, ids)
            if not ids:
                raise ConfigError(f"{key}: at least one id required")
            for index, id_ in enumerate(ids):
                if id_ not in known:
                    raise ConfigError(f"{key}: unknown id {id_!r}; expected one of {known}")
                if id_ in ids[:index]:
                    raise ConfigError(f"{key}: {id_!r} is repeated")
        if self.num_buckets < 1:
            raise ConfigError("num_buckets must be >= 1")
        if self.worker_count < 1:
            raise ConfigError("worker_count must be >= 1")
        if self.self_consistency_n < 1:
            raise ConfigError("self_consistency_n must be >= 1")
        if self.self_consistency_temperature < 0:
            raise ConfigError("self_consistency_temperature must be >= 0")
        try:
            _check_request_fields(self.max_tokens, self.temperature, 0)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    @classmethod
    def from_json(cls, path: str | Path) -> "RunConfig":
        """The config a JSON file describes; a file that is not one is a `ConfigError`."""
        try:
            with Path(path).open("r", encoding="utf-8") as fh:
                data = json.load(fh)
            unknown = set(data) - set(cls.__dataclass_fields__)
            if unknown:
                raise ConfigError(f"unknown config keys: {sorted(unknown)}")
            return cls(**data)
        except OSError as exc:  # missing, a directory or unreadable
            raise ConfigError(f"config: {exc}") from exc
        except (TypeError, ValueError) as exc:  # not JSON, not an object, or a missing key
            raise ConfigError(f"{path}: {exc}") from exc

    def snapshot(self, lexicon: ConcernLexicon) -> dict:
        """The report's config block: every field that can change a result."""
        snap = asdict(self)
        for name in _RUN_ONLY_FIELDS:
            del snap[name]
        snap["concern_lexicon_version"] = lexicon.version
        return snap


def load_dataset(path: str | Path) -> list[QAItem]:
    """Read a JSONL dataset; duplicate ids and invalid items are rejected."""
    path = Path(path)
    items: list[QAItem] = []
    seen: dict[str, int] = {}
    try:
        fh = path.open("r", encoding="utf-8")
    except OSError as exc:  # missing, a directory or unreadable
        raise DataError(f"dataset: {exc}") from exc
    with fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                raw = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}:{lineno}: malformed JSON: {exc}") from exc
            try:
                item = QAItem(
                    id=str(raw["id"]),
                    question=raw["question"],
                    gold_answers=tuple(raw["answers"]),
                    answer_kind=raw.get("answer_kind", "free_form"),
                    gold_facts=tuple(raw["gold_facts"]) if raw.get("gold_facts") else None,
                    external_knowledge=raw.get("external_knowledge"),
                )
            except (KeyError, ValueError, TypeError) as exc:
                raise DataError(f"{path}:{lineno}: invalid item: {exc}") from exc
            if item.id in seen:
                raise DataError(
                    f"{path}:{lineno}: duplicate id {item.id!r} (first seen on line {seen[item.id]})"
                )
            seen[item.id] = lineno
            items.append(item)
    return items


def write_dataset(items: Sequence[QAItem], path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        for item in items:
            row = {
                "id": item.id,
                "question": item.question,
                "answers": list(item.gold_answers),
                "answer_kind": item.answer_kind,
            }
            if item.gold_facts:
                row["gold_facts"] = list(item.gold_facts)
            if item.external_knowledge:
                row["external_knowledge"] = item.external_knowledge
            fh.write(LINE_ENCODER.encode(row) + "\n")


@dataclass
class RunReport:
    """The config and the summaries; records and curve points are written elsewhere."""

    config: dict
    datasets: list[dict]
    macro: Optional[dict] = None

    def to_dict(self) -> dict:
        d = {"config": self.config, "datasets": self.datasets}
        if self.macro is not None:
            d["macro"] = self.macro
        return d

    def to_json(self) -> str:
        """One line of compact, sorted-key JSON, written by json's C encoder."""
        return LINE_ENCODER.encode(self.to_dict())


def read_records(path: str | Path) -> list[EvalRecord]:
    """Read records.jsonl, the one place a run writes its records, one `EvalRecord` a line."""
    records = []
    try:
        fh = open(path, encoding="utf-8")
    except OSError as exc:
        raise DataError(f"records: {exc}") from exc
    with fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                records.append(EvalRecord(**json.loads(line)))
            except (TypeError, ValueError) as exc:
                raise DataError(f"{path}:{lineno}: invalid record: {exc}") from exc
    if not records:
        raise DataError(f"no records in {path}")
    return records


# The keys each backend kind reads; any other key in `backend` is an error.
_BACKEND_KEYS = {"mock": {"kind", "script_path"}, "http": {"kind", "base_url", "model"}}


def build_backend(config: RunConfig) -> Backend:
    if not isinstance(config.backend, dict):
        raise ConfigError(f"backend must be an object, not {config.backend!r}")
    kind = config.backend.get("kind")
    if kind not in ("mock", "http"):
        raise ConfigError(f"unknown backend kind {kind!r}")
    unknown = set(config.backend) - _BACKEND_KEYS[kind]
    if unknown:
        raise ConfigError(f"backend: unknown keys {sorted(unknown)} for kind {kind!r}")
    if kind == "mock":
        script = config.backend.get("script_path")
        if not script:
            raise ConfigError("mock backend requires script_path")
        try:
            return load_mock_script(script)
        except OSError as exc:
            raise ConfigError(f"backend.script_path: {exc}") from exc
    base_url = config.backend.get("base_url")
    model = config.backend.get("model")
    if not base_url or not model:
        raise ConfigError("http backend requires base_url and model")
    return HttpBackend(base_url, model)


_MACRO_KEYS = (
    "ece",
    "ice_pos",
    "ice_neg",
    "macro_ce",
    "avg_confidence",
    "accuracy",
)


def run_eval(config: RunConfig, backend: Optional[Backend] = None) -> RunReport:
    """Run every (item x strategy), then aggregate metrics in a single pass.

    Item-level work may run on a bounded worker pool; aggregation happens
    after all evaluations have landed, so worker count never affects the
    report. Evaluations are collected in (strategy, item) order, and each
    transcript is written as its line when it is collected, for the same
    reason; no transcript is held after that.
    """
    if backend is None:
        backend = build_backend(config)
    try:
        lexicon = (
            ConcernLexicon.from_file(config.concern_lexicon_path)
            if config.concern_lexicon_path
            else ConcernLexicon()
        )
    except OSError as exc:
        raise ConfigError(f"concern_lexicon_path: {exc}") from exc
    try:
        cache = ResponseCache(config.cache_path, backend) if config.cache_path else None
    except ValueError as exc:  # a line that does not load, named by file:line
        raise DataError(str(exc)) from exc
    except OSError as exc:
        raise ConfigError(f"cache_path: {exc}") from exc
    if cache is not None:
        backend = cache

    out_dir = Path(config.out_dir) if config.out_dir else None
    transcripts: Optional[TextIO] = None
    if out_dir:
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
            transcripts = (out_dir / "transcripts.jsonl").open("w", encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"out_dir: {exc}") from exc

    def evaluate(task: tuple[str, QAItem, str]) -> tuple[EvalRecord, Optional[str]]:
        """The record, and the transcript as its line when transcripts are written."""
        dataset, item, strategy_id = task
        try:
            strategy_plan = plan(strategy_id, item, config)
            transcript = execute(strategy_plan, item, backend, config)
        except Exception as exc:
            raise RuntimeError(
                f"evaluation failed for dataset {dataset!r}, item {item.id!r}, "
                f"strategy {strategy_id!r}: {exc}"
            ) from exc
        concern, _ = detect_concern(transcript.final_answer.raw_text, lexicon)
        record = EvalRecord(
            item_id=item.id,
            correct=exact_match(transcript.final_answer, item),
            confidences={m: r.value for m, r in transcript.confidences.items()},
            concern=concern,
            strategy_id=strategy_id,
            dataset=dataset,
        )
        line = LINE_ENCODER.encode(transcript.to_dict()) + "\n" if transcripts is not None else None
        return record, line

    dataset_blocks: list[dict] = []
    all_records: list[EvalRecord] = []
    # Every curve by its CSV file's stem; report.json keeps only their summaries.
    curves: dict[str, cal.DistributionCurve] = {}
    try:
        for ds_path in config.dataset_path:
            items = load_dataset(ds_path)
            if not items:
                raise DataError(f"dataset {ds_path} is empty")
            ds_tag = Path(ds_path).stem
            tasks = [(ds_tag, item, sid) for sid in config.strategy_ids for item in items]
            results: list[EvalRecord] = []
            with ThreadPoolExecutor(max_workers=config.worker_count) as pool:
                # Both maps yield in task order, whatever order the work ends in.
                run_all = pool.map if config.worker_count > 1 else map
                for record, line in run_all(evaluate, tasks):
                    results.append(record)
                    if transcripts is not None:
                        transcripts.write(line)

            block: dict = {"path": ds_path, "n_items": len(items), "strategies": {}}
            for index, sid in enumerate(config.strategy_ids):
                # Tasks run strategy by strategy, so each strategy's records are one slice.
                records = results[index * len(items) : (index + 1) * len(items)]
                strat_block: dict = {
                    "accuracy": accuracy(records),
                    "concern_rate": concern_rate([r.concern for r in records]),
                    "extractions": {},
                }
                for method in config.extraction_method_ids:
                    summary = cal.summarize(records, method, config.num_buckets)
                    confs = [r.confidence(method) for r in records]
                    entry = summary.to_dict()
                    entry["curves"] = {}
                    for kind, grid_size in (
                        ("histogram", config.num_buckets),
                        ("kde", config.kde_grid_size),
                    ):
                        curve = cal.distribution_curve(confs, kind, grid_size)
                        entry["curves"][kind] = curve.to_dict()
                        curves[f"{ds_tag}__{sid}__{method}__{kind}"] = curve
                    strat_block["extractions"][method] = entry
                block["strategies"][sid] = strat_block
                all_records.extend(records)
            block["wins"] = {
                key: cal.wins_table([
                    {method: entry[key] for method, entry in strat["extractions"].items()}
                    for strat in block["strategies"].values()
                ])
                for key in ("ece", "macro_ce")
            }
            dataset_blocks.append(block)
    finally:
        if cache is not None:
            cache.close()
        if transcripts is not None:
            transcripts.close()

    macro_block: Optional[dict] = None
    if len(dataset_blocks) >= 2:
        macro_block = {"strategies": {}}
        for sid in config.strategy_ids:
            strat: dict = {
                "accuracy": _mean(
                    b["strategies"][sid]["accuracy"] for b in dataset_blocks
                ),
                "concern_rate": _mean(
                    b["strategies"][sid]["concern_rate"] for b in dataset_blocks
                ),
                "extractions": {},
            }
            for method in config.extraction_method_ids:
                strat["extractions"][method] = {
                    key: _mean(
                        b["strategies"][sid]["extractions"][method][key]
                        for b in dataset_blocks
                    )
                    for key in _MACRO_KEYS
                }
            macro_block["strategies"][sid] = strat

    report = RunReport(config=config.snapshot(lexicon), datasets=dataset_blocks, macro=macro_block)
    if out_dir:
        emit_report(report, out_dir, all_records, curves)
    return report


def _mean(values) -> Optional[float]:
    values = [v for v in values if v is not None]
    if not values:
        return None
    return sum(values) / len(values)


CSV_COLUMNS = (
    "dataset",
    "strategy",
    "extraction",
    "n",
    "accuracy",
    "avg_conf",
    "gap",
    "ece",
    "ice_pos",
    "ice_neg",
    "macro_ce",
    "concern_rate",
)


def emit_report(
    report: RunReport,
    out_dir: str | Path,
    records: Sequence[EvalRecord],
    curves: Mapping[str, cal.DistributionCurve],
) -> None:
    """Write report.json, records.jsonl, metrics.csv, and one CSV per curve.

    Each fact is written once: the records only to records.jsonl, and the
    curve points (keyed by file stem in `curves`) only to their CSVs.
    Wall-clock metadata, and the path of the run's transcripts.jsonl when
    `out_dir` holds one, go to a sidecar so the report body stays
    byte-reproducible across machines and runs.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(report.to_json() + "\n", encoding="utf-8")
    with (out_dir / "records.jsonl").open("w", encoding="utf-8") as fh:
        for r in records:
            fh.write(LINE_ENCODER.encode(vars(r)) + "\n")
    meta_path = out_dir / "run_meta.json"
    meta = {"written_at": time.time()}
    transcripts_path = out_dir / "transcripts.jsonl"
    if transcripts_path.exists():
        meta["transcripts_path"] = str(transcripts_path)
    meta_path.write_text(LINE_ENCODER.encode(meta) + "\n", encoding="utf-8")
    with (out_dir / "metrics.csv").open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for block in report.datasets:
            for sid, strat in block["strategies"].items():
                for method, entry in strat["extractions"].items():
                    writer.writerow(
                        [
                            Path(block["path"]).stem,
                            sid,
                            method,
                            entry["n"],
                            entry["accuracy"],
                            entry["avg_confidence"],
                            entry["avg_confidence"] - entry["accuracy"],
                            entry["ece"],
                            entry["ice_pos"],
                            entry["ice_neg"],
                            entry["macro_ce"],
                            strat["concern_rate"],
                        ]
                    )
    curves_dir = out_dir / "curves"
    curves_dir.mkdir(exist_ok=True)
    for stem, curve in curves.items():
        with (curves_dir / f"{stem}.csv").open("w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x", "density"])
            writer.writerows(curve.points)


SWEEP_AXES = ("thought_char_budget", "demonstrations_count")


def sweep(config: RunConfig, axis: str, values: Sequence) -> dict:
    """Re-run the evaluation once per axis value, sharing the cache."""
    if axis not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")
    if not values:
        raise ConfigError("sweep requires at least one value")
    reports: dict = {}
    for value in values:
        if axis == "thought_char_budget":
            variant = replace(config, thought_char_budget=int(value))
        else:
            count = int(value)
            if count > len(config.demonstrations):
                raise ConfigError(
                    f"demonstrations_count {count} exceeds the {len(config.demonstrations)} "
                    "configured demonstrations"
                )
            variant = replace(config, demonstrations=config.demonstrations[:count])
        if variant.out_dir:
            variant.out_dir = str(Path(variant.out_dir) / f"{axis}_{value}")
        reports[value] = run_eval(variant)
    return reports

