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
from typing import Any, Callable, Mapping, Optional, Sequence, TextIO

from . import metrics as cal
from .backend import (
    Backend,
    HttpBackend,
    ResponseCache,
    encode_line,
    load_mock_script,
)
from .concern import ConcernError, ConcernLexicon, concern_rate, detect_concern
from .qa import EvalRecord, QAItem, accuracy, exact_match, is_string_sequence
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


@dataclass(frozen=True, kw_only=True)
class RunConfig(StrategyConfig):
    dataset_path: tuple[str, ...]
    strategy_ids: tuple[str, ...] = ("standard",)
    backend: dict = field(default_factory=dict)
    num_buckets: int = cal.DEFAULT_NUM_BUCKETS
    kde_grid_size: int = 256
    cache_path: Optional[str] = None
    out_dir: Optional[str] = None
    worker_count: int = 4
    concern_lexicon_path: Optional[str] = None

    _LEAST = {**StrategyConfig._LEAST, "num_buckets": 1, "kde_grid_size": 2, "worker_count": 1}
    _KNOWN_IDS = {"strategy_ids": STRATEGY_IDS, **StrategyConfig._KNOWN_IDS}

    def __post_init__(self) -> None:
        try:
            super().__post_init__()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if isinstance(self.dataset_path, (str, Path)):
            object.__setattr__(self, "dataset_path", (str(self.dataset_path),))
        elif is_string_sequence(self.dataset_path):
            object.__setattr__(self, "dataset_path", tuple(self.dataset_path))
        else:
            raise ConfigError(
                f"dataset_path: expected a path or a list of paths, not {self.dataset_path!r}"
            )
        if not self.dataset_path:
            raise ConfigError("at least one dataset path required")
        # Curve CSVs and the records' dataset column use the file stem, so stems must differ.
        stems = [Path(p).stem for p in self.dataset_path]
        for stem in stems:
            if stems.count(stem) > 1:
                raise ConfigError(f"two dataset paths share the file stem {stem!r}")
        for key in self._KNOWN_IDS:
            if not getattr(self, key):
                raise ConfigError(f"{key}: at least one id required")

    @classmethod
    def from_json(cls, path: str | Path) -> "RunConfig":
        """The config a JSON file describes; a file that is not one is a `ConfigError`."""
        try:
            with Path(path).open("r", encoding="utf-8") as fh:
                data = json.load(fh)
            if not isinstance(data, dict):
                raise TypeError("a config must be a JSON object")
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


def _read_jsonl(path: str | Path, label: str, kind: str, build: Callable[[dict], Any]) -> dict:
    """`build` of each non-blank line of a JSON-lines file, keyed by its line number.

    A file that does not read is a `DataError` under `label`, and a line that
    is not UTF-8, not JSON or that `build` rejects one that names `file:line`.
    """
    rows = {}
    try:
        with open(path, "rb") as fh:
            # bytes.splitlines breaks at \n, \r\n and \r, as text mode's universal newlines do.
            lines = fh.read().splitlines()
    except OSError as exc:  # missing, a directory or unreadable
        raise DataError(f"{label}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        try:
            line = raw.decode("utf-8")
            if line.strip():
                rows[lineno] = build(json.loads(line))
        except (KeyError, TypeError, ValueError) as exc:  # UnicodeDecodeError is a ValueError
            raise DataError(f"{path}:{lineno}: invalid {kind}: {exc}") from exc
    return rows


def load_dataset(path: str | Path) -> list[QAItem]:
    """Read a JSONL dataset, a `QAItem` a line; a repeated id is a `DataError`."""
    items = _read_jsonl(path, "dataset", "item", lambda raw: QAItem(
        id=raw["id"],
        question=raw["question"],
        gold_answers=raw["answers"],
        answer_kind=raw.get("answer_kind", "free_form"),
        gold_facts=raw.get("gold_facts", ()),
        external_knowledge=raw.get("external_knowledge"),
    ))
    seen: dict[str, int] = {}
    for lineno, item in items.items():
        first = seen.setdefault(item.id, lineno)
        if first != lineno:
            raise DataError(f"{path}:{lineno}: duplicate id {item.id!r} (first seen on line {first})")
    return list(items.values())


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
            fh.write(encode_line(row) + "\n")


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
        """One line of compact, sorted-key JSON."""
        return encode_line(self.to_dict())


def read_records(path: str | Path) -> list[EvalRecord]:
    """Read records.jsonl, the one place a run writes its records, one `EvalRecord` a line."""
    records = list(_read_jsonl(path, "records", "record", lambda raw: EvalRecord(**raw)).values())
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
    """`evaluate`, then `aggregate` the records, then `emit_report` when `out_dir` is set."""
    if backend is None:
        backend = build_backend(config)
    try:
        lexicon = (
            ConcernLexicon.from_file(config.concern_lexicon_path)
            if config.concern_lexicon_path
            else ConcernLexicon()
        )
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"concern_lexicon_path: {exc}") from exc
    except ConcernError as exc:  # from None, or the cause's exit code (3) would win
        raise ConfigError(f"concern_lexicon_path: {config.concern_lexicon_path}: {exc}") from None
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
    try:
        records = evaluate(config, backend, lexicon, transcripts)
    finally:
        if cache is not None:
            cache.close()
        if transcripts is not None:
            transcripts.close()
    report, curves = aggregate(records, config.snapshot(lexicon))
    if out_dir:
        emit_report(report, out_dir, records, curves)
    return report


def evaluate(
    config: RunConfig, backend: Backend, lexicon: ConcernLexicon, transcripts: Optional[TextIO]
) -> list[EvalRecord]:
    """The record of every (dataset, strategy, item), in that order; all datasets load first.

    Both maps yield in task order, whatever order the worker pool ends the
    work in, so neither the records nor the transcript lines written to
    `transcripts` depend on the worker count.
    """
    tasks: list[tuple[str, QAItem, str]] = []
    for ds_path in config.dataset_path:
        items = load_dataset(ds_path)
        if not items:
            raise DataError(f"dataset {ds_path} is empty")
        stem = Path(ds_path).stem
        tasks += [(stem, item, sid) for sid in config.strategy_ids for item in items]

    def one(task: tuple[str, QAItem, str]) -> tuple[EvalRecord, Optional[str]]:
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
        line = encode_line(transcript.to_dict()) + "\n" if transcripts is not None else None
        return record, line

    records: list[EvalRecord] = []
    with ThreadPoolExecutor(max_workers=config.worker_count) as pool:
        run_all = pool.map if config.worker_count > 1 else map
        for record, line in run_all(one, tasks):
            records.append(record)
            if transcripts is not None:
                transcripts.write(line)
    return records


def aggregate(
    records: Sequence[EvalRecord], config: Mapping
) -> tuple[RunReport, dict[str, cal.DistributionCurve]]:
    """The report of the records under a report's config block, and each curve by CSV stem.

    A pure function. Records are grouped by `dataset` (a file stem) and
    `strategy_id`, in the order of the config's ids. A record of a pair the
    config does not name, a strategy without one record for each item of its
    dataset's other strategies, and a record without a configured method are
    `DataError`s.
    """
    strategy_ids, methods = config["strategy_ids"], config["extraction_method_ids"]
    paths = {Path(p).stem: p for p in config["dataset_path"]}
    groups: dict[tuple, list[EvalRecord]] = {(s, sid): [] for s in paths for sid in strategy_ids}
    for r in records:
        if (r.dataset, r.strategy_id) not in groups:
            raise DataError(f"record {r.item_id!r} is of dataset {r.dataset!r}, strategy "
                            f"{r.strategy_id!r}, a pair the config does not name")
        groups[r.dataset, r.strategy_id].append(r)

    blocks: list[dict] = []
    curves: dict[str, cal.DistributionCurve] = {}
    for stem, path in paths.items():
        counts = {sid: len(groups[stem, sid]) for sid in strategy_ids}
        # A repeated or a missing record would change `n` without a word.
        items = [{r.item_id for r in groups[stem, sid]} for sid in strategy_ids]
        if not items[0] or any(len(s) != n or s != items[0] for s, n in zip(items, counts.values())):
            raise DataError(f"dataset {stem!r}: each strategy needs one record for each of the "
                            f"same items, at least one; got record counts {counts}")
        block: dict = {"path": path, "n_items": counts[strategy_ids[0]], "strategies": {}}
        for sid in strategy_ids:
            group = groups[stem, sid]
            # The first metric call: the benchmark's trace dates aggregation from it.
            strat: dict = {"concern_rate": concern_rate([r.concern for r in group]),
                           "accuracy": accuracy(group), "extractions": {}}
            for method in methods:
                try:
                    confs = [r.confidence(method) for r in group]
                except KeyError as exc:
                    raise DataError(exc.args[0]) from None
                entry = cal.summarize(group, method, config["num_buckets"]).to_dict()
                entry["curves"] = {}
                for kind, grid_size in (
                    ("histogram", config["num_buckets"]),
                    ("kde", config["kde_grid_size"]),
                ):
                    curve = cal.distribution_curve(confs, kind, grid_size)
                    entry["curves"][kind] = curve.to_dict()
                    curves[f"{stem}__{sid}__{method}__{kind}"] = curve
                strat["extractions"][method] = entry
            block["strategies"][sid] = strat
        block["wins"] = {
            key: cal.wins_table([
                {method: entry[key] for method, entry in strat["extractions"].items()}
                for strat in block["strategies"].values()
            ])
            for key in ("ece", "macro_ce")
        }
        blocks.append(block)

    macro: Optional[dict] = None
    if len(blocks) >= 2:
        macro = {"strategies": {}}
        for sid in strategy_ids:
            strats = [block["strategies"][sid] for block in blocks]
            macro["strategies"][sid] = {
                "accuracy": _mean(s["accuracy"] for s in strats),
                "concern_rate": _mean(s["concern_rate"] for s in strats),
                "extractions": {
                    m: {key: _mean(s["extractions"][m][key] for s in strats) for key in _MACRO_KEYS}
                    for m in methods
                },
            }
    return RunReport(config=config, datasets=blocks, macro=macro), curves


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
            fh.write(encode_line(vars(r)) + "\n")
    meta_path = out_dir / "run_meta.json"
    meta = {"written_at": time.time()}
    transcripts_path = out_dir / "transcripts.jsonl"
    if transcripts_path.exists():
        meta["transcripts_path"] = str(transcripts_path)
    meta_path.write_text(encode_line(meta) + "\n", encoding="utf-8")
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
    variants = []
    for value in values:
        if axis == "thought_char_budget":
            changes: dict = {"thought_char_budget": value}
        else:
            if type(value) is not int:
                raise ConfigError(f"demonstrations_count must be an integer, not {value!r}")
            if not 0 <= value <= len(config.demonstrations):
                raise ConfigError(
                    f"demonstrations_count must be in 0..{len(config.demonstrations)}, "
                    f"the number of configured demonstrations; got {value}"
                )
            changes = {"demonstrations": config.demonstrations[:value]}
        if config.out_dir:
            changes["out_dir"] = str(Path(config.out_dir) / f"{axis}_{value}")
        # `replace` runs the config's checks, so a budget that is not an integer stops here.
        variants.append((value, replace(config, **changes)))
    for value in values:
        if values.count(value) > 1:
            raise ConfigError(f"{axis}: {value} is repeated")
    # Every value is checked above, before the first request.
    return {value: run_eval(variant) for value, variant in variants}

