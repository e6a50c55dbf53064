"""Command-line surface: run, metrics, augment, and sweep subcommands.

Exit codes: 0 success, 1 configuration error, 2 backend or capability
error, 3 data error.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from . import metrics as cal
from .backend import BackendError
from .concern import ConcernError, select_hard
from .harness import ConfigError, DataError, RunConfig, load_dataset, read_records, run_eval
from .harness import sweep as run_sweep
from .concern import augment_with_knowledge
from .harness import write_dataset
from .qa import EvalRecord
from .strategies import StrategyError

EXIT_CONFIG = 1
EXIT_BACKEND = 2
EXIT_DATA = 3


def _fail(code: int, message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


@click.group()
def main() -> None:
    """Calibration evaluation harness for prompted QA pipelines."""


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--strategy", "strategies", multiple=True, help="Override config strategies.")
@click.option("--extract", "extractions", multiple=True, help="Override extraction methods.")
@click.option("--backend-url", default=None)
@click.option("--model", default=None)
@click.option("--mock-script", default=None, type=click.Path(exists=True))
@click.option("--buckets", default=None, type=int)
@click.option("--cache", "cache_path", default=None, type=click.Path())
@click.option("--out", "out_dir", default=None, type=click.Path())
@click.option("--concern-lexicon", default=None, type=click.Path(exists=True))
def run(
    config_path,
    strategies,
    extractions,
    backend_url,
    model,
    mock_script,
    buckets,
    cache_path,
    out_dir,
    concern_lexicon,
) -> None:
    """Run an evaluation described by a JSON config file."""
    try:
        config = RunConfig.from_json(config_path)
        if strategies:
            config.strategy_ids = list(strategies)
        if extractions:
            config.extraction_method_ids = list(extractions)
        if mock_script:
            config.backend = {"kind": "mock", "script_path": mock_script}
        elif backend_url or model:
            if not (backend_url and model):
                raise ConfigError("--backend-url and --model must be given together")
            config.backend = {"kind": "http", "base_url": backend_url, "model": model}
        if buckets is not None:
            config.num_buckets = buckets
        if cache_path is not None:
            config.cache_path = cache_path
        if out_dir is not None:
            config.out_dir = out_dir
        if concern_lexicon is not None:
            config.concern_lexicon_path = concern_lexicon
    except ConfigError as exc:
        _fail(EXIT_CONFIG, str(exc))
    try:
        report = run_eval(config)
    except (ConfigError,) as exc:
        _fail(EXIT_CONFIG, str(exc))
    except BackendError as exc:
        _fail(EXIT_BACKEND, str(exc))
    except (DataError,) as exc:
        _fail(EXIT_DATA, str(exc))
    except RuntimeError as exc:
        cause = exc.__cause__
        if isinstance(cause, (BackendError, StrategyError)):
            _fail(EXIT_BACKEND, str(exc))
        _fail(EXIT_DATA, str(exc))
    if not config.out_dir:
        click.echo(report.to_json())
    else:
        click.echo(f"report written to {config.out_dir}")


@main.command()
@click.option("--records", "records_path", required=True, type=click.Path(exists=True))
@click.option("--buckets", default=10, type=int)
@click.option("--method", "methods", multiple=True, help="Extraction methods (default: all present).")
def metrics(records_path, buckets, methods) -> None:
    """Recompute calibration metrics from a records JSONL file, per (dataset, strategy).

    Records without a dataset or strategy column are grouped under "(all)".
    """
    try:
        records = read_records(records_path)
    except (DataError, KeyError, json.JSONDecodeError) as exc:
        _fail(EXIT_DATA, str(exc))
    if not methods:
        methods = sorted({m for r in records for m in r.confidences})
    groups: dict[tuple[str, str], list[EvalRecord]] = {}
    for record in records:
        groups.setdefault((record.dataset, record.strategy_id), []).append(record)
    out: dict[str, dict] = {}
    for (dataset, sid), recs in groups.items():
        out.setdefault(dataset or "(all)", {})[sid or "(all)"] = {
            method: cal.summarize(recs, method, buckets).to_dict() for method in methods
        }
    click.echo(json.dumps(out, sort_keys=True, indent=2))


@main.command()
@click.option("--report", "report_dir", required=True, type=click.Path(exists=True))
@click.option("--mode", type=click.Choice(["concern", "random"]), default="concern")
@click.option("--seed", default=0, type=int)
@click.option("--strategy", "strategy_id", default=None)
@click.option("--dataset", "dataset_path", default=None, type=click.Path(exists=True),
              help="Emit an augmented copy of this dataset for the selected ids.")
@click.option("--out", "out_path", default=None, type=click.Path())
def augment(report_dir, mode, seed, strategy_id, dataset_path, out_path) -> None:
    """Select hard examples from a run report and optionally augment a dataset."""
    records_path = Path(report_dir) / "records.jsonl"
    if not records_path.exists():
        _fail(EXIT_DATA, f"no records.jsonl under {report_dir}")
    try:
        records = read_records(records_path)
    except (DataError, KeyError, json.JSONDecodeError) as exc:
        _fail(EXIT_DATA, str(exc))
    if strategy_id:
        records = [r for r in records if r.strategy_id == strategy_id]
        if not records:
            _fail(EXIT_DATA, f"no records for strategy {strategy_id!r}")
    selection_mode = "concern_triggered" if mode == "concern" else "random_control"
    selected = select_hard(records, selection_mode, seed=seed)
    if not selected:
        click.echo("warning: concern set is empty; nothing selected", err=True)
    result = {"mode": selection_mode, "seed": seed, "selected_ids": selected}
    if dataset_path:
        try:
            items = load_dataset(dataset_path)
            wanted = set(selected)
            augmented = [
                augment_with_knowledge(item) if item.id in wanted else item for item in items
            ]
        except (DataError, ConcernError) as exc:
            _fail(EXIT_DATA, str(exc))
        aug_path = out_path or str(Path(report_dir) / "augmented_dataset.jsonl")
        write_dataset(augmented, aug_path)
        result["augmented_dataset"] = aug_path
    click.echo(json.dumps(result, sort_keys=True, indent=2))


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--axis", required=True,
              type=click.Choice(["thought_char_budget", "demonstrations_count"]))
@click.option("--values", required=True, help="Comma-separated axis values.")
def sweep(config_path, axis, values) -> None:
    """Run the evaluation once per axis value."""
    try:
        config = RunConfig.from_json(config_path)
        parsed = [int(v) for v in values.split(",") if v.strip()]
        reports = run_sweep(config, axis, parsed)
    except ConfigError as exc:
        _fail(EXIT_CONFIG, str(exc))
    except BackendError as exc:
        _fail(EXIT_BACKEND, str(exc))
    except (DataError, ValueError) as exc:
        _fail(EXIT_DATA, str(exc))
    summary = {
        str(value): {
            "datasets": [
                {
                    "path": block["path"],
                    "strategies": {
                        sid: {
                            "accuracy": strat["accuracy"],
                            "ece": {
                                m: e["ece"] for m, e in strat["extractions"].items()
                            },
                        }
                        for sid, strat in block["strategies"].items()
                    },
                }
                for block in report.datasets
            ]
        }
        for value, report in reports.items()
    }
    click.echo(json.dumps(summary, sort_keys=True, indent=2))


if __name__ == "__main__":
    main()
