"""Command-line surface: run, metrics, augment, and sweep subcommands.

Exit codes are `EXIT_CODES`: 0 success, 1 configuration error, 2 backend
or capability error, 3 data error.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import click

from . import metrics as cal
from .backend import BackendError
from .concern import ConcernError, augment_with_knowledge, select_hard
from .confidence import ConfidenceError
from .harness import SWEEP_AXES, ConfigError, DataError, RunConfig, load_dataset, read_records
from .harness import run_eval, sweep as run_sweep, write_dataset
from .qa import EvalRecord
from .strategies import StrategyError

# The exit code of each error kind. An error's `__cause__` chain is walked
# and its innermost known kind decides: a backend failure that surfaces as a
# strategy's step error, wrapped again by the run, is still a backend error.
EXIT_CODES: dict[type[Exception], int] = {
    ConfigError: 1,
    BackendError: 2,
    DataError: 3,
    StrategyError: 3,
    ConfidenceError: 3,
    ConcernError: 3,
}


def _exit_code(exc: BaseException | None) -> int | None:
    code = None
    while exc is not None:
        code = next((c for kind, c in EXIT_CODES.items() if isinstance(exc, kind)), code)
        exc = exc.__cause__
    return code


class _Main(click.Group):
    """Reports a known error as one `error:` line and its exit code; any other is a bug."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except Exception as exc:
            code = _exit_code(exc)
            if code is None:
                raise
            click.echo(f"error: {exc}", err=True)
            ctx.exit(code)


@click.group(cls=_Main)
def main() -> None:
    """Calibration evaluation harness for prompted QA pipelines."""


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--strategy", "strategy_ids", multiple=True, help="Override config strategies.")
@click.option("--extract", "extraction_method_ids", multiple=True,
              help="Override extraction methods.")
@click.option("--backend-url", default=None)
@click.option("--model", default=None)
@click.option("--mock-script", default=None, type=click.Path())
@click.option("--buckets", "num_buckets", default=None, type=int)
@click.option("--cache", "cache_path", default=None, type=click.Path())
@click.option("--out", "out_dir", default=None, type=click.Path())
@click.option("--concern-lexicon", "concern_lexicon_path", default=None, type=click.Path())
def run(config_path, backend_url, model, mock_script, **flags) -> None:
    """Run an evaluation described by a JSON config file.

    Flags override config keys and pass the same checks.
    """
    if mock_script:
        flags["backend"] = {"kind": "mock", "script_path": mock_script}
    elif backend_url or model:
        flags["backend"] = {"kind": "http", "base_url": backend_url, "model": model}
    overrides = {key: value for key, value in flags.items() if value not in (None, ())}
    config = replace(RunConfig.from_json(config_path), **overrides)
    report = run_eval(config)
    if not config.out_dir:
        click.echo(report.to_json())
    else:
        click.echo(f"report written to {config.out_dir}")


@main.command()
@click.option("--records", "records_path", required=True, type=click.Path())
@click.option("--buckets", default=10, type=int)
@click.option("--method", "methods", multiple=True, help="Extraction methods (default: all present).")
def metrics(records_path, buckets, methods) -> None:
    """Recompute calibration metrics from a records JSONL file, per (dataset, strategy).

    Records without a dataset or strategy column are grouped under "(all)".
    """
    if buckets < 1:
        raise ConfigError("--buckets must be >= 1")
    records = read_records(records_path)
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
@click.option("--report", "report_dir", required=True, type=click.Path())
@click.option("--mode", type=click.Choice(["concern", "random"]), default="concern")
@click.option("--seed", default=0, type=int)
@click.option("--strategy", "strategy_id", default=None)
@click.option("--dataset", "dataset_path", default=None, type=click.Path(),
              help="Emit an augmented copy of this dataset for the selected ids.")
@click.option("--out", "out_path", default=None, type=click.Path())
def augment(report_dir, mode, seed, strategy_id, dataset_path, out_path) -> None:
    """Select hard examples from a run report and optionally augment a dataset."""
    records_path = Path(report_dir) / "records.jsonl"
    if not records_path.exists():
        raise DataError(f"no records.jsonl under {report_dir}")
    records = read_records(records_path)
    if strategy_id:
        records = [r for r in records if r.strategy_id == strategy_id]
        if not records:
            raise DataError(f"no records for strategy {strategy_id!r}")
    selection_mode = "concern_triggered" if mode == "concern" else "random_control"
    selected = select_hard(records, selection_mode, seed=seed)
    if not selected:
        click.echo("warning: concern set is empty; nothing selected", err=True)
    result = {"mode": selection_mode, "seed": seed, "selected_ids": selected}
    if dataset_path:
        wanted = set(selected)
        augmented = [
            augment_with_knowledge(item) if item.id in wanted else item
            for item in load_dataset(dataset_path)
        ]
        aug_path = out_path or str(Path(report_dir) / "augmented_dataset.jsonl")
        try:
            write_dataset(augmented, aug_path)
        except OSError as exc:
            raise ConfigError(f"--out: {exc}") from exc
        result["augmented_dataset"] = aug_path
    click.echo(json.dumps(result, sort_keys=True, indent=2))


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--axis", required=True, type=click.Choice(SWEEP_AXES))
@click.option("--values", required=True, help="Comma-separated axis values.")
def sweep(config_path, axis, values) -> None:
    """Run the evaluation once per axis value."""
    config = RunConfig.from_json(config_path)
    try:
        parsed = [int(v) for v in values.split(",") if v.strip()]
    except ValueError as exc:
        raise DataError(f"--values: {exc}") from exc
    reports = run_sweep(config, axis, parsed)
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
