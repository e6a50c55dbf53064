"""Command-line surface: run, metrics, augment, and sweep subcommands.

Exit codes are `EXIT_CODES`: 0 success, 1 configuration error, 2 backend
or capability error, 3 data error.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import click

from .backend import BackendError
from .concern import ConcernError, augment_with_knowledge, select_hard
from .confidence import ConfidenceError
from .harness import SWEEP_AXES, ConfigError, DataError, RunConfig, aggregate, load_dataset
from .harness import read_run, run_eval, sweep as run_sweep, write_dataset
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
@click.option("--report", "report_dir", required=True, type=click.Path())
def metrics(report_dir) -> None:
    """Rebuild a run's report.json from its records.jsonl and print it.

    The config block comes from the report.json in the same directory, so
    the output equals that file byte for byte when the records are the run's.
    """
    config, records = read_run(report_dir)
    report, _ = aggregate(records, config)
    click.echo(report.to_json())


@main.command()
@click.option("--report", "report_dir", required=True, type=click.Path())
@click.option("--mode", type=click.Choice(["concern", "random"]), default="concern")
@click.option("--seed", default=0, type=int)
@click.option("--strategy", "strategy_id", default=None)
@click.option("--dataset", "dataset_path", default=None, type=click.Path(),
              help="Emit an augmented copy of this dataset for the selected ids.")
@click.option("--out", "out_path", default=None, type=click.Path())
def augment(report_dir, mode, seed, strategy_id, dataset_path, out_path) -> None:
    """Select hard examples from a finished run's records and optionally augment a dataset."""
    if out_path and not dataset_path:
        raise ConfigError("--out names where the augmented dataset goes; it needs --dataset")
    _, records = read_run(report_dir)
    items = load_dataset(dataset_path) if dataset_path else None
    if strategy_id:
        records = [r for r in records if r.strategy_id == strategy_id]
        if not records:
            raise DataError(f"no records for strategy {strategy_id!r}")
    elif len({r.strategy_id for r in records}) > 1:
        # One item's id would stand for several evaluations of it.
        raise DataError("the records span several strategies; choose one with --strategy")
    if dataset_path:
        stem = Path(dataset_path).stem
        records = [r for r in records if r.dataset == stem]
        if not records:
            raise DataError(f"no records for dataset {stem!r}")
    elif len({r.dataset for r in records}) > 1:
        # Two datasets' items may share an id.
        raise DataError("the records span several datasets; choose one with --dataset")
    selection_mode = "concern_triggered" if mode == "concern" else "random_control"
    selected = select_hard(records, selection_mode, seed=seed)
    if not selected:
        click.echo("warning: concern set is empty; nothing selected", err=True)
    result = {"mode": selection_mode, "seed": seed, "selected_ids": selected}
    if dataset_path:
        wanted = set(selected)
        if missing := wanted.difference(item.id for item in items):
            raise DataError(f"dataset {dataset_path} lacks the selected ids {sorted(missing)}")
        augmented = [
            augment_with_knowledge(item) if item.id in wanted else item
            for item in items
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
