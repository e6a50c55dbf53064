import json
import re
from pathlib import Path

import pytest
from click.testing import CliRunner

from calibra import harness
from calibra.backend import CompletionRequest
from calibra.cli import main
from calibra.concern import ConcernLexicon
from calibra.harness import RunConfig, aggregate, read_records
from calibra.qa import EvalRecord, QAItem
from calibra.strategies import StrategyConfig
from conftest import (
    E2E_ITEMS,
    E2E_STANDARD,
    add_p_true_entry,
    add_verbalized_entry,
    e2e_script_entries,
)


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def mock_calls(monkeypatch):
    """The number of requests made to every mock backend the CLI builds."""
    built = []
    original = harness.load_mock_script

    def load(path):
        built.append(original(path))
        return built[-1]

    monkeypatch.setattr(harness, "load_mock_script", load)
    return lambda: sum(backend.call_count for backend in built)


def write_config(tmp_path, e2e_dataset, e2e_script, **extra):
    body = {
        "dataset_path": [str(e2e_dataset)],
        "strategy_ids": ["standard", "far_final"],
        "extraction_method_ids": ["token_prob"],
        "backend": {"kind": "mock", "script_path": str(e2e_script)},
        "num_buckets": 10,
        "worker_count": 1,
    }
    body.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(body), encoding="utf-8")
    return path


class TestRun:
    def test_prints_report_without_out_dir(self, runner, tmp_path, e2e_dataset, e2e_script, e2e_expected):
        config = write_config(tmp_path, e2e_dataset, e2e_script)
        result = runner.invoke(main, ["run", "--config", str(config)])
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        ece = report["datasets"][0]["strategies"]["standard"]["extractions"]["token_prob"]["ece"]
        assert ece == pytest.approx(e2e_expected["standard"]["token_prob"]["ece"], abs=1e-12)

    def test_writes_out_dir(self, runner, tmp_path, e2e_dataset, e2e_script):
        config = write_config(tmp_path, e2e_dataset, e2e_script)
        out = tmp_path / "out"
        result = runner.invoke(main, ["run", "--config", str(config), "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert (out / "report.json").exists()
        assert (out / "metrics.csv").exists()

    def test_strategy_override(self, runner, tmp_path, e2e_dataset, e2e_script):
        config = write_config(tmp_path, e2e_dataset, e2e_script)
        result = runner.invoke(
            main, ["run", "--config", str(config), "--strategy", "standard"]
        )
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        assert list(report["datasets"][0]["strategies"]) == ["standard"]

    def test_unknown_config_key_exit_1(self, runner, tmp_path, e2e_dataset, e2e_script):
        config = write_config(tmp_path, e2e_dataset, e2e_script, bogus=1)
        result = runner.invoke(main, ["run", "--config", str(config)])
        assert result.exit_code == 1
        assert "bogus" in result.output

    @pytest.mark.parametrize(
        "field, value",
        [
            ("max_tokens", 0),
            ("temperature", -1),
            ("self_consistency_n", 0),
            ("self_consistency_temperature", -0.5),
        ],
    )
    def test_invalid_request_setting_exit_1(self, runner, tmp_path, e2e_dataset, e2e_script,
                                            field, value):
        config = write_config(tmp_path, e2e_dataset, e2e_script, **{field: value})
        result = runner.invoke(main, ["run", "--config", str(config)])
        assert result.exit_code == 1, result.output
        rule = "a finite number >= 0" if field.endswith("temperature") else ">= "
        assert f"error: {field} must be {rule}" in result.output

    def test_datasets_sharing_a_file_stem_exit_1(self, runner, tmp_path, e2e_dataset, e2e_script):
        paths = [tmp_path / "a" / "d.jsonl", tmp_path / "b" / "d.jsonl"]
        for path in paths:
            path.parent.mkdir()
            path.write_bytes(e2e_dataset.read_bytes())
        config = write_config(tmp_path, e2e_dataset, e2e_script,
                              dataset_path=[str(p) for p in paths])
        out = tmp_path / "out"
        result = runner.invoke(main, ["run", "--config", str(config), "--out", str(out)])
        assert result.exit_code == 1, result.output
        assert "stem 'd'" in result.output
        assert not out.exists()

    def test_unknown_strategy_exit_1(self, runner, tmp_path, e2e_dataset, e2e_script, mock_calls):
        config = write_config(tmp_path, e2e_dataset, e2e_script, strategy_ids=["nope"])
        result = runner.invoke(main, ["run", "--config", str(config)])
        assert result.exit_code == 1
        assert mock_calls() == 0

    def test_missing_script_entry_exit_2(self, runner, tmp_path, e2e_dataset):
        script = tmp_path / "empty_script.json"
        script.write_text(json.dumps({"entries": {}}), encoding="utf-8")
        config = write_config(tmp_path, e2e_dataset, script)
        result = runner.invoke(main, ["run", "--config", str(config)])
        assert result.exit_code == 2

    def test_bad_dataset_exit_3(self, runner, tmp_path, e2e_script):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n", encoding="utf-8")
        config = write_config(tmp_path, bad, e2e_script)
        result = runner.invoke(main, ["run", "--config", str(config)])
        assert result.exit_code == 3

    def test_malformed_cache_exit_3(self, runner, tmp_path, e2e_dataset, e2e_script):
        cache = tmp_path / "bad.jsonl"
        cache.write_text('{"oops": 1}\n', encoding="utf-8")
        config = write_config(tmp_path, e2e_dataset, e2e_script)
        result = runner.invoke(main, ["run", "--config", str(config), "--cache", str(cache)])
        assert result.exit_code == 3, result.output
        assert f"error: {cache}:1: invalid cache line: missing key 'completion'" in result.output

    def test_mock_script_flag_overrides_backend(self, runner, tmp_path, e2e_dataset, e2e_script):
        config = write_config(tmp_path, e2e_dataset, e2e_script, backend={"kind": "http"})
        result = runner.invoke(
            main, ["run", "--config", str(config), "--mock-script", str(e2e_script)]
        )
        assert result.exit_code == 0, result.output

    def test_backend_url_requires_model(self, runner, tmp_path, e2e_dataset, e2e_script):
        config = write_config(tmp_path, e2e_dataset, e2e_script)
        result = runner.invoke(
            main, ["run", "--config", str(config), "--backend-url", "http://x"]
        )
        assert result.exit_code == 1


def run_out(runner, tmp_path, e2e_dataset, e2e_script, **extra) -> Path:
    config = write_config(tmp_path, e2e_dataset, e2e_script, **extra)
    out = tmp_path / "out"
    result = runner.invoke(main, ["run", "--config", str(config), "--out", str(out)])
    assert result.exit_code == 0, result.output
    return out


def second_dataset(tmp_path, e2e_dataset) -> Path:
    """The e2e questions under ids r1..r4; the mock keys on prompts, so the script still fits."""
    path = tmp_path / "second.jsonl"
    path.write_text(
        e2e_dataset.read_text(encoding="utf-8").replace('"id": "q', '"id": "r'), encoding="utf-8"
    )
    return path


class TestMetrics:
    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("n_datasets", [1, 2])
    def test_report_is_a_function_of_the_records(self, runner, tmp_path, e2e_dataset, e2e_script,
                                                   workers, n_datasets):
        paths = [str(e2e_dataset), str(second_dataset(tmp_path, e2e_dataset))][:n_datasets]
        out = run_out(runner, tmp_path, e2e_dataset, e2e_script, worker_count=workers,
                      dataset_path=paths)
        stored = (out / "report.json").read_bytes()
        assert (b'"macro":' in stored) == (n_datasets == 2)
        config = json.loads(stored)["config"]
        report, _ = aggregate(read_records(out / "records.jsonl"), config)
        assert (report.to_json() + "\n").encode() == stored
        result = runner.invoke(main, ["metrics", "--report", str(out)])
        assert result.exit_code == 0, result.output
        assert result.stdout_bytes == stored

    def test_recompute_matches_report(self, runner, tmp_path, e2e_dataset, e2e_script, e2e_expected):
        out = run_out(runner, tmp_path, e2e_dataset, e2e_script)
        result = runner.invoke(main, ["metrics", "--report", str(out)])
        assert result.exit_code == 0, result.output
        assert result.output == (out / "report.json").read_text(encoding="utf-8")
        recomputed = json.loads(result.output)
        for sid in ("standard", "far_final"):
            entry = recomputed["datasets"][0]["strategies"][sid]["extractions"]["token_prob"]
            assert entry["ece"] == pytest.approx(e2e_expected[sid]["token_prob"]["ece"], abs=1e-12)

    def test_empty_records_exit_3(self, runner, tmp_path, e2e_dataset, e2e_script):
        out = run_out(runner, tmp_path, e2e_dataset, e2e_script)
        (out / "records.jsonl").write_text("", encoding="utf-8")
        result = runner.invoke(main, ["metrics", "--report", str(out)])
        assert result.exit_code == 3


class TestAugment:
    def run_report(self, runner, tmp_path, e2e_dataset, e2e_script):
        return run_out(runner, tmp_path, e2e_dataset, e2e_script)

    def test_concern_selection(self, runner, tmp_path, e2e_dataset, e2e_script):
        out = self.run_report(runner, tmp_path, e2e_dataset, e2e_script)
        result = runner.invoke(
            main, ["augment", "--report", str(out), "--strategy", "far_final"]
        )
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["selected_ids"] == ["q4"]

    def test_random_control_seeded(self, runner, tmp_path, e2e_dataset, e2e_script):
        out = self.run_report(runner, tmp_path, e2e_dataset, e2e_script)
        args = ["augment", "--report", str(out), "--strategy", "far_final",
                "--mode", "random", "--seed", "3"]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.exit_code == 0
        assert json.loads(first.output) == json.loads(second.output)
        assert len(json.loads(first.output)["selected_ids"]) == 1

    def test_augmented_dataset_written(self, runner, tmp_path, e2e_dataset, e2e_script):
        out = self.run_report(runner, tmp_path, e2e_dataset, e2e_script)
        # give every item external knowledge so augmentation can apply
        rows = [json.loads(line) for line in e2e_dataset.read_text(encoding="utf-8").splitlines()]
        for row in rows:
            row["external_knowledge"] = f"Background for {row['id']}."
        # The same file stem as the run's dataset: augment keeps only that dataset's records.
        enriched = tmp_path / "enriched" / e2e_dataset.name
        enriched.parent.mkdir()
        enriched.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        result = runner.invoke(
            main,
            ["augment", "--report", str(out), "--strategy", "far_final",
             "--dataset", str(enriched), "--out", str(tmp_path / "aug.jsonl")],
        )
        assert result.exit_code == 0, result.output
        augmented = [
            json.loads(l) for l in (tmp_path / "aug.jsonl").read_text(encoding="utf-8").splitlines()
        ]
        by_id = {r["id"]: r for r in augmented}
        assert by_id["q4"]["question"].startswith("Knowledge: Background for q4.")
        assert by_id["q1"]["question"] == rows[0]["question"]

    def test_dataset_keeps_the_records_of_its_stem(self, runner, tmp_path, e2e_dataset, e2e_script):
        paths = [e2e_dataset, second_dataset(tmp_path, e2e_dataset)]
        for path in paths:  # external knowledge changes no prompt of the run
            rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
            lines = (json.dumps({**r, "external_knowledge": "k"}) + "\n" for r in rows)
            path.write_text("".join(lines), encoding="utf-8")
        out = run_out(runner, tmp_path, e2e_dataset, e2e_script, dataset_path=[str(p) for p in paths])
        for dataset, expected in zip(paths, (["q4"], ["r4"])):
            result = runner.invoke(main, ["augment", "--report", str(out), "--strategy", "far_final",
                                          "--dataset", str(dataset), "--out", str(tmp_path / "a")])
            assert result.exit_code == 0, result.output
            assert json.loads(result.output)["selected_ids"] == expected

    def test_missing_report_exit_3(self, runner, tmp_path):
        result = runner.invoke(main, ["augment", "--report", str(tmp_path)])
        assert result.exit_code == 3


class TestSweepCommand:
    def test_budget_sweep_summary(self, runner, tmp_path, e2e_dataset, e2e_script):
        config = write_config(
            tmp_path, e2e_dataset, e2e_script, strategy_ids=["standard"]
        )
        result = runner.invoke(
            main,
            ["sweep", "--config", str(config), "--axis", "thought_char_budget",
             "--values", "100,200"],
        )
        assert result.exit_code == 0, result.output
        summary = json.loads(result.output)
        assert set(summary) == {"100", "200"}
        for block in summary.values():
            assert "standard" in block["datasets"][0]["strategies"]

    def test_bad_values_exit_3(self, runner, tmp_path, e2e_dataset, e2e_script):
        config = write_config(tmp_path, e2e_dataset, e2e_script)
        result = runner.invoke(
            main,
            ["sweep", "--config", str(config), "--axis", "thought_char_budget",
             "--values", "abc"],
        )
        assert result.exit_code == 3


MISSING = object()


class Inputs:
    """The files one exit-code case reads, all under `tmp`."""

    def __init__(self, tmp, dataset, script):
        self.tmp, self.dataset, self.script = tmp, dataset, script

    def config(self, **extra) -> str:
        return str(write_config(self.tmp, self.dataset, self.script, **extra))

    def file(self, name: str, text: str = "", encoding: str = "utf-8") -> str:
        path = self.tmp / name
        path.write_text(text, encoding=encoding)
        return str(path)

    def records(self, dataset: str = "dataset") -> str:
        row = {"item_id": "q4", "strategy_id": "far_final", "correct": False, "dataset": dataset,
               "concern": True, "confidences": {"token_prob": 0.3}}
        return self.file("records.jsonl", json.dumps(row) + "\n")

    def report(self, *rows: dict, strategy_ids=("standard",), encoding="utf-8", **config) -> str:
        """A run directory: report.json's config block, and a records line per row.

        Each row is laid over a valid record of q1 under `standard`; a key set to
        `MISSING` is left out. Without rows there is no records.jsonl; the rows
        are written in `encoding`.
        """
        run = self.tmp / "run"
        run.mkdir()
        block = RunConfig(dataset_path=[str(self.dataset)], strategy_ids=list(strategy_ids),
                          **config).snapshot(ConcernLexicon())
        (run / "report.json").write_text(json.dumps({"config": block}), encoding="utf-8")
        base = {"item_id": "q1", "dataset": "dataset", "strategy_id": "standard", "correct": True,
                "concern": False, "confidences": {"token_prob": 0.5}}
        lines = [{k: v for k, v in {**base, **row}.items() if v is not MISSING} for row in rows]
        if lines:
            (run / "records.jsonl").write_text(
                "".join(json.dumps(line, ensure_ascii=False) + "\n" for line in lines),
                encoding=encoding)
        return str(run)

    def dataset_line(self, **fields) -> str:
        row = {"id": "q1", "question": "Capital of France?", "answers": ["Paris"], **fields}
        return self.file("d.jsonl", json.dumps(row) + "\n")

    def q1_script(self, answer=None, p_true=None, verbalized=None) -> str:
        """The e2e script with the first evaluation's (q1, standard) replies changed.

        `answer` replaces its scripted answer; `p_true` (the probe's top
        alternatives) and `verbalized` (a reply) script its probes.
        """
        entries = e2e_script_entries()
        prompt = f"Question: {E2E_ITEMS[0].question}\nAnswer:"
        reply = answer or E2E_STANDARD["q1"]
        entries[prompt] = reply
        context = f"{prompt} {reply['text']}"
        if p_true is not None:
            add_p_true_entry(entries, context, reply["text"], p_true)
        if verbalized is not None:
            add_verbalized_entry(entries, context, verbalized)
        return self.file("q1.json", json.dumps({"entries": entries}))


MISSING_ENTRY = ("error: evaluation failed for dataset 'dataset', item 'q1', strategy 'standard': "
                 "step 'answer' failed: no script entry matches prompt")

# One case per input that ends a command early: (arguments, exit code, the
# start of its one `error:` line, requests made). `{tmp}` is the case's directory.
EXIT_CASES = {
    "unknown_strategy": (
        lambda i: ["run", "--config", i.config(strategy_ids=["nope"])],
        1, "error: strategy_ids: unknown id 'nope'; expected one of ('standard', ", 0,
    ),
    "unknown_method": (
        lambda i: ["run", "--config", i.config(), "--extract", "mystery"],
        1, "error: extraction_method_ids: unknown id 'mystery'; expected one of "
           "('token_prob', 'p_true', 'verbalized')", 0,
    ),
    "repeated_strategy": (
        lambda i: ["run", "--config", i.config(strategy_ids=["standard", "far_final", "standard"])],
        1, "error: strategy_ids: 'standard' is repeated", 0,
    ),
    "repeated_method": (
        lambda i: ["run", "--config", i.config(), "--extract", "token_prob", "--extract", "token_prob"],
        1, "error: extraction_method_ids: 'token_prob' is repeated", 0,
    ),
    "strategy_ids_a_string": (
        lambda i: ["run", "--config", i.config(strategy_ids="standard")],
        1, "error: strategy_ids: expected a list of ids, not 'standard'", 0,
    ),
    "methods_a_string": (
        lambda i: ["run", "--config", i.config(extraction_method_ids="token_prob")],
        1, "error: extraction_method_ids: expected a list of ids, not 'token_prob'", 0,
    ),
    "dataset_path_a_number": (
        lambda i: ["run", "--config", i.config(dataset_path=5)],
        1, "error: dataset_path: expected a path or a list of paths, not 5", 0,
    ),
    "dataset_path_a_list_of_numbers": (
        lambda i: ["run", "--config", i.config(dataset_path=[5])],
        1, "error: dataset_path: expected a path or a list of paths, not [5]", 0,
    ),
    "config_not_json": (
        lambda i: ["run", "--config", i.file("bad.json", "{")],
        1, "error: {tmp}/bad.json: Expecting property name", 0,
    ),
    "run_buckets_0": (
        lambda i: ["run", "--config", i.config(), "--buckets", "0"],
        1, "error: num_buckets must be >= 1", 0,
    ),
    "kde_grid_size_1": (
        lambda i: ["run", "--config", i.config(kde_grid_size=1)],
        1, "error: kde_grid_size must be >= 2", 0,
    ),
    "thought_char_budget_negative": (
        lambda i: ["run", "--config", i.config(thought_char_budget=-5)],
        1, "error: thought_char_budget must be >= 0", 0,
    ),
    "num_buckets_a_float": (
        lambda i: ["run", "--config", i.config(num_buckets=2.5)],
        1, "error: num_buckets must be an integer, not 2.5", 0,
    ),
    "worker_count_a_bool": (
        lambda i: ["run", "--config", i.config(worker_count=True)],
        1, "error: worker_count must be an integer, not True", 0,
    ),
    "temperature_nan": (
        lambda i: ["run", "--config", i.config(temperature=float("nan"))],
        1, "error: temperature must be a finite number >= 0, not nan", 0,
    ),
    "temperature_infinity": (
        lambda i: ["run", "--config", i.config(temperature=float("inf"))],
        1, "error: temperature must be a finite number >= 0, not inf", 0,
    ),
    "temperature_true": (
        lambda i: ["run", "--config", i.config(temperature=True)],
        1, "error: temperature must be a finite number >= 0, not True", 0,
    ),
    "self_consistency_temperature_nan": (
        lambda i: ["run", "--config", i.config(self_consistency_temperature=float("nan"))],
        1, "error: self_consistency_temperature must be a finite number >= 0, not nan", 0,
    ),
    "max_tokens_a_float": (
        lambda i: ["run", "--config", i.config(max_tokens=60.5)],
        1, "error: max_tokens must be an integer, not 60.5", 0,
    ),
    "self_consistency_n_a_bool": (
        lambda i: ["run", "--config", i.config(self_consistency_n=True)],
        1, "error: self_consistency_n must be an integer, not True", 0,
    ),
    "cache_is_a_directory": (
        lambda i: ["run", "--config", i.config(), "--cache", str(i.tmp)],
        1, "error: cache_path: [Errno 21] Is a directory: '{tmp}'", 0,
    ),
    "out_is_a_file": (
        lambda i: ["run", "--config", i.config(), "--out", i.file("afile")],
        1, "error: out_dir: [Errno 17] File exists: '{tmp}/afile'", 0,
    ),
    "missing_script_entry_run": (
        lambda i: ["run", "--config", i.config(), "--mock-script",
                   i.file("empty.json", '{"entries": {}}')],
        2, MISSING_ENTRY, 1,
    ),
    "missing_script_entry_sweep": (
        lambda i: ["sweep", "--config", i.config(backend={
                       "kind": "mock", "script_path": i.file("empty.json", '{"entries": {}}')}),
                   "--axis", "thought_char_budget", "--values", "100"],
        2, MISSING_ENTRY, 1,
    ),
    "far_human_facts_without_gold_facts": (
        lambda i: ["run", "--config", i.config(strategy_ids=["far_human_facts"])],
        3, "error: evaluation failed for dataset 'dataset', item 'q1', strategy 'far_human_facts': "
           "strategy far_human_facts requires gold_facts on item 'q1'", 0,
    ),
    "unparseable_verbalized_reply": (
        lambda i: ["run", "--config", i.config(strategy_ids=["standard"]), "--extract", "verbalized",
                   "--mock-script", i.q1_script(verbalized="Yes")],
        3, "error: evaluation failed for dataset 'dataset', item 'q1', strategy 'standard': "
           "no numeral in confidence reply: 'Yes'", 2,
    ),
    # A log-probability that is not a number <= 0 is a broken endpoint, as over HTTP.
    "p_true_logprob_positive": (
        lambda i: ["run", "--config", i.config(strategy_ids=["standard"]), "--extract", "p_true",
                   "--mock-script", i.q1_script(p_true={"A": 0.5, "B": -2.0})],
        2, "error: evaluation failed for dataset 'dataset', item 'q1', strategy 'standard': "
           "unusable completion: log-probability 0.5 is invalid: it must be a number <= 0", 2,
    ),
    "token_logprob_nan": (
        lambda i: ["run", "--config", i.config(strategy_ids=["standard"]), "--mock-script",
                   i.q1_script(answer={"text": "False", "logprobs": [float("nan")]})],
        2, "error: evaluation failed for dataset 'dataset', item 'q1', strategy 'standard': "
           "step 'answer' failed: unusable completion: log-probability nan is invalid: "
           "it must be a number <= 0", 1,
    ),
    "token_logprob_a_string": (
        lambda i: ["run", "--config", i.config(strategy_ids=["standard"]), "--mock-script",
                   i.q1_script(answer={"text": "False", "logprobs": ["x"]})],
        2, "error: evaluation failed for dataset 'dataset', item 'q1', strategy 'standard': "
           "step 'answer' failed: unusable completion: log-probability 'x' is invalid: "
           "it must be a number <= 0", 1,
    ),
    "token_logprob_false": (
        lambda i: ["run", "--config", i.config(strategy_ids=["standard"]), "--mock-script",
                   i.q1_script(answer={"text": "False", "logprobs": [False]})],
        2, "error: evaluation failed for dataset 'dataset', item 'q1', strategy 'standard': "
           "step 'answer' failed: unusable completion: log-probability False is invalid: "
           "it must be a number <= 0", 1,
    ),
    "cache_line_logprob_huge_int": (
        # float() of it overflows, which must be a data error, not a traceback.
        lambda i: ["run", "--config", i.config(strategy_ids=["standard"]), "--cache", i.file(
            "cache.jsonl", json.dumps({
                "completion": {"text": "False", "tokens": ["False"], "token_logprobs": [-10**400],
                               "top_logprobs": [{"False": -0.1}]},
                "created_at": 0, "request": CompletionRequest(prompt="p").to_dict()}) + "\n")],
        3, "error: {tmp}/cache.jsonl:1: invalid cache line: log-probability -1000", 0,
    ),
    "cache_line_logprob_positive": (
        lambda i: ["run", "--config", i.config(strategy_ids=["standard"]), "--cache", i.file(
            "cache.jsonl", json.dumps({
                "completion": {"text": "False", "tokens": ["False"], "token_logprobs": [0.5],
                               "top_logprobs": [{"False": 0.5}]},
                "created_at": 0, "request": CompletionRequest(prompt="p").to_dict(),
                "request_hash": ""}) + "\n")],
        3, "error: {tmp}/cache.jsonl:1: invalid cache line: log-probability 0.5 is invalid: "
           "it must be a number <= 0", 0,
    ),
    "p_true_normalized_underflow": (
        lambda i: ["run", "--config", i.config(strategy_ids=["standard"], p_true_normalized=True),
                   "--extract", "p_true", "--mock-script", i.q1_script(p_true={"A": -800.0})],
        3, "error: evaluation failed for dataset 'dataset', item 'q1', strategy 'standard': "
           "cannot normalize P(True): p(A) + p(B) is 0 in {{'A': -800.0}}", 2,
    ),
    "record_without_correct": (
        lambda i: ["metrics", "--report", i.report({"correct": MISSING})],
        3, "error: {tmp}/run/records.jsonl:1: invalid record: ", 0,
    ),
    "record_correct_null": (
        lambda i: ["metrics", "--report", i.report({"correct": None})],
        3, "error: {tmp}/run/records.jsonl:1: invalid record: correct must be a bool, not None", 0,
    ),
    "record_correct_a_string": (
        lambda i: ["metrics", "--report", i.report({}, {"item_id": "q2", "correct": "false"})],
        3, "error: {tmp}/run/records.jsonl:2: invalid record: correct must be a bool, not 'false'", 0,
    ),
    "record_concern_a_number": (
        lambda i: ["metrics", "--report", i.report({"concern": 0})],
        3, "error: {tmp}/run/records.jsonl:1: invalid record: concern must be a bool, not 0", 0,
    ),
    "record_item_id_a_number": (
        lambda i: ["metrics", "--report", i.report({"item_id": 1})],
        3, "error: {tmp}/run/records.jsonl:1: invalid record: item_id must be a str, not 1", 0,
    ),
    "record_dataset_null": (
        lambda i: ["metrics", "--report", i.report({"dataset": None})],
        3, "error: {tmp}/run/records.jsonl:1: invalid record: dataset must be a str, not None", 0,
    ),
    "record_strategy_id_a_list": (
        lambda i: ["metrics", "--report", i.report({"strategy_id": ["standard"]})],
        3, "error: {tmp}/run/records.jsonl:1: invalid record: strategy_id must be a str, "
           "not ['standard']", 0,
    ),
    "record_confidences_a_list": (
        lambda i: ["metrics", "--report", i.report({"confidences": [["token_prob", 0.5]]})],
        3, "error: {tmp}/run/records.jsonl:1: invalid record: confidences must be an object, "
           "not [['token_prob', 0.5]]", 0,
    ),
    "record_confidence_a_string": (
        lambda i: ["metrics", "--report", i.report({"confidences": {"token_prob": "0.9"}})],
        3, "error: {tmp}/run/records.jsonl:1: invalid record: confidence 'token_prob' must be a "
           "number in [0, 1], not '0.9'", 0,
    ),
    "record_confidence_a_bool": (
        lambda i: ["metrics", "--report", i.report({"confidences": {"token_prob": True}})],
        3, "error: {tmp}/run/records.jsonl:1: invalid record: confidence 'token_prob' must be a "
           "number in [0, 1], not True", 0,
    ),
    "record_confidence_above_1": (
        lambda i: ["metrics", "--report", i.report({"confidences": {"token_prob": 1.5}})],
        3, "error: {tmp}/run/records.jsonl:1: invalid record: confidence 'token_prob' must be a "
           "number in [0, 1], not 1.5", 0,
    ),
    "record_pair_not_configured": (
        lambda i: ["metrics", "--report", i.report({}, {"strategy_id": "cot"})],
        3, "error: record 'q1' is of dataset 'dataset', strategy 'cot', a pair the config "
           "does not name", 0,
    ),
    "records_missing_for_a_strategy": (
        lambda i: ["metrics", "--report", i.report({}, strategy_ids=("standard", "far_final"))],
        3, "error: dataset 'dataset': each strategy needs one record for each of the same items, "
           "at least one; got record counts {{'standard': 1, 'far_final': 0}}", 0,
    ),
    "record_counts_unequal": (
        lambda i: ["metrics", "--report", i.report(
            {}, {"item_id": "q2"}, {"strategy_id": "far_final"},
            strategy_ids=("standard", "far_final"))],
        3, "error: dataset 'dataset': each strategy needs one record for each of the same items, "
           "at least one; got record counts {{'standard': 2, 'far_final': 1}}", 0,
    ),
    "record_repeated": (
        lambda i: ["metrics", "--report", i.report({}, {}, {"strategy_id": "far_final"},
                                                   {"item_id": "q2", "strategy_id": "far_final"},
                                                   strategy_ids=("standard", "far_final"))],
        3, "error: dataset 'dataset': each strategy needs one record for each of the same items, "
           "at least one; got record counts {{'standard': 2, 'far_final': 2}}", 0,
    ),
    "records_not_utf8": (
        lambda i: ["metrics", "--report", i.report({"item_id": "q\u00e9"}, encoding="latin-1")],
        3, "error: {tmp}/run/records.jsonl:1: invalid record: 'utf-8' codec can't decode byte 0xe9", 0,
    ),
    "record_without_a_configured_method": (
        lambda i: ["metrics", "--report", i.report(
            {}, extraction_method_ids=["token_prob", "p_true"])],
        3, "error: record 'q1' has no confidence for method 'p_true'", 0,
    ),
    "metrics_report_missing": (
        lambda i: ["metrics", "--report", str(i.tmp / "nodir")],
        3, "error: report: [Errno 2] No such file or directory: '{tmp}/nodir/report.json'", 0,
    ),
    "metrics_report_without_config": (
        lambda i: ["metrics", "--report", str(Path(i.file("report.json", "{}")).parent)],
        3, "error: {tmp}/report.json: no valid config block: 'config'", 0,
    ),
    "metrics_config_block_invalid": (
        lambda i: ["metrics", "--report", str(Path(i.file("report.json", json.dumps(
            {"config": {"dataset_path": [str(i.dataset)], "num_buckets": 0}}))).parent)],
        3, "error: {tmp}/report.json: no valid config block: num_buckets must be >= 1", 0,
    ),
    "sweep_demonstrations_count_negative": (
        lambda i: ["sweep", "--config", i.config(demonstrations=[["Q?", "A"]]),
                   "--axis", "demonstrations_count", "--values=-1"],
        1, "error: demonstrations_count must be in 0..1, the number of configured "
           "demonstrations; got -1", 0,
    ),
    "sweep_values_repeated": (
        lambda i: ["sweep", "--config", i.config(), "--axis", "thought_char_budget",
                   "--values", "100,200,100"],
        1, "error: thought_char_budget: 100 is repeated", 0,
    ),
    "demonstration_a_string": (
        lambda i: ["run", "--config", i.config(demonstrations=["QA"])],
        1, "error: demonstrations: each must be a pair of strings, not 'QA'", 0,
    ),
    "demonstration_of_three": (
        lambda i: ["run", "--config", i.config(demonstrations=[["a", "b", "c"]])],
        1, "error: demonstrations: each must be a pair of strings, not ['a', 'b', 'c']", 0,
    ),
    "sweep_values_not_integers": (
        lambda i: ["sweep", "--config", i.config(), "--axis", "thought_char_budget",
                   "--values", "abc"],
        3, "error: --values: invalid literal for int() with base 10: 'abc'", 0,
    ),
    "script_not_json": (
        lambda i: ["run", "--config", i.config(), "--mock-script", i.file("s.json", "not json")],
        2, "error: {tmp}/s.json: Expecting value", 0,
    ),
    "script_is_a_list": (
        lambda i: ["run", "--config", i.config(), "--mock-script", i.file("s.json", "[]")],
        2, "error: {tmp}/s.json: a script must be a JSON object", 0,
    ),
    "script_entries_is_a_list": (
        lambda i: ["run", "--config", i.config(), "--mock-script",
                   i.file("s.json", '{"entries": []}')],
        2, "error: {tmp}/s.json: entries must be an object keyed by prompt", 0,
    ),
    "script_entry_without_text": (
        lambda i: ["run", "--config", i.config(), "--mock-script",
                   i.file("s.json", '{"entries": {"q": {"logprobs": [-0.1]}}}')],
        2, "error: {tmp}/s.json: script entry for 'q' has neither text nor texts", 0,
    ),
    "script_fallback_unknown_value": (
        # Checked when the script loads, before the first request.
        lambda i: ["run", "--config", i.config(), "--mock-script", i.file("s.json", json.dumps(
            {"fallback": "Unknown", "entries": e2e_script_entries()}))],
        2, "error: {tmp}/s.json: fallback must be 'error' or 'unknown', not 'Unknown'", 0,
    ),
    "script_reply_list_empty": (
        # The first request's entry: it used to fail that request, exit 3.
        lambda i: ["run", "--config", i.config(), "--mock-script", i.file("s.json", json.dumps(
            {"entries": {f"Question: {E2E_ITEMS[0].question}\nAnswer:": {"texts": []}}}))],
        2, "error: {tmp}/s.json: script entry for 'Question: Did Aristotle use a laptop?\\nAnswer:' "
           "has no replies", 0,
    ),
    "script_reply_not_a_string": (
        # The first request's entry: it used to fail that request, exit 3.
        lambda i: ["run", "--config", i.config(), "--mock-script", i.file("s.json", json.dumps(
            {"entries": {f"Question: {E2E_ITEMS[0].question}\nAnswer:": [1]}}))],
        2, "error: {tmp}/s.json: script entry for 'Question: Did Aristotle use a laptop?\\nAnswer:' "
           "has a reply that is not a string: 1", 0,
    ),
    "script_top_logprobs_misaligned": (
        # As an endpoint's reply with misaligned logprobs is; it used to exit 3.
        lambda i: ["run", "--config", i.config(strategy_ids=["standard"]), "--mock-script",
                   i.q1_script(answer={"text": "False", "top_logprobs": [{}, {}]})],
        2, "error: evaluation failed for dataset 'dataset', item 'q1', strategy 'standard': "
           "step 'answer' failed: unusable completion: tokens, token_logprobs and top_logprobs "
           "must align", 1,
    ),
    "config_missing": (
        lambda i: ["run", "--config", str(i.tmp / "nope.json")],
        1, "error: config: [Errno 2] No such file or directory: '{tmp}/nope.json'", 0,
    ),
    "config_is_a_directory": (
        lambda i: ["run", "--config", str(i.tmp)],
        1, "error: config: [Errno 21] Is a directory: '{tmp}'", 0,
    ),
    "mock_script_flag_missing": (
        lambda i: ["run", "--config", i.config(), "--mock-script", str(i.tmp / "missing.json")],
        1, "error: backend.script_path: [Errno 2] No such file or directory: '{tmp}/missing.json'", 0,
    ),
    "script_path_missing": (
        lambda i: ["run", "--config", i.config(backend={
                       "kind": "mock", "script_path": str(i.tmp / "missing.json")})],
        1, "error: backend.script_path: [Errno 2] No such file or directory: '{tmp}/missing.json'", 0,
    ),
    "backend_not_an_object": (
        lambda i: ["run", "--config", i.config(backend="mock")],
        1, "error: backend must be an object, not 'mock'", 0,
    ),
    "backend_unknown_key_mock": (
        lambda i: ["run", "--config", i.config(backend={
                       "kind": "mock", "script_path": str(i.script), "timeout": 5})],
        1, "error: backend: unknown keys ['timeout'] for kind 'mock'", 0,
    ),
    "backend_unknown_key_http": (
        lambda i: ["run", "--config", i.config(backend={
                       "kind": "http", "base_url": "http://127.0.0.1:9", "model": "m", "timeout": 5,
                       "script_path": str(i.script)})],
        1, "error: backend: unknown keys ['script_path', 'timeout'] for kind 'http'", 0,
    ),
    "concern_lexicon_flag_missing": (
        lambda i: ["run", "--config", i.config(), "--concern-lexicon", str(i.tmp / "missing.txt")],
        1, "error: concern_lexicon_path: [Errno 2] No such file or directory: '{tmp}/missing.txt'", 0,
    ),
    "concern_lexicon_path_missing": (
        lambda i: ["run", "--config", i.config(concern_lexicon_path=str(i.tmp / "missing.txt"))],
        1, "error: concern_lexicon_path: [Errno 2] No such file or directory: '{tmp}/missing.txt'", 0,
    ),
    "lexicon_not_utf8": (
        lambda i: ["run", "--config", i.config(), "--concern-lexicon",
                   i.file("lexicon.txt", "caf\u00e9\n", encoding="latin-1")],
        1, "error: concern_lexicon_path: 'utf-8' codec can't decode byte 0xe9", 0,
    ),
    "lexicon_without_patterns": (
        lambda i: ["run", "--config", i.config(), "--concern-lexicon",
                   i.file("lexicon.txt", "# no patterns yet\n\n")],
        1, "error: concern_lexicon_path: {tmp}/lexicon.txt: lexicon must contain at least one "
           "pattern", 0,
    ),
    "lexicon_star_only": (
        lambda i: ["run", "--config", i.config(concern_lexicon_path=i.file("lexicon.txt", "*\n"))],
        1, "error: concern_lexicon_path: {tmp}/lexicon.txt: pattern '*' would match the empty "
           "string", 0,
    ),
    "config_a_list": (
        lambda i: ["run", "--config", i.file("c.json", '["a"]')],
        1, "error: {tmp}/c.json: a config must be a JSON object", 0,
    ),
    "config_a_string": (
        lambda i: ["run", "--config", i.file("c.json", '"ab"')],
        1, "error: {tmp}/c.json: a config must be a JSON object", 0,
    ),
    "config_a_number": (
        lambda i: ["run", "--config", i.file("c.json", "5")],
        1, "error: {tmp}/c.json: a config must be a JSON object", 0,
    ),
    "metrics_records_missing": (
        lambda i: ["metrics", "--report", i.report()],
        3, "error: records: [Errno 2] No such file or directory: '{tmp}/run/records.jsonl'", 0,
    ),
    "augment_report_missing": (
        lambda i: ["augment", "--report", str(i.tmp / "nodir")],
        3, "error: no records.jsonl under {tmp}/nodir", 0,
    ),
    "augment_dataset_missing": (
        lambda i: ["augment", "--report", str(Path(i.records()).parent),
                   "--dataset", str(i.tmp / "missing.jsonl")],
        3, "error: dataset: [Errno 2] No such file or directory: '{tmp}/missing.jsonl'", 0,
    ),
    "answers_a_string": (
        lambda i: ["run", "--config", i.config(dataset_path=[i.dataset_line(answers="Paris")])],
        3, "error: {tmp}/d.jsonl:1: invalid item: answers must be a non-empty list of strings, "
           "not 'Paris'", 0,
    ),
    "question_a_number": (
        lambda i: ["run", "--config", i.config(dataset_path=[i.dataset_line(question=42)])],
        3, "error: {tmp}/d.jsonl:1: invalid item: question must be a string, not 42", 0,
    ),
    "id_null": (
        lambda i: ["run", "--config", i.config(dataset_path=[i.dataset_line(id=None)])],
        3, "error: {tmp}/d.jsonl:1: invalid item: id must be a string or an integer, not None", 0,
    ),
    "id_a_bool": (
        lambda i: ["run", "--config", i.config(dataset_path=[i.dataset_line(id=True)])],
        3, "error: {tmp}/d.jsonl:1: invalid item: id must be a string or an integer, not True", 0,
    ),
    "gold_facts_null": (
        lambda i: ["run", "--config", i.config(dataset_path=[i.dataset_line(gold_facts=None)])],
        3, "error: {tmp}/d.jsonl:1: invalid item: gold_facts must be a list of strings, not None", 0,
    ),
    "gold_facts_a_string": (
        lambda i: ["run", "--config", i.config(dataset_path=[i.dataset_line(gold_facts="A fact.")])],
        3, "error: {tmp}/d.jsonl:1: invalid item: gold_facts must be a list of strings, "
           "not 'A fact.'", 0,
    ),
    "answer_kind_unknown": (
        lambda i: ["run", "--config", i.config(dataset_path=[i.file("kinds.jsonl", json.dumps(
            {"id": "q1", "question": "q?", "answers": ["No"], "answer_kind": "boolen"}) + "\n")])],
        3, "error: {tmp}/kinds.jsonl:1: invalid item: item 'q1': answer_kind must be one of "
           "('boolean', 'free_form'), got 'boolen'", 0,
    ),
    "dataset_not_utf8": (
        lambda i: ["run", "--config", i.config(dataset_path=[i.file(
            "d.jsonl", '{"id": "q1", "question": "Caf\u00e9?", "answers": ["Paris"]}\n',
            encoding="latin-1")])],
        3, "error: {tmp}/d.jsonl:1: invalid item: 'utf-8' codec can't decode byte 0xe9", 0,
    ),
    "dataset_is_a_directory": (
        lambda i: ["run", "--config", i.config(dataset_path=[str(i.tmp)])],
        3, "error: dataset: [Errno 21] Is a directory: '{tmp}'", 0,
    ),
    "augment_out_is_a_directory": (
        lambda i: ["augment", "--report", str(Path(i.records("k")).parent), "--out", str(i.tmp),
                   "--dataset", i.file("k.jsonl", json.dumps(
                       {"id": "q4", "question": "q?", "answers": ["a"], "external_knowledge": "k"}))],
        1, "error: --out: [Errno 21] Is a directory: '{tmp}'", 0,
    ),
    "augment_out_without_dataset": (
        # Checked before records.jsonl is read: this run directory has none.
        lambda i: ["augment", "--report", str(i.tmp), "--out", str(i.tmp / "aug.jsonl")],
        1, "error: --out names where the augmented dataset goes; it needs --dataset", 0,
    ),
    "augment_records_span_strategies": (
        lambda i: ["augment", "--report", str(Path(i.report({}, {"strategy_id": "far_final"})))],
        3, "error: the records span several strategies; choose one with --strategy", 0,
    ),
    "augment_records_span_datasets": (
        lambda i: ["augment", "--report", str(Path(i.report({}, {"dataset": "other"})))],
        3, "error: the records span several datasets; choose one with --dataset", 0,
    ),
    "augment_dataset_without_records": (
        lambda i: ["augment", "--report", str(Path(i.records()).parent),
                   "--dataset", i.dataset_line(external_knowledge="k")],
        3, "error: no records for dataset 'd'", 0,
    ),
    "augment_without_external_knowledge": (
        lambda i: ["augment", "--report", str(Path(i.records()).parent), "--dataset", str(i.dataset)],
        3, "error: item 'q4' has no external_knowledge to inject", 0,
    ),
}


@pytest.mark.parametrize("case", list(EXIT_CASES))
def test_exit_code_table(runner, tmp_path, e2e_dataset, e2e_script, mock_calls, case):
    build, code, message, calls = EXIT_CASES[case]
    result = runner.invoke(main, build(Inputs(tmp_path, e2e_dataset, e2e_script)))
    assert type(result.exception) is SystemExit, result.output
    assert result.exit_code == code, result.output
    (line,) = [line for line in result.output.splitlines() if line.startswith("error:")]
    assert line.startswith(message.format(tmp=tmp_path)), line
    assert mock_calls() == calls


def item(**fields) -> QAItem:
    return QAItem(**{"id": "q1", "question": "Capital of France?", "gold_answers": ("Paris",),
                     **fields})


def record(**fields) -> EvalRecord:
    return EvalRecord(**{"item_id": "q1", "correct": True, "confidences": {"token_prob": 0.5},
                         **fields})


# The EXIT_CASES rows whose bad value a constructor takes directly: (type, fields).
CONSTRUCTOR_CASES = {
    "id_null": (item, {"id": None}),
    "id_a_bool": (item, {"id": True}),
    "question_a_number": (item, {"question": 42}),
    "answers_a_string": (item, {"gold_answers": "Paris"}),
    "gold_facts_null": (item, {"gold_facts": None}),
    "gold_facts_a_string": (item, {"gold_facts": "A fact."}),
    "answer_kind_unknown": (item, {"question": "q?", "gold_answers": ("No",),
                                   "answer_kind": "boolen"}),
    "record_correct_null": (record, {"correct": None}),
    "record_correct_a_string": (record, {"correct": "false"}),
    "record_concern_a_number": (record, {"concern": 0}),
    "record_item_id_a_number": (record, {"item_id": 1}),
    "record_dataset_null": (record, {"dataset": None}),
    "record_strategy_id_a_list": (record, {"strategy_id": ["standard"]}),
    "record_confidences_a_list": (record, {"confidences": [["token_prob", 0.5]]}),
    "record_confidence_a_string": (record, {"confidences": {"token_prob": "0.9"}}),
    "record_confidence_a_bool": (record, {"confidences": {"token_prob": True}}),
    "record_confidence_above_1": (record, {"confidences": {"token_prob": 1.5}}),
    "unknown_method": (StrategyConfig, {"extraction_method_ids": ["mystery"]}),
    "repeated_method": (StrategyConfig, {"extraction_method_ids": ["token_prob", "token_prob"]}),
    "methods_a_string": (StrategyConfig, {"extraction_method_ids": "token_prob"}),
    "thought_char_budget_negative": (StrategyConfig, {"thought_char_budget": -5}),
    "temperature_nan": (StrategyConfig, {"temperature": float("nan")}),
    "temperature_true": (StrategyConfig, {"temperature": True}),
    "max_tokens_a_float": (StrategyConfig, {"max_tokens": 60.5}),
    "self_consistency_n_a_bool": (StrategyConfig, {"self_consistency_n": True}),
    "demonstration_a_string": (StrategyConfig, {"demonstrations": ["QA"]}),
    "demonstration_of_three": (StrategyConfig, {"demonstrations": [["a", "b", "c"]]}),
}


@pytest.mark.parametrize("case", list(CONSTRUCTOR_CASES))
def test_constructor_rejects_what_its_file_rejects(case):
    build, fields = CONSTRUCTOR_CASES[case]
    # The row's message, less the prefix that names the file and line.
    expected = re.sub(r"^error: (\{tmp\}\S*: invalid (item|record): )?", "", EXIT_CASES[case][2])
    with pytest.raises((TypeError, ValueError)) as info:
        build(**fields)
    assert str(info.value).startswith(expected), info.value
