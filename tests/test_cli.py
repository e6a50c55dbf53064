import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from calibra import harness
from calibra.cli import main
from conftest import E2E_ITEMS, E2E_STANDARD, add_verbalized_entry, e2e_script_entries


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
    path.write_text(json.dumps(body))
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
        assert f"error: {field} must be >= " in result.output

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
        script.write_text(json.dumps({"entries": {}}))
        config = write_config(tmp_path, e2e_dataset, script)
        result = runner.invoke(main, ["run", "--config", str(config)])
        assert result.exit_code == 2

    def test_bad_dataset_exit_3(self, runner, tmp_path, e2e_script):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        config = write_config(tmp_path, bad, e2e_script)
        result = runner.invoke(main, ["run", "--config", str(config)])
        assert result.exit_code == 3

    def test_malformed_cache_exit_3(self, runner, tmp_path, e2e_dataset, e2e_script):
        cache = tmp_path / "bad.jsonl"
        cache.write_text('{"oops": 1}\n')
        config = write_config(tmp_path, e2e_dataset, e2e_script)
        result = runner.invoke(main, ["run", "--config", str(config), "--cache", str(cache)])
        assert result.exit_code == 3, result.output
        assert f"error: {cache}:1: invalid cache line: missing key 'request_hash'" in result.output

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


class TestMetrics:
    def test_recompute_matches_report(self, runner, tmp_path, e2e_dataset, e2e_script):
        config = write_config(tmp_path, e2e_dataset, e2e_script)
        out = tmp_path / "out"
        assert runner.invoke(main, ["run", "--config", str(config), "--out", str(out)]).exit_code == 0
        result = runner.invoke(
            main, ["metrics", "--records", str(out / "records.jsonl"), "--buckets", "10"]
        )
        assert result.exit_code == 0, result.output
        recomputed = json.loads(result.output)
        report = json.loads((out / "report.json").read_text())
        assert list(recomputed) == [e2e_dataset.stem]
        for sid in ("standard", "far_final"):
            stored = report["datasets"][0]["strategies"][sid]["extractions"]["token_prob"]
            assert recomputed[e2e_dataset.stem][sid]["token_prob"]["ece"] == pytest.approx(
                stored["ece"], abs=1e-12
            )

    def test_groups_by_dataset_then_strategy(self, runner, tmp_path):
        rows = [
            {"dataset": "a.jsonl", "item_id": "1", "strategy_id": "standard", "correct": True,
             "concern": False, "confidences": {"token_prob": 0.9}},
            {"dataset": "b.jsonl", "item_id": "1", "strategy_id": "standard", "correct": False,
             "concern": False, "confidences": {"token_prob": 0.9}},
            # A file written before the dataset column existed.
            {"item_id": "1", "strategy_id": "standard", "correct": True,
             "concern": False, "confidences": {"token_prob": 0.4}},
        ]
        path = tmp_path / "records.jsonl"
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        result = runner.invoke(main, ["metrics", "--records", str(path)])
        assert result.exit_code == 0, result.output
        out = json.loads(result.output)
        assert set(out) == {"a.jsonl", "b.jsonl", "(all)"}
        assert out["a.jsonl"]["standard"]["token_prob"]["accuracy"] == 1.0
        assert out["b.jsonl"]["standard"]["token_prob"]["accuracy"] == 0.0
        assert out["(all)"]["standard"]["token_prob"]["avg_confidence"] == 0.4

    def test_empty_records_exit_3(self, runner, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text("")
        result = runner.invoke(main, ["metrics", "--records", str(path)])
        assert result.exit_code == 3


class TestAugment:
    def run_report(self, runner, tmp_path, e2e_dataset, e2e_script):
        config = write_config(tmp_path, e2e_dataset, e2e_script)
        out = tmp_path / "out"
        assert runner.invoke(main, ["run", "--config", str(config), "--out", str(out)]).exit_code == 0
        return out

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
        rows = [json.loads(line) for line in e2e_dataset.read_text().splitlines()]
        for row in rows:
            row["external_knowledge"] = f"Background for {row['id']}."
        enriched = tmp_path / "enriched.jsonl"
        enriched.write_text("".join(json.dumps(r) + "\n" for r in rows))
        result = runner.invoke(
            main,
            ["augment", "--report", str(out), "--strategy", "far_final",
             "--dataset", str(enriched), "--out", str(tmp_path / "aug.jsonl")],
        )
        assert result.exit_code == 0, result.output
        augmented = [json.loads(l) for l in (tmp_path / "aug.jsonl").read_text().splitlines()]
        by_id = {r["id"]: r for r in augmented}
        assert by_id["q4"]["question"].startswith("Knowledge: Background for q4.")
        assert by_id["q1"]["question"] == rows[0]["question"]

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


class Inputs:
    """The files one exit-code case reads, all under `tmp`."""

    def __init__(self, tmp, dataset, script):
        self.tmp, self.dataset, self.script = tmp, dataset, script

    def config(self, **extra) -> str:
        return str(write_config(self.tmp, self.dataset, self.script, **extra))

    def file(self, name: str, text: str = "") -> str:
        path = self.tmp / name
        path.write_text(text)
        return str(path)

    def records(self) -> str:
        row = {"item_id": "q4", "strategy_id": "far_final", "correct": False,
               "concern": True, "confidences": {"token_prob": 0.3}}
        return self.file("records.jsonl", json.dumps(row) + "\n")

    def verbalized_yes_script(self) -> str:
        # The first evaluation (q1, standard) gets "Yes" where a confidence belongs.
        entries = e2e_script_entries()
        prompt = f"Question: {E2E_ITEMS[0].question}\nAnswer:"
        add_verbalized_entry(entries, f"{prompt} {E2E_STANDARD['q1']['text']}", "Yes")
        return self.file("yes.json", json.dumps({"entries": entries}))


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
    "config_not_json": (
        lambda i: ["run", "--config", i.file("bad.json", "{")],
        1, "error: {tmp}/bad.json: Expecting property name", 0,
    ),
    "run_buckets_0": (
        lambda i: ["run", "--config", i.config(), "--buckets", "0"],
        1, "error: num_buckets must be >= 1", 0,
    ),
    "metrics_buckets_0": (
        lambda i: ["metrics", "--records", i.records(), "--buckets", "0"],
        1, "error: --buckets must be >= 1", 0,
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
                   "--mock-script", i.verbalized_yes_script()],
        3, "error: evaluation failed for dataset 'dataset', item 'q1', strategy 'standard': "
           "no numeral in confidence reply: 'Yes'", 2,
    ),
    "record_without_correct": (
        lambda i: ["metrics", "--records", i.file("records.jsonl",
                                                  '{"item_id": "1", "confidences": {"p": 1}}\n')],
        3, "error: {tmp}/records.jsonl:1: invalid record: ", 0,
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
    "script_reply_list_empty": (
        # The first request's entry: it used to fail that request, exit 3.
        lambda i: ["run", "--config", i.config(), "--mock-script", i.file("s.json", json.dumps(
            {"entries": {f"Question: {E2E_ITEMS[0].question}\nAnswer:": {"texts": []}}}))],
        2, "error: {tmp}/s.json: script entry for 'Question: Did Aristotle use a laptop?\\nAnswer:' "
           "has no replies", 0,
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
    "metrics_records_missing": (
        lambda i: ["metrics", "--records", str(i.tmp / "missing.jsonl")],
        3, "error: records: [Errno 2] No such file or directory: '{tmp}/missing.jsonl'", 0,
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
    "dataset_is_a_directory": (
        lambda i: ["run", "--config", i.config(dataset_path=[str(i.tmp)])],
        3, "error: dataset: [Errno 21] Is a directory: '{tmp}'", 0,
    ),
    "augment_out_is_a_directory": (
        lambda i: ["augment", "--report", str(Path(i.records()).parent), "--out", str(i.tmp),
                   "--dataset", i.file("k.jsonl", json.dumps(
                       {"id": "q4", "question": "q?", "answers": ["a"], "external_knowledge": "k"}))],
        1, "error: --out: [Errno 21] Is a directory: '{tmp}'", 0,
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
