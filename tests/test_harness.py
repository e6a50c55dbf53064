import dataclasses
import importlib.util
import json
import re
import shutil
import time
from pathlib import Path

import pytest

from calibra import harness
from calibra import metrics as cal
from calibra.harness import (
    ConfigError,
    DataError,
    RunConfig,
    build_backend,
    load_dataset,
    read_records,
    run_eval,
    sweep,
)
from calibra.backend import (
    LINE_ENCODER,
    Completion,
    HttpBackend,
    ResponseCache,
    ScriptError,
    load_mock_script,
    mock_from_script,
)
from calibra.strategies import STRATEGY_IDS, StrategyConfig, execute, plan
from conftest import (
    E2E_FAR_ANSWER,
    E2E_FAR_THOUGHTS,
    E2E_ITEMS,
    E2E_STANDARD,
    add_p_true_entry,
    add_verbalized_entry,
    build_script,
)

BENCH = Path(__file__).resolve().parent.parent / "bench"


def write_lines(path, rows):
    with path.open("w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


class TestLoadDataset:
    def test_valid_boolean_item(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_lines(path, [{"id": "1", "question": "q?", "answers": ["yes"], "answer_kind": "boolean"}])
        items = load_dataset(path)
        assert items[0].gold_boolean == "true"

    def test_duplicate_id_names_both_lines(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_lines(path, [
            {"id": "1", "question": "a?", "answers": ["x"]},
            {"id": "1", "question": "b?", "answers": ["y"]},
        ])
        with pytest.raises(DataError, match="line 1"):
            load_dataset(path)

    def test_invalid_boolean_alias(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_lines(path, [{"id": "1", "question": "q?", "answers": ["maybe"], "answer_kind": "boolean"}])
        with pytest.raises(DataError, match=":1"):
            load_dataset(path)

    def test_malformed_line_number(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(
            '{"id": "1", "question": "q?", "answers": ["x"]}\nnot json\n', encoding="utf-8"
        )
        with pytest.raises(DataError, match=":2"):
            load_dataset(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_dataset(tmp_path / "absent.jsonl")

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_each_line_ending_gives_the_same_items_and_line_numbers(self, tmp_path, newline):
        path = tmp_path / "d.jsonl"
        first = json.dumps({"id": "1", "question": "Café?", "answers": ["x"]}, ensure_ascii=False)
        # A line of Unicode whitespace alone is blank.
        lines = [first, " ", json.dumps({"id": "2", "question": "q?", "answers": ["y"]})]
        path.write_bytes((newline.join(lines) + newline).encode("utf-8"))
        assert [(i.id, i.question) for i in load_dataset(path)] == [("1", "Café?"), ("2", "q?")]
        path.write_bytes(newline.join([*lines, first]).encode("utf-8"))
        with pytest.raises(DataError, match=r":4: duplicate id '1' \(first seen on line 1\)"):
            load_dataset(path)

    def test_integer_id_is_stored_as_its_string(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_lines(path, [{"id": 7, "question": "q?", "answers": ["x"]},
                           {"id": "7", "question": "r?", "answers": ["y"]}])
        with pytest.raises(DataError, match="duplicate id '7'"):
            load_dataset(path)
        write_lines(path, [{"id": 7, "question": "q?", "answers": ["x"]}])
        assert [item.id for item in load_dataset(path)] == ["7"]


def e2e_config(e2e_dataset, e2e_script, tmp_path, **overrides):
    kwargs = dict(
        dataset_path=[str(e2e_dataset)],
        strategy_ids=["standard", "far_final"],
        extraction_method_ids=["token_prob"],
        backend={"kind": "mock", "script_path": str(e2e_script)},
        num_buckets=10,
        worker_count=1,
        out_dir=str(tmp_path / "out"),
    )
    kwargs.update(overrides)
    return RunConfig(**kwargs)


class TestRunEval:
    def test_matches_frozen_oracle(self, e2e_dataset, e2e_script, tmp_path, e2e_expected):
        config = e2e_config(e2e_dataset, e2e_script, tmp_path)
        report = run_eval(config)
        for sid in ("standard", "far_final"):
            entry = report.datasets[0]["strategies"][sid]["extractions"]["token_prob"]
            expected = e2e_expected[sid]["token_prob"]
            for key in ("ece", "macro_ce", "ice_pos", "ice_neg", "accuracy", "avg_confidence"):
                assert entry[key] == pytest.approx(expected[key], abs=1e-12), (sid, key)

    def test_byte_identical_across_worker_counts(self, e2e_dataset, e2e_script, tmp_path):
        a = run_eval(e2e_config(e2e_dataset, e2e_script, tmp_path / "a", worker_count=1,
                                out_dir=str(tmp_path / "a/out")))
        b = run_eval(e2e_config(e2e_dataset, e2e_script, tmp_path / "b", worker_count=8,
                                out_dir=str(tmp_path / "b/out")))
        assert a.to_json() == b.to_json()
        report_a = (tmp_path / "a/out/report.json").read_bytes()
        report_b = (tmp_path / "b/out/report.json").read_bytes()
        assert report_a == report_b

    def test_every_output_byte_identical_across_worker_counts(
        self, e2e_dataset, e2e_script, tmp_path
    ):
        scripted = load_mock_script(e2e_script)

        class FirstItemLast:
            """Slows q1's calls so that, with several workers, q1 finishes last."""

            def complete(self, request):
                if E2E_ITEMS[0].question in request.prompt:
                    time.sleep(0.02)
                return scripted.complete(request)

        trees = []
        for workers in (1, 4):
            out = tmp_path / f"workers_{workers}"
            config = e2e_config(e2e_dataset, e2e_script, tmp_path, worker_count=workers,
                                out_dir=str(out))
            run_eval(config, backend=FirstItemLast())
            trees.append({
                path.relative_to(out).as_posix(): path.read_bytes()
                for path in sorted(out.rglob("*"))
                if path.is_file() and path.name != "run_meta.json"
            })
        assert {"report.json", "records.jsonl", "metrics.csv", "transcripts.jsonl"} <= set(trees[0])
        assert any(name.startswith("curves/") for name in trees[0])
        assert trees[0] == trees[1]

    def test_cache_handle_closed_after_success_and_failure(
        self, e2e_dataset, e2e_script, tmp_path, monkeypatch
    ):
        handles = []

        class RecordingCache(ResponseCache):
            def _open_for_append(self):
                handles.append(super()._open_for_append())
                return handles[-1]

        monkeypatch.setattr(harness, "ResponseCache", RecordingCache)
        scripted = load_mock_script(e2e_script)

        class FailsOnThirdCall:
            calls = 0

            def complete(self, request):
                self.calls += 1
                if self.calls == 3:
                    raise ScriptError("scripted failure")
                return scripted.complete(request)

        run_eval(e2e_config(e2e_dataset, e2e_script, tmp_path,
                            cache_path=str(tmp_path / "ok.jsonl")))
        with pytest.raises(RuntimeError, match="scripted failure"):
            run_eval(
                e2e_config(e2e_dataset, e2e_script, tmp_path,
                           cache_path=str(tmp_path / "failed.jsonl")),
                backend=FailsOnThirdCall(),
            )
        assert len(handles) == 2
        assert all(fh.closed for fh in handles)
        assert len(ResponseCache(tmp_path / "failed.jsonl", scripted)) == 2

    def test_concern_flag_on_far_answer(self, e2e_dataset, e2e_script, tmp_path):
        config = e2e_config(e2e_dataset, e2e_script, tmp_path)
        report = run_eval(config)
        far = report.datasets[0]["strategies"]["far_final"]
        assert far["concern_rate"] == 0.25  # q4 expresses concern
        flagged = [
            r for r in read_records(Path(config.out_dir) / "records.jsonl")
            if r.strategy_id == "far_final" and r.concern
        ]
        assert [r.item_id for r in flagged] == ["q4"]

    def test_self_audit_from_records(self, e2e_dataset, e2e_script, tmp_path):
        config = e2e_config(e2e_dataset, e2e_script, tmp_path)
        report = run_eval(config)
        all_records = read_records(Path(config.out_dir) / "records.jsonl")
        for sid in config.strategy_ids:
            records = [r for r in all_records if r.strategy_id == sid]
            stored = report.datasets[0]["strategies"][sid]["extractions"]["token_prob"]
            summary = cal.summarize(records, "token_prob", 10)
            assert summary.ece == pytest.approx(stored["ece"], abs=1e-12)
            assert summary.macro_ce == pytest.approx(stored["macro_ce"], abs=1e-12)

    def test_report_json_reload_self_audit(self, e2e_dataset, e2e_script, tmp_path):
        config = e2e_config(e2e_dataset, e2e_script, tmp_path)
        run_eval(config)
        reloaded = json.loads((Path(config.out_dir) / "report.json").read_text(encoding="utf-8"))
        records = [
            r for r in read_records(Path(config.out_dir) / "records.jsonl")
            if r.strategy_id == "standard"
        ]
        stored = reloaded["datasets"][0]["strategies"]["standard"]["extractions"]["token_prob"]
        assert cal.summarize(records, "token_prob", 10).ece == pytest.approx(stored["ece"], abs=1e-12)

    def test_transcripts_persisted(self, e2e_dataset, e2e_script, tmp_path):
        config = e2e_config(e2e_dataset, e2e_script, tmp_path)
        run_eval(config)
        transcripts = Path(config.out_dir) / "transcripts.jsonl"
        lines = transcripts.read_text(encoding="utf-8").strip().splitlines()
        assert len(lines) == 8  # 4 items x 2 strategies
        parsed = [json.loads(line) for line in lines]
        assert {t["strategy_id"] for t in parsed} == {"standard", "far_final"}

    def test_transcript_lines_are_the_transcript_json(self, tmp_path):
        class Varied:
            """Replies vary with prompt and seed, so votes split and self_ask follows up."""

            replies = ("Yes, \"quoted\" caf\u00e9.", "No.", "Yes.", "True \u2713")

            def complete(self, request):
                text = self.replies[(len(request.prompt) + (request.seed or 0)) % 4]
                tokens = (text[:3], text[3:])
                logprobs = (-0.125, -1.0 / 3.0)
                top = tuple({tok: lp, "alt": lp - 2.0} for tok, lp in zip(tokens, logprobs))
                return Completion(text, tokens, logprobs, top)

        items = [
            {"id": item.id, "question": item.question, "answers": list(item.gold_answers),
             "answer_kind": item.answer_kind, "gold_facts": ["A fact.", "Another."]}
            for item in E2E_ITEMS
        ]
        dataset = tmp_path / "d.jsonl"
        write_lines(dataset, items)
        config = RunConfig(
            dataset_path=[str(dataset)],
            strategy_ids=list(STRATEGY_IDS),
            out_dir=str(tmp_path / "out"),
            worker_count=1,
        )
        run_eval(config, backend=Varied())

        lines = (tmp_path / "out" / "transcripts.jsonl").read_text(encoding="utf-8")
        lines = lines.splitlines(keepends=True)
        expected = []
        for sid in STRATEGY_IDS:
            for item in load_dataset(dataset):
                transcript = execute(plan(sid, item, StrategyConfig()), item, Varied())
                expected.append(
                    json.dumps(transcript.to_dict(), sort_keys=True, separators=(",", ":")) + "\n"
                )
        assert lines == expected
        parsed = [json.loads(line) for line in lines]
        votes = [t["vote"] for t in parsed if t["strategy_id"] == "self_consistency"]
        assert votes and all(len(v["counts"]) > 1 for v in votes)
        followups = [
            step for t in parsed if t["strategy_id"] == "self_ask"
            for step in t["steps"] if step["step"] == "followup_answer"
        ]
        assert followups

    def test_cache_resume_skips_backend(self, e2e_dataset, e2e_script, tmp_path):
        cache_path = tmp_path / "cache.jsonl"
        config = e2e_config(e2e_dataset, e2e_script, tmp_path, cache_path=str(cache_path))
        run_eval(config)
        first_size = cache_path.stat().st_size
        backend = mock_from_script({})  # would fail on any real request
        rerun = e2e_config(e2e_dataset, e2e_script, tmp_path, cache_path=str(cache_path),
                           out_dir=str(tmp_path / "out2"))
        report = run_eval(rerun, backend=backend)
        assert backend.call_count == 0
        assert cache_path.stat().st_size == first_size
        assert report.datasets[0]["strategies"]["standard"]["accuracy"] == 0.75

    def test_cache_holds_tokens_only_for_requests_that_asked(self, e2e_dataset, tmp_path):
        entries: dict = {}
        for item in E2E_ITEMS:
            for sid, steps in (
                ("standard", {"answer": E2E_STANDARD[item.id]}),
                ("far_final", {**E2E_FAR_THOUGHTS, "answer": E2E_FAR_ANSWER[item.id]}),
            ):
                script = build_script(sid, item, steps)
                entries.update(script)
                answer_prompt, answer = list(script.items())[-1]
                context = f"{answer_prompt} {answer['text']}"
                add_p_true_entry(entries, context, answer["text"], {" A": -0.2, " B": -1.8})
                add_verbalized_entry(entries, context, "0.8")
        cache_path = tmp_path / "cache.jsonl"
        config = RunConfig(
            dataset_path=[str(e2e_dataset)],
            strategy_ids=["standard", "far_final"],
            extraction_method_ids=["token_prob", "p_true", "verbalized"],
            cache_path=str(cache_path),
            worker_count=1,
        )
        run_eval(config, backend=mock_from_script(entries))
        lines = [json.loads(line) for line in cache_path.read_text(encoding="utf-8").splitlines()]
        arrays = ("tokens", "token_logprobs", "top_logprobs")
        asked = [line for line in lines if line["request"]["top_logprobs"] > 0]
        not_asked = [line for line in lines if line["request"]["top_logprobs"] == 0]
        # 4 items: far_final's fact, source and reflection steps, and the
        # verbalized probe of both strategies, ask for no logprobs.
        assert len(not_asked) == 4 * (3 + 2)
        thoughts = set(E2E_FAR_THOUGHTS.values())
        for line in not_asked:
            completion = line["completion"]
            assert completion["text"] in thoughts or completion["text"] == "0.8"
            assert all(completion[name] == [] for name in arrays)
        # The answer steps and the P(True) probes of both strategies.
        assert len(asked) == 4 * (2 + 2)
        for line in asked:
            assert all(line["completion"][name] for name in arrays)

    def test_empty_dataset_errors(self, e2e_script, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        config = RunConfig(
            dataset_path=[str(empty)],
            backend={"kind": "mock", "script_path": str(e2e_script)},
        )
        with pytest.raises(DataError):
            run_eval(config)

    def test_failure_names_item_and_strategy(self, e2e_dataset, tmp_path):
        config = RunConfig(
            dataset_path=[str(e2e_dataset)],
            strategy_ids=["standard"],
            backend={"kind": "mock", "script_path": "unused"},
            worker_count=1,
        )
        backend = mock_from_script({})
        with pytest.raises(RuntimeError, match=r"q1.*standard"):
            run_eval(config, backend=backend)

    def test_unknown_method_fails_before_any_request(self, e2e_dataset, e2e_script, tmp_path):
        # A checked config cannot change, and a variant of it is checked again.
        config = e2e_config(e2e_dataset, e2e_script, tmp_path)
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.extraction_method_ids = ["token_prob", "mystery"]
        backend = load_mock_script(e2e_script)
        with pytest.raises(ConfigError, match="extraction_method_ids: unknown id 'mystery'"):
            run_eval(dataclasses.replace(
                config, extraction_method_ids=["token_prob", "mystery"]), backend=backend)
        assert backend.call_count == 0

    def test_macro_average_over_two_datasets(self, e2e_dataset, e2e_script, tmp_path):
        second = tmp_path / "second.jsonl"
        rows = [json.loads(line) for line in e2e_dataset.read_text(encoding="utf-8").splitlines()]
        for row in rows:
            row["id"] = row["id"].replace("q", "r")
        write_lines(second, rows)
        config = dataclasses.replace(e2e_config(e2e_dataset, e2e_script, tmp_path),
                                     dataset_path=[str(e2e_dataset), str(second)])
        # same questions under new ids need matching script entries; the mock
        # script keys on prompts, which depend only on question text.
        report = run_eval(config)
        assert report.macro is not None
        per_ds = [
            block["strategies"]["standard"]["extractions"]["token_prob"]["ece"]
            for block in report.datasets
        ]
        macro_ece = report.macro["strategies"]["standard"]["extractions"]["token_prob"]["ece"]
        assert macro_ece == pytest.approx(sum(per_ds) / 2)


class TestReadRecords:
    @pytest.mark.parametrize(
        "line, detail",
        [
            ('{"item_id": "1", "confidences": {"p": 1}}', "argument: 'correct'"),
            ('{"item_id": "1", "correct": true, "confidences": {}}', "at least one confidence"),
            ('{"item_id": "1", "correct": true, "confidences": {"p": 1}, "x": 1}', "argument 'x'"),
            ("[1]", "must be a mapping"),
            ("{", "Expecting property name"),
        ],
    )
    def test_invalid_line_names_file_and_line(self, tmp_path, line, detail):
        path = tmp_path / "records.jsonl"
        first = '{"item_id": "0", "correct": true, "confidences": {"p": 0.5}}\n\n'
        path.write_text(first + line, encoding="utf-8")
        message = re.escape(f"{path}:3: invalid record: ") + ".*" + re.escape(detail)
        with pytest.raises(DataError, match=message):
            read_records(path)


class TestEmitReport:
    def test_files_written(self, e2e_dataset, e2e_script, tmp_path):
        config = e2e_config(e2e_dataset, e2e_script, tmp_path)
        report = run_eval(config)
        out = Path(config.out_dir)
        assert (out / "report.json").exists()
        assert (out / "metrics.csv").exists()
        assert (out / "records.jsonl").exists()
        meta = json.loads((out / "run_meta.json").read_text(encoding="utf-8"))
        assert sorted(meta) == ["transcripts_path", "written_at"]
        assert meta["transcripts_path"] == str(out / "transcripts.jsonl")
        # Emitted where no run wrote transcripts, the sidecar names none.
        harness.emit_report(report, tmp_path / "bare", [], {})
        bare_meta = json.loads((tmp_path / "bare" / "run_meta.json").read_text(encoding="utf-8"))
        assert sorted(bare_meta) == ["written_at"]
        curves = list((out / "curves").glob("*.csv"))
        # 2 strategies x 1 method x 2 curve kinds
        assert len(curves) == 4

    def test_csv_row_count(self, e2e_dataset, e2e_script, tmp_path):
        config = e2e_config(e2e_dataset, e2e_script, tmp_path)
        run_eval(config)
        metrics_csv = Path(config.out_dir) / "metrics.csv"
        rows = metrics_csv.read_text(encoding="utf-8").strip().splitlines()
        assert len(rows) == 1 + len(config.strategy_ids) * len(config.extraction_method_ids)

    def test_kde_curves_integrate_to_one(self, e2e_dataset, e2e_script, tmp_path):
        config = e2e_config(e2e_dataset, e2e_script, tmp_path)
        run_eval(config)
        import numpy as np

        paths = sorted((Path(config.out_dir) / "curves").glob("*__kde.csv"))
        assert len(paths) == len(config.strategy_ids) * len(config.extraction_method_ids)
        for path in paths:
            xs, ys = np.loadtxt(path, delimiter=",", skiprows=1, unpack=True)
            integral = (getattr(np, "trapezoid", None) or np.trapz)(ys, xs)
            assert abs(integral - 1.0) <= 1e-3

    def test_histogram_rows_hold_the_report_buckets(self, e2e_dataset, tmp_path):
        # 0.3, 0.6 and 0.7 sit on bucket edges, where float bin edges can put a value one bin low.
        entries = {}
        for item, reply in zip(E2E_ITEMS, ("0.3", "0.6", "0.7", "0.7")):
            entries.update(build_script("standard", item, {"answer": E2E_STANDARD[item.id]}))
            prompt = f"Question: {item.question}\nAnswer: {E2E_STANDARD[item.id]['text']}"
            add_verbalized_entry(entries, prompt, reply)
        script = tmp_path / "script.json"
        script.write_text(json.dumps({"entries": entries}), encoding="utf-8")
        config = e2e_config(e2e_dataset, script, tmp_path, strategy_ids=["standard"],
                            extraction_method_ids=["verbalized"])
        run_eval(config)
        out = Path(config.out_dir)
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        entry = report["datasets"][0]["strategies"]["standard"]["extractions"]["verbalized"]
        width = entry["curves"]["histogram"]["bandwidth"]
        path = out / "curves" / "dataset__standard__verbalized__histogram.csv"
        rows = path.read_text(encoding="utf-8").splitlines()[1:]
        assert len(rows) == len(entry["buckets"]) == 10
        for row, bucket in zip(rows, entry["buckets"]):
            x, density = map(float, row.split(","))
            assert bucket["lower"] <= x < bucket["upper"]
            assert density * entry["n"] * width == pytest.approx(bucket["size"], abs=1e-9)
        assert [b["size"] for b in entry["buckets"]] == [0, 0, 0, 1, 0, 0, 1, 2, 0, 0]

    def test_report_json_is_one_sorted_line_that_reloads(self, e2e_dataset, e2e_script, tmp_path):
        config = e2e_config(e2e_dataset, e2e_script, tmp_path)
        report = run_eval(config)
        path = Path(config.out_dir) / "report.json"
        assert path.read_text(encoding="utf-8") == LINE_ENCODER.encode(report.to_dict()) + "\n"
        assert json.loads(path.read_text(encoding="utf-8")) == json.loads(report.to_json())

    def test_report_json_holds_summaries_only(self, e2e_dataset, e2e_script, tmp_path):
        config = e2e_config(e2e_dataset, e2e_script, tmp_path)
        run_eval(config)
        report = json.loads((Path(config.out_dir) / "report.json").read_text(encoding="utf-8"))

        def keys(value):
            if isinstance(value, dict):
                for key, inner in value.items():
                    yield key
                    yield from keys(inner)
            elif isinstance(value, list):
                for inner in value:
                    yield from keys(inner)

        assert not {"records", "points", "member_ids"} & set(keys(report))
        entries = [
            entry for strat in report["datasets"][0]["strategies"].values()
            for entry in strat["extractions"].values()
        ]
        assert len(entries) == 2
        for entry in entries:
            assert sum(b["size"] for b in entry["buckets"]) == entry["n"] == len(E2E_ITEMS)
            assert set(entry["curves"]) == {"histogram", "kde"}

    def test_records_carry_the_dataset_column(self, e2e_dataset, e2e_script, tmp_path):
        second = tmp_path / "second.jsonl"
        rows = [json.loads(line) for line in e2e_dataset.read_text(encoding="utf-8").splitlines()]
        write_lines(second, [dict(row, id=row["id"].replace("q", "r")) for row in rows])
        config = dataclasses.replace(e2e_config(e2e_dataset, e2e_script, tmp_path),
                                     dataset_path=[str(e2e_dataset), str(second)])
        assert config.dataset_path == (str(e2e_dataset), str(second))
        report = run_eval(config)
        records = read_records(Path(config.out_dir) / "records.jsonl")
        assert [r.dataset for r in records] == ["dataset"] * 8 + ["second"] * 8
        assert tuple(block["path"] for block in report.datasets) == config.dataset_path
        metrics_csv = Path(config.out_dir) / "metrics.csv"
        metrics_rows = metrics_csv.read_text(encoding="utf-8").splitlines()[1:]
        assert [row.split(",")[0] for row in metrics_rows] == ["dataset"] * 2 + ["second"] * 2

    def test_records_and_metrics_do_not_depend_on_the_inputs_location(
        self, e2e_dataset, e2e_script, tmp_path
    ):
        outputs = []
        for where in (tmp_path / "a", tmp_path / "b" / "deeper"):
            where.mkdir(parents=True)
            shutil.copy(e2e_dataset, where / e2e_dataset.name)
            shutil.copy(e2e_script, where / e2e_script.name)
            config = e2e_config(where / e2e_dataset.name, where / e2e_script.name, where)
            run_eval(config)
            out = Path(config.out_dir)
            outputs.append([(out / name).read_bytes() for name in ("records.jsonl", "metrics.csv")])
        assert outputs[0] == outputs[1]

    def test_bench_inputs_fit_the_size_budget(self, tmp_path):
        # Read-only use of the benchmark's seeded generator: 250 items, three
        # strategies, every extraction method.
        spec = importlib.util.spec_from_file_location("bench_workload", BENCH / "workload.py")
        workload = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workload)
        inputs = tmp_path / "inputs"
        workload.generate(5, 250, inputs)
        out = tmp_path / "out"
        run_eval(RunConfig(
            dataset_path=[str(inputs / "dataset.jsonl")],
            strategy_ids=list(workload.STRATEGIES),
            extraction_method_ids=list(workload.METHODS),
            backend={"kind": "mock", "script_path": str(inputs / "script.json")},
            worker_count=1,
            out_dir=str(out),
        ))
        assert (out / "report.json").stat().st_size <= 20_000
        assert (out / "transcripts.jsonl").stat().st_size <= 1_650_000


class TestSweep:
    def test_budget_sweep_two_reports(self, e2e_dataset, e2e_script, tmp_path):
        config = e2e_config(e2e_dataset, e2e_script, tmp_path, strategy_ids=["standard"],
                            out_dir=None)
        # standard has no {prior:...} injections, so any budget reproduces it
        reports = sweep(config, "thought_char_budget", [100, 200])
        assert set(reports) == {100, 200}

    def test_demonstration_sweep_prompt_growth(self, e2e_dataset, tmp_path):
        demos = [["2+2?", "4"], ["Capital of France?", "Paris"]]
        entries = {}
        from calibra.strategies import StrategyConfig

        for count in (0, 1, 2):
            cfg = StrategyConfig(demonstrations=tuple(tuple(d) for d in demos[:count]))
            for item in E2E_ITEMS:
                entries.update(build_script("standard", item, {"answer": "True"}, cfg))
        script = tmp_path / "script.json"
        script.write_text(json.dumps({"entries": entries}), encoding="utf-8")
        config = RunConfig(
            dataset_path=[str(e2e_dataset)],
            strategy_ids=["standard"],
            backend={"kind": "mock", "script_path": str(script)},
            demonstrations=demos,
            worker_count=1,
            out_dir=str(tmp_path / "sweep"),
        )
        sweep(config, "demonstrations_count", [0, 1, 2])
        lengths = []
        for count in (0, 1, 2):
            meta_path = tmp_path / "sweep" / f"demonstrations_count_{count}" / "run_meta.json"
            transcripts_path = json.loads(meta_path.read_text(encoding="utf-8"))["transcripts_path"]
            transcripts = Path(transcripts_path).read_text(encoding="utf-8").splitlines()
            first = json.loads(transcripts[0])
            lengths.append(len(first["steps"][0]["prompt"]))
        assert lengths[0] < lengths[1] < lengths[2]

    def test_empty_values_rejected(self, e2e_dataset, e2e_script, tmp_path):
        config = e2e_config(e2e_dataset, e2e_script, tmp_path)
        with pytest.raises(ConfigError):
            sweep(config, "thought_char_budget", [])

    @pytest.mark.parametrize("axis, values, message", [
        ("thought_char_budget", [100, 200, 100], "thought_char_budget: 100 is repeated"),
        ("demonstrations_count", [1, 0, 1], "demonstrations_count: 1 is repeated"),
    ], ids=["thought_char_budget", "demonstrations_count"])
    def test_repeated_value_rejected_before_any_run(
        self, e2e_dataset, e2e_script, tmp_path, monkeypatch, axis, values, message
    ):
        # A repeat would pay every request again and write its run directory twice.
        config = e2e_config(e2e_dataset, e2e_script, tmp_path, demonstrations=[["Q?", "A"]])
        runs = []
        monkeypatch.setattr(harness, "run_eval", lambda variant: runs.append(variant))
        with pytest.raises(ConfigError, match=message):
            sweep(config, axis, values)
        assert runs == []

    @pytest.mark.parametrize("axis, values, message", [
        ("thought_char_budget", [1.5, 2.9], "thought_char_budget must be an integer, not 1.5"),
        ("thought_char_budget", [1.5, 1], "thought_char_budget must be an integer, not 1.5"),
        ("thought_char_budget", [1, 1.0], "thought_char_budget must be an integer, not 1.0"),
        ("thought_char_budget", [True], "thought_char_budget must be an integer, not True"),
        ("demonstrations_count", [0.5], "demonstrations_count must be an integer, not 0.5"),
        ("demonstrations_count", [True], "demonstrations_count must be an integer, not True"),
    ], ids=["budget_floats", "budget_float_and_its_int", "budget_int_and_its_float",
            "budget_bool", "count_float", "count_bool"])
    def test_value_not_an_integer_rejected_before_any_run(
        self, e2e_dataset, e2e_script, tmp_path, monkeypatch, axis, values, message
    ):
        # Truncated, [1.5, 2.9] would run budgets 1 and 2 filed under 1.5 and 2.9.
        config = e2e_config(e2e_dataset, e2e_script, tmp_path, demonstrations=[["Q?", "A"]])
        runs = []
        monkeypatch.setattr(harness, "run_eval", lambda variant: runs.append(variant))
        with pytest.raises(ConfigError, match=re.escape(message)):
            sweep(config, axis, values)
        assert runs == []

    def test_each_value_runs_as_given(self, e2e_dataset, e2e_script, tmp_path, monkeypatch):
        config = e2e_config(e2e_dataset, e2e_script, tmp_path)
        monkeypatch.setattr(harness, "run_eval", lambda variant: variant.thought_char_budget)
        assert sweep(config, "thought_char_budget", [None, 0, 7]) == {None: None, 0: 0, 7: 7}

    def test_unknown_axis_rejected(self, e2e_dataset, e2e_script, tmp_path):
        config = e2e_config(e2e_dataset, e2e_script, tmp_path)
        with pytest.raises(ConfigError):
            sweep(config, "nonsense", [1])


class TestRunConfig:
    def test_defaults_match_run_settings(self, tmp_path):
        config = RunConfig(dataset_path=["d.jsonl"])
        assert config.max_tokens == 120
        assert config.temperature == 1.2
        assert config.self_consistency_n == 10
        assert config.self_consistency_temperature == 0.7
        assert config.num_buckets == 10

    def test_http_backend_is_built_from_its_keys(self):
        config = RunConfig(dataset_path=["d.jsonl"],
                           backend={"kind": "http", "base_url": "http://h/", "model": "m"})
        backend = build_backend(config)
        assert type(backend) is HttpBackend
        assert (backend.base_url, backend.model_id) == ("http://h", "m")

    def test_from_json_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "c.json"
        # Neither seed nor clamp_confidences could change a result, and
        # neither is a config key any more.
        for key in ("bogus", "seed", "clamp_confidences"):
            path.write_text(json.dumps({"dataset_path": ["d"], key: 1}), encoding="utf-8")
            with pytest.raises(ConfigError, match=key):
                RunConfig.from_json(path)

    def test_snapshot_holds_every_field_that_can_change_a_result(
        self, e2e_dataset, e2e_script, tmp_path
    ):
        config = e2e_config(e2e_dataset, e2e_script, tmp_path)
        block = run_eval(config).config
        run_only = {"cache_path", "out_dir", "worker_count", "concern_lexicon_path"}
        fields = set(RunConfig.__dataclass_fields__)
        assert set(block) == fields - run_only | {"concern_lexicon_version"}
        assert block["concern_lexicon_version"] == "builtin-1"

        normalized = e2e_config(e2e_dataset, e2e_script, tmp_path, p_true_normalized=True)
        assert run_eval(normalized).config != block

        elsewhere = e2e_config(
            e2e_dataset, e2e_script, tmp_path, worker_count=3,
            out_dir=str(tmp_path / "elsewhere"), cache_path=str(tmp_path / "cache.jsonl"),
        )
        assert run_eval(elsewhere).config == block

    def test_validation(self):
        with pytest.raises(ConfigError):
            RunConfig(dataset_path=[])
        with pytest.raises(ConfigError):
            RunConfig(dataset_path=["d"], num_buckets=0)

    @pytest.mark.parametrize("paths", [["a/d.jsonl", "b/d.jsonl"], ["d.jsonl", "d.jsonl"]])
    def test_datasets_sharing_a_file_stem_rejected(self, paths):
        # Their curve CSVs would have the same names and overwrite each other.
        with pytest.raises(ConfigError, match="stem 'd'"):
            RunConfig(dataset_path=paths)

    @pytest.mark.parametrize(
        "field, ids, message",
        [
            ("strategy_ids", ["standard", "far_final", "standard"],
             "strategy_ids: 'standard' is repeated"),
            ("extraction_method_ids", ["p_true", "token_prob", "p_true"],
             "extraction_method_ids: 'p_true' is repeated"),
            ("strategy_ids", ["nope"], "strategy_ids: unknown id 'nope'"),
            ("extraction_method_ids", ["mystery"], "extraction_method_ids: unknown id 'mystery'"),
            ("strategy_ids", [], "strategy_ids: at least one id required"),
        ],
    )
    def test_unknown_or_repeated_ids_rejected(self, field, ids, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            RunConfig(dataset_path=["d"], **{field: ids})

    def test_one_dataset_path_may_be_a_string(self, tmp_path):
        assert RunConfig(dataset_path="d.jsonl").dataset_path == ("d.jsonl",)
        assert RunConfig(dataset_path=tmp_path / "d.jsonl").dataset_path == (str(tmp_path / "d.jsonl"),)
        assert RunConfig(dataset_path=["a.jsonl", "b.jsonl"]).dataset_path == ("a.jsonl", "b.jsonl")

    def test_every_field_is_frozen(self):
        for config in (StrategyConfig(), RunConfig(dataset_path=["d"])):
            for f in dataclasses.fields(config):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(config, f.name, getattr(config, f.name))
        assert config == RunConfig(dataset_path=["d"])

    def test_readme_key_table_lists_every_field(self):
        """Each key of README.md's config table, with the JSON of its default."""
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        table = readme.split("Every key, with its default", 1)[1].split("\n\n", 2)[1]
        cells = [row.split("|")[1:3] for row in table.splitlines()[2:]]
        documented = {key.strip(" `"): default.strip(" `") for key, default in cells}
        assert sorted(documented) == sorted(RunConfig.__dataclass_fields__)
        assert documented["dataset_path"] == ""
        for f in dataclasses.fields(RunConfig):
            if f.default_factory is not dataclasses.MISSING:
                default = f.default_factory()
            elif f.default is not dataclasses.MISSING:
                default = f.default
            else:
                continue
            # A tuple default is a JSON array in a config file.
            assert json.loads(documented[f.name]) == json.loads(json.dumps(default)), f.name

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("max_tokens", 0, "max_tokens must be >= 1"),
            ("temperature", -0.5, "temperature must be a finite number >= 0"),
            ("self_consistency_n", 0, "self_consistency_n must be >= 1"),
            ("self_consistency_temperature", -0.1,
             "self_consistency_temperature must be a finite number >= 0"),
        ],
    )
    def test_request_fields_checked_once_at_construction(self, field, value, message):
        with pytest.raises(ConfigError, match=message):
            RunConfig(dataset_path=["d"], **{field: value})
