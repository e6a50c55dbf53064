import json
import math
import random
from dataclasses import replace
from pathlib import Path

import pytest

from calibra.backend import LINE_ENCODER, Completion, HttpBackend, ResponseCache, mock_from_script
from calibra.confidence import VERBALIZED_SUFFIX, token_prob_confidence
from calibra.qa import ExtractedAnswer, QAItem
from calibra.strategies import (
    COT_PROMPT,
    SELF_ASK_CHECK,
    SELF_ASK_MAX_FOLLOWUPS,
    STRATEGY_IDS,
    StrategyConfig,
    StrategyError,
    execute,
    majority_vote,
    plan,
    render_step,
)
from conftest import build_script, render_golden

GOLDENS = Path(__file__).parent / "goldens"

ITEM = QAItem(
    id="q1",
    question="Did Aristotle use a laptop?",
    gold_answers=("No",),
    answer_kind="boolean",
    gold_facts=("The first laptop was invented in 1980.",),
)


class TestPlan:
    def test_cot_two_steps(self):
        p = plan("cot", ITEM)
        assert [s.name for s in p.steps] == ["reason", "answer"]
        assert COT_PROMPT in p.steps[0].template

    def test_far_final_four_steps(self):
        p = plan("far_final", ITEM)
        assert [s.name for s in p.steps] == ["fact", "source", "reflection", "answer"]

    def test_standard_single_step(self):
        assert len(plan("standard", ITEM).steps) == 1

    def test_far_variants(self):
        assert [s.name for s in plan("far_fact_only", ITEM).steps] == ["fact", "source", "answer"]
        assert [s.name for s in plan("far_fact_only_no_source", ITEM).steps] == ["fact", "answer"]
        assert [s.name for s in plan("far_no_source", ITEM).steps] == ["fact", "reflection", "answer"]
        assert plan("far_explain", ITEM).steps[-1].template.endswith("Explain and Answer:")
        assert "choosing one answer" not in plan("far_free", ITEM).steps[-1].template

    def test_far_human_facts_uses_gold_facts(self):
        p = plan("far_human_facts", ITEM)
        assert [s.name for s in p.steps] == ["reflection", "answer"]
        assert p.initial_priors["facts"] == ITEM.gold_facts[0]

    def test_far_human_facts_requires_facts(self):
        bare = QAItem(id="q", question="?", gold_answers=("a",))
        with pytest.raises(StrategyError, match="gold_facts"):
            plan("far_human_facts", bare)

    def test_unknown_strategy(self):
        with pytest.raises(StrategyError, match="nope"):
            plan("nope", ITEM)

    def test_self_consistency_knobs(self):
        # execute reads the sampling settings from its own config, not the plan's.
        backend = RecordingBackend()
        config = StrategyConfig(self_consistency_n=4, self_consistency_temperature=0.3)
        execute(plan("self_consistency", ITEM), ITEM, backend, config=config)
        assert [r.seed for r in backend.requests] == [0, 1, 2, 3]
        assert {r.temperature for r in backend.requests} == {0.3}

    def test_plan_is_pure(self):
        assert plan("far_final", ITEM) == plan("far_final", ITEM)

    def test_demonstrations_prepended(self):
        config = StrategyConfig(demonstrations=(("2+2?", "4"),))
        p = plan("standard", ITEM, config)
        assert p.steps[0].template.startswith("Question: 2+2?\nAnswer: 4\n\n")


class TestRenderStep:
    @pytest.mark.parametrize("strategy_id", STRATEGY_IDS)
    def test_golden_prompts(self, strategy_id):
        golden = (GOLDENS / f"{strategy_id}.txt").read_text(encoding="utf-8")
        assert render_golden(strategy_id) == golden

    def test_canonical_fragments_present_in_goldens(self):
        combined = "".join(
            (GOLDENS / f"{sid}.txt").read_text(encoding="utf-8") for sid in STRATEGY_IDS
        )
        for fragment in (
            "Let's think step by step:",
            "Generate some knowledge about the question:",
            "Are follow-up questions needed?",
        ):
            assert fragment in combined

    def test_unresolved_placeholder_named(self):
        step = plan("cot", ITEM).steps[1]
        with pytest.raises(StrategyError, match="reason"):
            render_step(step, ITEM.question, {})

    def test_thought_budget_truncates_priors(self):
        step = plan("cot", ITEM).steps[1]
        long_thought = "x" * 500
        rendered = render_step(step, ITEM.question, {"reason": long_thought}, thought_char_budget=50)
        assert "x" * 50 in rendered and "x" * 51 not in rendered


class TestMajorityVote:
    def make(self, text):
        return ExtractedAnswer.from_text(text, "boolean")

    def test_unanimous(self):
        winner, counts = majority_vote([self.make("True")] * 10)
        assert winner.normalized == "true" and counts == {"true": 10}

    def test_tie_first_seen_wins(self):
        candidates = [self.make(t) for t in ["B", "A", "B", "A"]]
        winner, _ = majority_vote(candidates)
        assert winner.normalized == "b"

    def test_tie_stable_across_order_preserving_shuffles(self):
        rng = random.Random(1)
        base = ["x", "y"] * 5  # 5/5 tie, x first
        for _ in range(50):
            tail = base[2:]
            rng.shuffle(tail)
            candidates = [self.make(t) for t in base[:2] + tail]
            # keep first-occurrence order: x appears before y in base[:2]
            winner, _ = majority_vote(candidates)
            assert winner.normalized == "x"

    def test_plurality(self):
        texts = ["a"] * 4 + ["b"] * 3 + ["c"] * 3
        winner, counts = majority_vote([self.make(t) for t in texts])
        # "a" is an article and normalizes to ""; the vote still picks it.
        assert winner.raw_text == "a" and counts[winner.normalized] == 4

    def test_empty_rejected(self):
        with pytest.raises(StrategyError):
            majority_vote([])


class RecordingBackend:
    """Answers every request and keeps it: "A" to P(True) probes, "0.5" to
    verbalized ones, `check_reply` to Self-Ask's follow-up check, "No" otherwise."""

    def __init__(self, check_reply="No."):
        self.check_reply = check_reply
        self.requests = []

    def complete(self, request):
        self.requests.append(request)
        if request.top_logprobs == 5:
            text = "A"
        elif request.prompt.endswith(VERBALIZED_SUFFIX):
            text = "0.5"
        elif request.prompt.endswith(SELF_ASK_CHECK):
            text = self.check_reply
        else:
            text = "No"
        return Completion(text=text, tokens=(text,), token_logprobs=(-0.5,),
                          top_logprobs=({text: -0.5},))


# Backend calls per evaluation before any probe, with self_consistency_n = 3.
CALL_CONTRACT = [
    ("standard", "No.", 1),
    *((sid, "No.", 2) for sid in (
        "cot", "knowledge", "knowledge_explain", "self_ask_aggregate", "pseudo_tot",
        "far_fact_only_no_source", "far_human_facts",
    )),
    ("far_fact_only", "No.", 3),
    ("far_no_source", "No.", 3),
    ("far_final", "No.", 4),
    ("far_explain", "No.", 4),
    ("far_free", "No.", 4),
    ("self_consistency", "No.", 3),
    ("self_ask", "No.", 2),
    ("self_ask", "Yes.", 2 + 2 * SELF_ASK_MAX_FOLLOWUPS),
]


@pytest.mark.parametrize(
    "methods, probes",
    [(("token_prob",), 0), (("p_true",), 1), (("verbalized",), 1),
     (("token_prob", "p_true", "verbalized"), 2)],
)
@pytest.mark.parametrize("strategy_id, check_reply, calls", CALL_CONTRACT)
def test_call_count_contract(strategy_id, check_reply, calls, methods, probes):
    backend = RecordingBackend(check_reply)
    config = StrategyConfig(self_consistency_n=3, extraction_method_ids=list(methods))
    execute(plan(strategy_id, ITEM, config), ITEM, backend, config)
    assert len(backend.requests) == calls + probes


def test_call_contract_covers_every_strategy():
    assert {sid for sid, _, _ in CALL_CONTRACT} == set(STRATEGY_IDS)


class TestPTrueContext:
    def p_true_prompt(self, config):
        backend = RecordingBackend()
        config = replace(config, extraction_method_ids=["p_true"])
        transcript = execute(plan("cot", ITEM), ITEM, backend, config)
        (probe,) = [r for r in backend.requests if r.top_logprobs == 5]
        return probe.prompt, transcript.step_records[-1]

    def test_bare_question(self):
        prompt, _ = self.p_true_prompt(StrategyConfig(p_true_full_context=False))
        assert prompt == (
            f"Question: {ITEM.question}\nPossible answer: No\n"
            "Is the possible answer: (A) True (B) False\n"
        )

    def test_full_final_answer_context_by_default(self):
        prompt, final = self.p_true_prompt(StrategyConfig())
        assert prompt == (
            f"{final.prompt} {final.completion.text}\nPossible answer: No\n"
            "Is the possible answer: (A) True (B) False\n"
        )


def run_strategy(strategy_id, step_texts, config=None, methods=("token_prob",), item=ITEM):
    config = replace(config or StrategyConfig(), extraction_method_ids=list(methods))
    entries = build_script(strategy_id, item, step_texts, config)
    backend = mock_from_script(entries)
    transcript = execute(plan(strategy_id, item, config), item, backend, config)
    return transcript, transcript.confidences, backend


FAR_TEXTS = {
    "fact": "1. Laptops were invented around 1980. 2. Aristotle died in 322 BC.",
    "source": "1. Computer history museum. 2. Ancient records.",
    "reflection": "Aristotle predates laptops by millennia.",
    "answer": "No",
}


class TestExecute:
    def test_far_final_transcript(self):
        transcript, confidences, backend = run_strategy("far_final", FAR_TEXTS)
        assert [r.step_name for r in transcript.step_records] == [
            "fact", "source", "reflection", "answer",
        ]
        assert transcript.final_answer.boolean_value == "false"
        assert backend.call_count == 4
        assert confidences["token_prob"].value == 1.0  # all-zero mock logprobs

    def test_standard_one_call(self):
        _, _, backend = run_strategy("standard", {"answer": "No"})
        assert backend.call_count == 1

    def test_cot_two_calls(self):
        _, _, backend = run_strategy("cot", {"reason": "Laptops came later.", "answer": "No"})
        assert backend.call_count == 2

    def test_knowledge_two_calls(self):
        _, _, backend = run_strategy(
            "knowledge", {"knowledge": "Laptops are modern.", "answer": "No"}
        )
        assert backend.call_count == 2

    def test_self_ask_no_branch_two_calls(self):
        transcript, _, backend = run_strategy(
            "self_ask", {"followup_check": "No.", "answer": "No"}
        )
        assert backend.call_count == 2
        assert [r.step_name for r in transcript.step_records] == ["followup_check", "answer"]

    def test_self_ask_yes_branch_call_count(self):
        texts = {
            "followup_check": "Yes.",
            "followup_question": [
                "When was the laptop invented?", "When did Aristotle live?", "Who was he?",
            ],
            "followup_answer": ["Around 1980.", "384-322 BC.", "A philosopher."],
            "answer": "No",
        }
        transcript, _, backend = run_strategy("self_ask", texts)
        assert backend.call_count == 2 + 2 * SELF_ASK_MAX_FOLLOWUPS == 8
        assert transcript.final_answer.boolean_value == "false"

    def test_self_consistency_vote_and_calls(self):
        texts = {"sample": ["True"] * 6 + ["False"] * 4}
        transcript, _, backend = run_strategy("self_consistency", texts)
        assert backend.call_count == 10
        assert transcript.vote_detail.winner == "true"
        assert transcript.vote_detail.counts == {"true": 6, "false": 4}
        assert transcript.final_answer.boolean_value == "true"

    def test_replay_stability(self):
        first, _, _ = run_strategy("far_final", FAR_TEXTS)
        second, _, _ = run_strategy("far_final", FAR_TEXTS)
        assert first.to_dict() == second.to_dict()

    def test_p_true_extraction_with_suffix_entry(self):
        import math
        from conftest import add_p_true_entry

        config = StrategyConfig(extraction_method_ids=["token_prob", "p_true"])
        entries = build_script("standard", ITEM, {"answer": "No"}, config)
        prompt = next(iter(entries))
        context = f"{prompt} No"
        add_p_true_entry(entries, context, "No", {"A": math.log(0.7), "B": math.log(0.2)})
        backend = mock_from_script(entries)
        confidences = execute(plan("standard", ITEM, config), ITEM, backend, config).confidences
        assert confidences["p_true"].value == pytest.approx(0.7)
        assert backend.call_count == 2  # one generation + one suffix probe

    def test_verbalized_extraction_with_suffix_entry(self):
        from conftest import add_verbalized_entry

        config = StrategyConfig(extraction_method_ids=["verbalized"])
        entries = build_script("standard", ITEM, {"answer": "No"}, config)
        prompt = next(iter(entries))
        add_verbalized_entry(entries, f"{prompt} No", "0.85")
        backend = mock_from_script(entries)
        confidences = execute(plan("standard", ITEM, config), ITEM, backend, config).confidences
        assert confidences["verbalized"].value == 0.85

    def test_backend_error_names_step(self):
        backend = mock_from_script({})  # nothing scripted
        with pytest.raises(StrategyError, match="fact"):
            execute(plan("far_final", ITEM), ITEM, backend)

    def test_unknown_extraction_method(self):
        entries = build_script("standard", ITEM, {"answer": "No"})
        with pytest.raises(StrategyError, match="mystery"):
            execute(plan("standard", ITEM), ITEM, mock_from_script(entries),
                    StrategyConfig(extraction_method_ids=["mystery"]))


LOGPROB_FIELDS = {"tokens", "token_logprobs", "top_logprobs"}


class TestTranscriptRow:
    """transcripts.jsonl keeps logprob arrays only where token_prob reads them."""

    def row(self, transcript):
        return json.loads(LINE_ENCODER.encode(transcript.to_dict()))

    def check_only_final_has_logprobs(self, transcript, confidences, final_index):
        assert transcript.final_index == final_index
        steps = self.row(transcript)["steps"]
        for index, (step, rec) in enumerate(zip(steps, transcript.step_records)):
            assert step["step"] == rec.step_name
            assert step["prompt"] == rec.prompt
            assert step["completion"]["text"] == rec.completion.text
            assert step["completion"]["finish_reason"] == rec.completion.finish_reason
            has_arrays = LOGPROB_FIELDS & set(step["completion"])
            assert has_arrays == (LOGPROB_FIELDS if index == final_index else set())
        # The kept arrays are the ones token_prob read.
        kept = Completion.from_dict(steps[final_index]["completion"])
        assert kept == transcript.step_records[final_index].completion
        assert token_prob_confidence(kept) == confidences["token_prob"]

    def test_standard(self):
        transcript, confidences, _ = run_strategy(
            "standard", {"answer": {"text": "No", "logprobs": [-0.25]}}
        )
        self.check_only_final_has_logprobs(transcript, confidences, 0)

    def test_far_final_keeps_only_the_answer_step(self):
        texts = {**FAR_TEXTS, "answer": {"text": "No, never.", "logprobs": [-0.5, -0.125]}}
        transcript, confidences, _ = run_strategy("far_final", texts)
        self.check_only_final_has_logprobs(transcript, confidences, 3)

    def test_self_consistency_split_vote_keeps_the_winners_first_sample(self):
        config = StrategyConfig(self_consistency_n=5)
        texts = {"sample": {
            "texts": ["False", "True", "True", "False", "True"], "logprobs": [-0.75],
        }}
        transcript, confidences, _ = run_strategy("self_consistency", texts, config)
        assert transcript.vote_detail.counts == {"true": 3, "false": 2}
        self.check_only_final_has_logprobs(transcript, confidences, 1)
        assert self.row(transcript)["steps"][1]["completion"]["text"] == "True"

    def test_probes_hold_each_reply_and_p_true_aux(self):
        from conftest import add_p_true_entry, add_verbalized_entry

        entries = build_script("standard", ITEM, {"answer": "No"})
        context = f"{next(iter(entries))} No"
        add_p_true_entry(entries, context, "No", {"A": math.log(0.7), "B": math.log(0.2)})
        add_verbalized_entry(entries, context, "0.85 (fairly sure)")
        transcript = execute(
            plan("standard", ITEM), ITEM, mock_from_script(entries),
            StrategyConfig(extraction_method_ids=["token_prob", "p_true", "verbalized"]),
        )
        confidences = transcript.confidences
        aux = confidences["p_true"].aux
        assert self.row(transcript)["probes"] == {
            "p_true": {"reply": "A", "p_a": aux["p_a"], "p_b": aux["p_b"]},
            "verbalized": {"reply": "0.85 (fairly sure)"},
        }
        assert confidences["p_true"].reply == "A"
        assert confidences["verbalized"].reply == "0.85 (fairly sure)"
        assert confidences["verbalized"].value == 0.85

    def test_cache_as_backend_writes_the_same_line(self, tmp_path):
        from conftest import add_p_true_entry, add_verbalized_entry

        entries = build_script("standard", ITEM, {"answer": {"text": "No", "logprobs": [-0.25]}})
        context = f"{next(iter(entries))} No"
        add_p_true_entry(entries, context, "No", {"A": math.log(0.7), "B": math.log(0.2)})
        add_verbalized_entry(entries, context, "0.85")

        def line(backend):
            config = StrategyConfig(extraction_method_ids=["token_prob", "p_true", "verbalized"])
            transcript = execute(plan("standard", ITEM), ITEM, backend, config)
            return LINE_ENCODER.encode(transcript.to_dict())

        bare = line(mock_from_script(entries))
        path = tmp_path / "cache.jsonl"
        for calls in (3, 0):  # the answer and both probes, then every one a hit
            mock = mock_from_script(entries)
            cache = ResponseCache(path, mock)
            assert line(cache) == bare
            cache.close()
            assert mock.call_count == calls

    def test_no_probes_without_probe_methods(self):
        transcript, _, _ = run_strategy("standard", {"answer": "No"})
        assert self.row(transcript)["probes"] == {}


class LogprobSession:
    """A fake `requests.Session` that returns logprobs only when the body asks."""

    class Response:
        status_code = 200
        text = ""

        def __init__(self, payload):
            self.payload = payload

        def json(self):
            return self.payload

    def __init__(self):
        self.bodies = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.bodies.append(json)
        choice = {"text": "No.", "finish_reason": "stop"}
        if "logprobs" in json:
            choice["logprobs"] = {
                "tokens": ["No", "."],
                "token_logprobs": [-0.5, -0.25],
                "top_logprobs": [{"No": -0.5}, {".": -0.25}],
            }
        return self.Response({"choices": [choice]})


class TestHttpTokenProb:
    """token_prob over HTTP reads logprobs the endpoint returned, never made-up ones."""

    def run(self, strategy_id, methods=("token_prob",)):
        session = LogprobSession()
        backend = HttpBackend("http://host", "m", api_key="k", session=session)
        config = StrategyConfig(self_consistency_n=3, extraction_method_ids=list(methods))
        transcript = execute(plan(strategy_id, ITEM, config), ITEM, backend, config)
        return session.bodies, transcript.confidences

    def test_standard_answer_asks_for_logprobs(self):
        bodies, confidences = self.run("standard")
        assert [b.get("logprobs") for b in bodies] == [1]
        assert confidences["token_prob"].value == pytest.approx(math.exp(-0.375))
        assert confidences["token_prob"].value != 1.0

    def test_far_final_asks_only_on_the_answer(self):
        bodies, _ = self.run("far_final")
        assert [b.get("logprobs") for b in bodies] == [None, None, None, 1]

    def test_self_consistency_asks_on_every_sample(self):
        bodies, _ = self.run("self_consistency")
        assert [b.get("logprobs") for b in bodies] == [1, 1, 1]

    @pytest.mark.parametrize("strategy_id", ["standard", "far_final", "self_consistency"])
    def test_no_logprobs_without_token_prob(self, strategy_id):
        bodies, _ = self.run(strategy_id, methods=())
        assert bodies and all("logprobs" not in b for b in bodies)
