"""Shared fixtures: a 4-item boolean dataset, a mock-script builder and a fake endpoint.

The script builder mirrors the executor's rendering so tests can script
exact-prompt mock entries for multi-step pipelines without running them.
`ScriptEndpoint` serves a mock's script over `HttpBackend`, so one script
can drive both backends, and serves the replies a script cannot express
(errors, finish reasons, malformed bodies) where a test queues them.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from calibra.backend import CompletionRequest, MockBackend
from calibra.confidence import P_TRUE_QUESTION, POSSIBLE_ANSWER_PREFIX, VERBALIZED_SUFFIX
from calibra.qa import QAItem, normalize_answer
from calibra.strategies import StrategyConfig, plan, render_step

FIXTURES = Path(__file__).parent / "fixtures"


def build_script(
    strategy_id: str,
    item: QAItem,
    step_texts: dict,
    config: StrategyConfig | None = None,
    thought_char_budget: int | None = None,
) -> dict:
    """Produce exact-prompt mock entries for one strategy run.

    `step_texts` maps step name to the scripted reply: a string, a list of
    strings (self-consistency samples, cycled by seed), or a dict with
    `text` plus optional `logprobs`. For self_ask, follow-up rounds come
    from lists under "followup_question" / "followup_answer".
    """
    config = config or StrategyConfig()
    strategy_plan = plan(strategy_id, item, config)
    entries: dict = {}
    priors = dict(strategy_plan.initial_priors)

    def text_of(value) -> str:
        return value["text"] if isinstance(value, dict) else value

    if strategy_plan.control == "repeat_n_vote":
        step = strategy_plan.steps[0]
        prompt = render_step(step, item.question, priors, thought_char_budget)
        entries[prompt] = step_texts[step.name]
        return entries
    if strategy_plan.control == "conditional_branch":
        by_name = {s.name: s for s in strategy_plan.steps}
        check = by_name["followup_check"]
        prompt = render_step(check, item.question, priors, thought_char_budget)
        entries[prompt] = step_texts["followup_check"]
        priors["followup_check"] = text_of(step_texts["followup_check"])
        priors["pairs"] = ""
        if normalize_answer(priors["followup_check"]).split()[:1] != ["no"]:
            questions = step_texts["followup_question"]
            answers = step_texts["followup_answer"]
            for fq, fa in zip(questions, answers):
                prompt = render_step(
                    by_name["followup_question"], item.question, priors, thought_char_budget
                )
                entries[prompt] = fq
                priors["followup_question"] = text_of(fq)
                prompt = render_step(
                    by_name["followup_answer"], item.question, priors, thought_char_budget
                )
                entries[prompt] = fa
                priors["followup_answer"] = text_of(fa)
                priors["pairs"] += (
                    f"Follow up: {text_of(fq)} Intermediate answer: {text_of(fa)} "
                )
        prompt = render_step(by_name["answer"], item.question, priors, thought_char_budget)
        entries[prompt] = step_texts["answer"]
        return entries
    for step in strategy_plan.steps:
        prompt = render_step(step, item.question, priors, thought_char_budget)
        value = step_texts[step.name]
        entries[prompt] = value
        priors[step.name] = text_of(value)
    return entries


def add_p_true_entry(entries: dict, context: str, possible_answer: str, top_logprobs: dict) -> None:
    prompt = f"{context}\n{POSSIBLE_ANSWER_PREFIX}{possible_answer}\n{P_TRUE_QUESTION}\n"
    choice = max(top_logprobs, key=top_logprobs.get)
    entries[prompt] = {
        "text": choice,
        "logprobs": [top_logprobs[choice]],
        "top_logprobs": [top_logprobs],
    }


def add_verbalized_entry(entries: dict, context: str, reply: str) -> None:
    entries[f"{context}\n{VERBALIZED_SUFFIX}"] = reply


GOLDEN_QUESTION = "Did Aristotle use a laptop?"
GOLDEN_FACTS = ("The first laptop was invented in 1980.",)


def render_golden(strategy_id: str) -> str:
    """Render every step of a strategy with canned prior outputs."""
    item = QAItem(
        id="golden",
        question=GOLDEN_QUESTION,
        gold_answers=("No",),
        answer_kind="boolean",
        gold_facts=GOLDEN_FACTS,
    )
    strategy_plan = plan(strategy_id, item, StrategyConfig())
    priors = dict(strategy_plan.initial_priors)
    priors.setdefault("pairs", "Follow up: <q1> Intermediate answer: <a1> ")
    chunks = []
    for step in strategy_plan.steps:
        prompt = render_step(step, item.question, priors)
        chunks.append(f"=== step: {step.name} ===\n{prompt}\n")
        priors[step.name] = f"<{step.name} output>"
    return "".join(chunks)


E2E_ITEMS = [
    QAItem(id="q1", question="Did Aristotle use a laptop?", gold_answers=("No",), answer_kind="boolean"),
    QAItem(id="q2", question="Would an owl monkey enjoy a strawberry?", gold_answers=("Yes",), answer_kind="boolean"),
    QAItem(id="q3", question="Does Post Malone have a fear of needles?", gold_answers=("No",), answer_kind="boolean"),
    QAItem(id="q4", question="Should a Celiac sufferer avoid spaghetti?", gold_answers=("Yes",), answer_kind="boolean"),
]

# Scripted final answers; correctness and exp(mean logprob) confidences are
# frozen in fixtures/e2e_expected.json, computed by direct summation.
E2E_STANDARD = {
    "q1": {"text": "False", "logprobs": [-0.1]},
    "q2": {"text": "False", "logprobs": [-0.5]},
    "q3": {"text": "No", "logprobs": [-0.2]},
    "q4": {"text": "True", "logprobs": [-2.0]},
}
E2E_FAR_ANSWER = {
    "q1": {"text": "No", "logprobs": [-0.3]},
    "q2": {"text": "True", "logprobs": [-0.7]},
    "q3": {"text": "True", "logprobs": [-0.4]},
    "q4": {
        "text": "False. There will need to be further research.",
        "logprobs": [-1.0, -1.2],
    },
}
E2E_FAR_THOUGHTS = {
    "fact": "1. A relevant fact. 2. Another relevant fact.",
    "source": "1. An encyclopedia. 2. A journal article.",
    "reflection": "Considering the facts, the evidence points one way.",
}


def e2e_script_entries(config: StrategyConfig | None = None) -> dict:
    entries: dict = {}
    for item in E2E_ITEMS:
        entries.update(
            build_script("standard", item, {"answer": E2E_STANDARD[item.id]}, config)
        )
        entries.update(
            build_script(
                "far_final",
                item,
                {**E2E_FAR_THOUGHTS, "answer": E2E_FAR_ANSWER[item.id]},
                config,
            )
        )
    return entries


@pytest.fixture
def e2e_dataset(tmp_path) -> Path:
    path = tmp_path / "dataset.jsonl"
    with path.open("w", encoding="utf-8") as fh:
        for item in E2E_ITEMS:
            fh.write(
                json.dumps(
                    {
                        "id": item.id,
                        "question": item.question,
                        "answers": list(item.gold_answers),
                        "answer_kind": item.answer_kind,
                    }
                )
                + "\n"
            )
    return path


@pytest.fixture
def e2e_script(tmp_path) -> Path:
    path = tmp_path / "script.json"
    path.write_text(
        json.dumps({"fallback": "error", "entries": e2e_script_entries()}), encoding="utf-8"
    )
    return path


@pytest.fixture
def e2e_expected() -> dict:
    with (FIXTURES / "e2e_expected.json").open(encoding="utf-8") as fh:
        return json.load(fh)


class FakeResponse:
    """A `requests.Response` stand-in: a status, a JSON payload, a text and headers."""

    def __init__(self, status_code=200, payload=None, text="", headers=None):
        self.status_code = status_code
        self._payload = payload
        self.text = text
        self.headers = headers or {}

    def json(self):
        if self._payload is None:
            raise ValueError("no json")
        return self._payload


def _over_the_wire(body):
    """`body` as the client decodes it once an endpoint has sent it as JSON."""
    return json.loads(json.dumps(body))


class ScriptEndpoint:
    """A `requests.Session` stand-in for an endpoint that serves a mock's script.

    Each post is answered with `mock.reply` to the request the posted body
    describes, sent through JSON, so an `HttpBackend` over this session reads
    the replies a run on the mock reads. `queued` maps a prompt to the
    `FakeResponse`s its first posts get, in order, before the script answers
    it. `posts` holds the posted bodies.
    """

    def __init__(self, mock: MockBackend, queued: dict[str, list[FakeResponse]] | None = None):
        self.mock = mock
        self.queued = {prompt: list(responses) for prompt, responses in (queued or {}).items()}
        self.posts = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.posts.append(json)
        queue = self.queued.get(json["prompt"])
        if queue:
            return queue.pop(0)
        request = CompletionRequest(
            prompt=json["prompt"], max_tokens=json["max_tokens"], temperature=json["temperature"],
            top_logprobs=json.get("logprobs", 0), seed=json.get("seed"), stop=json.get("stop"),
        )
        return FakeResponse(payload=_over_the_wire(self.mock.reply(request)))
