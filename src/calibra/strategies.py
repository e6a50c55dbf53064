"""Prompting pipelines: declarative step plans plus an executor.

Each strategy is a deterministic plan of templated generation steps. The
executor runs the steps against any backend, handles the Self-Ask branch
and the Self-Consistency vote, and extracts confidence scores on the
final-answer context.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Literal, Mapping, Optional, Sequence

from .backend import (
    DEFAULT_MAX_TOKENS,
    DEFAULT_TEMPERATURE,
    Backend,
    Completion,
    CompletionRequest,
    check_temperature,
    complete,
)
from .confidence import (
    METHOD_IDS,
    ConfidenceResult,
    p_true_confidence,
    token_prob_confidence,
    verbalized_confidence,
)
from .qa import ExtractedAnswer, QAItem, is_string_sequence, normalize_answer

ControlFlow = Literal["linear", "conditional_branch", "repeat_n_vote"]

_PLACEHOLDER_RE = re.compile(r"\{(question|facts|demonstrations|prior:[a-z_]+)\}")


class StrategyError(Exception):
    """Unknown strategy, unresolvable placeholder, or invalid plan."""


@dataclass(frozen=True)
class Step:
    name: str
    template: str


@dataclass(frozen=True)
class StrategyPlan:
    strategy_id: str
    steps: tuple[Step, ...]
    control: ControlFlow = "linear"
    initial_priors: dict = field(default_factory=dict)


@dataclass(frozen=True)
class StepRecord:
    step_name: str
    prompt: str
    completion: Completion


@dataclass
class VoteDetail:
    candidates: list[str]
    counts: dict[str, int]
    winner: str


@dataclass
class Transcript:
    item_id: str
    strategy_id: str
    step_records: list[StepRecord]
    final_answer: ExtractedAnswer
    # Index into step_records of the completion token_prob reads: the last
    # step, or self_consistency's winning first sample.
    final_index: int
    vote_detail: Optional[VoteDetail] = None
    confidences: dict[str, ConfidenceResult] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """One transcripts.jsonl row; it shares the completions' tuples and dicts.

        Every step keeps its prompt, text and finish reason; only the final
        record keeps its tokens and logprobs. `probes` holds the reply of
        each confidence probe that ran, plus P(True)'s p_a and p_b.
        """
        d = {
            "item_id": self.item_id,
            "strategy_id": self.strategy_id,
            "steps": [
                {
                    "step": rec.step_name,
                    "prompt": rec.prompt,
                    "completion": rec.completion.to_dict(logprobs=index == self.final_index),
                }
                for index, rec in enumerate(self.step_records)
            ],
            "final_answer": dict(vars(self.final_answer)),
            "probes": {
                method: {"reply": result.reply, **(result.aux or {})}
                for method, result in self.confidences.items()
                if result.reply is not None
            },
        }
        if self.vote_detail is not None:
            d["vote"] = dict(vars(self.vote_detail))
        return d


KNOWLEDGE_PROMPT = "Generate some knowledge about the question:"
COT_PROMPT = "Let's think step by step:"
SELF_ASK_CHECK = "Are follow-up questions needed?"
FAR_FACT_PROMPT = "List the facts you know that are relevant to the question."
FAR_SOURCE_PROMPT = "What are the sources of the above facts?"
FAR_REFLECTION_PROMPT = "Reflect on the facts above and reason about the question."
FAR_ANSWER_CONSTRAINT = "Answer the question by choosing one answer."
PSEUDO_TOT_PROMPT = (
    "Imagine three different experts are answering this question. "
    "All experts will write down one step of their thinking, then share it "
    "with the group, then go on to the next step. If any expert realises "
    "they are wrong at any point then they leave. The experts continue "
    "until they agree on a single answer."
)

_FAR_CONTEXT = {
    "fact": "Facts: {prior:fact}\n",
    "source": "Sources: {prior:source}\n",
    "reflection": "Reflection: {prior:reflection}\n",
}


def _far_steps(
    with_source: bool,
    with_reflection: bool,
    final_prompt: str,
    human_facts: bool = False,
) -> tuple[Step, ...]:
    steps: list[Step] = []
    context = "Question: {question}\n"
    if human_facts:
        context += "Facts: {facts}\n"
    else:
        steps.append(Step("fact", context + FAR_FACT_PROMPT))
        context += _FAR_CONTEXT["fact"]
        if with_source:
            steps.append(Step("source", context + FAR_SOURCE_PROMPT))
            context += _FAR_CONTEXT["source"]
    if with_reflection:
        steps.append(Step("reflection", context + FAR_REFLECTION_PROMPT))
        context += _FAR_CONTEXT["reflection"]
    steps.append(Step("answer", context + final_prompt))
    return tuple(steps)


_Q = "Question: {question}\n"
_FAR_ANSWER = FAR_ANSWER_CONSTRAINT + "\nAnswer:"

# Step templates and control flow of each strategy; STRATEGY_IDS keeps this order.
STRATEGIES: dict[str, tuple[tuple[Step, ...], ControlFlow]] = {
    "standard": ((Step("answer", _Q + "Answer:"),), "linear"),
    "knowledge": (
        (
            Step("knowledge", _Q + KNOWLEDGE_PROMPT),
            Step("answer", _Q + "Knowledge: {prior:knowledge}\nAnswer:"),
        ),
        "linear",
    ),
    "knowledge_explain": (
        (
            Step("knowledge", _Q + KNOWLEDGE_PROMPT),
            Step("answer", _Q + "Knowledge: {prior:knowledge}\nExplain and Answer:"),
        ),
        "linear",
    ),
    "cot": (
        (
            Step("reason", _Q + COT_PROMPT),
            Step("answer", _Q + COT_PROMPT + " {prior:reason}\nAnswer:"),
        ),
        "linear",
    ),
    "self_ask": (
        (
            Step("followup_check", _Q + SELF_ASK_CHECK),
            Step("followup_question", _Q + "{prior:pairs}Follow up:"),
            Step(
                "followup_answer",
                _Q + "{prior:pairs}Follow up: {prior:followup_question}\nIntermediate answer:",
            ),
            Step(
                "answer",
                "Question:{question}; Intermediate Questions and Answers: {prior:pairs} Answer:",
            ),
        ),
        "conditional_branch",
    ),
    "self_ask_aggregate": (
        (
            Step(
                "decompose",
                _Q
                + SELF_ASK_CHECK
                + " Generate the follow-up questions and the corresponding intermediate answers:",
            ),
            Step(
                "answer",
                "Question:{question}; Intermediate Questions and Answers: {prior:decompose} Answer:",
            ),
        ),
        "linear",
    ),
    "self_consistency": ((Step("sample", _Q + "Answer:"),), "repeat_n_vote"),
    "pseudo_tot": (
        (
            Step("discussion", _Q + PSEUDO_TOT_PROMPT),
            Step("answer", _Q + "Expert discussion: {prior:discussion}\nAnswer:"),
        ),
        "linear",
    ),
    "far_final": (_far_steps(True, True, _FAR_ANSWER), "linear"),
    "far_fact_only": (_far_steps(True, False, _FAR_ANSWER), "linear"),
    "far_fact_only_no_source": (_far_steps(False, False, _FAR_ANSWER), "linear"),
    "far_no_source": (_far_steps(False, True, _FAR_ANSWER), "linear"),
    "far_explain": (
        _far_steps(True, True, FAR_ANSWER_CONSTRAINT + "\nExplain and Answer:"),
        "linear",
    ),
    "far_free": (_far_steps(True, True, "Answer:"), "linear"),
    "far_human_facts": (_far_steps(False, True, _FAR_ANSWER, human_facts=True), "linear"),
}

STRATEGY_IDS = tuple(STRATEGIES)

SELF_ASK_MAX_FOLLOWUPS = 3


@dataclass(frozen=True)
class StrategyConfig:
    """Every knob that `plan` and `execute` read; frozen, so a variant comes from `replace`.

    `dataclasses.replace` builds a new config, so a variant passes every check again.
    """

    max_tokens: int = DEFAULT_MAX_TOKENS
    temperature: float = DEFAULT_TEMPERATURE
    self_consistency_n: int = 10
    self_consistency_temperature: float = 0.7
    demonstrations: tuple[tuple[str, str], ...] = ()
    thought_char_budget: Optional[int] = None
    extraction_method_ids: tuple[str, ...] = ("token_prob",)

    # The least value of each count; only thought_char_budget may be None, for no budget.
    # A subclass with counts or id lists of its own extends these two tables.
    _LEAST = {"max_tokens": 1, "self_consistency_n": 1, "thought_char_budget": 0}
    _KNOWN_IDS = {"extraction_method_ids": METHOD_IDS}

    def __post_init__(self) -> None:
        # A string "QA" would unpack as the pair ("Q", "A").
        for demo in self.demonstrations:
            if not is_string_sequence(demo) or len(demo) != 2:
                raise ValueError(f"demonstrations: each must be a pair of strings, not {demo!r}")
        object.__setattr__(self, "demonstrations", tuple((q, a) for q, a in self.demonstrations))
        # Checked here, before any request: a repeated id would count its rows twice.
        for key, known in self._KNOWN_IDS.items():
            ids = getattr(self, key)
            # A string would be read as its letters, each an unknown id.
            if not is_string_sequence(ids):
                raise ValueError(f"{key}: expected a list of ids, not {ids!r}")
            ids = tuple(ids)
            object.__setattr__(self, key, ids)
            for index, id_ in enumerate(ids):
                if id_ not in known:
                    raise ValueError(f"{key}: unknown id {id_!r}; expected one of {known}")
                if id_ in ids[:index]:
                    raise ValueError(f"{key}: {id_!r} is repeated")
        # A float or a bool passes a range check, then reaches a request or a grid.
        for key, least in self._LEAST.items():
            value = getattr(self, key)
            if type(value) is not int and not (value is None and key == "thought_char_budget"):
                raise ValueError(f"{key} must be an integer, not {value!r}")
            if value is not None and value < least:
                raise ValueError(f"{key} must be >= {least}")
        for key in ("temperature", "self_consistency_temperature"):
            check_temperature(key, getattr(self, key))


def plan(strategy_id: str, item: QAItem, config: Optional[StrategyConfig] = None) -> StrategyPlan:
    """Build the deterministic step plan for one strategy on one item."""
    config = config or StrategyConfig()
    if strategy_id not in STRATEGIES:
        raise StrategyError(f"unknown strategy {strategy_id!r}")
    steps, control = STRATEGIES[strategy_id]
    initial_priors: dict = {}
    if strategy_id == "far_human_facts":
        if not item.gold_facts:
            raise StrategyError(
                f"strategy far_human_facts requires gold_facts on item {item.id!r}"
            )
        initial_priors["facts"] = "\n".join(item.gold_facts)
    if config.demonstrations and strategy_id in ("standard", "self_consistency"):
        # A prior, not template text: it is sent verbatim and never truncated.
        initial_priors["demonstrations"] = "".join(
            f"Question: {dq}\nAnswer: {da}\n\n" for dq, da in config.demonstrations
        )
        steps = tuple(replace(s, template="{demonstrations}" + s.template) for s in steps)
    return StrategyPlan(
        strategy_id=strategy_id, steps=steps, control=control, initial_priors=initial_priors
    )


def render_step(
    step: Step,
    question: str,
    priors: Mapping[str, str],
    thought_char_budget: Optional[int] = None,
) -> str:
    """Substitute {question}, {facts}, {demonstrations} and {prior:...}, bit-exactly.

    Prior-step text is truncated to the thought budget when one is set;
    facts and demonstrations are sent whole. Unresolved placeholders are
    named in the error.
    """

    def _sub(match: re.Match) -> str:
        key = match.group(1)
        if key == "question":
            return question
        if key in ("facts", "demonstrations"):
            if key not in priors:
                raise StrategyError(f"step {step.name!r}: no {key} available for {{{key}}}")
            return priors[key]
        prior_name = key.split(":", 1)[1]
        if prior_name not in priors:
            raise StrategyError(
                f"step {step.name!r}: unresolved placeholder {{prior:{prior_name}}}"
            )
        value = priors[prior_name]
        if thought_char_budget is not None:
            value = value[:thought_char_budget]
        return value

    return _PLACEHOLDER_RE.sub(_sub, step.template)


def majority_vote(candidates: Sequence[ExtractedAnswer]) -> tuple[ExtractedAnswer, dict[str, int]]:
    """Pick the most frequent normalized answer; ties go to first occurrence."""
    if not candidates:
        raise StrategyError("majority_vote needs at least one candidate")
    counts = Counter(c.normalized for c in candidates)
    best = max(counts.values())
    for cand in candidates:
        if counts[cand.normalized] == best:
            return cand, dict(counts)
    raise AssertionError("unreachable")


def execute(
    strategy_plan: StrategyPlan,
    item: QAItem,
    backend: Backend,
    config: Optional[StrategyConfig] = None,
) -> Transcript:
    """Run a plan end to end; the transcript holds the confidences `config` names."""
    config = config or StrategyConfig()
    priors: dict[str, str] = dict(strategy_plan.initial_priors)
    records: list[StepRecord] = []
    vote_detail: Optional[VoteDetail] = None
    # token_prob reads a completion of the plan's last step: the answer, or
    # a self_consistency sample. Only those requests ask for logprobs.
    answer_step = strategy_plan.steps[-1]
    answer_logprobs = 1 if "token_prob" in config.extraction_method_ids else 0

    def run(step: Step, seed: Optional[int] = None, temperature: Optional[float] = None,
            prompt: Optional[str] = None) -> Completion:
        if prompt is None:
            prompt = render_step(step, item.question, priors, config.thought_char_budget)
        try:
            request = CompletionRequest(
                prompt=prompt,
                max_tokens=config.max_tokens,
                temperature=config.temperature if temperature is None else temperature,
                top_logprobs=answer_logprobs if step is answer_step else 0,
                seed=seed,
            )
            completion = complete(backend, request)
        except Exception as exc:
            raise StrategyError(f"step {step.name!r} failed: {exc}") from exc
        records.append(StepRecord(step.name, prompt, completion))
        priors[step.name] = completion.text
        return completion

    if strategy_plan.control == "repeat_n_vote":
        step = strategy_plan.steps[0]
        # One prompt for all samples (the step never reads its own prior); one answer per text.
        prompt = render_step(step, item.question, priors, config.thought_char_budget)
        extracted: dict[str, ExtractedAnswer] = {}
        candidates = []
        for i in range(config.self_consistency_n):
            text = run(step, i, config.self_consistency_temperature, prompt).text
            if text not in extracted:
                extracted[text] = ExtractedAnswer.from_text(text, item.answer_kind)
            candidates.append(extracted[text])
        winner, counts = majority_vote(candidates)
        vote_detail = VoteDetail(
            candidates=[c.normalized for c in candidates], counts=counts, winner=winner.normalized
        )
        final_answer = winner
        # The winner's first sampled completion stands in as the final answer
        # record for confidence extraction.
        final_index = vote_detail.candidates.index(winner.normalized)
    elif strategy_plan.control == "conditional_branch":
        by_name = {s.name: s for s in strategy_plan.steps}
        check = run(by_name["followup_check"])
        priors["pairs"] = ""
        if normalize_answer(check.text).split()[:1] != ["no"]:
            for _ in range(SELF_ASK_MAX_FOLLOWUPS):
                fq = run(by_name["followup_question"])
                fa = run(by_name["followup_answer"])
                priors["pairs"] += (
                    f"Follow up: {fq.text} Intermediate answer: {fa.text} "
                )
        completion = run(by_name["answer"])
        final_answer = ExtractedAnswer.from_text(completion.text, item.answer_kind)
        final_index = len(records) - 1
    else:
        for step in strategy_plan.steps:
            completion = run(step)
        final_answer = ExtractedAnswer.from_text(completion.text, item.answer_kind)
        final_index = len(records) - 1

    final_record = records[final_index]
    confidences: dict[str, ConfidenceResult] = {}
    final_context = f"{final_record.prompt} {final_record.completion.text}"
    for method in config.extraction_method_ids:
        if method == "token_prob":
            confidences[method] = token_prob_confidence(final_record.completion)
        elif method == "p_true":
            confidences[method] = p_true_confidence(backend, final_context, final_answer.raw_text)
        else:
            confidences[method] = verbalized_confidence(backend, final_context)
    return Transcript(
        item_id=item.id,
        strategy_id=strategy_plan.strategy_id,
        step_records=records,
        final_answer=final_answer,
        final_index=final_index,
        vote_detail=vote_detail,
        confidences=confidences,
    )
