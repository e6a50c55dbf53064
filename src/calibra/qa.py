"""Question-answering domain types, answer normalization, and exact-match scoring.

Normalization follows the SQuAD convention (lowercase, strip punctuation,
drop articles, collapse whitespace) so that accuracy numbers are reproducible.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass
from typing import Literal, Mapping, Optional, Sequence, get_args

AnswerKind = Literal["boolean", "free_form"]
Verdict = Literal["true", "false", "unresolved"]

_ARTICLE_RE = re.compile(r"\b(a|an|the)\b", re.UNICODE)
_PUNCT_TABLE = str.maketrans("", "", string.punctuation)

_TRUE_TOKENS = frozenset({"true", "yes"})
_FALSE_TOKENS = frozenset({"false", "no"})


def normalize_answer(raw: str) -> str:
    """Lowercase, strip punctuation and articles, and collapse whitespace.

    Idempotent and deterministic; empty input yields the empty string.
    """
    text = raw.lower()
    text = text.translate(_PUNCT_TABLE)
    text = _ARTICLE_RE.sub(" ", text)
    return " ".join(text.split())


def extract_boolean(raw: str) -> Verdict:
    """Read a yes/no verdict from free text.

    Scans normalized tokens left to right and returns the first boolean
    token found; answers that lead with the verdict and then append
    commentary resolve correctly. No boolean token yields "unresolved".
    """
    return _verdict(normalize_answer(raw))


def _verdict(normalized: str) -> Verdict:
    """`extract_boolean` on text that `normalize_answer` has already normalized."""
    for token in normalized.split():
        if token in _TRUE_TOKENS:
            return "true"
        if token in _FALSE_TOKENS:
            return "false"
    return "unresolved"


@dataclass(frozen=True)
class QAItem:
    """One dataset question with its gold answer aliases."""

    id: str
    question: str
    gold_answers: tuple[str, ...]
    answer_kind: AnswerKind = "free_form"
    gold_facts: Optional[tuple[str, ...]] = None
    external_knowledge: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.gold_answers:
            raise ValueError(f"item {self.id!r}: gold_answers must be non-empty")
        if self.answer_kind not in get_args(AnswerKind):
            raise ValueError(
                f"item {self.id!r}: answer_kind must be one of {get_args(AnswerKind)}, "
                f"got {self.answer_kind!r}"
            )
        object.__setattr__(self, "gold_answers", tuple(self.gold_answers))
        if self.gold_facts is not None:
            object.__setattr__(self, "gold_facts", tuple(self.gold_facts))
        if self.answer_kind == "boolean":
            verdicts = {extract_boolean(alias) for alias in self.gold_answers}
            if "unresolved" in verdicts or len(verdicts) != 1:
                raise ValueError(
                    f"item {self.id!r}: boolean gold answers must all resolve "
                    f"to the same true/false value, got {sorted(verdicts)}"
                )

    @property
    def gold_boolean(self) -> Verdict:
        """Gold verdict for boolean items."""
        if self.answer_kind != "boolean":
            raise ValueError(f"item {self.id!r} is not a boolean item")
        return extract_boolean(self.gold_answers[0])


@dataclass(frozen=True)
class ExtractedAnswer:
    """A model answer with its normalized form and optional boolean verdict."""

    raw_text: str
    normalized: str
    boolean_value: Optional[Verdict] = None

    @classmethod
    def from_text(cls, raw_text: str, answer_kind: AnswerKind = "free_form") -> "ExtractedAnswer":
        normalized = normalize_answer(raw_text)
        return cls(
            raw_text=raw_text,
            normalized=normalized,
            boolean_value=_verdict(normalized) if answer_kind == "boolean" else None,
        )


@dataclass(frozen=True)
class EvalRecord:
    """The atom of metric computation: correctness plus per-method confidence."""

    item_id: str
    correct: bool
    confidences: Mapping[str, float]
    concern: bool = False
    strategy_id: str = ""
    dataset: str = ""

    def __post_init__(self) -> None:
        if not self.confidences:
            raise ValueError(f"record {self.item_id!r}: at least one confidence required")
        object.__setattr__(self, "confidences", dict(self.confidences))

    def confidence(self, method: str) -> float:
        try:
            return self.confidences[method]
        except KeyError:
            raise KeyError(
                f"record {self.item_id!r} has no confidence for method {method!r}"
            ) from None


def exact_match(answer: ExtractedAnswer, item: QAItem) -> bool:
    """Exact-match correctness after normalization.

    Boolean items compare verdicts (unresolved counts as incorrect);
    free-form items match the normalized answer against any gold alias.
    """
    if item.answer_kind == "boolean":
        verdict = answer.boolean_value
        if verdict is None:
            verdict = extract_boolean(answer.raw_text)
        if verdict == "unresolved":
            return False
        return verdict == item.gold_boolean
    golds = {normalize_answer(g) for g in item.gold_answers}
    return answer.normalized in golds


def accuracy(records: Sequence[EvalRecord]) -> float:
    """Fraction of records scored correct."""
    if not records:
        raise ValueError("accuracy requires at least one record")
    return sum(1 for r in records if r.correct) / len(records)
