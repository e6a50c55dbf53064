"""Confidence-score extraction protocols.

Three ways to score how sure the model is of an answer it already gave:
averaged token log-probability, the probability of affirming the answer in
a True/False follow-up, and a verbalized numeric confidence. Every
log-probability they read is a number <= 0: `Completion` checks each one.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Literal, Optional, get_args

from .backend import Backend, Completion, CompletionRequest, complete

MethodId = Literal["token_prob", "p_true", "verbalized"]
METHOD_IDS: tuple[str, ...] = get_args(MethodId)

POSSIBLE_ANSWER_PREFIX = "Possible answer: "
P_TRUE_QUESTION = "Is the possible answer: (A) True (B) False"
VERBALIZED_SUFFIX = "Confidence (0-1):"

_NUMBER = r"(\d+\.\d+|\.\d+|\d+)"
# A numeral with the sign written right before it, then a denominator, or a "%"
# and a range's second bound ("-", an en dash or "to") with its own "%".
_NUMERAL_RE = re.compile(rf"(-?){_NUMBER}\s*(?:(?:/|out\s+of)\s*{_NUMBER}|"
                         rf"(%?)\s*(?:(?:-|\u2013|to)\s*{_NUMBER}\s*(%?))?)")


class ConfidenceError(Exception):
    """Base class for confidence extraction failures."""


class UnparseableConfidenceError(ConfidenceError):
    """A verbalized confidence reply with no numeral, or with a zero denominator."""


class ExtractionFailedError(ConfidenceError):
    """The P(True) follow-up produced no usable A/B token."""


@dataclass(frozen=True)
class ConfidenceResult:
    value: float
    raw_value: float
    clamped: bool = False
    aux: Optional[dict] = None
    # The probe completion's text, for the methods that send one.
    reply: Optional[str] = None


def token_prob_confidence(completion: Completion) -> ConfidenceResult:
    """exp(mean per-token logprob): the reciprocal perplexity of the sequence."""
    if not completion.token_logprobs:
        raise ConfidenceError("empty reply: the completion has no token logprobs")
    value = math.exp(sum(completion.token_logprobs) / len(completion.token_logprobs))
    return ConfidenceResult(value=value, raw_value=value)


def p_true_confidence(
    backend: Backend, answer_context: str, possible_answer: str
) -> ConfidenceResult:
    """Probability the model puts on affirming its own candidate answer.

    Appends the possible answer and the fixed True/False question, asks for
    a single token with top-5 alternatives, and reads off the probability of
    "A" (whitespace and parentheses stripped, case-folded, so " (A" is A),
    as Kadavath et al. 2022 read P(True). p(B) is kept only in `aux`.
    """
    prompt = f"{answer_context}\n{POSSIBLE_ANSWER_PREFIX}{possible_answer}\n{P_TRUE_QUESTION}\n"
    request = CompletionRequest(prompt=prompt, max_tokens=1, temperature=0.0, top_logprobs=5)
    completion = complete(backend, request)
    if not completion.top_logprobs:
        raise ExtractionFailedError("empty reply to the P(True) probe: no top-logprobs to read")
    first = completion.top_logprobs[0]
    # Read in reverse, so that of two tokens that fold alike the first is kept.
    folded = {token.strip().strip("()").strip().casefold(): lp
              for token, lp in reversed(first.items())}
    lp_a, lp_b = folded.get("a"), folded.get("b")
    if lp_a is None and lp_b is None:
        raise ExtractionFailedError(f"neither 'A' nor 'B' among top tokens: {sorted(first)}")
    p_a = math.exp(lp_a) if lp_a is not None else 0.0
    p_b = math.exp(lp_b) if lp_b is not None else 0.0
    return ConfidenceResult(value=p_a, raw_value=p_a, aux={"p_a": p_a, "p_b": p_b},
                            reply=completion.text)


def parse_verbalized(text: str) -> ConfidenceResult:
    """Read the first numeral in the text as a confidence, clamped to [0, 1].

    A numeral followed by "%" is a fraction of 100, "a/b" or "a out of b" is
    a/b, and a range "a-b", "a–b" or "a to b" is its midpoint, in percent if
    either bound has a "%". A minus sign right before the numeral is kept, and
    so is the raw value.
    """
    match = _NUMERAL_RE.search(text)
    if match is None:
        raise UnparseableConfidenceError(f"no numeral in confidence reply: {text[:120]!r}")
    sign, first, denominator, percent, second, second_percent = match.groups()
    scale = float(denominator or (100 if percent or second_percent else 1))
    if scale == 0:
        raise UnparseableConfidenceError(f"zero denominator in confidence reply: {text[:120]!r}")
    raw = float(sign + first)
    raw = (raw if second is None else (raw + float(second)) / 2) / scale
    value = min(1.0, max(0.0, raw))
    return ConfidenceResult(value=value, raw_value=raw, clamped=value != raw)


def verbalized_confidence(backend: Backend, answer_context: str) -> ConfidenceResult:
    """Ask the model to state its own confidence after the answer."""
    prompt = f"{answer_context}\n{VERBALIZED_SUFFIX}"
    request = CompletionRequest(prompt=prompt, max_tokens=8, temperature=0.0)
    completion = complete(backend, request)
    parsed = parse_verbalized(completion.text)
    return ConfidenceResult(parsed.value, parsed.raw_value, parsed.clamped, reply=completion.text)
