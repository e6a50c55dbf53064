import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from calibra.backend import Completion, HttpBackend, MalformedResponseError, mock_from_script
from calibra.confidence import (
    ConfidenceError,
    ConfidenceResult,
    ExtractionFailedError,
    P_TRUE_QUESTION,
    POSSIBLE_ANSWER_PREFIX,
    UnparseableConfidenceError,
    VERBALIZED_SUFFIX,
    p_true_confidence,
    parse_verbalized,
    token_prob_confidence,
    verbalized_confidence,
)
from conftest import ScriptEndpoint


def completion_with(logprobs):
    tokens = tuple(f"t{i}" for i in range(len(logprobs)))
    return Completion(
        text="".join(tokens),
        tokens=tokens,
        token_logprobs=tuple(logprobs),
        top_logprobs=tuple({t: lp} for t, lp in zip(tokens, logprobs)),
    )


class TestTokenProb:
    def test_all_zero_is_one(self):
        assert token_prob_confidence(completion_with([0.0, 0.0])).value == 1.0

    def test_hand_computed_mean(self):
        result = token_prob_confidence(completion_with([-0.5, -1.5]))
        assert abs(result.value - 0.367879) < 1e-6

    def test_perplexity_identity(self):
        rng = random.Random(9)
        for _ in range(100):
            logprobs = [-rng.random() * 5 for _ in range(rng.randint(1, 20))]
            value = token_prob_confidence(completion_with(logprobs)).value
            perplexity = math.exp(-sum(logprobs) / len(logprobs))
            assert abs(value - 1.0 / perplexity) < 1e-9

    def test_positive_logprob_rejected(self):
        # Before token_prob can read it: `Completion` checks every log-probability.
        with pytest.raises(ValueError, match="log-probability 0.1 is invalid"):
            completion_with([0.1])

    def test_empty_rejected(self):
        with pytest.raises(ConfidenceError):
            token_prob_confidence(completion_with([]))

    @given(st.lists(st.floats(min_value=-20, max_value=0), min_size=1, max_size=10))
    def test_range_and_permutation_invariance(self, logprobs):
        value = token_prob_confidence(completion_with(logprobs)).value
        assert 0.0 < value <= 1.0
        if any(lp < -1e-9 for lp in logprobs):
            assert value < 1.0
        shuffled = list(reversed(logprobs))
        assert token_prob_confidence(completion_with(shuffled)).value == pytest.approx(
            value, abs=1e-12
        )


def p_true_backend(top_logprobs, context="ctx", possible_answer="Paris"):
    prompt = f"{context}\n{POSSIBLE_ANSWER_PREFIX}{possible_answer}\n{P_TRUE_QUESTION}\n"
    choice = max(top_logprobs, key=top_logprobs.get)
    return mock_from_script(
        {prompt: {"text": choice, "logprobs": [top_logprobs[choice]], "top_logprobs": [top_logprobs]}}
    )


class TestPTrue:
    def test_raw_probability_of_a(self):
        backend = p_true_backend({"A": math.log(0.7), "B": math.log(0.2)})
        result = p_true_confidence(backend, "ctx", "Paris")
        assert result.value == pytest.approx(0.7)

    def test_leading_space_trim_and_normalization(self):
        top = {" A": math.log(0.2), "B": math.log(0.6)}
        backend = p_true_backend(top)
        raw = p_true_confidence(backend, "ctx", "Paris")
        assert raw.value == pytest.approx(0.2)
        assert raw.aux == {"p_a": pytest.approx(0.2), "p_b": pytest.approx(0.6)}

    def test_first_of_two_alike_tokens_is_read(self):
        backend = p_true_backend({" A": math.log(0.6), "a": math.log(0.1), "B": math.log(0.2)})
        assert p_true_confidence(backend, "ctx", "Paris").value == pytest.approx(0.6)

    def test_case_fold(self):
        backend = p_true_backend({"a": math.log(0.5), "B": math.log(0.3)})
        assert p_true_confidence(backend, "ctx", "Paris").value == pytest.approx(0.5)

    def test_no_choice_token_fails_with_observed(self):
        backend = p_true_backend({"C": math.log(0.9), "D": math.log(0.05)})
        with pytest.raises(ExtractionFailedError, match="C"):
            p_true_confidence(backend, "ctx", "Paris")

    def test_empty_reply_names_the_reason(self):
        prompt = f"ctx\n{POSSIBLE_ANSWER_PREFIX}Paris\n{P_TRUE_QUESTION}\n"
        with pytest.raises(ExtractionFailedError, match=r"empty reply to the P\(True\) probe"):
            p_true_confidence(mock_from_script({prompt: ""}), "ctx", "Paris")

    @pytest.mark.parametrize("choice", [" (A", "(A)", "A)", "(A"])
    def test_a_parenthesized_choice_reads_as_its_letter(self, choice):
        backend = p_true_backend({"(": math.log(0.5), choice: math.log(0.3), "B": math.log(0.1)})
        assert p_true_confidence(backend, "ctx", "Paris").value == pytest.approx(0.3)

    def test_first_of_two_tokens_that_fold_alike_is_read(self):
        backend = p_true_backend({" (A": math.log(0.3), "A": math.log(0.6), "B": math.log(0.05)})
        assert p_true_confidence(backend, "ctx", "Paris").value == pytest.approx(0.3)

    @pytest.mark.parametrize("top, lp_a, lp_b", [
        ({"(": -0.4, " (A": -1.2, " (B": -2.0}, -1.2, -2.0),
        ({"(": -0.4, " (A": -1.2, " (B": -2.0, "A": -3.0, " The": -4.0, "B": -4.5, " I": -5.0},
         -1.2, -2.0),
        ({" A": -0.3, " B": -1.5}, -0.3, -1.5),
    ], ids=["parenthesized", "more_than_requested", "spaced"])
    def test_over_http_reads_as_over_the_mock(self, top, lp_a, lp_b):
        http = HttpBackend("http://host", "m", api_key="k",
                           session=ScriptEndpoint(p_true_backend(top)))
        results = [p_true_confidence(backend, "ctx", "Paris")
                   for backend in (p_true_backend(top), http)]
        assert results[0] == results[1]
        assert results[0].value == math.exp(lp_a)
        assert results[0].aux == {"p_a": math.exp(lp_a), "p_b": math.exp(lp_b)}

    def test_a_lone_parenthesis_is_no_choice(self):
        backend = p_true_backend({"(": math.log(0.9)})
        with pytest.raises(ExtractionFailedError, match="neither 'A' nor 'B'"):
            p_true_confidence(backend, "ctx", "Paris")

    def test_missing_a_uses_zero(self):
        backend = p_true_backend({"B": math.log(0.8), "C": math.log(0.1)})
        assert p_true_confidence(backend, "ctx", "Paris").value == 0.0

    @pytest.mark.parametrize("top", [
        {"A": 0.5, "B": -2.0},  # p(A) would be 1.65
        {"A": -0.1, "B": 0.2},
        {"A": math.nan, "B": -2.0},
        {"A": False, "B": -2.0},  # p(A) would be 1.0
        {"A": -10**400, "B": -2.0},  # too large for a float
    ], ids=["a_positive", "b_positive", "a_nan", "a_false", "a_huge_int"])
    def test_choice_logprob_above_zero_or_nan_rejected(self, top):
        # The reply is unusable as an endpoint's would be, before P(True) reads it.
        with pytest.raises(MalformedResponseError,
                           match="unusable completion: log-probability .* is invalid: it must be a"):
            p_true_confidence(p_true_backend(top), "ctx", "Paris")

    @pytest.mark.parametrize("top", [
        {"A": -800.0},
        {"A": -math.inf, "B": -math.inf},
    ], ids=["underflow", "both_minus_infinity"])
    def test_normalized_needs_some_probability(self, top):
        # A p(A) that underflows, or is exp(-inf), reads 0.0 and is no error.
        assert p_true_confidence(p_true_backend(top), "ctx", "Paris").value == 0.0


class TestParseVerbalized:
    def test_decimal(self):
        result = parse_verbalized("0.85")
        assert result.value == 0.85 and not result.clamped

    def test_clamp_preserves_raw(self):
        result = parse_verbalized("1.2")
        assert result.value == 1.0 and result.raw_value == 1.2 and result.clamped

    @pytest.mark.parametrize("text, value", [
        (" 90%", 0.9), ("85 %", 0.85), (" I am 85% sure", 0.85), ("7.5%", 0.075),
    ])
    def test_percent_is_a_fraction_of_100(self, text, value):
        assert parse_verbalized(text) == ConfidenceResult(value=value, raw_value=value)

    def test_percent_above_100_clamps(self):
        result = parse_verbalized("120%")
        assert result.value == 1.0 and result.raw_value == 1.2 and result.clamped

    @pytest.mark.parametrize("text, value", [
        (" 8/10", 0.8), (" 9.5/10", 0.95), ("3 / 4", 0.75), (" 4 out of 5", 0.8),
        ("I'd say 8 out  of 10.", 0.8),
    ])
    def test_fraction_is_its_quotient(self, text, value):
        assert parse_verbalized(text) == ConfidenceResult(value=value, raw_value=value)

    @pytest.mark.parametrize("text", [" 8/0", "1 out of 0.0"])
    def test_zero_denominator_is_unparseable(self, text):
        with pytest.raises(UnparseableConfidenceError, match="zero denominator"):
            parse_verbalized(text)

    def test_minus_sign_is_kept_and_clamped(self):
        assert parse_verbalized(" -0.2") == ConfidenceResult(value=0.0, raw_value=-0.2,
                                                              clamped=True)

    @pytest.mark.parametrize("text", [
        " 70-80%", " 70 to 80%", " 0.7-0.8", " 70%-80%", " 70 \u2013 80 %", "70%\u201380",
        "0.7 to 0.8",
    ])
    def test_range_reads_its_midpoint(self, text):
        # A "%" after either bound makes both bounds percentages.
        assert parse_verbalized(text) == ConfidenceResult(value=0.75, raw_value=0.75)

    @pytest.mark.parametrize("text, raw", [
        (" 85", 85.0), ("0.85 - sure", 0.85), ("0.73 (fairly sure)", 0.73), ("70 tomorrow", 70.0),
    ])
    def test_a_numeral_without_a_second_bound_is_no_range(self, text, raw):
        assert parse_verbalized(text).raw_value == raw

    def test_unparseable(self):
        with pytest.raises(UnparseableConfidenceError):
            parse_verbalized("I am not sure.")
        with pytest.raises(UnparseableConfidenceError, match="no numeral"):
            parse_verbalized("no idea")

    def test_first_numeral_wins(self):
        assert parse_verbalized("0.3 maybe 0.9").value == 0.3

    def test_pure_function(self):
        assert parse_verbalized("0.4") == parse_verbalized("0.4")


class TestVerbalizedConfidence:
    def test_appends_suffix_and_parses(self):
        backend = mock_from_script({f"ctx\n{VERBALIZED_SUFFIX}": " 0.85"})
        result = verbalized_confidence(backend, "ctx")
        assert result.value == 0.85

    def test_parse_error_propagates(self):
        backend = mock_from_script({f"ctx\n{VERBALIZED_SUFFIX}": "shrug"})
        with pytest.raises(UnparseableConfidenceError):
            verbalized_confidence(backend, "ctx")
