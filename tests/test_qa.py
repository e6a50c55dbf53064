import pytest
from hypothesis import given
from hypothesis import strategies as st

from calibra.qa import (
    EvalRecord,
    ExtractedAnswer,
    QAItem,
    accuracy,
    exact_match,
    extract_boolean,
    normalize_answer,
)


class TestNormalizeAnswer:
    def test_strips_article_and_punctuation(self):
        assert normalize_answer("The Eiffel Tower.") == "eiffel tower"

    def test_passthrough(self):
        assert normalize_answer("English and Creole") == "english and creole"

    def test_punctuation_and_whitespace(self):
        assert normalize_answer("  FALSE,  but...") == "false but"

    def test_empty(self):
        assert normalize_answer("") == ""

    def test_article_only_as_whole_word(self):
        assert normalize_answer("theater") == "theater"
        assert normalize_answer("an anchor") == "anchor"

    @given(st.text(max_size=200))
    def test_idempotent(self, text):
        once = normalize_answer(text)
        assert normalize_answer(once) == once


class TestExtractBoolean:
    def test_leading_verdict_with_commentary(self):
        assert extract_boolean("False. There will need to be further research.") == "false"

    def test_plain_true(self):
        assert extract_boolean("True") == "true"

    def test_unresolved(self):
        assert (
            extract_boolean("It is not possible to answer with current evidence this question.")
            == "unresolved"
        )

    def test_yes_and_no(self):
        assert extract_boolean("Yes, definitely.") == "true"
        assert extract_boolean("no way") == "false"

    def test_first_boolean_token_wins(self):
        assert extract_boolean("True, not false.") == "true"


def make_item(**kwargs):
    defaults = dict(id="x", question="q?", gold_answers=("a",))
    defaults.update(kwargs)
    return QAItem(**defaults)


class TestQAItem:
    def test_requires_gold_answers(self):
        with pytest.raises(ValueError):
            make_item(gold_answers=())

    @pytest.mark.parametrize("kind", ["boolen", "Boolean", "", None])
    def test_unknown_answer_kind_rejected(self, kind):
        with pytest.raises(ValueError, match="answer_kind must be one of"):
            make_item(gold_answers=("No",), answer_kind=kind)

    def test_boolean_aliases_must_resolve(self):
        with pytest.raises(ValueError):
            make_item(gold_answers=("maybe",), answer_kind="boolean")

    def test_boolean_aliases_must_agree(self):
        with pytest.raises(ValueError):
            make_item(gold_answers=("yes", "no"), answer_kind="boolean")

    def test_gold_boolean(self):
        item = make_item(gold_answers=("Yes", "true"), answer_kind="boolean")
        assert item.gold_boolean == "true"

    def test_gold_boolean_of_a_free_form_item(self):
        with pytest.raises(ValueError, match="'x' is not a boolean item"):
            make_item().gold_boolean


class TestExactMatch:
    def test_free_form_normalization_symmetry(self):
        item = make_item(gold_answers=("English and Creole",))
        answer = ExtractedAnswer.from_text("english and creole")
        assert exact_match(answer, item)
        pre_normalized = make_item(gold_answers=("english and creole",))
        assert exact_match(answer, pre_normalized)

    def test_boolean_mismatch(self):
        item = make_item(gold_answers=("True",), answer_kind="boolean")
        answer = ExtractedAnswer.from_text("False. There will need", "boolean")
        assert not exact_match(answer, item)

    def test_unresolved_is_incorrect(self):
        item = make_item(gold_answers=("True",), answer_kind="boolean")
        answer = ExtractedAnswer.from_text("who knows", "boolean")
        assert not exact_match(answer, item)

    def test_boolean_commentary_correct(self):
        item = make_item(gold_answers=("No",), answer_kind="boolean")
        answer = ExtractedAnswer.from_text("False, but evidence is thin.", "boolean")
        assert exact_match(answer, item)

    def test_boolean_item_reads_the_normalized_text(self):
        # An answer extracted as free-form has no boolean_value; its verdict is the same.
        item = make_item(gold_answers=("No",), answer_kind="boolean")
        assert exact_match(ExtractedAnswer.from_text("No, it is not."), item)
        assert not exact_match(ExtractedAnswer.from_text("Yes."), item)


def rec(item_id, correct, conf=0.5):
    return EvalRecord(item_id=item_id, correct=correct, confidences={"token_prob": conf})


class TestAccuracy:
    def test_half(self):
        assert accuracy([rec("a", True), rec("b", False)]) == 0.5

    def test_all_correct(self):
        assert accuracy([rec("a", True), rec("b", True)]) == 1.0

    def test_two_thirds(self):
        value = accuracy([rec("a", True), rec("b", True), rec("c", False)])
        assert abs(value - 2 / 3) < 1e-12

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            accuracy([])

    @given(st.lists(st.booleans(), min_size=1, max_size=20), st.randoms())
    def test_permutation_invariant(self, flags, rng):
        records = [rec(f"i{i}", c) for i, c in enumerate(flags)]
        shuffled = records[:]
        rng.shuffle(shuffled)
        assert accuracy(records) == accuracy(shuffled)
        assert 0.0 <= accuracy(records) <= 1.0


class TestEvalRecord:
    def test_requires_confidence(self):
        with pytest.raises(ValueError):
            EvalRecord(item_id="a", correct=True, confidences={})

    def test_missing_method_named(self):
        with pytest.raises(KeyError, match="p_true"):
            rec("a", True).confidence("p_true")
