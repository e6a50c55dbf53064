from dataclasses import replace

import pytest

from calibra.concern import (
    ConcernError,
    ConcernLexicon,
    augment_with_knowledge,
    concern_rate,
    detect_concern,
    improvement,
    select_hard,
)
from calibra.qa import EvalRecord, QAItem

# The four expressing-concern exemplars, plus plain and hard-negative answers.
CONCERN_POSITIVES = [
    "False. There will need to be further research.",
    "It is not possible to answer with current evidence this question.",
    "False, but there is not yet sufficient evidence to answer.",
    "False (It depends on the ingredients of the spaghetti)",
]

CONCERN_NEGATIVES = [
    "True",
    "False",
    "Yes.",
    "No, definitely not.",
    "English and Creole",
    "The evidence is in the text.",
    "There is strong evidence for this claim.",
    "Research shows owls are nocturnal.",
    "The answer is supported by many sources.",
    "True. Aristotle lived long before laptops.",
    "False. The ingredients are listed on the label.",
    "Paris",
    "It is true that spaghetti contains gluten.",
    "Yes, this is well documented.",
    "The sources agree on this answer.",
    "False. The condition described never held.",
]


class TestDetectConcern:
    @pytest.mark.parametrize("text", CONCERN_POSITIVES)
    def test_positives(self, text):
        flagged, matches = detect_concern(text)
        assert flagged and matches

    @pytest.mark.parametrize("text", CONCERN_NEGATIVES)
    def test_negatives(self, text):
        flagged, _ = detect_concern(text)
        assert not flagged

    def test_twenty_case_fixture_perfect(self):
        tp = sum(detect_concern(t)[0] for t in CONCERN_POSITIVES)
        fp = sum(detect_concern(t)[0] for t in CONCERN_NEGATIVES)
        precision = tp / (tp + fp)
        recall = tp / len(CONCERN_POSITIVES)
        assert precision == 1.0 and recall == 1.0
        assert len(CONCERN_POSITIVES) + len(CONCERN_NEGATIVES) == 20

    def test_case_insensitive(self):
        text = CONCERN_POSITIVES[0]
        assert detect_concern(text.upper())[0] == detect_concern(text)[0]

    def test_wildcard_pattern(self):
        lexicon = ConcernLexicon(patterns=("no * evidence",))
        assert detect_concern("There is no solid evidence.", lexicon)[0]
        assert not detect_concern("The evidence is solid.", lexicon)[0]

    def test_all_matches_reported(self):
        _, matches = detect_concern(
            "It is not possible to answer with current evidence."
        )
        assert set(matches) >= {"not possible to answer", "current evidence"}


class TestLexicon:
    def test_requires_patterns(self):
        with pytest.raises(ConcernError):
            ConcernLexicon(patterns=())

    def test_rejects_empty_matching_pattern(self):
        with pytest.raises(ConcernError):
            ConcernLexicon(patterns=("*",))

    def test_from_file(self, tmp_path):
        path = tmp_path / "lexicon.txt"
        path.write_text("# comment\nnot enough data\n\nit depends  # inline\n", encoding="utf-8")
        lexicon = ConcernLexicon.from_file(path)
        assert lexicon.patterns == ("not enough data", "it depends")
        assert detect_concern("We have not enough data.", lexicon)[0]


class TestConcernRate:
    def test_zero(self):
        assert concern_rate([detect_concern("True")[0]] * 10) == 0.0

    def test_one_of_eight(self):
        answers = [CONCERN_POSITIVES[0]] + ["True"] * 7
        assert concern_rate([detect_concern(a)[0] for a in answers]) == 0.125

    def test_table_fixture_half(self):
        answers = CONCERN_POSITIVES + ["True", "False", "Paris", "No"]
        assert concern_rate([detect_concern(a)[0] for a in answers]) == 0.5

    def test_empty_errors(self):
        with pytest.raises(ConcernError):
            concern_rate([])


def rec(item_id, correct, concern=False):
    return EvalRecord(
        item_id=item_id, correct=correct, confidences={"m": 0.5}, concern=concern
    )


class TestSelectHard:
    def records(self):
        return [rec(f"i{k}", True, concern=k < 3) for k in range(10)]

    def test_concern_mode_exact_set(self):
        selected = select_hard(self.records(), "concern_triggered")
        assert selected == ["i0", "i1", "i2"]

    def test_random_control_same_cardinality_and_seeded(self):
        a = select_hard(self.records(), "random_control", seed=7)
        b = select_hard(self.records(), "random_control", seed=7)
        assert a == b and len(a) == 3

    def test_different_seeds_can_differ(self):
        outcomes = {tuple(select_hard(self.records(), "random_control", seed=s)) for s in range(20)}
        assert len(outcomes) > 1

    def test_two_strategies_count_each_id_once(self):
        records = [rec(f"i{k}", True, concern=k < 2) for k in range(4)]
        both = records + [replace(r, strategy_id="cot") for r in records]
        assert select_hard(both, "concern_triggered") == ["i0", "i1"]
        for seed in range(20):
            picked = select_hard(both, "random_control", seed=seed)
            assert len(picked) == len(set(picked)) == 2

    def test_empty_concern_set(self):
        records = [rec("a", True), rec("b", False)]
        assert select_hard(records, "concern_triggered") == []
        assert select_hard(records, "random_control") == []


class TestAugment:
    def test_knowledge_prepended(self):
        item = QAItem(
            id="q", question="Is water wet?", gold_answers=("yes",),
            answer_kind="boolean", external_knowledge="Water makes things wet.",
        )
        augmented = augment_with_knowledge(item)
        assert augmented.question.startswith("Knowledge: Water makes things wet.\n")
        assert augmented.question.endswith("Is water wet?")
        assert augmented.gold_answers == item.gold_answers

    def test_missing_knowledge_errors(self):
        item = QAItem(id="q", question="?", gold_answers=("a",))
        with pytest.raises(ConcernError, match="q"):
            augment_with_knowledge(item)


class TestImprovement:
    def test_sixty_eight_percent(self):
        # 100 selected items: accuracy 0.25 -> 0.42, the +68% relative shape.
        ids = [f"i{k}" for k in range(100)]
        before = [rec(i, k < 25) for k, i in enumerate(ids)]
        after = [rec(i, k < 42) for k, i in enumerate(ids)]
        outcome = improvement(before, after, ids)
        assert outcome.relative_improvement == pytest.approx(0.68)

    def test_identical_sets_zero(self):
        ids = ["a", "b"]
        records = [rec("a", True), rec("b", False)]
        outcome = improvement(records, records, ids)
        assert outcome.relative_improvement == 0.0

    def test_one_of_four_to_two_of_four(self):
        ids = ["a", "b", "c", "d"]
        before = [rec(i, i == "a") for i in ids]
        after = [rec(i, i in ("a", "b")) for i in ids]
        outcome = improvement(before, after, ids)
        assert outcome.relative_improvement == pytest.approx(1.0)

    def test_zero_baseline_flagged_undefined(self):
        ids = ["a"]
        outcome = improvement([rec("a", False)], [rec("a", True)], ids)
        assert outcome.relative_improvement is None
        assert outcome.absolute_improvement == 1.0

    def test_missing_records_rejected(self):
        with pytest.raises(ConcernError):
            improvement([rec("a", True)], [rec("a", True)], ["a", "b"])
