"""Expressing-concern detection and hard-example augmentation accounting.

A concern is an answer qualified with insufficiency-of-evidence or
conditionality language. Detection is lexicon-driven so the phrase set can
be versioned and swapped.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Literal, Optional, Sequence

from .qa import EvalRecord, QAItem, accuracy

SelectionMode = Literal["concern_triggered", "random_control"]

DEFAULT_CONCERN_PATTERNS = (
    "not sufficient evidence",
    "not yet sufficient evidence",
    "no sufficient evidence",
    "not possible to answer",
    "cannot be answered",
    "further research",
    "it depends",
    "need further",
    "insufficient evidence",
    "current evidence",
)

DEFAULT_LEXICON_VERSION = "builtin-1"


class ConcernError(Exception):
    pass


@dataclass(frozen=True)
class ConcernLexicon:
    """Case-insensitive phrase patterns; '*' in a pattern matches any text."""

    patterns: tuple[str, ...] = DEFAULT_CONCERN_PATTERNS
    version: str = DEFAULT_LEXICON_VERSION

    def __post_init__(self) -> None:
        if not self.patterns:
            raise ConcernError("lexicon must contain at least one pattern")
        compiled = []
        for pattern in self.patterns:
            if not pattern.replace("*", "").strip():
                raise ConcernError(f"pattern {pattern!r} would match the empty string")
            regex = ".*".join(re.escape(part) for part in pattern.split("*"))
            compiled.append(re.compile(regex, re.IGNORECASE | re.DOTALL))
        object.__setattr__(self, "patterns", tuple(self.patterns))
        object.__setattr__(self, "_compiled", tuple(compiled))

    @classmethod
    def from_file(cls, path: str | Path) -> "ConcernLexicon":
        """One pattern per line; blank lines and '#' comments ignored; versioned by file name."""
        path = Path(path)
        patterns = []
        for line in path.read_text(encoding="utf-8").splitlines():
            line = line.split("#", 1)[0].strip()
            if line:
                patterns.append(line)
        return cls(patterns=tuple(patterns), version=path.name)


def detect_concern(
    answer_text: str, lexicon: Optional[ConcernLexicon] = None
) -> tuple[bool, list[str]]:
    """True iff any lexicon phrase occurs in the answer; all matches reported."""
    lexicon = lexicon or ConcernLexicon()
    matched = [
        pattern
        for pattern, regex in zip(lexicon.patterns, lexicon._compiled)
        if regex.search(answer_text)
    ]
    return bool(matched), matched


def concern_rate(flags: Sequence[bool]) -> float:
    """Fraction of final answers flagged as expressing concern by `detect_concern`."""
    if not flags:
        raise ConcernError("concern_rate requires at least one flag")
    return sum(flags) / len(flags)


def select_hard(
    records: Sequence[EvalRecord],
    mode: SelectionMode,
    seed: int = 0,
) -> list[str]:
    """Pick the ids to augment: the concern set, or a size-matched random control.

    Each id counts once, in first-seen order, however many records share it.
    """
    concern_ids = list(dict.fromkeys(r.item_id for r in records if r.concern))
    if not concern_ids:
        return []
    if mode == "concern_triggered":
        return concern_ids
    all_ids = list(dict.fromkeys(r.item_id for r in records))
    rng = random.Random(seed)
    return sorted(rng.sample(all_ids, len(concern_ids)))


def augment_with_knowledge(item: QAItem) -> QAItem:
    """Prepend the item's external knowledge to its question context."""
    if not item.external_knowledge:
        raise ConcernError(f"item {item.id!r} has no external_knowledge to inject")
    return replace(item, question=f"Knowledge: {item.external_knowledge}\n{item.question}")


@dataclass
class AugmentationOutcome:
    selected_ids: list[str]
    accuracy_before: float
    accuracy_after: float
    relative_improvement: Optional[float]
    absolute_improvement: float


def improvement(
    before: Sequence[EvalRecord],
    after: Sequence[EvalRecord],
    selected_ids: Sequence[str],
) -> AugmentationOutcome:
    """Accuracy change on the selected ids, relative and absolute."""
    wanted = set(selected_ids)
    before_sel = [r for r in before if r.item_id in wanted]
    after_sel = [r for r in after if r.item_id in wanted]
    missing = wanted - {r.item_id for r in before_sel} | wanted - {r.item_id for r in after_sel}
    if missing:
        raise ConcernError(f"records missing for selected ids: {sorted(missing)}")
    acc_before = accuracy(before_sel)
    acc_after = accuracy(after_sel)
    # None when the baseline accuracy is zero: no relative change is defined.
    relative = (acc_after - acc_before) / acc_before if acc_before > 0 else None
    return AugmentationOutcome(
        selected_ids=sorted(wanted),
        accuracy_before=acc_before,
        accuracy_after=acc_after,
        relative_improvement=relative,
        absolute_improvement=acc_after - acc_before,
    )
