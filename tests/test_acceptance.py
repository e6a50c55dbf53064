"""Acceptance gate: twelve pass/fail criteria, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the status lines.
Every criterion runs offline against the mock backend or pure functions.
"""

import json
import math
import random
import time
from pathlib import Path

import numpy as np
import pytest

from calibra import metrics as cal
from calibra.backend import Completion, mock_from_script
from calibra.concern import detect_concern, improvement
from calibra.confidence import (
    UnparseableConfidenceError,
    parse_verbalized,
    token_prob_confidence,
)
from calibra.harness import run_eval
from calibra.qa import EvalRecord, ExtractedAnswer, QAItem
from calibra.strategies import (
    STRATEGY_IDS,
    StrategyConfig,
    execute,
    majority_vote,
    plan,
)
from conftest import build_script, render_golden
from test_concern import CONCERN_NEGATIVES, CONCERN_POSITIVES
from test_harness import e2e_config

GOLDENS = Path(__file__).parent / "goldens"


def report(criterion: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}")
    assert ok, criterion


def random_records(rng, n):
    return [
        EvalRecord(
            item_id=str(k),
            correct=rng.random() < 0.5,
            confidences={"m": rng.random()},
        )
        for k in range(n)
    ]


def ece_oracle(records, num_buckets):
    total = 0.0
    for m in range(num_buckets):
        lo, hi = m / num_buckets, (m + 1) / num_buckets
        members = [
            r for r in records
            if lo <= r.confidences["m"] < hi
            or (m == num_buckets - 1 and r.confidences["m"] == 1.0)
        ]
        if not members:
            continue
        acc = sum(r.correct for r in members) / len(members)
        conf = sum(r.confidences["m"] for r in members) / len(members)
        total += len(members) / len(records) * abs(acc - conf)
    return total


def macro_oracle(records):
    pos = [1.0 - r.confidences["m"] for r in records if r.correct]
    neg = [r.confidences["m"] for r in records if not r.correct]
    ice_pos = sum(pos) / len(pos) if pos else float("nan")
    ice_neg = sum(neg) / len(neg) if neg else float("nan")
    if pos and neg:
        return (ice_pos + ice_neg) / 2
    return ice_pos if pos else ice_neg


def test_criterion_1_toy_example():
    start = time.monotonic()
    # one wrong at confidence 1, one correct at confidence 0, shared bucket
    records = [
        EvalRecord(item_id="a", correct=False, confidences={"m": 1.0}),
        EvalRecord(item_id="b", correct=True, confidences={"m": 0.0}),
    ]
    summary = cal.summarize(records, "m", 1)
    ok = summary.ece == 0.0 and summary.macro_ce == 1.0 and summary.degenerate_flag == "none"
    ok = ok and (time.monotonic() - start) < 1.0
    report("1 toy example: ECE=0 and MacroCE=1 exactly", ok)


def test_criterion_2_metric_oracles():
    start = time.monotonic()
    rng = random.Random(42)
    ok = True
    for _ in range(200):
        n = rng.randint(1, 12)
        m = rng.randint(1, 4)
        records = random_records(rng, n)
        buckets = cal.bucketize(
            [(r.item_id, r.confidences["m"]) for r in records], m,
            correct=[r.correct for r in records],
        )
        ok = ok and sum(b.size for b in buckets) == n
        summary = cal.summarize(records, "m", m)
        ok = ok and abs(summary.ece - ece_oracle(records, m)) <= 1e-12
        macro = summary.macro_ce
        oracle = macro_oracle(records)
        if math.isnan(oracle):
            ok = ok and math.isnan(macro)
        else:
            ok = ok and abs(macro - oracle) <= 1e-12
    ok = ok and (time.monotonic() - start) < 5.0
    report("2 metric oracle equivalence within 1e-12 on 200 random sets", ok)


def make_completion(logprobs):
    tokens = tuple(f"t{k}" for k in range(len(logprobs)))
    return Completion(
        text="".join(tokens), tokens=tokens,
        token_logprobs=tuple(logprobs),
        top_logprobs=tuple({} for _ in logprobs),
    )


def test_criterion_3_token_probability_identity():
    rng = random.Random(7)
    ok = True
    for _ in range(100):
        logprobs = [-rng.random() * 6 for _ in range(rng.randint(1, 15))]
        value = token_prob_confidence(make_completion(logprobs)).value
        perplexity = math.exp(-sum(logprobs) / len(logprobs))
        ok = ok and abs(value - 1.0 / perplexity) <= 1e-9
    hand = token_prob_confidence(make_completion([-0.5, -1.5])).value
    ok = ok and abs(hand - 0.367879) <= 1e-6
    report("3 token-prob equals 1/perplexity (1e-9); exp(mean) check (1e-6)", ok)


def test_criterion_4_single_bucket_collapse():
    rng = random.Random(11)
    ok = True
    for _ in range(100):
        records = random_records(rng, rng.randint(1, 30))
        acc = sum(r.correct for r in records) / len(records)
        avg = math.fsum(r.confidences["m"] for r in records) / len(records)
        ok = ok and cal.summarize(records, "m", 1).ece == abs(avg - acc)
    report("4 single-bucket ECE equals |avg_conf - accuracy| exactly", ok)


def test_criterion_5_golden_prompts():
    ok = all(
        render_golden(sid) == (GOLDENS / f"{sid}.txt").read_text(encoding="utf-8")
        for sid in STRATEGY_IDS
    )
    combined = "".join(
        (GOLDENS / f"{sid}.txt").read_text(encoding="utf-8") for sid in STRATEGY_IDS
    )
    from calibra.confidence import P_TRUE_QUESTION, VERBALIZED_SUFFIX

    for fragment in (
        "Let's think step by step:",
        "Generate some knowledge about the question:",
        "Are follow-up questions needed?",
    ):
        ok = ok and fragment in combined
    ok = ok and VERBALIZED_SUFFIX == "Confidence (0-1):"
    ok = ok and P_TRUE_QUESTION == "Is the possible answer: (A) True (B) False"
    report("5 golden prompts byte-match and contain verbatim fragments", ok)


ITEM = QAItem(
    id="q", question="Did Aristotle use a laptop?", gold_answers=("No",),
    answer_kind="boolean",
)


def run_counted(strategy_id, step_texts, config=None):
    config = config or StrategyConfig()
    entries = build_script(strategy_id, ITEM, step_texts, config)
    backend = mock_from_script(entries)
    execute(plan(strategy_id, ITEM, config), ITEM, backend, config)
    return backend.call_count


def test_criterion_6_call_count_contract():
    ok = run_counted("standard", {"answer": "No"}) == 1
    ok = ok and run_counted("cot", {"reason": "r", "answer": "No"}) == 2
    ok = ok and run_counted(
        "far_final", {"fact": "f", "source": "s", "reflection": "r", "answer": "No"}
    ) == 4
    ok = ok and run_counted("self_consistency", {"sample": ["No", "Yes"]}) == 10
    ok = ok and run_counted("self_ask", {"followup_check": "No.", "answer": "No"}) == 2
    report("6 call counts: standard 1, cot 2, far 4, sc 10, self_ask-no 2", ok)


def test_criterion_7_deterministic_end_to_end(e2e_dataset, e2e_script, tmp_path, e2e_expected):
    start = time.monotonic()
    a = run_eval(e2e_config(e2e_dataset, e2e_script, tmp_path / "a", worker_count=1,
                            out_dir=str(tmp_path / "a/out")))
    b = run_eval(e2e_config(e2e_dataset, e2e_script, tmp_path / "b", worker_count=8,
                            out_dir=str(tmp_path / "b/out")))
    ok = (tmp_path / "a/out/report.json").read_bytes() == (tmp_path / "b/out/report.json").read_bytes()
    for sid in ("standard", "far_final"):
        entry = a.datasets[0]["strategies"][sid]["extractions"]["token_prob"]
        for key in ("ece", "macro_ce"):
            ok = ok and abs(entry[key] - e2e_expected[sid]["token_prob"][key]) <= 1e-12
    ok = ok and (time.monotonic() - start) < 10.0
    report("7 byte-identical reports across workers; values match frozen oracle", ok)


def test_criterion_8_concern_fixture():
    tp = sum(detect_concern(t)[0] for t in CONCERN_POSITIVES)
    fp = sum(detect_concern(t)[0] for t in CONCERN_NEGATIVES)
    ok = (
        len(CONCERN_POSITIVES) + len(CONCERN_NEGATIVES) == 20
        and tp == len(CONCERN_POSITIVES)
        and fp == 0
    )
    report("8 concern detector: precision = recall = 1.0 on 20-case fixture", ok)


def test_criterion_9_verbalized_parser():
    ok = parse_verbalized("0.85").value == 0.85
    clamped = parse_verbalized("1.2")
    ok = ok and clamped.value == 1.0 and clamped.raw_value == 1.2 and clamped.clamped
    try:
        parse_verbalized("no idea")
        ok = False
    except UnparseableConfidenceError:
        pass
    report("9 verbalized parse: 0.85, clamp 1.2 -> 1.0 (raw kept), typed error", ok)


def test_criterion_10_majority_vote():
    def make(text):
        return ExtractedAnswer.from_text(text, "free_form")

    rng = random.Random(5)
    ok = True
    base = ["x", "y"] * 5
    for _ in range(50):
        tail = base[2:]
        rng.shuffle(tail)
        winner, _ = majority_vote([make(t) for t in base[:2] + tail])
        ok = ok and winner.normalized == "x"
    winner, counts = majority_vote(
        [make(t) for t in ["a"] * 4 + ["b"] * 3 + ["c"] * 3]
    )
    ok = ok and winner.raw_text == "a" and counts[winner.normalized] == 4
    report("10 majority vote: tie -> first seen over 50 shuffles; a:4 wins", ok)


def test_criterion_11_augmentation_accounting():
    ids = [f"i{k}" for k in range(100)]

    def recs(n_correct):
        return [
            EvalRecord(item_id=i, correct=k < n_correct, confidences={"m": 0.5})
            for k, i in enumerate(ids)
        ]

    outcome = improvement(recs(25), recs(42), ids)
    ok = abs(outcome.relative_improvement - 0.68) <= 1e-12
    same = improvement(recs(30), recs(30), ids)
    ok = ok and same.relative_improvement == 0.0
    report("11 augmentation accounting: 0.25 -> 0.42 reports +68%; identity 0%", ok)


def test_criterion_12_kde_normalization(e2e_dataset, e2e_script, tmp_path):
    config = e2e_config(e2e_dataset, e2e_script, tmp_path)
    run_eval(config)
    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    ok = True
    count = 0
    for path in sorted((Path(config.out_dir) / "curves").glob("*__kde.csv")):
        xs, ys = np.loadtxt(path, delimiter=",", skiprows=1, unpack=True, encoding="utf-8")
        ok = ok and abs(trapezoid(ys, xs) - 1.0) <= 1e-3
        count += 1
    ok = ok and count > 0
    report("12 every emitted KDE curve integrates to 1 within 1e-3", ok)
