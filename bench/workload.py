"""Seeded workload generator: a boolean QA dataset plus the mock script that answers it.

Every item runs through standard, far_final and self_consistency, each
scored by token_prob, p_true and verbalized. Prompt renders come from the
test suite's `build_script` helpers, so the script answers exactly the
prompts the executor sends.

Per-item choices (gold verdict, which answers are wrong, which carry a
concern phrase, how long the fact/source/reflection texts are) are drawn
from fixed multisets shuffled by the seed. Different seeds therefore give
different items with the same aggregate properties, which keeps the
benchmark's figures comparable across seeds.
"""

from __future__ import annotations

import importlib.util
import json
import math
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

STRATEGIES = ("standard", "far_final", "self_consistency")
METHODS = ("token_prob", "p_true", "verbalized")
# Backend calls per evaluation before probes, as the README states them.
CONTRACT_CALLS = {"standard": 1, "far_final": 4, "self_consistency": 10}
# Extraction methods that send one backend call each on the final answer.
PROBE_METHODS = ("p_true", "verbalized")

_SUBJECTS = ("an owl monkey", "Aristotle", "a Celiac sufferer", "a blue whale", "Post Malone",
             "a medieval knight", "a honeybee", "the Eiffel Tower", "a penguin", "Mozart")
_VERBS = ("enjoy", "fit inside", "outlive", "recognise", "be allergic to", "carry",
          "use", "be older than", "avoid", "survive on")
_OBJECTS = ("a strawberry", "a laptop", "a bowl of spaghetti", "the Moon landing",
            "a shipping container", "a violin", "a glacier", "the printing press",
            "a hot-air balloon", "a cup of espresso")

_FACTS = (
    "The first laptop was invented in 1980.",
    "Owl monkeys are omnivores that eat fruit, insects and leaves.",
    "Spaghetti is usually made from durum wheat, which contains gluten.",
    "Blue whales can live for more than eighty years in the wild.",
    "The Eiffel Tower was completed in 1889 for the World's Fair.",
    "Honeybees communicate the location of flowers with a waggle dance.",
    "Penguins cannot fly but are strong swimmers.",
    "Mozart composed more than six hundred works during his short life.",
    "Medieval plate armour could weigh between fifteen and twenty-five kilograms.",
    "Glaciers store roughly two thirds of the planet's fresh water.",
)
_SOURCES = (
    "An encyclopedia entry on the history of computing.",
    "A peer-reviewed zoology journal article.",
    "A national health service guideline on coeliac disease.",
    "A museum exhibit catalogue.",
    "A university lecture on medieval history.",
    "A biography published by a music conservatory.",
)
_REFLECTIONS = (
    "Considering the facts, the evidence points one way.",
    "The dates make the scenario implausible.",
    "The sources agree with each other, which raises confidence.",
    "One fact is only indirectly relevant, so the conclusion is tentative.",
    "Physical size alone settles most of the question.",
    "Dietary restrictions are the deciding factor here.",
)
_NEUTRAL_TAILS = (
    "",
    ".",
    ", based on the facts above.",
    ". The timeline rules out the alternative.",
    ", as the dietary evidence shows.",
)
_CONCERN_TAILS = (
    ". There will need to be further research.",
    ", but it depends on the circumstances.",
    ". There is not sufficient evidence to be certain.",
    ". Based on current evidence alone.",
)


def load_test_helpers():
    """Import the test suite's script helpers (tests/conftest.py) by path."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    spec = importlib.util.spec_from_file_location(
        "calibra_test_helpers", ROOT / "tests" / "conftest.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _spread(rng: random.Random, n: int, values) -> list:
    """`n` values in the fixed proportions of `values`, in seeded order."""
    out = [values[i % len(values)] for i in range(n)]
    rng.shuffle(out)
    return out


def _logprobs(rng: random.Random, count: int) -> list[float]:
    return [round(-rng.uniform(0.01, 2.5), 4) for _ in range(count)]


def _sentences(rng: random.Random, pool, count: int) -> str:
    return " ".join(f"{i + 1}. {rng.choice(pool)}" for i in range(count))


def _flip(verdict: str) -> str:
    return "No" if verdict == "Yes" else "Yes"


def generate(seed: int, n_items: int, out_dir: Path) -> dict:
    """Write `dataset.jsonl` and `script.json` under `out_dir`; return the workload properties.

    The properties are the generator's own ground truth, derived without
    running the program: backend requests per evaluation by strategy, the
    share of requests that repeat an earlier one, mean prompt length,
    concern share and accuracy per strategy.
    """
    helpers = load_test_helpers()

    rng = random.Random(seed)
    gold = _spread(rng, n_items, ("Yes", "No"))
    # samples[0] of self_consistency doubles as the standard answer (same
    # prompt, seed None picks index 0). When it is in the majority, the
    # standard and self_consistency probes are identical requests.
    shared = _spread(rng, n_items, (True, True, True, False))
    sc_correct = _spread(rng, n_items, (True, True, True, False, False))
    sc_majority = _spread(rng, n_items, (6, 7, 8, 9))
    sc_concern = _spread(rng, n_items, (True, False, False, False, False))
    far_correct = _spread(rng, n_items, (True, True, False))
    far_concern = _spread(rng, n_items, (True, False, False, False))
    lengths = _spread(rng, n_items, (1, 2, 3, 4, 5, 6))

    entries: dict = {}
    requests: list[tuple] = []
    correct = {sid: 0 for sid in STRATEGIES}
    concern = {sid: 0 for sid in STRATEGIES}
    items = []

    def probe(context: str, answer: str) -> None:
        p = rng.uniform(0.05, 0.95)
        helpers.add_p_true_entry(
            entries, context, answer,
            {" A": round(math.log(p), 6), " B": round(math.log(1.0 - p), 6)},
        )
        helpers.add_verbalized_entry(entries, context, rng.choice(
            (f"{rng.uniform(0.3, 1.0):.2f}", f"{rng.randint(30, 99) / 100} (fairly sure)")
        ))
        p_true_prompt = (
            f"{context}\n{helpers.POSSIBLE_ANSWER_PREFIX}{answer}\n{helpers.P_TRUE_QUESTION}\n"
        )
        requests.append((p_true_prompt, "p_true"))
        requests.append((f"{context}\n{helpers.VERBALIZED_SUFFIX}", "verbalized"))

    for i in range(n_items):
        question = (
            f"Q{i}. Would {rng.choice(_SUBJECTS)} {rng.choice(_VERBS)} {rng.choice(_OBJECTS)}?"
        )
        item = helpers.QAItem(
            id=f"s{seed}-{i:05d}", question=question, gold_answers=(gold[i],),
            answer_kind="boolean",
        )
        items.append(item)

        # self_consistency and standard share one scripted prompt: standard
        # sends it once without a seed, self_consistency once per seed.
        n_samples = CONTRACT_CALLS["self_consistency"]
        majority_verdict = gold[i] if sc_correct[i] else _flip(gold[i])
        tail = rng.choice(_CONCERN_TAILS if sc_concern[i] else _NEUTRAL_TAILS)
        majority = majority_verdict + tail
        minority = _flip(majority_verdict) + rng.choice(_NEUTRAL_TAILS)
        m = sc_majority[i]
        rest = [majority] * (m - 1) + [minority] * (n_samples - m - 1)
        rng.shuffle(rest)
        samples = [majority, minority] + rest if shared[i] else [minority, majority] + rest
        sample_value = {"texts": samples, "logprobs": _logprobs(rng, rng.randint(1, 3))}
        sc_entries = helpers.build_script("self_consistency", item, {"sample": sample_value})
        (prompt,) = sc_entries
        entries.update(sc_entries)
        requests.append((prompt, "default"))
        requests.extend((prompt, f"sample-{n}") for n in range(n_samples))
        standard_answer = samples[0]
        correct["standard"] += shared[i] == sc_correct[i]
        concern["standard"] += shared[i] and sc_concern[i]
        correct["self_consistency"] += sc_correct[i]
        concern["self_consistency"] += sc_concern[i]
        probe(f"{prompt} {standard_answer}", standard_answer)
        probe(f"{prompt} {majority}", majority)

        # far_final: fact, source, reflection, answer.
        far_verdict = gold[i] if far_correct[i] else _flip(gold[i])
        far_tail = rng.choice(_CONCERN_TAILS if far_concern[i] else _NEUTRAL_TAILS)
        far_answer = far_verdict + far_tail
        n_sent = lengths[i]
        far_entries = helpers.build_script("far_final", item, {
            "fact": _sentences(rng, _FACTS, n_sent),
            "source": _sentences(rng, _SOURCES, n_sent),
            "reflection": _sentences(rng, _REFLECTIONS, 7 - n_sent),
            "answer": {"text": far_answer, "logprobs": _logprobs(rng, rng.randint(1, 4))},
        })
        entries.update(far_entries)
        requests.extend((p, "default") for p in far_entries)
        correct["far_final"] += far_correct[i]
        concern["far_final"] += far_concern[i]
        probe(f"{list(far_entries)[-1]} {far_answer}", far_answer)

    out_dir.mkdir(parents=True, exist_ok=True)
    with (out_dir / "dataset.jsonl").open("w", encoding="utf-8") as fh:
        for item in items:
            row = {"id": item.id, "question": item.question,
                   "answers": list(item.gold_answers), "answer_kind": "boolean"}
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    with (out_dir / "script.json").open("w", encoding="utf-8") as fh:
        json.dump({"fallback": "error", "entries": entries}, fh)

    calls = {sid: CONTRACT_CALLS[sid] + len(PROBE_METHODS) for sid in STRATEGIES}
    total = n_items * sum(calls.values())
    if len(requests) != total:
        raise AssertionError(f"request model has {len(requests)} requests, expected {total}")
    distinct = len(set(requests))
    return {
        "n_items": n_items,
        "evals": n_items * len(STRATEGIES),
        "script_entries": len(entries),
        "calls_per_eval": calls,
        "requests": total,
        "distinct_requests": distinct,
        "dup_share": (total - distinct) / total,
        "mean_prompt_chars": sum(len(p) for p, _ in requests) / total,
        "concern_share": {sid: concern[sid] / n_items for sid in STRATEGIES},
        "accuracy": {sid: correct[sid] / n_items for sid in STRATEGIES},
    }
