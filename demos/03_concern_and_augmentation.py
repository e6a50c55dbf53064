"""End-to-end run, concern detection, and knowledge augmentation.

Run with `python3 demos/03_concern_and_augmentation.py`. A small boolean
dataset is evaluated against a scripted mock backend; answers that hedge
("further research", "not sufficient evidence", ...) are flagged, those
items get their external knowledge prepended, and the rerun's accuracy
gain on the selected subset is accounted for.
"""

import json
import tempfile
from pathlib import Path

from calibra import (
    QAItem,
    RunConfig,
    augment_with_knowledge,
    improvement,
    plan,
    read_records,
    run_eval,
    select_hard,
    write_dataset,
)
from calibra.strategies import render_step

ITEMS = [
    QAItem(
        id="q1",
        question="Did Aristotle use a laptop?",
        gold_answers=("No",),
        answer_kind="boolean",
        external_knowledge="Aristotle died in 322 BC; laptops date from the 1980s.",
    ),
    QAItem(
        id="q2",
        question="Would an owl monkey enjoy a strawberry?",
        gold_answers=("Yes",),
        answer_kind="boolean",
        external_knowledge="Owl monkeys eat fruit, including berries.",
    ),
    QAItem(
        id="q3",
        question="Should a Celiac sufferer avoid spaghetti?",
        gold_answers=("Yes",),
        answer_kind="boolean",
        external_knowledge="Standard spaghetti is wheat pasta and contains gluten.",
    ),
]

# The plain model answers q1 confidently, hedges on q2 and flubs q3.
PLAIN_ANSWERS = {
    "q1": {"text": "No", "logprobs": [-0.2]},
    "q2": {
        "text": "False. There is not sufficient evidence to answer.",
        "logprobs": [-1.1, -0.9],
    },
    "q3": {"text": "No", "logprobs": [-0.8]},
}
# With knowledge injected, the hedged item resolves correctly.
AUGMENTED_ANSWERS = {
    "q1": {"text": "No", "logprobs": [-0.1]},
    "q2": {"text": "Yes", "logprobs": [-0.4]},
    "q3": {"text": "No", "logprobs": [-0.8]},
}


def script_for(items, answers):
    entries = {}
    for item in items:
        step = plan("standard", item).steps[0]
        prompt = render_step(step, item.question, {})
        entries[prompt] = answers[item.id]
    return entries


def run(workdir, items, answers, tag):
    """Evaluate `items`; return the report and the records read back from records.jsonl."""
    dataset = workdir / f"{tag}.jsonl"
    write_dataset(items, dataset)
    script = workdir / f"{tag}_script.json"
    script.write_text(json.dumps({"entries": script_for(items, answers)}))
    config = RunConfig(
        dataset_path=[str(dataset)],
        strategy_ids=["standard"],
        extraction_method_ids=["token_prob"],
        backend={"kind": "mock", "script_path": str(script)},
        worker_count=1,
        out_dir=str(workdir / f"{tag}_out"),
    )
    report = run_eval(config)
    return report, read_records(Path(config.out_dir) / "records.jsonl")


def main():
    with tempfile.TemporaryDirectory(prefix="calibra_demo_") as tmp:
        workdir = Path(tmp)
        before, records = run(workdir, ITEMS, PLAIN_ANSWERS, "plain")
        block = before.datasets[0]["strategies"]["standard"]
        print("== Plain run ==")
        print(f"accuracy:     {block['accuracy']:.3f}")
        print(f"concern rate: {block['concern_rate']:.3f}")
        summary = block["extractions"]["token_prob"]
        print(f"ECE:          {summary['ece']:.4f}")
        print(f"MacroCE:      {summary['macro_ce']:.4f}")
        print()

        hard = select_hard(records, "concern_triggered")
        control = select_hard(records, "random_control", seed=0)
        print("== Hard-example selection ==")
        print(f"concern-triggered ids: {hard}")
        print(f"random control ids:    {control}  (same cardinality, seeded)")
        print()

        by_id = {item.id: item for item in ITEMS}
        augmented = [
            augment_with_knowledge(by_id[i]) if i in set(hard) else by_id[i]
            for i in by_id
        ]
        print("== Augmented question ==")
        print(augmented[1].question)
        print()

        _, after = run(workdir, augmented, AUGMENTED_ANSWERS, "augmented")
        outcome = improvement(records, after, hard)
        print("== Improvement on the selected subset ==")
        print(f"before accuracy: {outcome.accuracy_before:.3f}")
        print(f"after accuracy:  {outcome.accuracy_after:.3f}")
        if outcome.relative_improvement is None:
            print("relative improvement undefined (zero baseline)")
            print(f"absolute improvement: {outcome.absolute_improvement:+.3f}")
        else:
            print(f"relative improvement: {outcome.relative_improvement:+.0%}")


if __name__ == "__main__":
    main()
