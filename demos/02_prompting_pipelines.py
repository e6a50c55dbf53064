"""Walk through the prompting strategies against a scripted mock backend.

Run with `python3 demos/02_prompting_pipelines.py`. The mock backend
answers only the exact prompts scripted below, which makes the
intermediate steps of each pipeline easy to see and fully deterministic.
"""

from calibra import (
    QAItem,
    StrategyConfig,
    execute,
    mock_from_script,
    plan,
)
from calibra.strategies import render_step

ITEM = QAItem(
    id="q1",
    question="Did Aristotle use a laptop?",
    gold_answers=("No",),
    answer_kind="boolean",
)

# Scripted model behavior for each pipeline step, keyed by step name.
STEP_TEXTS = {
    "answer": {"text": "No", "logprobs": [-0.3]},
    "reason": "Aristotle died in 322 BC; laptops appeared in the 1980s.",
    "knowledge": "Laptops are portable computers introduced in the 20th century.",
    "fact": "1. Aristotle died in 322 BC. 2. The first laptop shipped around 1981.",
    "source": "1. Classical histories. 2. Computing museum records.",
    "reflection": "The facts put Aristotle over two millennia before laptops.",
}


def script_for(strategy_id, config=None):
    """Render each step's prompt and attach the scripted reply."""
    config = config or StrategyConfig()
    strategy_plan = plan(strategy_id, ITEM, config)
    entries = {}
    priors = dict(strategy_plan.initial_priors)
    for step in strategy_plan.steps:
        prompt = render_step(step, ITEM.question, priors)
        value = STEP_TEXTS[step.name]
        entries[prompt] = value
        priors[step.name] = value["text"] if isinstance(value, dict) else value
    return entries


def show(strategy_id, config=None):
    config = config or StrategyConfig()
    backend = mock_from_script(script_for(strategy_id, config))
    transcript = execute(
        plan(strategy_id, ITEM, config), ITEM, backend,
        extraction_methods=("token_prob",), config=config,
    )
    print(f"== {strategy_id} ==")
    for record in transcript.step_records:
        first_line = record.prompt.splitlines()[0]
        print(f"  step {record.step_name!r}: prompt starts {first_line!r}")
    print(f"  backend calls:  {backend.call_count}")
    print(f"  final answer:   {transcript.final_answer.raw_text!r}")
    print(f"  token_prob conf: {transcript.confidences['token_prob'].value:.4f}")
    print()


def main():
    # Single-call baseline, then progressively richer decompositions.
    show("standard")
    show("cot")
    show("knowledge")

    # The fact-then-reflect pipeline: facts, their sources, a reflection,
    # and only then the answer. Four backend calls, one per step.
    show("far_final")

    # Sampling-based selection: ten samples at temperature 0.7, majority
    # vote on the normalized answers. The scripted list is cycled by seed.
    config = StrategyConfig(self_consistency_n=10)
    sc_plan = plan("self_consistency", ITEM, config)
    prompt = render_step(sc_plan.steps[0], ITEM.question, {})
    backend = mock_from_script({prompt: ["No"] * 7 + ["Yes"] * 3})
    transcript = execute(
        sc_plan, ITEM, backend, extraction_methods=("token_prob",), config=config
    )
    print("== self_consistency ==")
    print(f"  backend calls: {backend.call_count}")
    print(f"  vote counts:   {transcript.vote_detail.counts}")
    print(f"  winner:        {transcript.vote_detail.winner!r}")


if __name__ == "__main__":
    main()
