"""Tour of the calibration metrics: ECE, ICE, MacroCE, and density curves.

Run with `python3 demos/01_calibration_metrics.py`. Everything here is pure
computation on hand-built records; no backend is involved.
"""

import random

from calibra import (
    EvalRecord,
    distribution_curve,
    summarize,
    wins_table,
)


def rec(item_id, correct, conf):
    return EvalRecord(item_id=item_id, correct=correct, confidences={"m": conf})


def main():
    print("== Why ECE alone can mislead ==")
    # One wrong answer at confidence 1.0 and one correct answer at
    # confidence 0.0 share a bucket, so their gaps cancel: ECE says the
    # model is perfectly calibrated while every single prediction is
    # maximally miscalibrated.
    toy = [rec("a", False, 1.0), rec("b", True, 0.0)]
    toy_summary = summarize(toy, "m", num_buckets=1)
    print(f"ECE (1 bucket):  {toy_summary.ece}")
    print(f"MacroCE:         {toy_summary.macro_ce}  (degeneracy: {toy_summary.degenerate_flag})")
    print()

    print("== A fuller summary on synthetic records ==")
    rng = random.Random(0)
    # Simulate an over-confident model: confidence runs hot relative to
    # the 60% accuracy underneath it.
    records = []
    for k in range(200):
        correct = rng.random() < 0.6
        conf = min(1.0, max(0.0, rng.gauss(0.85 if correct else 0.75, 0.1)))
        records.append(rec(f"i{k}", correct, conf))
    summary = summarize(records, "m", num_buckets=10)
    print(f"n:               {summary.n}")
    print(f"accuracy:        {summary.accuracy:.3f}")
    print(f"avg confidence:  {summary.avg_confidence:.3f}")
    print(f"gap (over-conf): {summary.avg_confidence - summary.accuracy:+.3f}")
    print(f"ECE:             {summary.ece:.4f}")
    print(f"ICE_pos:         {summary.ice_pos:.4f}   (confidence shortfall when right)")
    print(f"ICE_neg:         {summary.ice_neg:.4f}   (confidence excess when wrong)")
    print(f"MacroCE:         {summary.macro_ce:.4f}")
    print()

    print("== Reliability buckets ==")
    for bucket in summary.buckets:
        if bucket.size == 0:
            continue
        bar = "#" * round(40 * bucket.size / summary.n)
        print(
            f"[{bucket.lower:.1f}, {bucket.upper:.1f}) "
            f"n={bucket.size:3d} acc={bucket.accuracy:.2f} "
            f"conf={bucket.avg_confidence:.2f} {bar}"
        )
    print()

    print("== Confidence density (KDE) ==")
    confs = [r.confidences["m"] for r in records]
    curve = distribution_curve(confs, grid_size=9)
    for x, density in curve.points:
        print(f"x={x:+.3f}  density={density:.3f}")
    print(f"(Silverman bandwidth: {curve.bandwidth:.4f})")
    print()

    print("== Win counting across strategies ==")
    # Rows are per-dataset error values; the strictly lowest entry in a
    # row scores a win, ties score nothing.
    rows = [
        {"plain": 0.21, "reflective": 0.12},
        {"plain": 0.18, "reflective": 0.14},
        {"plain": 0.10, "reflective": 0.10},
    ]
    print(f"ECE wins: {wins_table(rows)}")


if __name__ == "__main__":
    main()
