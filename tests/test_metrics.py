import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from calibra.metrics import (
    bucket_index,
    bucketize,
    distribution_curve,
    ece,
    macro_ce,
    silverman_bandwidth,
    summarize,
    wins_table,
)
from calibra.qa import EvalRecord


def rec(item_id, correct, conf):
    return EvalRecord(item_id=item_id, correct=correct, confidences={"m": conf})


def ece_oracle(records, num_buckets):
    """Direct-summation reimplementation without the Bucket type."""
    groups = {}
    for r in records:
        m = min(int(r.confidences["m"] * num_buckets), num_buckets - 1)
        groups.setdefault(m, []).append(r)
    total = 0.0
    for group in groups.values():
        acc = sum(1 for r in group if r.correct) / len(group)
        avg = sum(r.confidences["m"] for r in group) / len(group)
        total += len(group) * abs(acc - avg)
    return total / len(records)


def macro_oracle(records):
    pos = [r.confidences["m"] for r in records if r.correct]
    neg = [r.confidences["m"] for r in records if not r.correct]
    if pos and neg:
        return (sum(1 - c for c in pos) / len(pos) + sum(neg) / len(neg)) / 2
    if pos:
        return sum(1 - c for c in pos) / len(pos)
    return sum(neg) / len(neg)


def random_records(rng, n):
    return [rec(f"i{k}", rng.random() < 0.5, round(rng.random(), 6)) for k in range(n)]


class TestBucketize:
    def test_confidence_one_lands_in_last_bucket(self):
        assert bucket_index(1.0, 10) == 9

    def test_confidence_zero_lands_in_first_bucket(self):
        assert bucket_index(0.0, 10) == 0

    @pytest.mark.parametrize("num_buckets", [10, 100])
    def test_each_lower_bound_lands_in_its_own_bucket(self, num_buckets):
        # At M = 100, int(c * M) would put 0.29, 0.57 and 0.58 one bucket low.
        buckets = bucketize([], num_buckets)
        for k, bucket in enumerate(buckets):
            assert bucket_index(k / num_buckets, num_buckets) == k
            assert bucket_index(bucket.lower, num_buckets) == k
        assert bucket_index(0.0, num_buckets) == 0
        assert bucket_index(1.0, num_buckets) == num_buckets - 1

    def test_histogram_bins_are_the_buckets(self):
        samples = [0.0, 0.3, 0.3, 0.6, 0.7, 0.7, 0.7, 1.0]
        curve = distribution_curve(samples, "histogram", grid_size=10)
        buckets = bucketize(list(enumerate(samples)), 10)
        for (x, density), bucket in zip(curve.points, buckets):
            assert bucket.lower <= x < bucket.upper
            assert density * len(samples) * curve.bandwidth == pytest.approx(bucket.size)

    def test_size_conservation(self):
        buckets = bucketize([("a", 0.1), ("b", 0.12), ("c", 0.9)], 2)
        assert [b.size for b in buckets] == [2, 1]
        assert sum(b.size for b in buckets) == 3

    def test_empty_buckets_retained(self):
        buckets = bucketize([("a", 0.95)], 10)
        assert len(buckets) == 10
        assert buckets[0].size == 0 and buckets[0].avg_confidence == 0.0

    def test_out_of_range_names_record(self):
        with pytest.raises(ValueError, match="bad"):
            bucketize([("bad", 1.5)], 10)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=30),
        st.integers(min_value=1, max_value=12),
    )
    def test_conservation_property(self, confs, num_buckets):
        pairs = [(f"i{k}", c) for k, c in enumerate(confs)]
        buckets = bucketize(pairs, num_buckets)
        assert sum(b.size for b in buckets) == len(confs)


class TestEce:
    def test_bucket_canceling_toy_set(self):
        # One wrong prediction at confidence 1 and one correct at confidence 0,
        # in a single bucket: the errors cancel exactly.
        records = [rec("a", False, 1.0), rec("b", True, 0.0)]
        assert ece(records, "m", 1) == 0.0

    def test_single_perfect_record(self):
        assert ece([rec("a", True, 1.0)], "m", 10) == 0.0

    def test_hand_summed_two_buckets(self):
        records = [rec("a", True, 0.9), rec("b", False, 0.8), rec("c", True, 0.6)]
        # all three in [0.5, 1): acc = 2/3, conf = 2.3/3; ece = |2/3 - 2.3/3|
        assert abs(ece(records, "m", 2) - 0.1) < 1e-12

    def test_oracle_equivalence_200_cases(self):
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randint(1, 12)
            m = rng.randint(1, 4)
            records = random_records(rng, n)
            assert abs(ece(records, "m", m) - ece_oracle(records, m)) < 1e-12

    def test_single_bucket_collapse(self):
        rng = random.Random(11)
        for _ in range(100):
            records = random_records(rng, rng.randint(1, 15))
            summary = summarize(records, "m", 1)
            assert abs(ece(records, "m", 1) - abs(summary.avg_confidence - summary.accuracy)) < 1e-12

    def test_permutation_invariant(self):
        rng = random.Random(3)
        records = random_records(rng, 10)
        shuffled = records[:]
        rng.shuffle(shuffled)
        assert ece(records, "m", 4) == ece(shuffled, "m", 4)

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            ece([], "m", 10)

    def test_duplicate_ids_keep_their_own_correctness(self):
        # Two datasets can share an item id; correctness goes with each record.
        records = [rec("q1", True, 0.95), rec("q1", False, 0.95)]
        assert ece(records, "m", 10) == pytest.approx(0.45)
        assert summarize(records, "m", 10).buckets[9].accuracy == 0.5

    def test_correctness_flags_must_match_confidences(self):
        with pytest.raises(ValueError, match="1 correctness flags for 2"):
            bucketize([("a", 0.1), ("b", 0.2)], 2, correct=[True])


class TestIceAndMacro:
    def test_ice_pos_perfect(self):
        assert summarize([rec("a", True, 1.0)], "m").ice_pos == 0.0

    def test_ice_neg_worst(self):
        assert summarize([rec("a", False, 1.0)], "m").ice_neg == 1.0

    def test_ice_pos_hand_sum(self):
        records = [rec("a", True, 0.9), rec("b", True, 0.6)]
        assert abs(summarize(records, "m").ice_pos - 0.25) < 1e-12

    def test_bucket_canceling_toy_macro_is_one(self):
        # One wrong at conf 1 and one correct at conf 0: both ICE terms hit 1.
        records = [rec("a", False, 1.0), rec("b", True, 0.0)]
        value, flag = macro_ce(records, "m")
        assert value == 1.0 and flag == "none"

    def test_perfectly_calibrated_macro_zero(self):
        records = [rec("a", True, 1.0), rec("b", False, 0.0)]
        value, flag = macro_ce(records, "m")
        assert value == 0.0 and flag == "none"

    def test_macro_hand_sum(self):
        records = [rec("a", True, 0.9), rec("b", True, 0.6), rec("c", False, 0.8)]
        value, flag = macro_ce(records, "m")
        assert abs(value - 0.525) < 1e-12 and flag == "none"

    def test_degenerate_all_correct(self):
        value, flag = macro_ce([rec("a", True, 0.7)], "m")
        assert flag == "no_incorrect" and abs(value - 0.3) < 1e-12

    def test_degenerate_all_wrong(self):
        value, flag = macro_ce([rec("a", False, 0.7)], "m")
        assert flag == "no_correct" and abs(value - 0.7) < 1e-12

    def test_oracle_equivalence(self):
        """summarize's macro_ce, ICEs, average confidence and accuracy against direct sums.

        Every fourth set is all correct and the next all wrong, so the empty
        class's ICE must read NaN.
        """
        rng = random.Random(13)
        for k in range(200):
            records = random_records(rng, rng.randint(1, 12))
            if k % 4 in (1, 2):
                records = [rec(r.item_id, k % 4 == 1, r.confidences["m"]) for r in records]
            confs = [r.confidences["m"] for r in records]
            shortfalls = [1 - r.confidences["m"] for r in records if r.correct]
            excesses = [r.confidences["m"] for r in records if not r.correct]
            summary = summarize(records, "m")
            assert abs(macro_ce(records, "m")[0] - macro_oracle(records)) < 1e-12
            assert abs(summary.macro_ce - macro_oracle(records)) < 1e-12
            for value, errors in ((summary.ice_pos, shortfalls), (summary.ice_neg, excesses)):
                if errors:
                    assert abs(value - sum(errors) / len(errors)) < 1e-12
                else:
                    assert math.isnan(value)
            avg = sum(confs) / len(confs)
            acc = sum(1 for r in records if r.correct) / len(records)
            assert summary.avg_confidence == pytest.approx(avg, abs=1e-12)
            assert summary.accuracy == pytest.approx(acc, abs=1e-12)

    def test_macro_one_iff_inverted(self):
        records = [rec("a", True, 0.0), rec("b", False, 1.0), rec("c", True, 0.0)]
        assert macro_ce(records, "m")[0] == 1.0
        records[0] = rec("a", True, 0.01)
        assert macro_ce(records, "m")[0] < 1.0


def gap(records):
    """metrics.csv's over-confidence gap: average confidence minus accuracy."""
    summary = summarize(records, "m")
    return summary.avg_confidence, summary.accuracy, summary.avg_confidence - summary.accuracy


class TestConfidenceGap:
    def test_perfect_instance_calibration_zero_gap(self):
        records = [rec("a", True, 1.0), rec("b", False, 0.0)]
        assert gap(records)[2] == 0.0

    def test_overconfident(self):
        records = [rec("a", True, 1.0), rec("b", False, 1.0)]
        assert gap(records) == (1.0, 0.5, 0.5)

    def test_hand_sum(self):
        records = [rec("a", True, 0.8), rec("b", False, 0.8)]
        assert abs(gap(records)[2] - 0.3) < 1e-12


class TestWinsTable:
    def test_single_row(self):
        assert wins_table([{"A": 0.1, "B": 0.2}]) == {"A": 1, "B": 0}

    def test_tie_awards_nothing(self):
        assert wins_table([{"A": 0.1, "B": 0.1}]) == {"A": 0, "B": 0}

    def test_three_rows(self):
        rows = [
            {"A": 0.1, "B": 0.3},
            {"A": 0.2, "B": 0.1},
            {"A": 0.05, "B": 0.4},
        ]
        assert wins_table(rows) == {"A": 2, "B": 1}

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            wins_table([{"A": 0.1}, {"B": 0.1}])


def trapezoid(points):
    xs = [x for x, _ in points]
    ys = [d for _, d in points]
    return (getattr(np, "trapezoid", None) or np.trapz)(ys, xs)


class TestDistributionCurve:
    def test_kde_single_point_centered(self):
        curve = distribution_curve([0.5], "kde", grid_size=501)
        assert curve.fallback_bandwidth and curve.bandwidth == 0.05
        peak_x = max(curve.points, key=lambda p: p[1])[0]
        assert abs(peak_x - 0.5) < 0.01

    def test_kde_integrates_to_one(self):
        rng = random.Random(5)
        for _ in range(20):
            samples = [rng.random() for _ in range(rng.randint(1, 40))]
            curve = distribution_curve(samples, "kde", grid_size=512)
            assert abs(trapezoid(curve.points) - 1.0) <= 1e-3

    def test_histogram_near_uniform(self):
        samples = [0.05 + 0.1 * k for k in range(10)]
        curve = distribution_curve(samples, "histogram", grid_size=10)
        densities = [d for _, d in curve.points]
        assert all(abs(d - densities[0]) < 1e-9 for d in densities)

    def test_silverman_formula(self):
        samples = np.array([0.1, 0.2, 0.4, 0.8, 0.9])
        sigma = float(np.std(samples, ddof=1))
        iqr = float(np.percentile(samples, 75) - np.percentile(samples, 25))
        expected = 0.9 * min(sigma, iqr / 1.34) * 5 ** (-1 / 5)
        assert abs(silverman_bandwidth(samples) - expected) < 1e-12

    def test_grid_size_validated(self):
        with pytest.raises(ValueError):
            distribution_curve([0.5], "kde", grid_size=1)
        with pytest.raises(ValueError):
            distribution_curve([0.5], "histogram", grid_size=0)
        # One bucket is a valid num_buckets, so a one-bin histogram is too.
        assert distribution_curve([0.2, 1.0], "histogram", grid_size=1).points == [(0.5, 1.0)]

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            distribution_curve([], "kde")


class TestSummarize:
    def test_matches_components(self):
        rng = random.Random(21)
        records = random_records(rng, 12)
        summary = summarize(records, "m", 4)
        assert summary.ece == ece(records, "m", 4)
        assert summary.macro_ce == macro_ce(records, "m")[0]
        assert summary.n == 12
        assert summary.n_pos + summary.n_neg == summary.n

    def test_serializes(self):
        records = [rec("a", True, 0.9), rec("b", False, 0.4)]
        d = summarize(records, "m", 2).to_dict()
        assert set(d) >= {"ece", "macro_ce", "ice_pos", "ice_neg", "buckets"}
