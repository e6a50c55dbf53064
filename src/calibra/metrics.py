"""Calibration error metrics and confidence-distribution curves.

Implements bucketed expected calibration error, instance-level calibration
errors for the correct/incorrect classes and their macro average, all in
one `summarize`, plus per-row wins counting and histogram/KDE exports.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Literal, Mapping, Optional, Sequence

import numpy as np

from .qa import EvalRecord

DegenerateFlag = Literal["none", "no_correct", "no_incorrect"]

DEFAULT_NUM_BUCKETS = 10


@dataclass
class Bucket:
    """One equal-width confidence bucket with its members' statistics."""

    index: int
    lower: float
    upper: float
    size: int = 0
    avg_confidence: float = 0.0
    accuracy: float = 0.0


@dataclass
class CalibrationSummary:
    """All calibration numbers for one set of records under one method."""

    ece: float
    ice_pos: float
    ice_neg: float
    macro_ce: float
    n: int
    n_pos: int
    n_neg: int
    avg_confidence: float
    accuracy: float
    buckets: list[Bucket]
    degenerate_flag: DegenerateFlag = "none"

    def to_dict(self) -> dict:
        """The fields as JSON values: each bucket as its own dict, a NaN ICE as None."""
        d = dict(vars(self))
        d["buckets"] = [dict(vars(b)) for b in self.buckets]
        for key in ("ice_pos", "ice_neg"):
            if math.isnan(d[key]):
                d[key] = None
        return d


@dataclass
class DistributionCurve:
    """Histogram or KDE density points for a confidence distribution.

    `to_dict` leaves the points out: they are written once, as a CSV.
    """

    points: list[tuple[float, float]]
    bandwidth: float
    kind: Literal["histogram", "kde"]
    fallback_bandwidth: bool = False

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "bandwidth": self.bandwidth,
            "fallback_bandwidth": self.fallback_bandwidth,
        }


@lru_cache(maxsize=None)
def _lower_bounds(num_buckets: int) -> tuple[float, ...]:
    """Each bucket's `lower`, m/M, computed once per M."""
    return tuple(m / num_buckets for m in range(num_buckets))


def bucket_index(confidence: float, num_buckets: int) -> int:
    """The bucket whose reported [lower, upper) holds the confidence; 1.0 is in the last."""
    return bisect_right(_lower_bounds(num_buckets), confidence) - 1


def bucketize(
    confidences: Sequence[tuple[str, float]],
    num_buckets: int,
    correct: Optional[Sequence[bool]] = None,
) -> list[Bucket]:
    """Assign (id, confidence) pairs to equal-width buckets over [0, 1].

    `correct[k]` is the correctness of the k-th pair, so ids need not be
    unique. Empty buckets are retained with zeroed statistics. Out-of-range
    confidences are rejected with the offending record named.
    """
    if num_buckets < 1:
        raise ValueError("num_buckets must be >= 1")
    if correct is not None and len(correct) != len(confidences):
        raise ValueError(
            f"{len(correct)} correctness flags for {len(confidences)} confidences"
        )
    # Bucket m's upper bound, (m+1)/M, is bucket m+1's lower bound.
    buckets = [
        Bucket(index=m, lower=lower, upper=(m + 1) / num_buckets)
        for m, lower in enumerate(_lower_bounds(num_buckets))
    ]
    members: list[list[float]] = [[] for _ in range(num_buckets)]
    hits = [0] * num_buckets
    for k, (item_id, conf) in enumerate(confidences):
        if not 0.0 <= conf <= 1.0:
            raise ValueError(
                f"confidence {conf} for record {item_id!r} is outside [0, 1]; fix the input"
            )
        m = bucket_index(conf, num_buckets)
        buckets[m].size += 1
        members[m].append(conf)
        if correct is not None and correct[k]:
            hits[m] += 1
    for bucket, confs, hit in zip(buckets, members, hits):
        if confs:
            bucket.avg_confidence = math.fsum(confs) / len(confs)
            if correct is not None:
                bucket.accuracy = hit / len(confs)
    return buckets


def ece(records: Sequence[EvalRecord], method: str, num_buckets: int = DEFAULT_NUM_BUCKETS) -> float:
    """Bucket-weighted mean absolute gap between accuracy and confidence."""
    return summarize(records, method, num_buckets).ece


def macro_ce(records: Sequence[EvalRecord], method: str) -> tuple[float, DegenerateFlag]:
    """Macro average of ice_pos and ice_neg.

    With one class empty, returns the other ICE plus a degeneracy flag
    instead of silently reporting zero.
    """
    summary = summarize(records, method, 1)
    return summary.macro_ce, summary.degenerate_flag


def summarize(
    records: Sequence[EvalRecord],
    method: str,
    num_buckets: int = DEFAULT_NUM_BUCKETS,
) -> CalibrationSummary:
    """Compute the full calibration summary for one extraction method.

    Each record's confidence is read once; `ece` and `macro_ce` are
    shortcuts to fields of this summary.
    """
    if not records:
        raise ValueError("at least one record required")
    pairs = [(r.item_id, r.confidence(method)) for r in records]
    correct = [r.correct for r in records]
    buckets = bucketize(pairs, num_buckets, correct)
    shortfalls = [1.0 - conf for (_, conf), ok in zip(pairs, correct) if ok]
    excesses = [conf for (_, conf), ok in zip(pairs, correct) if not ok]
    n, n_pos, n_neg = len(pairs), len(shortfalls), len(excesses)
    pos = math.fsum(shortfalls) / n_pos if n_pos else math.nan
    neg = math.fsum(excesses) / n_neg if n_neg else math.nan
    flag = "none" if n_pos and n_neg else "no_incorrect" if n_pos else "no_correct"
    mce = {"none": (pos + neg) / 2.0, "no_incorrect": pos, "no_correct": neg}[flag]
    return CalibrationSummary(
        # weighting by size/n keeps the single-bucket case bitwise equal to
        # |avg_conf - accuracy| (the weight is exactly 1.0)
        ece=math.fsum(b.size / n * abs(b.accuracy - b.avg_confidence) for b in buckets),
        ice_pos=pos,
        ice_neg=neg,
        macro_ce=mce,
        n=n,
        n_pos=n_pos,
        n_neg=n_neg,
        avg_confidence=math.fsum(conf for _, conf in pairs) / n,
        accuracy=n_pos / n,
        buckets=buckets,
        degenerate_flag=flag,
    )


def wins_table(error_rows: Iterable[Mapping[str, float]]) -> dict[str, int]:
    """Count, per column, the rows where that column has the strictly lowest error.

    Rows must share an identical key set. A tied minimum awards no win.
    """
    rows = list(error_rows)
    if not rows:
        raise ValueError("wins_table requires at least one row")
    keys = sorted(rows[0])
    wins = {k: 0 for k in keys}
    for row in rows:
        if sorted(row) != keys:
            raise ValueError("wins_table rows must share the same columns")
        best = min(row.values())
        winners = [k for k in keys if row[k] == best]
        if len(winners) == 1:
            wins[winners[0]] += 1
    return wins


def silverman_bandwidth(samples: np.ndarray) -> float:
    """Silverman's rule of thumb: 0.9 * min(sigma, IQR / 1.34) * n^(-1/5)."""
    n = samples.size
    sigma = float(np.std(samples, ddof=1)) if n > 1 else 0.0
    q75, q25 = np.percentile(samples, [75, 25])
    iqr = float(q75 - q25)
    scale = min(s for s in (sigma, iqr / 1.34) if s > 0) if (sigma > 0 or iqr > 0) else 0.0
    if scale == 0.0:
        return 0.0
    return 0.9 * scale * n ** (-1 / 5)


def distribution_curve(
    confidences: Sequence[float],
    kind: Literal["histogram", "kde"] = "kde",
    grid_size: int = 256,
) -> DistributionCurve:
    """Density curve of a confidence sample.

    Histogram mode gives each of `bucketize`'s buckets (the ECE's bins) as
    its midpoint and density size / (n * width), so the bins hold exactly
    the records the summary's buckets count.
    KDE mode uses a Gaussian kernel with Silverman bandwidth, evaluated on
    an even grid over [0, 1] padded by five bandwidths on each side so the
    curve integrates to one. Degenerate samples (a single distinct value)
    fall back to a fixed 0.05 bandwidth, flagged on the curve.
    """
    if not confidences:
        raise ValueError("at least one confidence required")
    if kind == "histogram":
        buckets = bucketize(list(enumerate(confidences)), grid_size)
        width = 1.0 / grid_size
        points = [
            ((b.index + 0.5) / grid_size, b.size / (len(confidences) * width)) for b in buckets
        ]
        return DistributionCurve(points=points, bandwidth=width, kind="histogram")
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")
    samples = np.asarray(confidences, dtype=float)
    h = silverman_bandwidth(samples)
    fallback = h == 0.0
    if fallback:
        h = 0.05
    pad = 5.0 * h
    grid = np.linspace(0.0 - pad, 1.0 + pad, grid_size)
    diffs = (grid[:, None] - samples[None, :]) / h
    density = np.exp(-0.5 * diffs**2).sum(axis=1) / (samples.size * h * math.sqrt(2 * math.pi))
    points = [(float(x), float(d)) for x, d in zip(grid, density)]
    return DistributionCurve(points=points, bandwidth=h, kind="kde", fallback_bandwidth=fallback)
