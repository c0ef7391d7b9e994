"""Confidence-quality measurement: AUROC, equal-mass ECE, per-bin tables.

``build_report`` sorts the records once by confidence (ties broken by id)
and takes one prefix sum of correctness in that order; the accuracy, the
equal-mass bins, the ECE and the AUROC are all read off those two, and
``auroc``, ``ece`` and ``equal_mass_bins`` are views of its report.
Equal-mass bins are near-equal runs of that order; remainder records go
to the lowest-confidence bins. AUROC uses the midrank (Mann-Whitney) tie
convention. A degenerate AUROC (all records share one correctness value)
is reported as None rather than 0.5 so broken runs stay visible.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate, groupby

from .errors import InvalidInput

DEFAULT_N_BINS = 10


@dataclass(frozen=True)
class EvalRecord:
    """One evaluated example with its correctness and confidence."""

    # the field order is the key order of a records.jsonl line
    id: str
    task_id: str
    prediction: str
    gold: str | list[str]
    correct: bool
    confidence: float
    method: str = "classification_normalized"
    flags: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "flags", frozenset(self.flags))
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence out of [0,1]: {self.confidence}")


@dataclass(frozen=True)
class CalibrationBin:
    # the field order is the key order of a report.json bin
    count: int
    mean_confidence: float
    mean_accuracy: float


@dataclass(frozen=True)
class CalibrationReport:
    # the field order is the key order of report.json
    task_id: str
    n: int
    accuracy: float
    auroc: float | None
    ece: float
    bins: tuple[CalibrationBin, ...]
    flag_counts: dict[str, int] = field(default_factory=dict)


def auroc(records: list[EvalRecord]) -> float:
    """P(random correct record outranks a random incorrect one), ties as 1/2."""
    report = build_report(records)
    if report.auroc is None:
        n_pos = round(report.accuracy * report.n)
        raise InvalidInput(
            f"need both classes, got {n_pos} correct / {report.n - n_pos} incorrect"
        )
    return report.auroc


def equal_mass_bins(
    records: list[EvalRecord], n_bins: int = DEFAULT_N_BINS
) -> list[CalibrationBin]:
    """Partition records into n_bins of (near-)equal count by sorted confidence."""
    return list(build_report(records, n_bins).bins)


def ece(records: list[EvalRecord], n_bins: int = DEFAULT_N_BINS) -> float:
    """Bin-weighted mean absolute confidence-accuracy gap over equal-mass bins."""
    return build_report(records, n_bins).ece


def ece_from_bins(bins: list[tuple[int, float, float]]) -> float:
    """ECE from aggregate (count, mean_accuracy, mean_confidence) rows."""
    total = sum(count for count, _, _ in bins)
    if total <= 0:
        raise InvalidInput("every bin is empty")
    return sum(
        (count / total) * abs(acc - conf) for count, acc, conf in bins if count > 0
    )


def accuracy_from_bins(bins: list[tuple[int, float, float]]) -> float:
    """Count-weighted mean of bin accuracies."""
    total = sum(count for count, _, _ in bins)
    if total <= 0:
        raise InvalidInput("every bin is empty")
    return sum(count * acc for count, acc, _ in bins) / total


def retrieval_efficiency(accuracy_gain_pp: float, retrieval_rate_pct: float) -> float:
    """Accuracy gain (percentage points) per percent of queries retrieved."""
    if retrieval_rate_pct == 0:
        raise InvalidInput("efficiency undefined at 0% retrieval")
    return accuracy_gain_pp / retrieval_rate_pct


def build_report(
    records: list[EvalRecord], n_bins: int = DEFAULT_N_BINS
) -> CalibrationReport:
    """Accuracy, AUROC, ECE, and the per-bin table for one record set, all
    read off one sort by (confidence, id) and one prefix sum of correctness."""
    if not records:
        raise InvalidInput("no records")
    if n_bins < 1:
        raise InvalidInput(f"n_bins must be >= 1, got {n_bins}")
    ordered = sorted(records, key=lambda r: (r.confidence, r.id))
    confs = [r.confidence for r in ordered]
    # hits[i]: the number correct among the i least confident records
    hits = list(accumulate((r.correct for r in ordered), initial=0))
    n = len(ordered)
    n_pos, n_neg = hits[n], n - hits[n]

    base, remainder = divmod(n, n_bins)
    bins: list[CalibrationBin] = []
    start = 0
    for b in range(n_bins):
        end = start + base + (1 if b < remainder else 0)
        size = end - start
        if size:
            # summed slice by slice, not from a float prefix sum, whose
            # differences would change the last digits
            mean_conf = sum(confs[start:end]) / size
            bins.append(CalibrationBin(size, mean_conf, (hits[end] - hits[start]) / size))
        else:
            bins.append(CalibrationBin(0, 0.0, 0.0))
        start = end

    auc: float | None = None
    if n_pos and n_neg:
        # k tied scores above r lower ones share the midrank r + (k + 1) / 2,
        # a half-integer, so the sum is exact in any order
        pos_rank_sum = 0.0
        lower = 0
        for _, run in groupby(confs):
            k = sum(1 for _ in run)
            pos_rank_sum += (lower + (k + 1) / 2.0) * (hits[lower + k] - hits[lower])
            lower += k
        auc = (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)

    flag_counts = Counter(flag for rec in records for flag in rec.flags)
    return CalibrationReport(
        task_id=records[0].task_id,
        n=n,
        accuracy=n_pos / n,
        auroc=auc,
        ece=ece_from_bins([(b.count, b.mean_accuracy, b.mean_confidence) for b in bins]),
        bins=tuple(bins),
        flag_counts=dict(sorted(flag_counts.items())),
    )
