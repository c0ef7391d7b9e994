"""Confidence-quality measurement: AUROC, equal-mass ECE, per-bin tables.

Equal-mass binning sorts records by confidence (ties broken by id) and
splits them into near-equal bins; remainder records go to the
lowest-confidence bins. AUROC uses the midrank (Mann-Whitney) tie
convention. A degenerate AUROC (all records share one correctness value)
is reported as None rather than 0.5 so broken runs stay visible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from operator import itemgetter

from .errors import AllEmptyBins, DegenerateClasses, EmptyInput, ZeroRetrieval

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
    scores = [r.confidence for r in records]
    labels = [r.correct for r in records]
    return auroc_from_scores(scores, labels)


def auroc_from_scores(scores: list[float], labels: list[bool]) -> float:
    n_pos = sum(1 for lab in labels if lab)
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DegenerateClasses(
            f"need both classes, got {n_pos} correct / {n_neg} incorrect"
        )
    # k tied scores above r lower ones share the midrank r + (k + 1) / 2, a
    # half-integer, so the sum is exact in any order
    pos_rank_sum = 0.0
    lower = 0
    for _, run in groupby(sorted(zip(scores, labels)), key=itemgetter(0)):
        tied = [lab for _, lab in run]
        pos_rank_sum += (lower + (len(tied) + 1) / 2.0) * sum(tied)
        lower += len(tied)
    u = pos_rank_sum - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def equal_mass_bins(
    records: list[EvalRecord], n_bins: int = DEFAULT_N_BINS
) -> list[CalibrationBin]:
    """Partition records into n_bins of (near-)equal count by sorted confidence."""
    if not records:
        raise EmptyInput("no records to bin")
    if n_bins < 1:
        raise EmptyInput(f"n_bins must be >= 1, got {n_bins}")

    ordered = sorted(records, key=lambda r: (r.confidence, r.id))
    n = len(ordered)
    base, remainder = divmod(n, n_bins)

    bins: list[CalibrationBin] = []
    start = 0
    for b in range(n_bins):
        size = base + (1 if b < remainder else 0)
        members = ordered[start : start + size]
        start += size
        if members:
            mean_conf = sum(r.confidence for r in members) / len(members)
            mean_acc = sum(1 for r in members if r.correct) / len(members)
        else:
            mean_conf = mean_acc = 0.0
        bins.append(CalibrationBin(count=len(members), mean_confidence=mean_conf, mean_accuracy=mean_acc))
    return bins


def ece(records: list[EvalRecord], n_bins: int = DEFAULT_N_BINS) -> float:
    """Bin-weighted mean absolute confidence-accuracy gap over equal-mass bins."""
    if not records:
        raise EmptyInput("no records")
    bins = equal_mass_bins(records, n_bins)
    return ece_from_bins([(b.count, b.mean_accuracy, b.mean_confidence) for b in bins])


def ece_from_bins(bins: list[tuple[int, float, float]]) -> float:
    """ECE from aggregate (count, mean_accuracy, mean_confidence) rows."""
    total = sum(count for count, _, _ in bins)
    if total <= 0:
        raise AllEmptyBins("every bin is empty")
    return sum(
        (count / total) * abs(acc - conf) for count, acc, conf in bins if count > 0
    )


def accuracy_from_bins(bins: list[tuple[int, float, float]]) -> float:
    """Count-weighted mean of bin accuracies."""
    total = sum(count for count, _, _ in bins)
    if total <= 0:
        raise AllEmptyBins("every bin is empty")
    return sum(count * acc for count, acc, _ in bins) / total


def retrieval_efficiency(accuracy_gain_pp: float, retrieval_rate_pct: float) -> float:
    """Accuracy gain (percentage points) per percent of queries retrieved."""
    if retrieval_rate_pct == 0:
        raise ZeroRetrieval("efficiency undefined at 0% retrieval")
    return accuracy_gain_pp / retrieval_rate_pct


def build_report(
    records: list[EvalRecord], n_bins: int = DEFAULT_N_BINS
) -> CalibrationReport:
    """Accuracy, AUROC, ECE, and the per-bin table for one record set."""
    if not records:
        raise EmptyInput("no records")
    task_id = records[0].task_id
    n = len(records)
    acc = sum(1 for r in records if r.correct) / n
    try:
        auc: float | None = auroc(records)
    except DegenerateClasses:
        auc = None
    bins = equal_mass_bins(records, n_bins)
    ece_val = ece_from_bins([(b.count, b.mean_accuracy, b.mean_confidence) for b in bins])
    flag_counts: dict[str, int] = {}
    for rec in records:
        for flag in rec.flags:
            flag_counts[flag] = flag_counts.get(flag, 0) + 1
    return CalibrationReport(
        task_id=task_id,
        n=n,
        accuracy=acc,
        auroc=auc,
        ece=ece_val,
        bins=tuple(bins),
        flag_counts=dict(sorted(flag_counts.items())),
    )
