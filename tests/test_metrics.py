"""Tests for AUROC, equal-mass binning, ECE, and efficiency arithmetic."""

import itertools
import random
from dataclasses import asdict
from operator import itemgetter

import pytest
from hypothesis import given, settings, strategies as st

from confcal.errors import InvalidInput
from confcal.metrics import (
    CalibrationBin,
    EvalRecord,
    accuracy_from_bins,
    auroc,
    build_report,
    ece,
    ece_from_bins,
    equal_mass_bins,
    retrieval_efficiency,
)

from conftest import load_bin_csv, make_record


def pairwise_auroc(records):
    """O(n^2) all-pairs oracle: wins count 1, ties 1/2."""
    pos = [r.confidence for r in records if r.correct]
    neg = [r.confidence for r in records if not r.correct]
    total = 0.0
    for p, q in itertools.product(pos, neg):
        if p > q:
            total += 1.0
        elif p == q:
            total += 0.5
    return total / (len(pos) * len(neg))


def two_sort_auroc(scores, labels):
    """The midrank AUROC by its own sort of (score, label) pairs."""
    n_pos = sum(1 for lab in labels if lab)
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise InvalidInput(
            f"need both classes, got {n_pos} correct / {n_neg} incorrect"
        )
    pos_rank_sum = 0.0
    lower = 0
    for _, run in itertools.groupby(sorted(zip(scores, labels)), key=itemgetter(0)):
        tied = [lab for _, lab in run]
        pos_rank_sum += (lower + (len(tied) + 1) / 2.0) * sum(tied)
        lower += len(tied)
    u = pos_rank_sum - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def two_sort_bins(records, n_bins):
    """Equal-mass bins by their own sort by (confidence, id), each bin's
    means summed over its members."""
    ordered = sorted(records, key=lambda r: (r.confidence, r.id))
    base, remainder = divmod(len(ordered), n_bins)
    bins = []
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


def two_sort_report(records, n_bins):
    """The report as ``asdict`` gives it, from two sorts and three counts of
    the correct records: the oracle of the one-sort ``build_report``."""
    try:
        auc = two_sort_auroc([r.confidence for r in records], [r.correct for r in records])
    except InvalidInput:
        auc = None
    bins = two_sort_bins(records, n_bins)
    flag_counts = {}
    for rec in records:
        for flag in rec.flags:
            flag_counts[flag] = flag_counts.get(flag, 0) + 1
    return {
        "task_id": records[0].task_id,
        "n": len(records),
        "accuracy": sum(1 for r in records if r.correct) / len(records),
        "auroc": auc,
        "ece": ece_from_bins([(b.count, b.mean_accuracy, b.mean_confidence) for b in bins]),
        "bins": tuple(asdict(b) for b in bins),
        "flag_counts": dict(sorted(flag_counts.items())),
    }


class TestEvalRecord:
    @pytest.mark.parametrize("confidence", [-0.01, 1.01, float("nan"), float("inf")])
    def test_confidence_outside_unit_interval_is_invalid_input(self, confidence):
        with pytest.raises(InvalidInput, match="confidence out of"):
            make_record(0, True, confidence)


class TestAuroc:
    def test_perfect_separation(self):
        records = [
            make_record(0, True, 0.9),
            make_record(1, True, 0.8),
            make_record(2, False, 0.2),
            make_record(3, False, 0.1),
        ]
        assert auroc(records) == 1.0

    def test_all_ties_midrank(self):
        records = [make_record(i, i % 2 == 0, 0.5) for i in range(6)]
        assert auroc(records) == 0.5

    def test_mixed_pairs(self):
        # brute force over the 2 pairs: one win, one loss
        records = [
            make_record(0, True, 0.9),
            make_record(1, True, 0.4),
            make_record(2, False, 0.6),
        ]
        assert auroc(records) == 0.5

    def test_degenerate_single_class(self):
        with pytest.raises(InvalidInput, match="^need both classes, got 2 correct / 0 incorrect$"):
            auroc([make_record(0, True, 0.5), make_record(1, True, 0.6)])
        with pytest.raises(InvalidInput, match="^need both classes, got 0 correct / 3 incorrect$"):
            auroc([make_record(i, False, 0.5) for i in range(3)])

    def test_empty_rejected(self):
        with pytest.raises(InvalidInput, match="^no records$"):
            auroc([])

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_matches_pairwise_oracle(self, data):
        n = data.draw(st.integers(min_value=2, max_value=200))
        confs = data.draw(
            st.lists(
                st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.5, 0.75, 0.9, 1.0]),
                min_size=n,
                max_size=n,
            )
        )
        labels = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        if all(labels) or not any(labels):
            labels[0] = not labels[0]
        records = [make_record(i, lab, c) for i, (lab, c) in enumerate(zip(labels, confs))]
        assert auroc(records) == pytest.approx(pairwise_auroc(records), abs=1e-12)

    def test_invariant_under_monotone_transform(self):
        rng = random.Random(7)
        records = [make_record(i, rng.random() < 0.5, rng.random()) for i in range(100)]
        if all(r.correct for r in records) or not any(r.correct for r in records):
            records[0] = make_record(0, not records[0].correct, records[0].confidence)
        squashed = [
            make_record(i, r.correct, r.confidence**3) for i, r in enumerate(records)
        ]
        assert auroc(records) == pytest.approx(auroc(squashed), abs=1e-12)


class TestEqualMassBins:
    def test_divisible(self):
        records = [make_record(i, True, i / 20) for i in range(20)]
        bins = equal_mass_bins(records, 10)
        assert [b.count for b in bins] == [2] * 10

    def test_remainder_to_lowest_bins(self):
        records = [make_record(i, True, i / 23) for i in range(23)]
        bins = equal_mass_bins(records, 10)
        assert [b.count for b in bins] == [3, 3, 3, 2, 2, 2, 2, 2, 2, 2]

    def test_single_record_single_bin(self):
        bins = equal_mass_bins([make_record(0, True, 0.42)], 1)
        assert len(bins) == 1
        assert bins[0].count == 1
        assert bins[0].mean_confidence == pytest.approx(0.42)

    def test_empty_rejected(self):
        with pytest.raises(InvalidInput, match="^no records$"):
            equal_mass_bins([], 10)

    def test_sorted_ascending_by_confidence(self):
        rng = random.Random(3)
        records = [make_record(i, True, rng.random()) for i in range(40)]
        bins = equal_mass_bins(records, 10)
        means = [b.mean_confidence for b in bins]
        assert means == sorted(means)

    @given(st.integers(min_value=1, max_value=97), st.integers(min_value=1, max_value=12))
    def test_counts_differ_by_at_most_one(self, n, n_bins):
        records = [make_record(i, i % 3 == 0, (i * 37 % 100) / 100) for i in range(n)]
        bins = equal_mass_bins(records, n_bins)
        counts = [b.count for b in bins]
        assert sum(counts) == n
        nonzero = [c for c in counts]
        assert max(nonzero) - min(nonzero) <= 1

    def test_tie_break_by_id_deterministic(self):
        records = [make_record(i, i < 3, 0.5) for i in range(6)]
        a = equal_mass_bins(records, 3)
        b = equal_mass_bins(list(reversed(records)), 3)
        assert a == b


class TestEce:
    def test_perfectly_calibrated(self):
        # each bin of 2: one correct, one incorrect at confidence 0.5
        records = []
        for i in range(10):
            records.append(make_record(2 * i, True, 0.5))
            records.append(make_record(2 * i + 1, False, 0.5))
        assert ece(records, 10) == pytest.approx(0.0, abs=1e-12)

    def test_constant_confidence(self):
        # arranged so every 10-record bin holds 6 correct: each bin acc 0.6
        records = [make_record(i, i % 10 < 6, 0.9) for i in range(100)]
        assert ece(records, 10) == pytest.approx(0.3, abs=1e-12)

    def test_matches_aggregate_form(self):
        rng = random.Random(11)
        records = [make_record(i, rng.random() < 0.7, rng.random()) for i in range(57)]
        bins = equal_mass_bins(records, 10)
        agg = ece_from_bins([(b.count, b.mean_accuracy, b.mean_confidence) for b in bins])
        assert ece(records, 10) == pytest.approx(agg, abs=1e-12)

    def test_permutation_invariant(self):
        rng = random.Random(5)
        records = [make_record(i, rng.random() < 0.5, rng.random()) for i in range(33)]
        shuffled = records[:]
        rng.shuffle(shuffled)
        assert ece(records) == pytest.approx(ece(shuffled), abs=1e-12)

    @given(st.lists(st.tuples(st.booleans(), st.floats(0, 1)), min_size=1, max_size=120))
    @settings(max_examples=50)
    def test_bounds(self, items):
        records = [make_record(i, c, conf) for i, (c, conf) in enumerate(items)]
        value = ece(records)
        assert 0.0 <= value <= 1.0


class TestEceFromBins:
    def test_gsm8k_baseline_aggregates(self):
        bins = load_bin_csv("bins_gsm8k_baseline.csv")
        assert ece_from_bins(bins) == pytest.approx(0.0689, abs=2e-3)

    def test_boolq_baseline_aggregates(self):
        bins = load_bin_csv("bins_boolq_baseline.csv")
        assert ece_from_bins(bins) == pytest.approx(0.1493, abs=2e-3)

    def test_zero_gap(self):
        assert ece_from_bins([(10, 0.8, 0.8)]) == 0.0

    def test_all_empty_rejected(self):
        with pytest.raises(InvalidInput, match="^every bin is empty$"):
            ece_from_bins([(0, 0.5, 0.5)])


class TestAccuracyFromBins:
    def test_gsm8k_baseline_weighted_accuracy(self):
        bins = load_bin_csv("bins_gsm8k_baseline.csv")
        assert accuracy_from_bins(bins) * 100 == pytest.approx(92.49, abs=0.1)

    def test_boolq_baseline_weighted_accuracy(self):
        bins = load_bin_csv("bins_boolq_baseline.csv")
        assert accuracy_from_bins(bins) * 100 == pytest.approx(84.40, abs=0.1)

    def test_single_bin(self):
        assert accuracy_from_bins([(5, 1.0, 0.9)]) == 1.0

    def test_all_empty_rejected(self):
        with pytest.raises(InvalidInput, match="^every bin is empty$"):
            accuracy_from_bins([(0, 1.0, 1.0)])


class TestRetrievalEfficiency:
    def test_selective_threshold(self):
        assert retrieval_efficiency(9.09, 25.0) == pytest.approx(0.36, abs=0.01)

    def test_always_retrieve(self):
        assert retrieval_efficiency(17.77, 100.0) == pytest.approx(0.18, abs=0.01)

    def test_zero_gain(self):
        assert retrieval_efficiency(0.0, 50.0) == 0.0

    def test_zero_rate_undefined(self):
        with pytest.raises(InvalidInput, match="^efficiency undefined at 0% retrieval$"):
            retrieval_efficiency(1.0, 0.0)


GRID = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0]


@st.composite
def record_sets(draw):
    """1-60 records: confidences on a coarse grid (ties) or uniform, ids
    in any order against the confidences, flags, and one-class sets."""
    n = draw(st.integers(min_value=1, max_value=60))
    conf = draw(st.sampled_from([st.sampled_from(GRID), st.floats(0, 1), st.sampled_from(GRID) | st.floats(0, 1)]))
    ids = draw(st.permutations([str(j) for j in range(n)]))
    one_class = draw(st.sampled_from([None, True, False]))
    correct = st.booleans() if one_class is None else st.just(one_class)
    flags = st.frozensets(st.sampled_from(["fallback_neutral", "retrieval_miss", "error:timeout"]))
    return [
        EvalRecord(id=i, task_id="t", prediction="p", gold="g", correct=draw(correct), confidence=draw(conf), flags=draw(flags))
        for i in ids
    ]


class TestBuildReport:
    @given(record_sets(), st.integers(min_value=1, max_value=15))
    @settings(max_examples=300, deadline=None)
    def test_equals_two_sort_oracle_exactly(self, records, n_bins):
        # == on every float: the one sort must give the same bits as two
        assert asdict(build_report(records, n_bins)) == two_sort_report(records, n_bins)

    def test_rejects_empty_and_no_bins(self):
        with pytest.raises(InvalidInput, match="^no records$"):
            build_report([])
        with pytest.raises(InvalidInput, match="^n_bins must be >= 1, got 0$"):
            build_report([make_record(0, True, 0.5)], 0)

    def test_report_shape(self):
        rng = random.Random(2)
        records = [make_record(i, rng.random() < 0.6, rng.random()) for i in range(40)]
        report = build_report(records)
        assert report.n == 40
        assert len(report.bins) == 10
        assert sum(b.count for b in report.bins) == 40
        assert 0.0 <= report.ece <= 1.0

    def test_degenerate_auroc_is_none(self):
        records = [make_record(i, True, 0.5 + i / 100) for i in range(10)]
        report = build_report(records)
        assert report.auroc is None
        assert report.accuracy == 1.0

    def test_flag_counts_surfaced(self):
        records = [
            make_record(0, True, 0.5, flags={"fallback_neutral"}),
            make_record(1, False, 0.4, flags={"fallback_neutral"}),
            make_record(2, True, 0.9),
        ]
        report = build_report(records, n_bins=3)
        assert report.flag_counts == {"fallback_neutral": 2}
