"""Unit and property tests for the confidence arithmetic."""

import math

import pytest
from hypothesis import given, strategies as st

from confcal.confidence import (
    ConfidenceScore,
    Flag,
    MissingPolicy,
    TokenDistribution,
    normalized_confidence,
    self_eval_confidence,
    sequence_logprob,
)
from confcal.errors import (
    AnchorTokensAbsent,
    DuplicateCandidate,
    EmptySequence,
    InvalidLogProb,
    UnknownCandidate,
)


def dist(**tokens):
    return TokenDistribution(entries=tuple(tokens.items()))


class TestSequenceLogprob:
    def test_product_of_halves(self):
        assert sequence_logprob([math.log(0.5), math.log(0.5)]) == pytest.approx(math.log(0.25))

    def test_certain_token(self):
        assert sequence_logprob([0.0]) == 0.0

    def test_hand_arithmetic(self):
        assert sequence_logprob([math.log(0.2), math.log(0.3)]) == pytest.approx(math.log(0.06))

    def test_empty_rejected(self):
        with pytest.raises(EmptySequence):
            sequence_logprob([])

    def test_positive_logprob_rejected(self):
        for logprobs in ([0.1], [math.nan, -1.0]):
            with pytest.raises(InvalidLogProb):
                sequence_logprob(logprobs)


class TestNormalizedConfidence:
    def test_hand_arithmetic(self):
        cands = {"A": math.log(0.2), "B": math.log(0.1), "C": math.log(0.1)}
        assert normalized_confidence(cands, "A").value == pytest.approx(0.5)

    def test_single_candidate_is_certain(self):
        assert normalized_confidence({"x": -7.3}, "x").value == pytest.approx(1.0)

    def test_four_equal_candidates(self):
        cands = dict.fromkeys("ABCD", -1.7)
        for c in "ABCD":
            assert normalized_confidence(cands, c).value == pytest.approx(0.25)

    def test_unknown_candidate(self):
        with pytest.raises(UnknownCandidate):
            normalized_confidence({"A": math.log(0.5)}, "B")

    def test_underflow_ratio(self):
        # linear-space probabilities far below the smallest normal double
        cands = {"a": -2000.0, "b": -2001.0}
        expected = math.e / (1.0 + math.e)
        assert normalized_confidence(cands, "a").value == pytest.approx(expected, abs=1e-9)

    @given(
        logprobs=st.lists(st.floats(min_value=-500, max_value=0), min_size=1, max_size=12),
        delta=st.floats(min_value=-100, max_value=0),
    )
    def test_normalization_and_shift_invariance(self, logprobs, delta):
        cands = {f"c{i}": lp for i, lp in enumerate(logprobs)}
        values = [normalized_confidence(cands, c).value for c in cands]
        assert sum(values) == pytest.approx(1.0, abs=1e-12)

        shifted = {c: lp + delta for c, lp in cands.items()}
        for cand, val in zip(shifted, values):
            assert normalized_confidence(shifted, cand).value == pytest.approx(val, abs=1e-12)

    @given(st.lists(st.floats(min_value=-200, max_value=0), min_size=2, max_size=10, unique=True))
    def test_argmax_preserved(self, logprobs):
        cands = {f"c{i}": lp for i, lp in enumerate(logprobs)}
        best = max(cands, key=cands.get)
        values = {c: normalized_confidence(cands, c).value for c in cands}
        assert values[best] == max(values.values())

    def test_monotone_in_selected_logprob(self):
        prev = -1.0
        for lp in (-5.0, -3.0, -1.0, -0.1):
            val = normalized_confidence({"a": lp, "b": -2.0, "c": -3.0}, "a").value
            assert val > prev
            prev = val


class TestSelfEvalConfidence:
    def test_hand_arithmetic(self):
        d = dist(Yes=math.log(0.03), No=math.log(0.01))
        assert self_eval_confidence(d).value == pytest.approx(0.75)

    def test_symmetry(self):
        d = dist(Yes=math.log(0.2), No=math.log(0.2))
        assert self_eval_confidence(d).value == pytest.approx(0.5)

    def test_no_absent_from_top_k(self):
        d = dist(Yes=math.log(0.4), Other=math.log(0.3))
        score = self_eval_confidence(d)
        assert score.value == pytest.approx(1.0)
        assert Flag.ANCHOR_MISSING_NO in score.flags
        assert Flag.FALLBACK_NEUTRAL not in score.flags

    def test_yes_absent_from_top_k(self):
        d = dist(No=math.log(0.4))
        score = self_eval_confidence(d)
        assert score.value == 0.0
        assert Flag.ANCHOR_MISSING_YES in score.flags

    def test_both_absent_neutral(self):
        d = dist(Maybe=math.log(0.9))
        score = self_eval_confidence(d, missing_policy=MissingPolicy.NEUTRAL)
        assert score.value == 0.5
        assert score.flags == {Flag.ANCHOR_MISSING_YES, Flag.ANCHOR_MISSING_NO, Flag.FALLBACK_NEUTRAL}

    def test_both_absent_error(self):
        d = dist(Maybe=math.log(0.9))
        with pytest.raises(AnchorTokensAbsent):
            self_eval_confidence(d, missing_policy=MissingPolicy.ERROR)

    def test_both_absent_skip(self):
        d = dist(Maybe=math.log(0.9))
        score = self_eval_confidence(d, missing_policy=MissingPolicy.SKIP)
        assert score.value == 0.5
        assert score.flags == {
            Flag.ANCHOR_MISSING_YES, Flag.ANCHOR_MISSING_NO, Flag.FALLBACK_NEUTRAL, Flag.SELF_EVAL_SKIPPED
        }

    def test_alias_summing(self):
        d = TokenDistribution(
            entries=(("Yes", math.log(0.2)), (" yes", math.log(0.2)), ("No", math.log(0.1)))
        )
        score = self_eval_confidence(d)
        assert score.value == pytest.approx(0.8)

    @given(
        p_yes=st.floats(min_value=0.0, max_value=0.5),
        p_no=st.floats(min_value=0.0, max_value=0.5),
    )
    def test_bounds_and_edge_values(self, p_yes, p_no):
        entries = []
        if p_yes > 0:
            entries.append(("Yes", math.log(p_yes)))
        if p_no > 0:
            entries.append(("No", math.log(p_no)))
        d = TokenDistribution(entries=tuple(entries))
        score = self_eval_confidence(d)
        assert 0.0 <= score.value <= 1.0
        if p_no == 0 and p_yes > 0:
            assert score.value == 1.0
        if p_yes == 0 and p_no > 0:
            assert score.value == 0.0


class TestTypes:
    def test_distribution_rejects_positive_logprob(self):
        with pytest.raises(InvalidLogProb):
            TokenDistribution(entries=(("x", 0.2),))

    def test_distribution_rejects_nan_logprob(self):
        with pytest.raises(InvalidLogProb):
            TokenDistribution(entries=(("x", -1.0), ("y", math.nan)))

    def test_candidate_rejects_positive_or_nan_logprob(self):
        for logprob in (0.2, math.nan):
            with pytest.raises(InvalidLogProb, match="^sequence_logprob for 'a' is not <= 0: "):
                normalized_confidence({"a": logprob, "b": -1.0}, "b")

    def test_distribution_rejects_duplicates(self):
        with pytest.raises(DuplicateCandidate):
            TokenDistribution(entries=(("x", -1.0), ("x", -2.0)))

    def test_confidence_score_bounds(self):
        with pytest.raises(InvalidLogProb):
            ConfidenceScore(value=1.2)

    def test_fallback_flag_requires_both_anchors(self):
        with pytest.raises(AnchorTokensAbsent):
            ConfidenceScore(value=0.5, flags={Flag.FALLBACK_NEUTRAL})
