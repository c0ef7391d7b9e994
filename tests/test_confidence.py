"""Unit and property tests for the confidence arithmetic."""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from confcal.confidence import (
    DEFAULT_NO_ALIASES,
    DEFAULT_YES_ALIASES,
    TokenDistribution,
    normalized_confidence,
    p_yes,
    self_eval_confidence,
)
from confcal.client import CompletionResponse, ModelClient
from confcal.errors import AnchorTokensAbsent, InvalidInput, InvalidLogProb, MalformedResponse, NoLabelTokenPresent


def dist(**tokens):
    return TokenDistribution.from_pairs(tuple(tokens.items()))


class TestNormalizedConfidence:
    def test_hand_arithmetic(self):
        cands = {"A": math.log(0.2), "B": math.log(0.1), "C": math.log(0.1)}
        assert normalized_confidence(cands, "A") == pytest.approx(0.5)

    def test_single_candidate_is_certain(self):
        assert normalized_confidence({"x": -7.3}, "x") == pytest.approx(1.0)

    def test_four_equal_candidates(self):
        cands = dict.fromkeys("ABCD", -1.7)
        for c in "ABCD":
            assert normalized_confidence(cands, c) == pytest.approx(0.25)

    def test_empty_rejected(self):
        with pytest.raises(InvalidInput, match="^candidate set is empty$"):
            normalized_confidence({}, "a")

    def test_unknown_candidate(self):
        with pytest.raises(InvalidInput, match="^selected candidate 'B' not in candidate set$"):
            normalized_confidence({"A": math.log(0.5)}, "B")

    def test_underflow_ratio(self):
        # linear-space probabilities far below the smallest normal double
        cands = {"a": -2000.0, "b": -2001.0}
        expected = math.e / (1.0 + math.e)
        assert normalized_confidence(cands, "a") == pytest.approx(expected, abs=1e-9)

    @given(
        logprobs=st.lists(st.floats(min_value=-500, max_value=0), min_size=1, max_size=12),
        delta=st.floats(min_value=-100, max_value=0),
    )
    def test_normalization_and_shift_invariance(self, logprobs, delta):
        cands = {f"c{i}": lp for i, lp in enumerate(logprobs)}
        values = [normalized_confidence(cands, c) for c in cands]
        assert sum(values) == pytest.approx(1.0, abs=1e-12)

        shifted = {c: lp + delta for c, lp in cands.items()}
        for cand, val in zip(shifted, values):
            assert normalized_confidence(shifted, cand) == pytest.approx(val, abs=1e-12)

    @given(st.lists(st.floats(min_value=-200, max_value=0), min_size=2, max_size=10, unique=True))
    def test_argmax_preserved(self, logprobs):
        cands = {f"c{i}": lp for i, lp in enumerate(logprobs)}
        best = max(cands, key=cands.get)
        values = {c: normalized_confidence(cands, c) for c in cands}
        assert values[best] == max(values.values())

    def test_monotone_in_selected_logprob(self):
        prev = -1.0
        for lp in (-5.0, -3.0, -1.0, -0.1):
            val = normalized_confidence({"a": lp, "b": -2.0, "c": -3.0}, "a")
            assert val > prev
            prev = val


class TestSelfEvalConfidence:
    def test_hand_arithmetic(self):
        d = dist(Yes=math.log(0.03), No=math.log(0.01))
        assert self_eval_confidence(d)[0] == pytest.approx(0.75)

    def test_symmetry(self):
        d = dist(Yes=math.log(0.2), No=math.log(0.2))
        assert self_eval_confidence(d)[0] == pytest.approx(0.5)

    def test_no_absent_from_top_k(self):
        d = dist(Yes=math.log(0.4), Other=math.log(0.3))
        value, flags, raw = self_eval_confidence(d)
        assert value == pytest.approx(1.0)
        assert flags == {"anchor_missing_no"}
        assert raw == pytest.approx(0.4)

    def test_yes_absent_from_top_k(self):
        d = dist(No=math.log(0.4))
        value, flags, raw = self_eval_confidence(d)
        assert value == 0.0
        assert flags == {"anchor_missing_yes"}
        assert raw == 0.0

    def test_both_absent_neutral(self):
        d = dist(Maybe=math.log(0.9))
        assert self_eval_confidence(d, missing_policy="neutral") == (
            0.5, {"anchor_missing_yes", "anchor_missing_no", "fallback_neutral"}, 0.0
        )

    def test_both_absent_error(self):
        d = dist(Maybe=math.log(0.9))
        with pytest.raises(AnchorTokensAbsent):
            self_eval_confidence(d, missing_policy="error")

    @pytest.mark.parametrize("d", [dist(Maybe=-0.1), None], ids=["anchorless", "never-read"])
    @pytest.mark.parametrize("policy", ["Error", "skip", "", None])
    def test_unknown_policy_is_refused_before_the_distribution_is_read(self, d, policy):
        with pytest.raises(InvalidInput, match=r"^missing_policy must be error\|neutral, got "):
            self_eval_confidence(d, policy)

    def test_alias_summing(self):
        d = TokenDistribution.from_pairs(
            (("Yes", math.log(0.2)), (" yes", math.log(0.2)), ("No", math.log(0.1)))
        )
        assert self_eval_confidence(d) == (pytest.approx(0.8), frozenset(), pytest.approx(0.4))

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
        d = TokenDistribution.from_pairs(tuple(entries))
        value, _, _ = self_eval_confidence(d)
        assert 0.0 <= value <= 1.0
        if p_no == 0 and p_yes > 0:
            assert value == 1.0
        if p_yes == 0 and p_no > 0:
            assert value == 0.0


class TestTypes:
    def test_mass_that_rounds_past_one_is_one(self):
        d = dist(A=0.0, B=-20.0)
        assert d.mass(["A", "B"]) == 1.0
        assert d.mass(["B"]) == math.exp(-20.0)

    def test_distribution_rejects_positive_logprob(self):
        with pytest.raises(MalformedResponse, match="^logprob for token 'x' is not <= 0: 0.2$"):
            TokenDistribution.from_pairs((("x", 0.2),))

    def test_distribution_rejects_nan_logprob(self):
        with pytest.raises(MalformedResponse, match="^logprob for token 'y' is not <= 0: nan$"):
            TokenDistribution.from_pairs((("x", -1.0), ("y", math.nan)))

    def test_candidate_rejects_positive_or_nan_logprob(self):
        for logprob in (0.2, math.nan):
            with pytest.raises(InvalidLogProb, match="^sequence_logprob for 'a' is not <= 0: "):
                normalized_confidence({"a": logprob, "b": -1.0}, "b")

    def test_distribution_rejects_duplicates(self):
        with pytest.raises(MalformedResponse, match="^token 'x' appears twice in one distribution$"):
            TokenDistribution.from_pairs((("x", -1.0), ("x", -2.0)))

    def test_confidence_score_bounds(self):
        """The one set whose ratio would leave [0, 1] is all probability 0:
        -inf - -inf is NaN, which no range check would see through min()."""
        for cands in ({"a": -math.inf, "b": -math.inf}, {"a": -math.inf}):
            with pytest.raises(InvalidLogProb, match="^every candidate has log-probability -inf$"):
                normalized_confidence(cands, "a")
        assert normalized_confidence({"a": -math.inf, "b": -1e-300}, "a") == 0.0
        assert normalized_confidence({"a": -math.inf, "b": -1e-300}, "b") == 1.0

    def test_fallback_flag_requires_both_anchors(self):
        missing = {"anchor_missing_yes", "anchor_missing_no"}
        for tokens in ({}, {"Yes": -1.0}, {"No": -1.0}, {"Yes": -1.0, "No": -2.0}, {"Maybe": -0.1}):
            value, flags, _ = self_eval_confidence(dist(**tokens))
            assert ("fallback_neutral" in flags) == (missing <= flags)
            assert flags <= missing | {"fallback_neutral"}
            assert 0.0 <= value <= 1.0


def old_mass(pairs, aliases):
    """The readout before a position was two tuples: each alias's probability
    from a token -> logprob map, summed."""
    logprobs = dict(pairs)

    def probability(token):
        lp = logprobs.get(token)
        return math.exp(lp) if lp is not None else 0.0

    return min(math.fsum(probability(t) for t in aliases), 1.0)


VOCABULARY = sorted(DEFAULT_YES_ALIASES | DEFAULT_NO_ALIASES | {"Maybe", "A", " B", "yes!"})
# 0.0 and values a hair below it make sums that round past 1; 0.1 + 0.2 + 0.3
# is 0.6000000000000001 summed left to right, and 0.6 by fsum
READOUT_LOGPROBS = st.one_of(
    st.sampled_from([0.0, -0.0, -1e-17, -1e-300, -math.inf, *map(math.log, (0.1, 0.2, 0.3, 0.5))]),
    st.floats(min_value=-800, max_value=0.0),
)


class TestOldFormula:
    """``mass``, ``p_yes`` and ``self_eval_confidence`` give the old
    formula's floats bit for bit."""

    @settings(derandomize=True, database=None, max_examples=300)
    @given(
        pairs=st.dictionaries(st.sampled_from(VOCABULARY), READOUT_LOGPROBS, max_size=len(VOCABULARY)).map(
            lambda d: tuple(d.items())
        ),
        aliases=st.one_of(
            st.sampled_from([DEFAULT_YES_ALIASES, DEFAULT_NO_ALIASES]), st.frozensets(st.sampled_from(VOCABULARY))
        ),
    )
    @example(pairs=(), aliases=DEFAULT_YES_ALIASES)
    @example(pairs=(("Maybe", -0.1),), aliases=DEFAULT_NO_ALIASES)
    @example(pairs=(("Yes", 0.0), (" yes", -20.0), ("No", -30.0)), aliases=DEFAULT_YES_ALIASES)
    @example(pairs=(("No", -1e-17), (" no", math.log(0.5)), ("yes", 0.0)), aliases=DEFAULT_NO_ALIASES)
    @example(
        pairs=tuple(zip(("Yes", " Yes", "yes", "No"), map(math.log, (0.1, 0.2, 0.3, 0.1)))), aliases=DEFAULT_YES_ALIASES
    )
    def test_readouts_equal_the_old_formula(self, pairs, aliases):
        d = TokenDistribution.from_pairs(pairs)
        assert d.mass(aliases) == old_mass(pairs, aliases)
        c_yes, c_no = old_mass(pairs, DEFAULT_YES_ALIASES), old_mass(pairs, DEFAULT_NO_ALIASES)
        assert p_yes(d) == c_yes
        expected = 0.5 if c_yes == c_no == 0.0 else c_yes / (c_yes + c_no)
        assert self_eval_confidence(d)[::2] == (expected, c_yes)


def alias_sum(pairs, aliases):
    """One alias set summed on its own: the probability of each of its tokens in the top-K, a sum past 1 being 1."""
    return min(math.fsum([math.exp(lp) for token, lp in pairs if token in aliases]), 1.0)


class OneReply:
    """Backend that answers every request with one top-K."""

    def __init__(self, distribution):
        self.response = CompletionResponse("x", distribution)

    def complete(self, request):
        return self.response


TOP_K = st.dictionaries(st.sampled_from(VOCABULARY), READOUT_LOGPROBS, max_size=len(VOCABULARY)).map(
    lambda d: tuple(d.items())
)
ALIAS_SETS = st.sampled_from([DEFAULT_YES_ALIASES, DEFAULT_NO_ALIASES]) | st.frozensets(
    st.sampled_from(VOCABULARY), min_size=1
)
# the self-evaluation's aliases absent, both anchors absent, and an alias set whose mass rounds past 1
TOP_K_EXAMPLES = [
    (("Maybe", -0.1), ("No", -2.0)),
    (("Maybe", -0.1), ("A", -1.0)),
    (("Yes", 0.0), (" yes", -1e-17), ("yes", -20.0), ("No", -30.0)),
    (("No", 0.0), (" No", -1e-300), ("Yes", -math.inf)),
]


class TestAliasSumsInOnePass:
    """``self_eval_confidence`` and ``ModelClient.classify`` read every alias
    set in one pass over the top-K; each float is, by ``float.hex``, the one
    that summing each alias set on its own gives."""

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(pairs=TOP_K, first=ALIAS_SETS, second=ALIAS_SETS)
    def test_masses_of_two_sets_that_may_share_tokens(self, pairs, first, second):
        for top_k in (pairs, *TOP_K_EXAMPLES):
            masses = TokenDistribution.from_pairs(top_k).masses(first, second)
            assert [m.hex() for m in masses] == [alias_sum(top_k, first).hex(), alias_sum(top_k, second).hex()]

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(pairs=TOP_K)
    def test_self_eval_confidence(self, pairs):
        for top_k in (pairs, *TOP_K_EXAMPLES):
            c_yes, c_no = alias_sum(top_k, DEFAULT_YES_ALIASES), alias_sum(top_k, DEFAULT_NO_ALIASES)
            confidence, _, raw = self_eval_confidence(TokenDistribution.from_pairs(top_k))
            expected = 0.5 if c_yes == c_no == 0.0 else c_yes / (c_yes + c_no)
            assert (confidence.hex(), raw.hex()) == (expected.hex(), c_yes.hex())

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(
        pairs=TOP_K,
        label_set=st.dictionaries(st.sampled_from("ABCD"), ALIAS_SETS, min_size=1, max_size=4),
    )
    def test_classify(self, pairs, label_set):
        """Label sets may share a token, and may have no alias in the top-K."""
        for top_k in (pairs, *TOP_K_EXAMPLES):
            client = ModelClient(OneReply(TokenDistribution.from_pairs(top_k)))
            probs = {label: alias_sum(top_k, aliases) for label, aliases in label_set.items()}
            if all(p == 0.0 for p in probs.values()):
                with pytest.raises(NoLabelTokenPresent):
                    client.classify("pick one", label_set)
                continue
            chosen = min(probs, key=lambda label: (-probs[label], label))
            readout = client.classify("pick one", label_set)
            assert readout.answer == chosen
            assert readout.confidence.hex() == (probs[chosen] / math.fsum(probs.values())).hex()
            assert readout.raw.hex() == probs[chosen].hex()
