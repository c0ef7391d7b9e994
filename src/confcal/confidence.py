"""Pure confidence arithmetic over truncated token distributions.

The paper's two readouts: the label confidence, which
``client.ModelClient.classify`` divides out of the label masses
(``TokenDistribution.mass``) in linear space, and the Yes/No
self-evaluation c_yes / (c_yes + c_no) with its neutral 0.5 fallback
(``self_eval_confidence``, a float, its flag names and P(Yes)).
``normalized_confidence`` is the same ratio for sequence log-probabilities,
normalized with a stable log-sum-exp, so candidate sets whose linear-space
probabilities underflow still produce correct ratios.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Container, Iterable, Mapping
from dataclasses import dataclass

from .errors import AnchorTokensAbsent, InvalidInput, InvalidLogProb, MalformedResponse

# What a self-evaluation with neither anchor in the top-K gives.
MISSING_POLICIES = ("error", "neutral")


def check_missing_policy(missing_policy: str) -> None:
    """Raises ``InvalidInput`` unless ``missing_policy`` is in ``MISSING_POLICIES``."""
    if missing_policy not in MISSING_POLICIES:
        raise InvalidInput(f"missing_policy must be {'|'.join(MISSING_POLICIES)}, got {missing_policy!r}")


# Tokenizers differ on casing and leading spaces; these cover the common
# single-token variants.
DEFAULT_YES_ALIASES = frozenset({"Yes", " Yes", "yes", " yes"})
DEFAULT_NO_ALIASES = frozenset({"No", " No", "no", " no"})


@dataclass(frozen=True, slots=True)
class TokenDistribution:
    """Truncated top-K at one position: the alternative tokens, and the
    log-probability of each at the same index.

    Each token string is interned, so a token seen at many positions is one
    object; a ``str`` subclass is kept as given.
    """

    tokens: tuple[str, ...]
    logprobs: tuple[float, ...]

    def __post_init__(self):
        tokens, logprobs = tuple(self.tokens), tuple(self.logprobs)
        seen: set[str] = set()
        for token, logprob in zip(tokens, logprobs, strict=True):
            if not isinstance(token, str):
                raise MalformedResponse(f"top token {token!r} is not a string")
            if not logprob <= 0:  # NaN included
                raise MalformedResponse(f"logprob for token {token!r} is not <= 0: {logprob}")
            if token in seen:
                raise MalformedResponse(f"token {token!r} appears twice in one distribution")
            seen.add(token)
        object.__setattr__(self, "tokens", tuple([sys.intern(t) if type(t) is str else t for t in tokens]))
        object.__setattr__(self, "logprobs", logprobs)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[str, float]]) -> TokenDistribution:
        """The distribution of ``(token, logprob)`` pairs, in their order."""
        pairs = list(pairs)
        return cls([token for token, _ in pairs], [logprob for _, logprob in pairs])

    def mass(self, aliases: Container[str]) -> float:
        """Summed probability of the top-K tokens in ``aliases``, each alias
        of one answer; a sum that rounds past 1 is 1."""
        return self.masses(aliases, ())[0]

    def masses(self, first: Container[str], second: Container[str]) -> tuple[float, float]:
        """``mass`` of two alias sets, read in one pass over the top-K."""
        in_first, in_second = [], []
        for tok, lp in zip(self.tokens, self.logprobs):
            if tok in first:
                in_first.append(math.exp(lp))
            if tok in second:
                in_second.append(math.exp(lp))
        return min(math.fsum(in_first), 1.0), min(math.fsum(in_second), 1.0)


def _logsumexp(values: list[float]) -> float:
    m = max(values)
    if math.isinf(m) and m < 0:
        return m
    return m + math.log(math.fsum(math.exp(v - m) for v in values))


def normalized_confidence(candidates: Mapping[str, float], selected: str) -> float:
    """Selected candidate's probability renormalized over the candidate set,
    a ``{candidate: sequence log-probability}`` mapping.

    Computed as exp(lp_selected - logsumexp(all lps)); summing the result
    over every candidate as ``selected`` gives exactly 1. A set in which
    every candidate has probability 0 has no ratio, and raises.
    """
    if not candidates:
        raise InvalidInput("candidate set is empty")
    for candidate, logprob in candidates.items():
        if not logprob <= 0:  # NaN included
            raise InvalidLogProb(f"sequence_logprob for {candidate!r} is not <= 0: {logprob}")
    if selected not in candidates:
        raise InvalidInput(f"selected candidate {selected!r} not in candidate set")

    total = _logsumexp(list(candidates.values()))
    if total == -math.inf:
        raise InvalidLogProb("every candidate has log-probability -inf")
    return min(math.exp(candidates[selected] - total), 1.0)


def p_yes(dist: TokenDistribution) -> float:
    """Raw P(Yes): the probability mass on ``DEFAULT_YES_ALIASES``."""
    return dist.mass(DEFAULT_YES_ALIASES)


def self_eval_confidence(
    dist: TokenDistribution, missing_policy: str = "neutral"
) -> tuple[float, frozenset[str], float]:
    """Yes/No anchor-token confidence c_yes / (c_yes + c_no), the masses on
    ``DEFAULT_YES_ALIASES`` / ``DEFAULT_NO_ALIASES``, its flags
    (``anchor_missing_yes`` / ``anchor_missing_no`` for a mass of 0), and
    c_yes, the raw P(Yes) that ``p_yes`` gives.

    Tokens absent from the truncated distribution contribute probability 0.
    When both alias sets are entirely absent the missing policy decides:
    ``error`` raises, ``neutral`` gives 0.5 with ``fallback_neutral`` beside
    the two anchor flags; any other policy raises.
    """
    check_missing_policy(missing_policy)
    c_yes, c_no = dist.masses(DEFAULT_YES_ALIASES, DEFAULT_NO_ALIASES)
    flags = set()
    if c_yes == 0.0:
        flags.add("anchor_missing_yes")
    if c_no == 0.0:
        flags.add("anchor_missing_no")
    if c_yes == 0.0 and c_no == 0.0:
        if missing_policy == "error":
            raise AnchorTokensAbsent("no yes/no anchor token present in top-K")
        return 0.5, frozenset({*flags, "fallback_neutral"}), c_yes
    return c_yes / (c_yes + c_no), frozenset(flags), c_yes
