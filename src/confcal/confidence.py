"""Pure confidence arithmetic over truncated token distributions.

All probability products are carried as sums of log-probabilities and
normalized with a stable log-sum-exp, so candidate sets whose linear-space
probabilities underflow still produce correct ratios.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from enum import Enum

from .errors import (
    AnchorTokensAbsent,
    DuplicateCandidate,
    EmptySequence,
    InvalidLogProb,
    MalformedResponse,
    UnknownCandidate,
)

DEFAULT_TOP_K = 20

# Tokenizers differ on casing and leading spaces; these cover the common
# single-token variants.
DEFAULT_YES_ALIASES = frozenset({"Yes", " Yes", "yes", " yes"})
DEFAULT_NO_ALIASES = frozenset({"No", " No", "no", " no"})


class Method(str, Enum):
    CLASSIFICATION_NORMALIZED = "classification_normalized"
    SELF_EVAL = "self_eval"
    RAW = "raw"


class Flag(str, Enum):
    ANCHOR_MISSING_YES = "anchor_missing_yes"
    ANCHOR_MISSING_NO = "anchor_missing_no"
    FALLBACK_NEUTRAL = "fallback_neutral"
    SELF_EVAL_SKIPPED = "self_eval_skipped"


class MissingPolicy(str, Enum):
    ERROR = "error"
    NEUTRAL = "neutral"
    SKIP = "skip"


@dataclass(frozen=True)
class TokenDistribution:
    """Truncated top-K map from token to log-probability at one position."""

    entries: tuple[tuple[str, float], ...]
    _logprobs: dict[str, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        logprobs: dict[str, float] = {}
        for token, logprob in self.entries:
            if not isinstance(token, str):
                raise MalformedResponse(f"top token {token!r} is not a string")
            if not logprob <= 0:  # NaN included
                raise InvalidLogProb(f"logprob for token {token!r} is not <= 0: {logprob}")
            if token in logprobs:
                raise DuplicateCandidate(f"token {token!r} appears twice in one distribution")
            logprobs[token] = logprob
        object.__setattr__(self, "_logprobs", logprobs)

    def logprob(self, token: str) -> float | None:
        return self._logprobs.get(token)

    def probability(self, token: str) -> float:
        """Linear probability of ``token``; 0 when absent from the top-K."""
        lp = self.logprob(token)
        return math.exp(lp) if lp is not None else 0.0

    def mass(self, tokens: Iterable[str]) -> float:
        """Summed probability of ``tokens``, each alias of one answer."""
        return math.fsum(self.probability(tok) for tok in tokens)


@dataclass(frozen=True)
class ConfidenceScore:
    value: float
    flags: frozenset[Flag] = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "flags", frozenset(self.flags))
        if not 0.0 <= self.value <= 1.0:
            raise InvalidLogProb(f"confidence value out of [0,1]: {self.value}")
        if Flag.FALLBACK_NEUTRAL in self.flags and not (
            Flag.ANCHOR_MISSING_YES in self.flags and Flag.ANCHOR_MISSING_NO in self.flags
        ):
            raise AnchorTokensAbsent(
                "fallback_neutral flag requires both anchor_missing flags"
            )


def sequence_logprob(token_logprobs: list[float]) -> float:
    """Log of the product of token probabilities (sum of logs)."""
    if not token_logprobs:
        raise EmptySequence("token logprob list is empty")
    for lp in token_logprobs:
        if not lp <= 0:  # NaN included
            raise InvalidLogProb(f"token logprob is not <= 0: {lp}")
    return math.fsum(token_logprobs)


def _logsumexp(values: list[float]) -> float:
    m = max(values)
    if math.isinf(m) and m < 0:
        return m
    return m + math.log(math.fsum(math.exp(v - m) for v in values))


def normalized_confidence(candidates: Mapping[str, float], selected: str) -> ConfidenceScore:
    """Selected candidate's probability renormalized over the candidate set,
    a ``{candidate: sequence log-probability}`` mapping.

    Computed as exp(lp_selected - logsumexp(all lps)); summing the result
    over every candidate as ``selected`` gives exactly 1.
    """
    if not candidates:
        raise EmptySequence("candidate set is empty")
    for candidate, logprob in candidates.items():
        if not logprob <= 0:  # NaN included
            raise InvalidLogProb(f"sequence_logprob for {candidate!r} is not <= 0: {logprob}")
    if selected not in candidates:
        raise UnknownCandidate(f"selected candidate {selected!r} not in candidate set")

    total = _logsumexp(list(candidates.values()))
    value = math.exp(candidates[selected] - total)
    return ConfidenceScore(value=min(value, 1.0))


def p_yes(dist: TokenDistribution) -> float:
    """Raw P(Yes): the probability mass on ``DEFAULT_YES_ALIASES``."""
    return dist.mass(DEFAULT_YES_ALIASES)


def self_eval_confidence(
    dist: TokenDistribution, missing_policy: MissingPolicy = MissingPolicy.NEUTRAL
) -> ConfidenceScore:
    """Yes/No anchor-token confidence: c_yes / (c_yes + c_no), the masses on
    ``DEFAULT_YES_ALIASES`` / ``DEFAULT_NO_ALIASES``.

    Tokens absent from the truncated distribution contribute probability 0.
    When both alias sets are entirely absent the missing policy decides:
    ``error`` raises, ``neutral`` gives 0.5 with ``fallback_neutral`` beside
    the two anchor flags, and ``skip`` the same plus ``self_eval_skipped``.
    """
    c_yes = p_yes(dist)
    c_no = dist.mass(DEFAULT_NO_ALIASES)

    flags: set[Flag] = set()
    if c_yes == 0.0:
        flags.add(Flag.ANCHOR_MISSING_YES)
    if c_no == 0.0:
        flags.add(Flag.ANCHOR_MISSING_NO)

    if c_yes == 0.0 and c_no == 0.0:
        if missing_policy is MissingPolicy.ERROR:
            raise AnchorTokensAbsent("no yes/no anchor token present in top-K")
        flags.add(Flag.FALLBACK_NEUTRAL)
        if missing_policy is MissingPolicy.SKIP:
            flags.add(Flag.SELF_EVAL_SKIPPED)
        return ConfidenceScore(value=0.5, flags=frozenset(flags))

    return ConfidenceScore(value=c_yes / (c_yes + c_no), flags=frozenset(flags))
