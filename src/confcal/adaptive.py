"""Confidence-gated retrieval controller and threshold sweeps.

Pass 1 answers without context and self-evaluates; if that confidence
falls below the threshold, a second pass answers with retrieved context
and the higher-confidence answer wins. Both inequalities are strict:
a tie keeps the first answer, and a first-pass confidence equal to the
threshold does not retrieve.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate
from typing import NamedTuple

from .client import ModelClient, Readout
from .errors import InvalidInput, MalformedResponse, RetrievalMiss
from .harness import DatasetExample, is_correct, run_pool, truncate_context
from .metrics import retrieval_efficiency

# passages asked of an HTTP retriever, and its timeout in seconds
RETRIEVER_TOP_K = 5
RETRIEVER_TIMEOUT_S = 30.0


class StaticRetriever:
    """Serves pre-associated contexts by example id."""

    def __init__(self, contexts: dict[str, str]):
        self._contexts = dict(contexts)

    def retrieve(self, example: DatasetExample) -> str:
        try:
            return self._contexts[example.id]
        except KeyError:
            raise RetrievalMiss(f"no static context for example {example.id!r}") from None

    @classmethod
    def from_examples(cls, examples: list[DatasetExample]) -> "StaticRetriever":
        return cls({ex.id: ex.context for ex in examples if ex.context is not None})


class HTTPRetriever:
    """Thin client for a {"query", "top_k"} -> {"passages": [{"text"}]}
    endpoint; posts through a ``JSONPoster``."""

    def __init__(self, url: str):
        from .transport import JSONPoster  # the HTTP stack loads only for an HTTP retriever

        self.url = url
        self._poster = JSONPoster(url, timeout_s=RETRIEVER_TIMEOUT_S)

    def close(self) -> None:
        """Closes the idle connections."""
        self._poster.close()

    def retrieve(self, example: DatasetExample) -> str:
        reply = self._poster.post({"query": example.input, "top_k": RETRIEVER_TOP_K})
        passages = reply.get("passages") if isinstance(reply, dict) else None
        if not isinstance(passages, list) or not all(
            isinstance(p, dict) and isinstance(p.get("text"), str) for p in passages
        ):
            raise MalformedResponse(f"retriever reply from {self.url} lacks passages[].text strings")
        return "\n\n".join(p["text"] for p in passages)


@dataclass(frozen=True)
class AdaptiveOutcome:
    id: str
    first_answer: str
    first_conf: float
    retrieved: bool
    second_answer: str | None
    second_conf: float | None
    final_answer: str
    final_conf: float
    flags: frozenset[str] = field(default_factory=frozenset)


class SweepTable(NamedTuple):
    """The first-pass confidences, sorted, and at index i the (retrieval rate %, accuracy %,
    gain pp, efficiency or None) of the examples when the i least confident retrieve."""

    confs: list[float]
    cuts: list[tuple[float, float, float, float | None]]

    def cut_index(self, tau: float) -> int:
        """The index in ``cuts`` of tau's row: strict <, so a confidence equal to tau keeps pass 1."""
        return bisect_left(self.confs, tau)


def _first_pass(example: DatasetExample, client: ModelClient) -> Readout:
    return client.answer(example.input)


def _second_pass(example: DatasetExample, client: ModelClient, retriever) -> Readout | None:
    """The readout with retrieved context, or None on a retrieval miss."""
    try:
        context = truncate_context(retriever.retrieve(example))
    except RetrievalMiss:
        return None
    return client.answer(example.input, context)


def _retrieves(first_conf: float, tau: float) -> bool:
    """Retrieval runs only when the first pass is strictly below tau."""
    return first_conf < tau


def _swaps(first: Readout, second: Readout | None) -> bool:
    """The second answer replaces the first only when strictly more confident."""
    return second is not None and second.confidence > first.confidence


def answer_adaptive(
    example: DatasetExample, tau: float, client: ModelClient, retriever
) -> AdaptiveOutcome:
    first = _first_pass(example, client)
    flags = set(first.flags)
    retrieved = _retrieves(first.confidence, tau)
    second = None
    if retrieved:
        second = _second_pass(example, client, retriever)
        flags |= second.flags if second is not None else {"retrieval_miss"}
    final = second if _swaps(first, second) else first
    return AdaptiveOutcome(
        id=example.id,
        first_answer=first.answer,
        first_conf=first.confidence,
        retrieved=retrieved,
        second_answer=second.answer if second is not None else None,
        second_conf=second.confidence if second is not None else None,
        final_answer=final.answer,
        final_conf=final.confidence,
        flags=frozenset(flags),
    )


def sweep(
    examples: list[DatasetExample],
    taus: list[float],
    client: ModelClient,
    retriever,
    matcher: str,
    concurrency: int = 1,
) -> SweepTable:
    """The cut table of the examples, whose row at ``cut_index(tau)`` equals
    aggregating ``answer_adaptive`` over the examples at threshold tau.

    All first passes run, then the second passes of the examples whose
    first-pass confidence is below ``max(taus)``: at most 2n passes, on
    ``concurrency`` threads. Each answer is matched at most once. With the
    examples sorted by first-pass confidence, the examples that retrieve at
    tau are the prefix with confidence < tau, so there are n+1 cut points.
    A prefix sum of what retrieval changes gives each cut point's rate,
    accuracy, gain and efficiency, in O(n) after the O(n log n) sort; each
    tau is one bisection into that table, which holds for taus up to ``max(taus)``.
    """
    if not taus:
        raise InvalidInput("tau list is empty")
    if not examples:
        raise InvalidInput("example list is empty")

    first = run_pool(lambda ex: _first_pass(ex, client), examples, concurrency)
    max_tau = max(taus)
    gated = [i for i, readout in enumerate(first) if _retrieves(readout.confidence, max_tau)]
    second = run_pool(lambda i: _second_pass(examples[i], client, retriever), gated, concurrency)

    n = len(examples)
    first_correct = [
        is_correct(readout.answer, ex.gold, matcher) for ex, readout in zip(examples, first)
    ]
    baseline_correct = sum(first_correct)
    baseline_acc_pct = 100.0 * baseline_correct / n

    # change in the number correct when example i retrieves
    delta = [0] * n
    for i, readout in zip(gated, second):
        if _swaps(first[i], readout):
            delta[i] = is_correct(readout.answer, examples[i].gold, matcher) - first_correct[i]

    order = sorted(range(n), key=lambda i: first[i].confidence)
    confs = [first[i].confidence for i in order]
    # (rate, accuracy, gain, efficiency) when the ``retrieved`` least confident examples retrieve
    cuts = []
    for retrieved, changed in enumerate(accumulate((delta[i] for i in order), initial=0)):
        rate_pct = 100.0 * retrieved / n
        acc_pct = 100.0 * (baseline_correct + changed) / n
        gain_pp = acc_pct - baseline_acc_pct
        eff = retrieval_efficiency(gain_pp, rate_pct) if rate_pct > 0 else None
        cuts.append((rate_pct, acc_pct, gain_pp, eff))
    return SweepTable(confs, cuts)
