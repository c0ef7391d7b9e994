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

from .client import JSONPoster, ModelClient
from .errors import MalformedResponse, RetrievalMiss
from .harness import DatasetExample, answer_and_self_evaluate, is_correct, run_pool
from .metrics import retrieval_efficiency


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
    endpoint; posts through a ``JSONPoster`` of ``pool_size`` connections."""

    def __init__(self, url: str, top_k: int = 5, timeout_s: float = 30.0, pool_size: int = 1):
        self.url = url
        self.top_k = top_k
        self._poster = JSONPoster(url, timeout_s=timeout_s, pool_size=pool_size)

    def close(self) -> None:
        """Closes the pooled connections."""
        self._poster.close()

    def retrieve(self, example: DatasetExample) -> str:
        reply = self._poster.post({"query": example.input, "top_k": self.top_k})
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


@dataclass(frozen=True)
class SweepRow:
    tau: float
    retrieval_rate_pct: float
    accuracy_pct: float
    gain_pp: float
    efficiency: float | None


def _first_pass(example: DatasetExample, client: ModelClient) -> tuple[str, float, set[str]]:
    answer, conf, flags, _ = answer_and_self_evaluate(client, example.input)
    return answer, conf, flags


def _second_pass(
    example: DatasetExample, client: ModelClient, retriever
) -> tuple[str | None, float | None, set[str]]:
    try:
        context = retriever.retrieve(example)
    except RetrievalMiss:
        return None, None, {"retrieval_miss"}
    answer, conf, flags, _ = answer_and_self_evaluate(client, example.input, context)
    return answer, conf, flags


def _retrieves(first_conf: float, tau: float) -> bool:
    """Retrieval runs only when the first pass is strictly below tau."""
    return first_conf < tau


def _swaps(first_conf: float, second_answer: str | None, second_conf: float | None) -> bool:
    """The second answer replaces the first only when strictly more confident."""
    return second_answer is not None and second_conf > first_conf


def answer_adaptive(
    example: DatasetExample, tau: float, client: ModelClient, retriever
) -> AdaptiveOutcome:
    first_answer, first_conf, flags = _first_pass(example, client)
    retrieved = _retrieves(first_conf, tau)
    second_answer, second_conf = None, None
    if retrieved:
        second_answer, second_conf, extra = _second_pass(example, client, retriever)
        flags |= extra
    swapped = _swaps(first_conf, second_answer, second_conf)
    return AdaptiveOutcome(
        id=example.id,
        first_answer=first_answer,
        first_conf=first_conf,
        retrieved=retrieved,
        second_answer=second_answer,
        second_conf=second_conf,
        final_answer=second_answer if swapped else first_answer,
        final_conf=second_conf if swapped else first_conf,
        flags=frozenset(flags),
    )


def sweep(
    examples: list[DatasetExample],
    taus: list[float],
    client: ModelClient,
    retriever,
    matcher: str,
    concurrency: int = 1,
) -> list[SweepRow]:
    """One row per threshold, each equal to aggregating ``answer_adaptive``
    over the examples at that threshold.

    All first passes run, then the second passes of the examples whose
    first-pass confidence is below ``max(taus)``: at most 2n passes, on
    ``concurrency`` threads. Each answer is matched at most once. With the
    examples sorted by first-pass confidence, the examples that retrieve at
    tau are the prefix with confidence < tau, so each row is one bisection
    into a prefix sum of what retrieval changes: O(n log n + T) in all.
    """
    if not taus:
        raise ValueError("tau list is empty")
    if not examples:
        raise ValueError("example list is empty")

    first = run_pool(lambda ex: _first_pass(ex, client), examples, concurrency, client)
    max_tau = max(taus)
    gated = [i for i, (_, conf, _) in enumerate(first) if _retrieves(conf, max_tau)]
    # An HTTP retriever waits on the network even when the cache holds every
    # answer, so that pass starts all its threads at once.
    second = run_pool(
        lambda i: _second_pass(examples[i], client, retriever),
        gated,
        concurrency,
        None if isinstance(retriever, HTTPRetriever) else client,
    )

    n = len(examples)
    first_correct = [
        is_correct(answer, ex.gold, matcher) for ex, (answer, _, _) in zip(examples, first)
    ]
    baseline_correct = sum(first_correct)
    baseline_acc_pct = 100.0 * baseline_correct / n

    # change in the number correct when example i retrieves
    delta = [0] * n
    for i, (second_answer, second_conf, _) in zip(gated, second):
        if _swaps(first[i][1], second_answer, second_conf):
            delta[i] = is_correct(second_answer, examples[i].gold, matcher) - first_correct[i]

    order = sorted(range(n), key=lambda i: first[i][1])
    confs = [first[i][1] for i in order]
    prefix = [0, *accumulate(delta[i] for i in order)]

    rows: list[SweepRow] = []
    for tau in taus:
        retrieved = bisect_left(confs, tau)  # strict <: a confidence equal to tau keeps pass 1
        rate_pct = 100.0 * retrieved / n
        acc_pct = 100.0 * (baseline_correct + prefix[retrieved]) / n
        gain_pp = acc_pct - baseline_acc_pct
        eff = retrieval_efficiency(gain_pp, rate_pct) if rate_pct > 0 else None
        rows.append(
            SweepRow(
                tau=tau,
                retrieval_rate_pct=rate_pct,
                accuracy_pct=acc_pct,
                gain_pp=gain_pp,
                efficiency=eff,
            )
        )
    return rows
