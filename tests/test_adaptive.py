"""Tests for the confidence-gated retrieval controller and sweeps."""

import csv
import hashlib
import io
import json
import math
import random
import threading
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from confcal.adaptive import (
    HTTPRetriever,
    StaticRetriever,
    _first_pass,
    _second_pass,
    answer_adaptive,
    sweep,
)
from confcal import client as client_module
from confcal.cli import EXIT_ENDPOINT, EXIT_OK, _fmt, main
from confcal.client import HTTPBackend, MockBackend, ModelClient, Readout, ResponseCache, request_digest
from confcal.errors import InvalidInput, NoNumberFound, RetrievalMiss
from confcal.harness import DatasetExample, TaskSpec, load_dataset, match_answer, run_eval
from confcal.metrics import retrieval_efficiency

from conftest import (
    HTML,
    ChatStub,
    CountingClient,
    MemoryCache,
    PureBackend,
    SweepRow,
    answer_entry,
    closes_everything,
    sweep_rows,
    thread_starts,
    yes_no_entry,
)


def example(i="e0", gold="Paris", context="the retrieved passage"):
    return DatasetExample(id=i, input="capital of France?", gold=gold, context=context)


def scripted(*entries):
    return ModelClient(MockBackend(list(entries)))


class TestAnswerAdaptive:
    def test_confident_first_pass_skips_retrieval(self):
        client = scripted(answer_entry("Paris"), yes_no_entry(0.95, 0.01))
        outcome = answer_adaptive(example(), tau=0.7, client=client, retriever=None)
        assert not outcome.retrieved
        assert outcome.final_answer == "Paris"
        assert outcome.final_conf == outcome.first_conf

    def test_second_pass_wins_on_higher_confidence(self):
        client = scripted(
            answer_entry("Lyon"),
            yes_no_entry(0.3, 0.7),  # first conf 0.3
            answer_entry("Paris"),
            yes_no_entry(0.8, 0.2),  # second conf 0.8
        )
        retriever = StaticRetriever({"e0": "passage"})
        outcome = answer_adaptive(example(), tau=0.7, client=client, retriever=retriever)
        assert outcome.retrieved
        assert outcome.final_answer == "Paris"
        assert outcome.final_conf == pytest.approx(0.8)

    def test_rejected_retrieval_keeps_first_answer(self):
        client = scripted(
            answer_entry("Lyon"),
            yes_no_entry(0.3, 0.7),
            answer_entry("Nice"),
            yes_no_entry(0.2, 0.8),  # second conf 0.2 < first 0.3
        )
        retriever = StaticRetriever({"e0": "passage"})
        outcome = answer_adaptive(example(), tau=0.7, client=client, retriever=retriever)
        assert outcome.retrieved
        assert outcome.final_answer == "Lyon"
        assert outcome.final_conf == pytest.approx(0.3)

    def test_tie_keeps_first_answer(self):
        client = scripted(
            answer_entry("Lyon"),
            yes_no_entry(0.3, 0.7),
            answer_entry("Paris"),
            yes_no_entry(0.3, 0.7),  # exact tie
        )
        retriever = StaticRetriever({"e0": "passage"})
        outcome = answer_adaptive(example(), tau=0.9, client=client, retriever=retriever)
        assert outcome.final_answer == "Lyon"

    def test_tau_equal_to_conf_does_not_retrieve(self):
        client = scripted(answer_entry("Lyon"), yes_no_entry(0.3, 0.7))
        outcome = answer_adaptive(example(), tau=0.3, client=client, retriever=None)
        assert not outcome.retrieved

    def test_retrieval_miss_falls_back_flagged(self):
        client = scripted(answer_entry("Lyon"), yes_no_entry(0.3, 0.7))
        retriever = StaticRetriever({})
        outcome = answer_adaptive(example(), tau=0.9, client=client, retriever=retriever)
        assert outcome.retrieved
        assert outcome.second_answer is None
        assert outcome.final_answer == "Lyon"
        assert "retrieval_miss" in outcome.flags

    @pytest.mark.parametrize(
        "policy, flags",
        [
            ("neutral", {"fallback_neutral", "anchor_missing_yes", "anchor_missing_no"}),
        ],
    )
    def test_second_pass_anchorless_self_eval_is_flagged(self, policy, flags):
        client = ModelClient(
            MockBackend(
                [
                    answer_entry("Lyon"),
                    yes_no_entry(0.3, 0.7),
                    answer_entry("Paris"),
                    yes_no_entry(0.0, 0.0),  # neither Yes nor No in the top-K
                ]
            ),
            missing_policy=policy,
        )
        retriever = StaticRetriever({"e0": "passage"})
        outcome = answer_adaptive(example(), tau=0.9, client=client, retriever=retriever)
        assert outcome.second_conf == 0.5
        assert outcome.flags == flags

    def test_final_conf_is_max_when_retrieved(self):
        client = scripted(
            answer_entry("Lyon"),
            yes_no_entry(0.2, 0.8),
            answer_entry("Paris"),
            yes_no_entry(0.9, 0.05),
        )
        retriever = StaticRetriever({"e0": "p"})
        outcome = answer_adaptive(example(), tau=0.5, client=client, retriever=retriever)
        assert outcome.final_conf == pytest.approx(
            max(outcome.first_conf, outcome.second_conf)
        )


def four_example_script():
    """2 of 4 examples answer wrong at conf 0.4; retrieval flips them at 0.9."""
    entries = []
    # pass 1, in example order e0..e3
    for i in range(4):
        if i < 2:
            entries.append(answer_entry("Lyon"))
            entries.append(yes_no_entry(0.4, 0.6))
        else:
            entries.append(answer_entry("Paris"))
            entries.append(yes_no_entry(0.95, 0.01))
    # pass 2 in example order (the largest tau retrieves everything)
    for _ in range(4):
        entries.append(answer_entry("Paris"))
        entries.append(yes_no_entry(0.9, 0.05))
    return entries


def four_examples():
    return [example(i=f"e{i}") for i in range(4)]


class TestSweep:
    def test_hand_traced_scenario(self):
        client = ModelClient(MockBackend(four_example_script()))
        retriever = StaticRetriever({f"e{i}": "passage" for i in range(4)})
        taus = [0.0, 0.5, 1.01]
        rows = sweep_rows(sweep(four_examples(), taus, client, retriever, "substring"), taus)

        by_tau = {row.tau: row for row in rows}
        assert by_tau[0.0].retrieval_rate_pct == 0.0
        assert by_tau[0.0].gain_pp == 0.0
        assert by_tau[0.0].efficiency is None

        assert by_tau[0.5].retrieval_rate_pct == pytest.approx(50.0)
        assert by_tau[0.5].gain_pp == pytest.approx(50.0)
        assert by_tau[0.5].efficiency == pytest.approx(1.0)

        assert by_tau[1.01].retrieval_rate_pct == pytest.approx(100.0)

    def test_rate_monotone_in_tau(self):
        client = ModelClient(MockBackend(four_example_script()))
        retriever = StaticRetriever({f"e{i}": "passage" for i in range(4)})
        taus = [0.0, 0.1, 0.41, 0.5, 0.96, 1.01]
        rows = sweep_rows(sweep(four_examples(), taus, client, retriever, "substring"), taus)
        rates = [row.retrieval_rate_pct for row in rows]
        assert rates == sorted(rates)

    def test_pass1_calls_equal_example_count(self):
        client = CountingClient(MockBackend(four_example_script()))
        retriever = StaticRetriever({f"e{i}": "passage" for i in range(4)})
        sweep(four_examples(), [0.0, 0.3, 0.5, 0.7, 1.01], client, retriever, "substring")
        assert client.pass1_generations == 4

    def test_second_pass_tie_never_degrades(self):
        # model repeats its first answer with the same confidence on retry
        entries = []
        for _ in range(3):
            entries.append(answer_entry("Paris"))
            entries.append(yes_no_entry(0.4, 0.6))
        for _ in range(3):
            entries.append(answer_entry("Paris"))
            entries.append(yes_no_entry(0.4, 0.6))
        client = ModelClient(MockBackend(entries))
        retriever = StaticRetriever({f"e{i}": "" for i in range(3)})
        examples = [example(i=f"e{i}") for i in range(3)]
        taus = [0.0, 0.5, 1.01]
        rows = sweep_rows(sweep(examples, taus, client, retriever, "substring"), taus)
        baseline = rows[0].accuracy_pct
        assert all(row.accuracy_pct == baseline for row in rows)

    def test_empty_taus_rejected(self):
        with pytest.raises(InvalidInput, match="tau list is empty"):
            sweep(four_examples(), [], None, None, "substring")

    def test_empty_examples_rejected(self):
        with pytest.raises(InvalidInput, match="example list is empty"):
            sweep([], [0.5], None, None, "substring")


def _correct(answer, gold, matcher="numeric"):
    try:
        return match_answer(answer, gold, matcher)
    except NoNumberFound:
        return False


def brute_force_sweep(examples, taus, client, retriever, matcher):
    """Oracle: decides the gate and the swap for every example again at every
    tau, and matches every final answer again, in O(n*T)."""
    first = {ex.id: _first_pass(ex, client) for ex in examples}
    second = {
        ex.id: _second_pass(ex, client, retriever)
        for ex in examples
        if first[ex.id].confidence < max(taus)
    }
    n = len(examples)
    baseline_acc_pct = 100.0 * sum(_correct(first[ex.id].answer, ex.gold, matcher) for ex in examples) / n
    rows = []
    for tau in taus:
        retrieved = correct = 0
        for ex in examples:
            final_answer, first_conf = first[ex.id].answer, first[ex.id].confidence
            if first_conf < tau:
                retrieved += 1
                second_pass = second[ex.id]
                if second_pass is not None and second_pass.confidence > first_conf:
                    final_answer = second_pass.answer
            correct += _correct(final_answer, ex.gold, matcher)
        rate_pct = 100.0 * retrieved / n
        acc_pct = 100.0 * correct / n
        gain_pp = acc_pct - baseline_acc_pct
        eff = retrieval_efficiency(gain_pp, rate_pct) if rate_pct > 0 else None
        rows.append(SweepRow(tau, rate_pct, acc_pct, gain_pp, eff))
    return rows


class TableClient:
    """Stands in for ModelClient: answer and self-evaluation confidence are
    looked up by (question, context)."""

    def __init__(self, table):
        self.table = table

    def answer(self, question, context=None):
        answer, conf = self.table[question, context]
        return Readout(answer, conf, frozenset(), conf)


# Confidences and taus share one grid so that ties between them, and between
# the two passes, are common.
GRID = (0.0, 0.25, 0.5, 0.75, 1.0)
# "42" is right; the others are wrong, one of them for carrying no number.
ANSWERS = ("42", "41", "it is 42", "no idea")
passes = st.tuples(st.sampled_from(ANSWERS), st.sampled_from(GRID))


def table_run(plan):
    """Examples, client and retriever of ``plan``, which holds (first pass,
    second pass or None for a retrieval miss) per example."""
    table, contexts, examples = {}, {}, []
    for i, (first, second) in enumerate(plan):
        examples.append(DatasetExample(id=f"e{i}", input=f"q{i}", gold="42"))
        table[f"q{i}", None] = first
        if second is not None:
            contexts[f"e{i}"] = f"passage {i}"
            table[f"q{i}", f"passage {i}"] = second
    return examples, TableClient(table), StaticRetriever(contexts)


# Confidences off the grid as well, so that cut points are many and uneven.
wide_passes = st.tuples(st.sampled_from(ANSWERS), st.sampled_from(GRID) | st.floats(0.0, 1.0))


class TestSweepProperties:
    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(
        st.lists(st.tuples(passes, st.none() | passes), min_size=1, max_size=12),
        st.lists(st.sampled_from(GRID + (-0.5, 0.3, 1.5, -math.inf, math.inf)), min_size=1, max_size=8),
    )
    def test_rows_equal_per_tau_answer_adaptive(self, plan, taus):
        """``plan`` holds (first pass, second pass or None for a retrieval
        miss) per example; ``taus`` come unsorted and may repeat, and may be
        infinite, as ``--taus`` accepts."""
        examples, client, retriever = table_run(plan)
        n = len(examples)

        with mock.patch("confcal.harness.match_answer", wraps=match_answer) as matched:
            rows = sweep_rows(sweep(examples, taus, client, retriever, "numeric"), taus)
        assert n <= matched.call_count <= 2 * n

        assert rows == brute_force_sweep(examples, taus, client, retriever, "numeric")
        assert [row.tau for row in rows] == taus
        for row in rows:
            outcomes = [answer_adaptive(ex, row.tau, client, retriever) for ex in examples]
            retrieved = sum(outcome.retrieved for outcome in outcomes)
            correct = sum(_correct(outcome.final_answer, "42") for outcome in outcomes)
            assert row.retrieval_rate_pct == 100.0 * retrieved / n
            assert row.accuracy_pct == 100.0 * correct / n

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(
        st.lists(st.tuples(wide_passes, st.none() | wide_passes), min_size=1, max_size=12),
        st.lists(st.sampled_from(GRID + (-0.5, 1.5, -math.inf, math.inf)) | st.floats(-0.1, 1.1), max_size=48),
        st.randoms(use_true_random=False),
    )
    def test_many_more_taus_than_examples(self, plan, extra, rng):
        """Up to 60 taus, among them every first-pass confidence, so that
        each tie between a tau and a confidence is met; most cut points
        serve many taus."""
        examples, client, retriever = table_run(plan)
        taus = [first[1] for first, _ in plan] + extra
        rng.shuffle(taus)
        rows = sweep_rows(sweep(examples, taus, client, retriever, "numeric"), taus)
        assert rows == brute_force_sweep(examples, taus, client, retriever, "numeric")


class RecordingBackend(MockBackend):
    """In-order mock that notes the digest of each request it answers."""

    def __init__(self, entries):
        super().__init__(entries)
        self.digests = []

    def complete(self, request):
        self.digests.append(request_digest(request))
        return super().complete(request)


class OverlapBackend(MockBackend):
    """Holds its first call until a second one arrives: a run that never has
    two calls in flight fails with BrokenBarrierError."""

    def __init__(self, entries):
        super().__init__(entries)
        self._barrier = threading.Barrier(2, timeout=10)
        self._calls = 0
        self._calls_lock = threading.Lock()

    def complete(self, request):
        with self._calls_lock:
            self._calls += 1
            call = self._calls
        if call <= 2:
            self._barrier.wait()
        return super().complete(request)


class TestSweepConcurrency:
    def test_pool_rows_equal_serial_rows(self):
        n = 24
        entries = []
        for i in range(n):  # pass 1
            entries.append(answer_entry("Paris" if i % 3 == 0 else "Lyon"))
            entries.append(yes_no_entry(0.1 + 0.03 * i, 0.9 - 0.03 * i))
        for i in range(n):  # pass 2: tau 1.01 retrieves everything
            entries.append(answer_entry("Paris" if i % 2 else "Nice"))
            entries.append(yes_no_entry(0.2 + 0.025 * i, 0.8 - 0.025 * i))
        examples = [DatasetExample(id=f"e{i}", input=f"q{i}?", gold="Paris") for i in range(n)]
        retriever = StaticRetriever({f"e{i}": f"passage {i}" for i in range(n)})
        taus = [0.0, 0.2, 0.35, 0.5, 0.75, 1.01]

        recorder = RecordingBackend(entries)
        in_order = sweep_rows(sweep(examples, taus, ModelClient(recorder), retriever, "substring"), taus)
        keyed = [dict(entry, digest=d) for entry, d in zip(entries, recorder.digests)]

        serial = sweep_rows(sweep(examples, taus, ModelClient(MockBackend(keyed)), retriever, "substring"), taus)
        pooled = sweep_rows(
            sweep(examples, taus, ModelClient(OverlapBackend(keyed)), retriever, "substring", concurrency=4), taus
        )
        assert pooled == serial == in_order
        assert 0 < in_order[3].retrieval_rate_pct < 100


def pure_examples(n):
    examples = [
        DatasetExample(id=f"e{i}", input=f"q{i}?", gold="answer 1", context=f"passage {i}")
        for i in range(n)
    ]
    return examples, StaticRetriever.from_examples(examples)


PURE_TASK = TaskSpec(task_id="pure", kind="generation", matcher="substring")
PURE_TAUS = [0.0, 0.3, 0.6, 1.01]


class TestLazyPool:
    """Pool threads start at the first backend call, so a run that the cache
    serves in full stays on the calling thread."""

    def test_cached_sweep_starts_no_thread(self):
        examples, retriever = pure_examples(12)
        cache = MemoryCache()
        cold = sweep(
            examples, PURE_TAUS, ModelClient(PureBackend(), cache=cache), retriever, "substring"
        )
        backend = PureBackend()
        client = ModelClient(backend, cache=cache)
        with thread_starts() as started:
            warm = sweep(examples, PURE_TAUS, client, retriever, "substring", concurrency=8)
        assert started == [] and backend.calls == 0
        assert warm == cold

    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=10), st.data())
    def test_partly_cached_runs_equal_serial(self, n, data):
        examples, retriever = pure_examples(n)
        full = MemoryCache()
        full_client = ModelClient(PureBackend(), cache=full)
        sweep(examples, PURE_TAUS, full_client, retriever, "substring")
        run_eval(PURE_TASK, examples, full_client)
        size = len(full)
        keep = data.draw(st.just([True] * size) | st.lists(st.booleans(), min_size=size, max_size=size))
        cached = {d: r for (d, r), k in zip(sorted(full.items()), keep) if k}

        def run(concurrency):
            backend = PureBackend()
            client = ModelClient(backend, cache=MemoryCache(cached))
            with thread_starts() as started:
                rows = sweep(examples, PURE_TAUS, client, retriever, "substring", concurrency)
                records, _ = run_eval(PURE_TASK, examples, client, concurrency=concurrency)
            return rows, records, backend.calls, started

        serial_rows, serial_records, serial_calls, _ = run(1)
        rows, records, calls, started = run(4)
        assert rows == serial_rows and records == serial_records
        assert calls == serial_calls == len(full) - len(cached)
        # Every pool here has n items: tau 1.01 retrieves them all, and the
        # eval sends the first pass's requests again.
        assert bool(started) == (calls > 0 and n > 1)


class TestDigestCalls:
    def test_cold_and_warm_sweeps_each_digest_4n_requests(self, monkeypatch):
        """Every request is digested once, by ``ModelClient.complete``
        through the module attribute (which the benchmark's tracer wraps):
        two requests per pass, two passes per example when every example
        retrieves. The backend here digests through its own import."""
        n = 9
        examples, retriever = pure_examples(n)
        digested = []
        real = client_module.request_digest

        def counting(request):
            digested.append(request)
            return real(request)

        monkeypatch.setattr(client_module, "request_digest", counting)
        cache = MemoryCache()
        backend = PureBackend()
        cold = sweep_rows(sweep(examples, [1.01], ModelClient(backend, cache=cache), retriever, "substring"), [1.01])
        assert cold[0].retrieval_rate_pct == 100.0 and backend.calls == 4 * n
        assert len(digested) == 4 * n
        digested.clear()
        warm = sweep_rows(
            sweep(examples, [1.01], ModelClient(PureBackend(), cache=cache), retriever, "substring"), [1.01]
        )
        assert len(digested) == 4 * n and warm == cold


def passages_reply(*texts):
    return 200, {"Content-Type": "application/json"}, json.dumps(
        {"passages": [{"text": t} for t in texts]}
    ).encode()


def pure_chat_reply(request):
    """A chat-completions reply that is a function of the request alone: the
    answer is right when the prompt carries a passage and otherwise on half
    of the digests, and the Yes probability of a self-evaluation follows the
    digest."""
    n = int(hashlib.sha256(json.dumps(request, sort_keys=True).encode()).hexdigest()[:8], 16)
    if request["max_tokens"] > 1:
        right = "passage" in request["messages"][0]["content"] or n % 2
        top = [{"token": "Paris" if right else "Lyon", "logprob": -0.01}]
    else:
        p_yes = (n % 97 + 1) / 99
        top = [{"token": "Yes", "logprob": math.log(p_yes)}, {"token": "No", "logprob": math.log(1 - p_yes)}]
    content = [{"token": top[0]["token"], "top_logprobs": top}]
    body = {"choices": [{"logprobs": {"content": content}, "finish_reason": "stop"}]}
    return 200, {"Content-Type": "application/json"}, json.dumps(body).encode()


def sweep_config(tmp_path, base_url, n, retriever_url=None):
    """A generation sweep over ``n`` examples whose dataset context for
    input q is "passage about q"."""
    dataset = tmp_path / "data.jsonl"
    dataset.write_text(
        "".join(
            json.dumps({"id": f"e{i}", "input": f"q{i}?", "gold": "Paris", "context": f"passage about q{i}?"}) + "\n"
            for i in range(n)
        )
    )
    task = tmp_path / "task.json"
    task.write_text(json.dumps({"task_id": "t", "kind": "generation", "matcher": "substring"}))
    config = tmp_path / "run.conf"
    config.write_text(
        f"base_url = {base_url}\ntask_spec = {task}\ndataset = {dataset}\nconcurrency = 4\n"
        + (f"retriever_url = {retriever_url}\n" if retriever_url else "")
    )
    return config


@closes_everything
@pytest.mark.usefixtures("plain_env")
class TestRetrievers:
    def test_static_miss_raises(self):
        with pytest.raises(RetrievalMiss):
            StaticRetriever({}).retrieve(example())

    def test_static_from_examples(self):
        retriever = StaticRetriever.from_examples([example(i="a", context="ctx")])
        assert retriever.retrieve(example(i="a")) == "ctx"

    def test_http_retriever_wire_format(self):
        with ChatStub(default=passages_reply("p1", "p2")) as stub:
            retriever = HTTPRetriever(stub.url)
            context = retriever.retrieve(example())
            retriever.close()
        assert stub.bodies[0] == {"query": "capital of France?", "top_k": 5}
        assert context == "p1\n\np2"

    def test_http_retriever_retries_429_after_retry_after(self, sleeps):
        with ChatStub([(429, {"Retry-After": "2"}, b"slow down")], default=passages_reply("p")) as stub:
            retriever = HTTPRetriever(stub.url)
            assert retriever.retrieve(example()) == "p"
            retriever.close()
        assert len(stub.bodies) == 2
        assert sleeps == [2.0]

    def test_warm_sweep_keeps_every_retrieval_in_flight(self):
        """With every answer in the cache, the retrievals are the only waits,
        and they start the pool: the first ``concurrency`` of them wait for
        each other at the stub."""
        n, concurrency = 12, 4
        examples = [DatasetExample(id=f"e{i}", input=f"q{i}?", gold="answer 1") for i in range(n)]
        cache = MemoryCache()
        static = StaticRetriever({ex.id: f"passage about {ex.input}" for ex in examples})
        cold = sweep(examples, PURE_TAUS, ModelClient(PureBackend(), cache=cache), static, "substring")
        gate = threading.Barrier(concurrency, timeout=10)
        queries = []
        lock = threading.Lock()

        def reply(request):
            with lock:
                queries.append(request["query"])
                gated = len(queries) <= concurrency
            if gated:
                gate.wait()
            return passages_reply(f"passage about {request['query']}")

        backend = PureBackend()
        with ChatStub(default=reply) as stub:
            retriever = HTTPRetriever(stub.url)
            client = ModelClient(backend, cache=cache)
            warm = sweep(examples, PURE_TAUS, client, retriever, "substring", concurrency)
            retriever.close()
        assert not gate.broken
        assert sorted(queries) == sorted(ex.input for ex in examples)  # tau 1.01 retrieves all
        assert backend.calls == 0 and warm == cold

    def test_cli_sweep_through_retriever_equals_static_sweep(self, tmp_path):
        with ChatStub(default=pure_chat_reply) as backend, ChatStub(
            default=lambda request: passages_reply(f"passage about {request['query']}")
        ) as retriever:
            for name, url in (("static", None), ("remote", retriever.url)):
                config = sweep_config(tmp_path, backend.url, 12, retriever_url=url)
                argv = ["sweep", "--config", str(config), "--taus", "0.0,0.3,0.6,1.01"]
                assert main(argv + ["--output-dir", str(tmp_path / name)]) == EXIT_OK
        static_csv = (tmp_path / "static" / "sweep.csv").read_text()
        assert (tmp_path / "remote" / "sweep.csv").read_text() == static_csv
        assert len(retriever.bodies) == 12  # tau 1.01 retrieves for every example
        assert any(float(row.split(",")[3]) > 0 for row in static_csv.splitlines()[1:])

    def test_retrieved_passage_is_cut_to_the_context_budget(self, tmp_path):
        passage = "p" * 10_000
        with ChatStub(default=pure_chat_reply) as backend, ChatStub(default=passages_reply(passage)) as retriever:
            config = sweep_config(tmp_path, backend.url, 1, retriever_url=retriever.url)
            argv = ["sweep", "--config", str(config), "--taus", "1.01", "--output-dir", str(tmp_path / "out")]
            assert main(argv) == EXIT_OK
        answers = [b for b in backend.bodies if b["max_tokens"] > 1 and "p" * 100 in b["messages"][0]["content"]]
        assert [b["messages"][0]["content"] for b in answers] == ["p" * 8000 + "\n\nq0?"]

    @pytest.mark.parametrize(
        "reply, message",
        [
            ((200, {}, b'{"passages": [{"body": "x"}]}'), "lacks passages"),
            ((200, {}, b'{"passages": "abc"}'), "lacks passages"),
            ((200, {}, b'{"passages": [{"text": 3}]}'), "lacks passages"),
            ((200, {}, b"[1]"), "lacks passages"),
            (HTML, "response is not JSON"),
        ],
        ids=["no-text", "not-a-list", "text-not-a-string", "not-an-object", "not-json"],
    )
    def test_malformed_retriever_reply_is_one_endpoint_error(self, tmp_path, capsys, reply, message):
        with ChatStub(default=pure_chat_reply) as backend, ChatStub(default=reply) as retriever:
            config = sweep_config(tmp_path, backend.url, 3, retriever_url=retriever.url)
            code = main(["sweep", "--config", str(config), "--taus", "1.01", "--output-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == EXIT_ENDPOINT
        assert err.startswith("endpoint error:") and len(err.splitlines()) == 1
        assert message in err
        assert not (tmp_path / "out" / "sweep.csv").exists()


@closes_everything
@pytest.mark.usefixtures("plain_env")
class TestSweepCsv:
    def test_csv_equals_brute_force_rows_rendered_row_by_row(self, tmp_path):
        """With far more taus than examples, among them every first-pass
        confidence, ``sweep.csv`` is each oracle row's fields formatted one
        by one."""
        n = 12
        cache = tmp_path / "cache.jsonl"
        with ChatStub(default=pure_chat_reply) as stub:
            config = sweep_config(tmp_path, stub.url, n)
            argv = ["sweep", "--config", str(config), "--cache-path", str(cache)]
            assert main(argv + ["--taus", "1.01", "--output-dir", str(tmp_path / "fill")]) == EXIT_OK
            client = ModelClient(HTTPBackend(stub.url), cache=ResponseCache(cache))
            examples = load_dataset(tmp_path / "data.jsonl", TaskSpec(task_id="t", kind="generation", matcher="substring"))
            retriever = StaticRetriever.from_examples(examples)
            taus = [_first_pass(ex, client).confidence for ex in examples]
            taus += [i / 100 - 0.05 for i in range(111)]
            random.Random(3).shuffle(taus)
            flag = "--taus=" + ",".join(map(repr, taus))
            assert main(argv + [flag, "--output-dir", str(tmp_path / "out")]) == EXIT_OK
            rows = brute_force_sweep(examples, taus, client, retriever, "substring")
            client.close()
            requests = len(stub.bodies)
        assert requests == 4 * n  # the second sweep and the oracle read the cache
        text = io.StringIO()
        writer = csv.writer(text)
        writer.writerow(["tau", "retrieval_pct", "accuracy_pct", "gain_pp", "efficiency"])
        writer.writerows([_fmt(v) for v in row] for row in rows)
        assert (tmp_path / "out" / "sweep.csv").read_bytes() == text.getvalue().encode()
        assert 0 < len({row.retrieval_rate_pct for row in rows}) < len(rows)
        assert any(row.gain_pp > 0 for row in rows)
