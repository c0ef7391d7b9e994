"""Tests for the chat-completion client, mock backend, and cache."""

import contextlib
import json
import math
import sys
import threading
from concurrent.futures import Future
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from confcal.client import (
    SELF_EVAL_PROMPT,
    CompletionRequest,
    CompletionResponse,
    HTTPBackend,
    Message,
    MockBackend,
    ModelClient,
    ResponseCache,
    request_digest,
)
from confcal.confidence import Flag, TokenDistribution
from confcal.errors import (
    InvalidInput,
    MalformedResponse,
    NoLabelTokenPresent,
    SchemaViolation,
    UnmappableLabel,
)

from conftest import PureBackend


def simple_request(content="hello", **kwargs):
    return CompletionRequest(messages=(Message("user", content),), **kwargs)


class TestDigest:
    def test_stable_across_construction(self):
        assert request_digest(simple_request()) == request_digest(simple_request())

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"model_name": "other"},
            {"max_tokens": 2},
            {"temperature": 0.5},
            {"top_logprobs": 5},
        ],
    )
    def test_changes_with_each_field(self, kwargs):
        assert request_digest(simple_request(**kwargs)) != request_digest(simple_request())

    def test_changes_with_messages(self):
        assert request_digest(simple_request("a")) != request_digest(simple_request("b"))


class TestMockBackend:
    def test_scripted_echo(self):
        backend = MockBackend([{"tokens": ["B"], "distributions": [{"B": -0.1, "A": -2.4}]}])
        response = backend.complete(simple_request())
        assert response.generated_tokens == ("B",)
        assert response.token_distributions[0].logprob("B") == -0.1
        assert response.token_distributions[0].logprob("A") == -2.4

    def test_in_order_consumption(self):
        backend = MockBackend([{"tokens": ["x"]}, {"tokens": ["y"]}])
        assert backend.complete(simple_request()).text == "x"
        assert backend.complete(simple_request()).text == "y"
        with pytest.raises(MalformedResponse):
            backend.complete(simple_request())

    def test_digest_match_is_reusable(self):
        digest = request_digest(simple_request("q"))
        backend = MockBackend([{"digest": digest, "tokens": ["a"]}])
        for _ in range(3):
            assert backend.complete(simple_request("q")).text == "a"

    def test_from_jsonl(self, tmp_path):
        script = tmp_path / "script.jsonl"
        script.write_text(json.dumps({"tokens": ["hi"], "distributions": [{"hi": -0.2}]}) + "\n")
        backend = MockBackend.from_jsonl(script)
        assert backend.complete(simple_request()).text == "hi"


class TestCache:
    def test_round_trip_lossless(self, tmp_path):
        response = CompletionResponse(
            generated_tokens=("a", "b"),
            token_distributions=(
                TokenDistribution(entries=(("a", -0.1), ("c", -3.0)), position_index=0),
                TokenDistribution(entries=(("b", -0.5),), position_index=1),
            ),
        )
        assert CompletionResponse.from_json(response.to_json()) == response

        cache = ResponseCache(tmp_path / "cache.jsonl")
        cache.put("d1", response)
        reloaded = ResponseCache(tmp_path / "cache.jsonl")
        assert reloaded.get("d1") == response

    def test_second_request_served_from_cache(self, tmp_path):
        backend = MockBackend([{"tokens": ["once"]}])  # single in-order entry
        cache = ResponseCache(tmp_path / "cache.jsonl")
        client = ModelClient(backend, cache=cache)
        first = client.complete(simple_request())
        second = client.complete(simple_request())  # would exhaust the mock if not cached
        assert first == second

    def test_concurrent_writers_single_entry(self, tmp_path):
        cache = ResponseCache(tmp_path / "cache.jsonl")
        response = CompletionResponse(
            generated_tokens=("t",),
            token_distributions=(TokenDistribution(entries=(("t", -0.1),)),),
        )
        threads = [threading.Thread(target=cache.put, args=("d", response)) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        lines = (tmp_path / "cache.jsonl").read_text().strip().splitlines()
        assert len(lines) == 1


class TestSingleFlight:
    @pytest.mark.parametrize("fails", [False, True])
    def test_concurrent_misses_share_one_fetch(self, monkeypatch, fails):
        """The backend holds its call until the second caller is waiting for
        that same fetch; a client that fetched twice would reach it twice."""
        waiting = threading.Event()
        real_result = Future.result

        def result(future, timeout=None):
            waiting.set()
            return real_result(future, timeout)

        monkeypatch.setattr(Future, "result", result)

        class HoldingBackend:
            calls = 0

            def complete(self, request):
                HoldingBackend.calls += 1
                waiting.wait(timeout=10)
                if fails:
                    raise MalformedResponse("no logprobs")
                return CompletionResponse(("t",), (TokenDistribution((("t", -0.1),)),))

        client = ModelClient(HoldingBackend())
        outcomes = [None, None]

        def call(k):
            try:
                outcomes[k] = client.complete(simple_request())
            except MalformedResponse as exc:
                outcomes[k] = exc

        threads = [threading.Thread(target=call, args=(k,)) for k in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert HoldingBackend.calls == 1
        assert outcomes[0] is outcomes[1]
        assert isinstance(outcomes[0], MalformedResponse if fails else CompletionResponse)


    def test_each_digest_fetched_once_under_contention(self, tmp_path):
        backend = PureBackend()
        client = ModelClient(backend, cache=ResponseCache(tmp_path / "cache.jsonl"))
        requests_ = [simple_request(f"q{i}") for i in range(40)]

        def hammer():
            for request in requests_ * 5:
                client.complete(request)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer) for _ in range(16)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert backend.calls == len(requests_)


def chat_body(token):
    return {
        "choices": [
            {
                "logprobs": {
                    "content": [
                        {"token": token, "top_logprobs": [{"token": token, "logprob": -0.1}]}
                    ]
                },
                "finish_reason": "stop",
            }
        ]
    }


@contextlib.contextmanager
def serving(token, paths):
    """Loopback server that answers every POST with ``token`` and notes the
    request path: a proxy sees the absolute URL."""

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            paths.append(self.path)
            self.rfile.read(int(self.headers["Content-Length"]))
            body = json.dumps(chat_body(token)).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


class TestHTTPEnvironment:
    def test_proxy_and_no_proxy_from_environment(self, monkeypatch):
        for name in ("http_proxy", "all_proxy", "ALL_PROXY", "no_proxy", "NO_PROXY"):
            monkeypatch.delenv(name, raising=False)
        proxied, direct = [], []
        with serving("proxied", proxied) as proxy_url, serving("direct", direct) as target_url:
            monkeypatch.setenv("HTTP_PROXY", proxy_url)
            assert HTTPBackend(target_url).complete(simple_request()).text == "proxied"
            assert proxied == [f"{target_url}/chat/completions"] and direct == []

            monkeypatch.setenv("NO_PROXY", "127.0.0.1")
            assert HTTPBackend(target_url).complete(simple_request()).text == "direct"
            assert direct == ["/chat/completions"] and len(proxied) == 1


def cache_line(digest, token):
    record = {
        "request_digest": digest,
        "response": {"generated_tokens": [token], "token_distributions": [{"entries": [[token, -0.1]]}]},
    }
    return json.dumps(record) + "\n"


class TestCacheDamage:
    def test_torn_last_line_skipped_then_cut_on_append(self, tmp_path, caplog):
        path = tmp_path / "cache.jsonl"
        torn = cache_line("d1", "a") + cache_line("d2", "b") + cache_line("d3", "c")[:25]
        path.write_text(torn)
        cache = ResponseCache(path)
        assert path.read_text() == torn  # loading never writes
        assert cache.get("d1") is not None and cache.get("d2") is not None
        assert cache.get("d3") is None
        assert "cache.jsonl:3" in caplog.text and "torn" in caplog.text

        cache.put("d4", CompletionResponse.from_json(json.loads(cache_line("d4", "e"))["response"]))
        assert path.read_text().startswith(cache_line("d1", "a") + cache_line("d2", "b"))
        assert len(path.read_text().splitlines()) == 3
        assert ResponseCache(path).get("d4") is not None

    def test_corrupt_interior_line_names_its_number(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        content = cache_line("d1", "a") + '{"request_digest": "d2", "resp\n' + cache_line("d3", "c")
        path.write_text(content)
        with pytest.raises(SchemaViolation, match=r"cache\.jsonl:2:"):
            ResponseCache(path)
        assert path.read_text() == content


class TestHTTPBackendParsing:
    def test_parse_well_formed(self):
        body = {
            "choices": [
                {
                    "finish_reason": "stop",
                    "logprobs": {
                        "content": [
                            {
                                "token": "Yes",
                                "top_logprobs": [
                                    {"token": "Yes", "logprob": -0.2},
                                    {"token": "No", "logprob": -1.8},
                                ],
                            }
                        ]
                    },
                }
            ]
        }
        response = HTTPBackend._parse(body)
        assert response.generated_tokens == ("Yes",)
        assert response.token_distributions[0].logprob("No") == -1.8

    def test_missing_logprobs_is_malformed(self):
        with pytest.raises(MalformedResponse):
            HTTPBackend._parse({"choices": [{"message": {"content": "hi"}}]})

    def test_null_logprobs_is_malformed(self):
        with pytest.raises(MalformedResponse):
            HTTPBackend._parse({"choices": [{"logprobs": {"content": None}}]})


class TestClassify:
    LABELS = [(lab, frozenset({lab})) for lab in ("A", "B", "C", "D")]

    def test_hand_arithmetic(self, scripted_client):
        dist = {"B": math.log(0.6), "A": math.log(0.2), "C": math.log(0.1), "D": math.log(0.1)}
        client = scripted_client([{"tokens": ["B"], "distributions": [dist]}])
        result = client.classify("pick one", self.LABELS)
        assert result.label == "B"
        assert result.confidence.value == pytest.approx(0.6)
        assert result.raw_probability == pytest.approx(0.6)

    def test_single_surviving_label(self, scripted_client):
        dist = {"A": math.log(0.05), "Z": math.log(0.9)}
        client = scripted_client([{"tokens": ["Z"], "distributions": [dist]}])
        result = client.classify("pick one", self.LABELS)
        assert result.label == "A"
        assert result.confidence.value == pytest.approx(1.0)

    def test_uniform_tie_breaks_alphabetically(self, scripted_client):
        dist = {lab: math.log(0.25) for lab in "ABCD"}
        client = scripted_client([{"tokens": ["A"], "distributions": [dist]}])
        result = client.classify("pick one", self.LABELS)
        assert result.label == "A"
        assert result.confidence.value == pytest.approx(0.25)

    def test_confidence_sums_to_one(self):
        # label scores as classify builds them, incl. an absent label at -inf
        from confcal.confidence import CandidateScore, normalized_confidence

        cands = [
            CandidateScore("A", math.log(0.5)),
            CandidateScore("B", math.log(0.2)),
            CandidateScore("C", math.log(0.05)),
            CandidateScore("D", float("-inf")),
        ]
        total = sum(normalized_confidence(cands, c.candidate_id).value for c in cands)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_no_label_token_present(self, scripted_client):
        client = scripted_client([{"tokens": ["?"], "distributions": [{"?": -0.1}]}])
        with pytest.raises(NoLabelTokenPresent):
            client.classify("pick one", self.LABELS)

    def test_unmappable_label(self, scripted_client):
        client = scripted_client([{"tokens": ["A"]}])
        with pytest.raises(UnmappableLabel):
            client.classify("pick one", [("A", frozenset()), ("B", frozenset({"B"}))])


class TestSelfEvaluate:
    def test_yes_heavy(self, scripted_client):
        dist = {"Yes": math.log(0.8), "No": math.log(0.2)}
        client = scripted_client([{"tokens": ["Yes"], "distributions": [dist]}])
        score = client.self_evaluate("q?", "a")
        assert score.value == pytest.approx(0.8)

    def test_symmetric(self, scripted_client):
        dist = {"Yes": math.log(0.4), "No": math.log(0.4)}
        client = scripted_client([{"tokens": ["Yes"], "distributions": [dist]}])
        assert client.self_evaluate("q?", "a").value == pytest.approx(0.5)

    def test_conversation_shape(self, scripted_client):
        client = scripted_client([])
        messages = client._self_eval_messages(
            "Which American-born Sinclair won the Nobel Prize for Literature in 1930?",
            "Sinclair Lewis won the Nobel Prize for Literature in 1930",
            None,
        )
        assert [m.role for m in messages] == ["user", "assistant", "user"]
        assert messages[1].content == "Sinclair Lewis won the Nobel Prize for Literature in 1930"
        assert messages[2].content == SELF_EVAL_PROMPT

    def test_context_included_before_question(self, scripted_client):
        client = scripted_client([])
        messages = client._self_eval_messages("q?", "a", context="some passage")
        assert messages[0].content.startswith("some passage")
        assert messages[0].content.endswith("q?")

    def test_anchor_missing_flags(self, scripted_client):
        dist = {"Yes": math.log(0.3), "Other": math.log(0.5)}
        client = scripted_client([{"tokens": ["Yes"], "distributions": [dist]}])
        score = client.self_evaluate("q?", "a")
        assert score.value == 1.0
        assert Flag.ANCHOR_MISSING_NO in score.flags


class TestGenerateAnswer:
    def test_scripted_answer(self, scripted_client):
        client = scripted_client([{"tokens": ["42"], "distributions": [{"42": -0.01}]}])
        answer, tokens = client.generate_answer("what is six times seven?")
        assert answer == "42"
        assert tokens == ("42",)

    def test_context_injected_before_question(self, scripted_client):
        backend = MockBackend([{"tokens": ["ok"]}])
        captured = {}
        original = backend.complete

        def spy(request):
            captured["request"] = request
            return original(request)

        backend.complete = spy
        client = ModelClient(backend)
        client.generate_answer("the question", context="the context")
        content = captured["request"].messages[0].content
        assert content.index("the context") < content.index("the question")

    def test_empty_question_rejected(self, scripted_client):
        client = scripted_client([])
        with pytest.raises(InvalidInput):
            client.generate_answer("  ")


class TestResponseInvariant:
    def test_token_distribution_length_mismatch(self):
        class BadBackend:
            def complete(self, request):
                return CompletionResponse(
                    generated_tokens=("a", "b"),
                    token_distributions=(TokenDistribution(entries=(("a", -0.1),)),),
                )

        client = ModelClient(BadBackend())
        with pytest.raises(MalformedResponse):
            client.complete(simple_request())
