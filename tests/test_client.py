"""Tests for the chat-completion client, mock backend, and cache."""

import base64
import builtins
import contextlib
import json
import logging
import math
import sys
import threading
from concurrent.futures import Future

import pytest

from confcal import client as client_module
from confcal.cli import EXIT_CONFIG, EXIT_ENDPOINT, EXIT_OK, main
from confcal.client import (
    RETRY_AFTER_CAP_S,
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
    EndpointUnreachable,
    InvalidInput,
    MalformedResponse,
    NoLabelTokenPresent,
    RateLimited,
    SchemaViolation,
    UnmappableLabel,
)

from conftest import HTML, ChatStub, PureBackend, chat_reply, closes_everything


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


@closes_everything
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
        cache.close()
        reloaded = ResponseCache(tmp_path / "cache.jsonl")
        assert reloaded.get("d1") == response

    def test_second_request_served_from_cache(self, tmp_path):
        backend = MockBackend([{"tokens": ["once"]}])  # single in-order entry
        cache = ResponseCache(tmp_path / "cache.jsonl")
        client = ModelClient(backend, cache=cache)
        first = client.complete(simple_request())
        second = client.complete(simple_request())  # would exhaust the mock if not cached
        client.close()
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
        cache.close()
        lines = (tmp_path / "cache.jsonl").read_text().strip().splitlines()
        assert len(lines) == 1

    def test_one_append_handle_per_run(self, tmp_path, monkeypatch):
        opened = []

        def counting_open(*args, **kwargs):
            opened.append(args)
            return builtins.open(*args, **kwargs)

        monkeypatch.setattr(client_module, "open", counting_open, raising=False)
        path = tmp_path / "sub" / "cache.jsonl"
        cache = ResponseCache(path)
        for k in range(5):
            cache.put(f"d{k}", CompletionResponse.from_json(json.loads(cache_line("x", f"t{k}"))["response"]))
        assert len(opened) == 1
        assert len(path.read_text().splitlines()) == 5  # each record is flushed
        cache.close()
        cache.put("d5", CompletionResponse.from_json(json.loads(cache_line("x", "t5"))["response"]))
        cache.close()
        assert len(opened) == 2
        reloaded = ResponseCache(path)
        assert [reloaded.get(f"d{k}").text for k in range(6)] == [f"t{k}" for k in range(6)]

    def test_a_run_that_puts_nothing_never_opens_the_file(self, tmp_path, monkeypatch):
        opened = []
        monkeypatch.setattr(client_module, "open", lambda *a, **k: opened.append(a), raising=False)
        path = tmp_path / "cache.jsonl"
        path.write_text(cache_line("d1", "a"))
        stat = path.stat()
        cache = ResponseCache(path)
        cache.put("d1", cache.get("d1"))  # already present: nothing to append
        cache.close()
        absent = ResponseCache(tmp_path / "absent" / "cache.jsonl")
        assert absent.get("d1") is None
        absent.close()
        assert opened == []
        assert path.stat().st_mtime_ns == stat.st_mtime_ns
        assert path.read_text() == cache_line("d1", "a")
        assert not (tmp_path / "absent").exists()


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
        client.close()
        assert not any(t.is_alive() for t in threads)
        assert backend.calls == len(requests_)


@contextlib.contextmanager
def serving(token, paths):
    """A stub that answers every POST with ``token`` and notes the request
    paths in ``paths``: a proxy sees the absolute URL."""
    with ChatStub(default=chat_reply(token)) as stub:
        stub.paths = paths
        yield stub.url.removesuffix("/v1")


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


def generation_config(tmp_path, base_url, n, concurrency):
    dataset = tmp_path / "data.jsonl"
    dataset.write_text(
        "".join(
            json.dumps({"id": f"e{i}", "input": f"q{i}?", "gold": "ok", "context": f"c{i}"}) + "\n"
            for i in range(n)
        )
    )
    task = tmp_path / "task.json"
    task.write_text(json.dumps({"task_id": "t", "kind": "generation", "matcher": "substring"}))
    config = tmp_path / "run.conf"
    config.write_text(
        f"base_url = {base_url}\ntask_spec = {task}\ndataset = {dataset}\n"
        f"output_dir = {tmp_path / 'out'}\nconcurrency = {concurrency}\n"
    )
    return config


@closes_everything
@pytest.mark.usefixtures("plain_env")
class TestHTTPTransport:
    def test_sequential_requests_reuse_one_connection(self):
        with ChatStub() as stub:
            backend = HTTPBackend(stub.url)
            for k in range(5):
                assert backend.complete(simple_request(f"q{k}")).text == "ok"
            backend.close()
        assert len(stub.headers) == 5
        assert stub.connections == 1

    @pytest.mark.parametrize("concurrency", [4, 8])
    def test_run_keeps_at_most_concurrency_connections(self, tmp_path, caplog, concurrency):
        caplog.set_level(logging.WARNING, logger="urllib3")
        with ChatStub(delay_s=0.005) as stub:
            config = generation_config(tmp_path, stub.url, 6 * concurrency, concurrency)
            assert main(["eval", "--config", str(config)]) == EXIT_OK
        assert len(stub.headers) == 12 * concurrency
        assert 1 <= stub.connections <= concurrency
        assert "Connection pool is full" not in caplog.text

    def test_429_then_200_retries_once(self, sleeps):
        with ChatStub([(429, {"Retry-After": "2"}, b"slow down")]) as stub:
            backend = HTTPBackend(stub.url)
            assert backend.complete(simple_request()).text == "ok"
            backend.close()
        assert len(stub.headers) == 2
        assert sleeps == [2.0]

    def test_retry_after_is_capped(self, sleeps):
        with ChatStub([(503, {"Retry-After": "86400"}, b"")]) as stub:
            backend = HTTPBackend(stub.url)
            assert backend.complete(simple_request()).text == "ok"
            backend.close()
        assert sleeps == [RETRY_AFTER_CAP_S]

    def test_backoff_doubles_with_full_jitter(self, monkeypatch, sleeps):
        bounds = []
        monkeypatch.setattr(client_module.random, "uniform", lambda a, b: bounds.append((a, b)) or b / 2)
        replies = [
            (503, {}, b""),
            (429, {"Retry-After": "Fri, 31 Dec 1999 23:59:59 GMT"}, b""),  # a date: not obeyed
            (500, {"Retry-After": "9"}, b""),  # only 429 and 503 are obeyed
        ]
        with ChatStub(replies) as stub:
            backend = HTTPBackend(stub.url, backoff_start_s=0.5)
            assert backend.complete(simple_request()).text == "ok"
            backend.close()
        assert bounds == [(0.0, 0.5), (0.0, 1.0), (0.0, 2.0)]
        assert sleeps == [0.25, 0.5, 1.0]

    def test_5xx_on_every_attempt_is_rate_limited(self, sleeps):
        with ChatStub(default=(500, {}, b"overloaded")) as stub:
            backend = HTTPBackend(stub.url, max_retries=2)
            with pytest.raises(RateLimited, match="HTTP 500: overloaded"):
                backend.complete(simple_request())
            backend.close()
        assert len(stub.headers) == 3
        assert len(sleeps) == 2

    def test_404_is_unreachable_without_retry(self, sleeps):
        with ChatStub(default=(404, {}, b"no such route")) as stub:
            backend = HTTPBackend(stub.url)
            with pytest.raises(EndpointUnreachable, match="HTTP 404"):
                backend.complete(simple_request())
            backend.close()
        assert len(stub.headers) == 1
        assert sleeps == []

    def test_refused_connection_is_unreachable(self, sleeps):
        with ChatStub() as stub:
            url = stub.url
        backend = HTTPBackend(url, max_retries=1)
        with pytest.raises(EndpointUnreachable):
            backend.complete(simple_request())
        backend.close()
        assert len(sleeps) == 1

    def test_non_json_200_is_malformed(self, sleeps):
        with ChatStub(default=HTML) as stub:
            backend = HTTPBackend(stub.url)
            with pytest.raises(MalformedResponse, match="not JSON"):
                backend.complete(simple_request())
            backend.close()
        assert len(stub.headers) == 1

    def test_non_json_200_flags_eval_records_and_fails_the_sweep(self, tmp_path, capsys):
        with ChatStub(default=HTML) as stub:
            config = generation_config(tmp_path, stub.url, 3, 2)
            assert main(["eval", "--config", str(config)]) == EXIT_OK
            records = (tmp_path / "out" / "records.jsonl").read_text().splitlines()
            assert len(records) == 3
            assert all("error:MalformedResponse" in json.loads(r)["flags"] for r in records)
            capsys.readouterr()
            assert main(["sweep", "--config", str(config), "--taus", "0.5"]) == EXIT_ENDPOINT
            assert capsys.readouterr().err.startswith("endpoint error: response is not JSON")

    def test_unsupported_proxy_scheme_is_one_endpoint_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("HTTP_PROXY", "socks5://user:pw@127.0.0.1:9")
        config = generation_config(tmp_path, "http://127.0.0.1:9/v1", 1, 1)
        assert main(["eval", "--config", str(config)]) == EXIT_ENDPOINT
        err = capsys.readouterr().err
        assert "socks5" in err and "pw" not in err and len(err.splitlines()) == 1

    def test_bearer_header(self):
        with ChatStub() as stub:
            backend = HTTPBackend(stub.url, api_key="sk-test")
            backend.complete(simple_request())
            backend.close()
        assert stub.headers[0]["Authorization"] == "Bearer sk-test"
        assert stub.headers[0]["Content-Type"] == "application/json"

    def test_netrc_entry_replaces_bearer(self, tmp_path, monkeypatch):
        netrc = tmp_path / "netrc"
        netrc.write_text("machine 127.0.0.1 login alice password s3cret\n")
        netrc.chmod(0o600)
        monkeypatch.setenv("NETRC", str(netrc))
        with ChatStub() as stub:
            backend = HTTPBackend(stub.url, api_key="sk-test")
            backend.complete(simple_request())
            backend.close()
        expected = "Basic " + base64.b64encode(b"alice:s3cret").decode()
        assert stub.headers[0].get_all("Authorization") == [expected]

    def test_netrc_login_outside_latin1_is_one_config_error(self, tmp_path, monkeypatch, capsys):
        netrc = tmp_path / "netrc"
        netrc.write_text("machine 127.0.0.1 login Łukasz password s3cret\n", encoding="utf-8")
        monkeypatch.setenv("NETRC", str(netrc))
        config = generation_config(tmp_path, "http://127.0.0.1:9/v1", 1, 1)
        assert main(["eval", "--config", str(config)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "netrc entry for 127.0.0.1" in err and len(err.splitlines()) == 1
        assert "ukasz" not in err and "s3cret" not in err
        assert not (tmp_path / "out").exists()

    def test_no_proxy_cidr_bypasses_the_proxy(self, monkeypatch):
        proxied, direct = [], []
        with serving("proxied", proxied) as proxy_url, serving("direct", direct) as target_url:
            monkeypatch.setenv("HTTP_PROXY", proxy_url)
            monkeypatch.setenv("NO_PROXY", "example.com, 10.0.0.0/8,127.0.0.0/8")
            backend = HTTPBackend(target_url)
            assert backend.complete(simple_request()).text == "direct"
            backend.close()
        assert direct == ["/chat/completions"] and proxied == []


def cache_line(digest, token):
    record = {
        "request_digest": digest,
        "response": {"generated_tokens": [token], "token_distributions": [{"entries": [[token, -0.1]]}]},
    }
    return json.dumps(record) + "\n"


@closes_everything
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
        cache.close()
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
