"""Tests for the chat-completion client, mock backend, and cache."""

import base64
import builtins
import contextlib
import errno
import gc
import gzip
import hashlib
import io
import json
import math
import random
import re
import select
import shutil
import socket
import struct
import subprocess
import sys
import tempfile
import threading
import tracemalloc
import zlib
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from confcal import client as client_module, transport as transport_module
from confcal.cli import EXIT_CONFIG, EXIT_ENDPOINT, EXIT_OK, main
from confcal.client import (
    SELF_EVAL_PROMPT,
    CompletionRequest,
    CompletionResponse,
    HTTPBackend,
    Message,
    MockBackend,
    ModelClient,
    Readout,
    ResponseCache,
    request_digest,
)
from confcal.confidence import (
    DEFAULT_NO_ALIASES,
    DEFAULT_YES_ALIASES,
    TokenDistribution,
    p_yes,
    self_eval_confidence,
)
from confcal.errors import (
    AnchorTokensAbsent,
    ConfigInvalid,
    EndpointUnreachable,
    InvalidInput,
    MalformedResponse,
    NoLabelTokenPresent,
    RateLimited,
    SchemaViolation,
)
from confcal.transport import MAX_RETRIES, RETRY_AFTER_CAP_S, JSONPoster

from conftest import (
    HTML,
    ChatStub,
    LoopbackServer,
    PureBackend,
    RawStub,
    chat_body,
    chat_reply,
    closes_everything,
    raw_chat_reply,
    raw_reply,
)


def simple_request(content="hello", **kwargs):
    return CompletionRequest(messages=(Message("user", content),), **kwargs)


# Text that JSON escapes, or keeps as is with ensure_ascii=False: quotes,
# backslashes, control characters, U+2028/U+2029, non-ASCII letters and
# emoji, and the empty string.
DIGEST_TEXT = st.text(
    st.sampled_from(['"', "\\", "\n", "\r", "\t", "\x00", "\x1f", "\x7f", "\u2028", "\u2029", "\u00e9", "\U0001f600", "/"])
    | st.characters(exclude_categories=("Cs",)),
    max_size=40,
)


def json_dumps_digest(request):
    """The oracle: the SHA-256 of the payload as json.dumps writes it."""
    payload = {
        "model_name": request.model_name,
        "messages": [[m.role, m.content] for m in request.messages],
        "max_tokens": request.max_tokens,
        "temperature": 0.0,
        "top_logprobs": 20,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class TestDigest:
    def test_stable_across_construction(self):
        assert request_digest(simple_request()) == request_digest(simple_request())

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"model_name": "other"},
            {"max_tokens": 2},
        ],
    )
    def test_changes_with_each_field(self, kwargs):
        assert request_digest(simple_request(**kwargs)) != request_digest(simple_request())

    @pytest.mark.parametrize(
        "request_, digest",
        [
            (simple_request(), "ebf363c1463c50ad0b5e3009b0b4ced548b1823b6c222b455c25b438f87d1388"),
            (
                CompletionRequest((Message("user", "hello"),), "m", 256),
                "40610cc959243e3d508c460cd0251cf23f58047d61d38b460d77746a05b95535",
            ),
        ],
        ids=["defaults", "m-256-tokens"],
    )
    def test_pinned(self, request_, digest):
        # every cache on disk is keyed by these: temperature 0.0, top_logprobs 20
        assert request_digest(request_) == digest

    @pytest.mark.parametrize(
        "text, digest",
        [
            ("a\x7fb", "8bb64ad8e9f0cae90ebd516b227710f5e6f5210f021cd0a7d5e1b0a02b38a02b"),
            ("ctx line\x7f\n\nWhat is 1 + 2?", "86f1b00a15da5c318208919a097d2ea6c2a42fcffb2406c287d49b352d42ff38"),
        ],
        ids=["del", "context-with-del"],
    )
    def test_pinned_ascii_text_with_del(self, text, digest):
        # DEL is ASCII, and json.dumps(..., ensure_ascii=False) writes it as is,
        # where the ASCII escape writes \u007f: these keys stay as caches hold them
        assert request_digest(CompletionRequest((Message("user", text),), "m", 1)) == digest

    def test_changes_with_messages(self):
        assert request_digest(simple_request("a")) != request_digest(simple_request("b"))

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(
        st.lists(st.tuples(st.sampled_from(["user", "assistant", "system"]), DIGEST_TEXT), min_size=1, max_size=4),
        st.sampled_from(["mock", "synthetic-7b", "", "m\u00e9-\u6a21\u578b", 'a"b\\c\n']),
        st.sampled_from([1, 2, 256, 4096]) | st.integers(min_value=1, max_value=10**12),
    )
    # ASCII text takes the ASCII escape; ASCII text holding DEL, and non-ASCII text, the other one
    @example(turns=[("user", "ctx line\n\nWhat is 1 + 2?"), ("assistant", '3 "quoted" \\')], model_name="mock", max_tokens=1)
    @example(turns=[("user", "a\x7fb"), ("assistant", "\x7f")], model_name="m\x7f", max_tokens=256)
    @example(turns=[("user", "caf\u00e9 \x7f \U0001f600"), ("system", "\u2028")], model_name="m\u00e9", max_tokens=1)
    def test_equals_json_dumps_of_the_payload(self, turns, model_name, max_tokens):
        request = CompletionRequest(tuple(Message(*turn) for turn in turns), model_name, max_tokens)
        assert request_digest(request) == json_dumps_digest(request)

    def test_lone_surrogate_fails_as_json_dumps_fails(self):
        request = simple_request("a\ud800b")
        with pytest.raises(UnicodeEncodeError):
            json_dumps_digest(request)
        with pytest.raises(UnicodeEncodeError):
            request_digest(request)

    @pytest.mark.parametrize("max_tokens", [2.0, True, "2"])
    def test_max_tokens_that_is_not_an_integer_is_invalid(self, max_tokens):
        with pytest.raises(InvalidInput, match="max_tokens must be an integer"):
            simple_request(max_tokens=max_tokens)

    @pytest.mark.parametrize("max_tokens", [0, -1])
    def test_max_tokens_below_one_is_invalid(self, max_tokens):
        with pytest.raises(InvalidInput, match="max_tokens must be >= 1"):
            simple_request(max_tokens=max_tokens)


class TestValueObjects:
    def test_equal_fields_are_equal_and_hash_alike(self):
        request = CompletionRequest([Message("user", "q")], "m", 256)
        twin = CompletionRequest(messages=(Message("user", "q"),), model_name="m", max_tokens=256)
        assert request == twin and hash(request) == hash(twin) and Counter([request, twin]) == {request: 2}
        assert request.messages == (Message("user", "q"),) and (request.model_name, request.max_tokens) == ("m", 256)
        assert request != CompletionRequest((Message("user", "q"),), "m", 1)
        readout, twin = Readout("a", 0.5, frozenset({"f"}), 0.25), Readout("a", 0.5, frozenset({"f"}), 0.25)
        assert readout == twin and hash(readout) == hash(twin) and readout != readout._replace(raw=0.5)
        assert (readout.answer, readout.confidence, readout.flags, readout.raw) == ("a", 0.5, {"f"}, 0.25)

    @pytest.mark.parametrize("content", ["q", "a\x7fb", "caf\u00e9 \U0001f600"], ids=["ascii", "del", "non-ascii"])
    def test_messages_build_by_position_or_name_and_compare_by_value(self, content):
        message, twin = Message("user", content), Message(role="user", content=content)
        digest_form = json.dumps(["user", content], separators=(",", ":"), ensure_ascii=False)
        assert (message.role, message.content, message.digest_form) == ("user", content, digest_form)
        assert message == twin and hash(message) == hash(twin) and Counter([message, twin]) == {message: 2}
        assert message != Message("assistant", content) and message != Message("user", content + " ")

    def test_fields_cannot_be_set(self):
        request = simple_request()
        with pytest.raises(AttributeError):
            request.max_tokens = 2
        for field in ("role", "content", "digest_form"):
            with pytest.raises(AttributeError):
                setattr(request.messages[0], field, "x")
        with pytest.raises(AttributeError):
            Readout("a", 0.5, frozenset(), 0.25).raw = 1.0


def oracle_cache_line(messages, max_tokens, text, dist):
    """A cache line answering ``messages`` with ``text`` and the top-K
    ``dist``, keyed by ``json_dumps_digest``."""
    digest = json_dumps_digest(CompletionRequest(tuple(Message(*m) for m in messages), "mock", max_tokens))
    return record_line(digest, response_of(text, dist).to_json())


@closes_everything
@pytest.mark.usefixtures("plain_env")
class TestCachedSweep:
    # (question, context, second-pass answer): ASCII, ASCII holding DEL, and non-ASCII text
    EXAMPLES = [
        ("Capital of France?", "Paris is the capital of France.", "Paris"),
        ("Capital\x7f of Peru?", "Lima\x7f is the capital of Peru.", "Lima\x7f"),
        ("Capitale de la Suisse ?", "Berne est la capitale f\u00e9d\u00e9rale \U0001f600.", "B\u00e9rne \u6a21"),
    ]

    def test_served_wholly_from_a_cache_keyed_by_the_oracle(self, tmp_path, capsys, sleeps):
        """Every request of the sweep hits a cache line keyed by json.dumps of
        the payload: the run reaches no backend and appends nothing."""
        lines = []
        for question, context, answer in self.EXAMPLES:
            for turn, text, p in ((question, "Oslo", 0.4), (f"{context}\n\n{question}", answer, 0.9)):
                lines.append(oracle_cache_line([("user", turn)], 256, text, {text: -0.01}))
                self_eval = [("user", turn), ("assistant", text), ("user", SELF_EVAL_PROMPT)]
                lines.append(oracle_cache_line(self_eval, 1, "Yes", {"Yes": math.log(p), "No": math.log(1 - p)}))
        cache = tmp_path / "cache.jsonl"
        cache.write_text("".join(lines), encoding="utf-8")
        before = cache.read_bytes()
        dataset = tmp_path / "data.jsonl"
        dataset.write_text("".join(
            json.dumps({"id": f"e{i}", "input": q, "gold": a, "context": c}) + "\n"
            for i, (q, c, a) in enumerate(self.EXAMPLES)
        ))
        task = tmp_path / "task.json"
        task.write_text(json.dumps({"task_id": "t", "kind": "generation", "matcher": "substring"}))
        with ChatStub() as stub:
            closed = stub.url
        config = tmp_path / "run.conf"
        config.write_text(
            f"base_url = {closed}\ncache_path = {cache}\ntask_spec = {task}\ndataset = {dataset}\n"
            f"output_dir = {tmp_path / 'out'}\n"
        )
        assert main(["sweep", "--config", str(config), "--taus", "0.5"]) == EXIT_OK
        assert capsys.readouterr().err == ""
        assert cache.read_bytes() == before and sleeps == []
        # each first answer is wrong at 0.4; each retrieved answer right at 0.9
        assert (tmp_path / "out" / "sweep.csv").read_text().splitlines()[1] == (
            "0.500000,100.000000,100.000000,100.000000,1.000000"
        )


class TestMockBackend:
    def test_scripted_echo(self):
        backend = MockBackend([{"tokens": ["B"], "distributions": [{"B": -0.1, "A": -2.4}]}])
        response = backend.complete(simple_request())
        assert response.text == "B"
        assert (response.first.tokens, response.first.logprobs) == (("B", "A"), (-0.1, -2.4))

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

    def test_from_jsonl_skips_blank_lines(self, tmp_path):
        script = tmp_path / "script.jsonl"
        script.write_text('{"tokens": ["x"]}\n\n   \n{"tokens": ["y"]}\n')
        backend = MockBackend.from_jsonl(script)
        assert [backend.complete(simple_request()).text for _ in range(2)] == ["x", "y"]
        with pytest.raises(MalformedResponse, match="exhausted after 2"):
            backend.complete(simple_request())


@closes_everything
class TestCache:
    def test_round_trip_lossless(self, tmp_path):
        response = CompletionResponse("ab", TokenDistribution.from_pairs((("a", -0.1), ("c", -3.0))))
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
        response = CompletionResponse("t", TokenDistribution.from_pairs((("t", -0.1),)))
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


    def test_concurrent_puts_append_whole_lines(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = ResponseCache(path)

        def put_many(t):
            for k in range(50):
                token = f"t{t}-{k}"
                cache.put(f"d{t}-{k}", CompletionResponse(token, TokenDistribution.from_pairs(((token, -0.1),))))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=put_many, args=(t,)) for t in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        cache.close()
        lines = path.read_bytes().split(b"\n")
        assert lines[-1] == b"" and len(lines) == 401
        reloaded = ResponseCache(path)
        assert all(reloaded.get(f"d{t}-{k}").text == f"t{t}-{k}" for t in range(8) for k in range(50))

    @pytest.mark.parametrize("short", [False, True], ids=["disk-full", "short-write"])
    def test_a_failed_append_raises_and_keeps_no_entry(self, tmp_path, monkeypatch, short):
        class FullDisk:
            def __init__(self, file):
                self.file = file

            def write(self, data):
                if short:
                    return self.file.write(data[:5])
                raise OSError(errno.ENOSPC, "No space left on device")

            def close(self):
                self.file.close()

        monkeypatch.setattr(
            client_module, "open", lambda *a, **k: FullDisk(builtins.open(*a, **k)), raising=False
        )
        cache = ResponseCache(tmp_path / "cache.jsonl")
        response = CompletionResponse.from_json(json.loads(cache_line("x", "a"))["response"])
        with pytest.raises(OSError):
            cache.put("d1", response)
        assert cache.get("d1") is None
        cache.close()


class TestSingleFlight:
    @pytest.mark.parametrize("fails", [False, True])
    def test_concurrent_misses_share_one_fetch(self, monkeypatch, fails):
        """The backend holds its call until the second caller is waiting for
        that same fetch; a client that fetched twice would reach it twice."""
        waiting = threading.Event()
        real_wait = client_module._Flight.wait

        def wait(flight, timeout=None):
            waiting.set()
            return real_wait(flight, timeout)

        monkeypatch.setattr(client_module._Flight, "wait", wait)

        class HoldingBackend:
            calls = 0

            def complete(self, request):
                HoldingBackend.calls += 1
                assert waiting.wait(timeout=10), "the second caller never waited on the fetch"
                if fails:
                    raise MalformedResponse("no logprobs")
                return CompletionResponse("t", TokenDistribution.from_pairs((("t", -0.1),)))

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


    def test_a_fetch_that_ended_since_the_first_lookup_is_served_from_the_cache(self):
        """The first cache lookup misses; a fetch for the digest ends before
        the client takes the flights lock, so the second lookup, under it,
        hits and no backend call is made."""
        cached = CompletionResponse("t", TokenDistribution.from_pairs((("t", -0.1),)))

        class LateCache:
            gets = 0

            def get(self, digest):
                LateCache.gets += 1
                return None if LateCache.gets == 1 else cached

        class NoBackend:
            def complete(self, request):
                raise AssertionError("the backend was called")

        client = ModelClient(NoBackend(), cache=LateCache())
        assert client.complete(simple_request()) is cached
        assert LateCache.gets == 2 and client._flights == {}

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

    def test_an_interrupted_fetch_fails_its_waiters(self, monkeypatch):
        """A KeyboardInterrupt stops the leader's fetch while a second caller
        waits on it: that caller raises a RuntimeError instead of hanging."""
        waiting = threading.Event()
        real_wait = client_module._Flight.wait

        def wait(flight, timeout=None):
            waiting.set()
            return real_wait(flight, timeout)

        monkeypatch.setattr(client_module._Flight, "wait", wait)

        class InterruptedBackend:
            calls = 0

            def complete(self, request):
                InterruptedBackend.calls += 1
                waiting.wait(timeout=10)
                raise KeyboardInterrupt

        client = ModelClient(InterruptedBackend())
        outcomes = [None, None]

        def call(k):
            try:
                client.complete(simple_request())
            except (KeyboardInterrupt, RuntimeError) as exc:
                outcomes[k] = exc

        threads = [threading.Thread(target=call, args=(k,)) for k in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert InterruptedBackend.calls == 1 and waiting.is_set()
        assert sorted(type(exc).__name__ for exc in outcomes) == ["KeyboardInterrupt", "RuntimeError"]
        assert "the shared fetch was interrupted" in [str(exc) for exc in outcomes]
        assert client._flights == {}


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


def raw_deflate(data):
    packer = zlib.compressobj(wbits=-zlib.MAX_WBITS)
    return packer.compress(data) + packer.flush()


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

    def test_request_body(self):
        with ChatStub() as stub:
            backend = HTTPBackend(stub.url)
            backend.complete(CompletionRequest((Message("user", "hello"),), "m", 256))
            backend.close()
        assert json.dumps(stub.bodies[0]) == (
            '{"model": "m", "messages": [{"role": "user", "content": "hello"}], "max_tokens": 256, '
            '"temperature": 0.0, "logprobs": true, "top_logprobs": 20}'
        )

    @pytest.mark.parametrize("concurrency", [4, 8])
    def test_run_keeps_at_most_concurrency_connections(self, tmp_path, concurrency):
        with ChatStub(delay_s=0.005) as stub:
            config = generation_config(tmp_path, stub.url, 6 * concurrency, concurrency)
            assert main(["eval", "--config", str(config)]) == EXIT_OK
        assert len(stub.headers) == 12 * concurrency
        assert 1 <= stub.connections <= concurrency

    def test_sweep_keeps_at_most_concurrency_connections_over_both_passes(self, tmp_path):
        """The second pass runs on new threads and reuses the first pass's
        idle connections."""
        with ChatStub(delay_s=0.005) as stub:
            config = generation_config(tmp_path, stub.url, 24, 4)
            assert main(["sweep", "--config", str(config), "--taus", "1.01"]) == EXIT_OK
        assert len(stub.headers) == 4 * 24  # tau 1.01: both passes answer and self-evaluate all
        assert 1 <= stub.connections <= 4

    def test_connection_closed_after_each_reply_is_replaced_without_a_retry(self, sleeps):
        with ChatStub(close_after_reply=True) as stub:
            backend = HTTPBackend(stub.url)
            for k in range(5):
                assert backend.complete(simple_request(f"q{k}")).text == "ok"
            backend.close()
        assert len(stub.headers) == 5
        assert sleeps == []
        assert stub.connections == 5

    @pytest.mark.parametrize(
        "encoding, compress",
        [("gzip", gzip.compress), ("deflate", zlib.compress), ("deflate", raw_deflate)],
        ids=["gzip", "deflate", "raw-deflate"],
    )
    def test_compressed_reply_parses_like_the_plain_one(self, encoding, compress):
        status, headers, body = chat_reply("ok")
        packed = (status, {**headers, "Content-Encoding": encoding}, compress(body))
        with ChatStub([chat_reply("ok"), packed]) as stub:
            backend = HTTPBackend(stub.url)
            plain = backend.complete(simple_request())
            assert backend.complete(simple_request()) == plain
            backend.close()

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
        monkeypatch.setattr(transport_module.random, "uniform", lambda a, b: bounds.append((a, b)) or b / 2)
        replies = [
            (503, {}, b""),
            (429, {"Retry-After": "Fri, 31 Dec 1999 23:59:59 GMT"}, b""),  # a date: not obeyed
            (500, {"Retry-After": "9"}, b""),  # only 429 and 503 are obeyed
        ]
        with ChatStub(replies) as stub:
            backend = HTTPBackend(stub.url)
            assert backend.complete(simple_request()).text == "ok"
            backend.close()
        assert bounds == [(0.0, 0.5), (0.0, 1.0), (0.0, 2.0)]
        assert sleeps == [0.25, 0.5, 1.0]

    def test_5xx_on_every_attempt_is_rate_limited(self, monkeypatch, sleeps):
        monkeypatch.setattr(transport_module, "MAX_RETRIES", 2)
        with ChatStub(default=(500, {}, b"overloaded")) as stub:
            backend = HTTPBackend(stub.url)
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

    def test_refused_connection_is_unreachable(self, monkeypatch, sleeps):
        monkeypatch.setattr(transport_module, "MAX_RETRIES", 1)
        with ChatStub() as stub:
            url = stub.url
        backend = HTTPBackend(url)
        with pytest.raises(EndpointUnreachable):
            backend.complete(simple_request())
        backend.close()
        assert len(sleeps) == 1

    @pytest.mark.parametrize(
        "proxy, url, address",
        [
            (None, "http://example.invalid/v1", ("example.invalid", 80)),
            (None, "https://example.invalid/v1", ("example.invalid", 443)),
            (("https_proxy", "http://127.0.0.1"), "https://example.invalid/v1", ("127.0.0.1", 80)),
            (("http_proxy", "https://127.0.0.1"), "http://example.invalid/v1", ("127.0.0.1", 443)),
        ],
    )
    def test_a_url_without_a_port_is_reached_on_its_scheme_default(self, monkeypatch, sleeps, proxy, url, address):
        """The port left out of the endpoint's or the proxy's URL is that
        URL's own scheme default, also for an http:// proxy that tunnels to
        an https:// endpoint."""
        for name in ("https_proxy", "HTTPS_PROXY", "no_proxy", "NO_PROXY"):
            monkeypatch.delenv(name, raising=False)
        if proxy:
            monkeypatch.setenv(*proxy)
        monkeypatch.setattr(transport_module, "MAX_RETRIES", 0)
        addresses = []

        def create_connection(address, *args, **kwargs):
            addresses.append(address)
            raise ConnectionRefusedError("refused")

        monkeypatch.setattr(socket, "create_connection", create_connection)
        backend = HTTPBackend(url)
        with pytest.raises(EndpointUnreachable, match="refused"):
            backend.complete(simple_request())
        backend.close()
        assert addresses == [address]

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

    def test_https_proxy_to_https_endpoint_is_one_endpoint_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("no_proxy", raising=False)
        monkeypatch.delenv("NO_PROXY", raising=False)
        monkeypatch.setenv("HTTPS_PROXY", "https://user:pw@127.0.0.1:9")
        config = generation_config(tmp_path, "https://127.0.0.1:9/v1", 1, 1)
        assert main(["eval", "--config", str(config)]) == EXIT_ENDPOINT
        err = capsys.readouterr().err
        assert "https:// proxy" in err and "https:// endpoint" in err
        assert "pw" not in err and len(err.splitlines()) == 1

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

    def test_netrc_without_an_entry_for_the_host_keeps_bearer(self, tmp_path, monkeypatch):
        netrc = tmp_path / "netrc"
        netrc.write_text("machine example.com login alice password s3cret\n")
        netrc.chmod(0o600)
        monkeypatch.setenv("NETRC", str(netrc))
        with ChatStub() as stub:
            backend = HTTPBackend(stub.url, api_key="sk-test")
            backend.complete(simple_request())
            backend.close()
        assert stub.headers[0].get_all("Authorization") == ["Bearer sk-test"]

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

    def test_no_proxy_cidr_does_not_bypass_a_host_name(self, monkeypatch):
        """A network entry holds only IPv4 addresses: a host-name endpoint
        next to it still goes through the proxy."""
        for name in ("http_proxy", "all_proxy", "ALL_PROXY", "no_proxy"):
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("HTTP_PROXY", "http://127.0.0.1:3128")
        monkeypatch.setenv("NO_PROXY", "10.0.0.0/8,127.0.0.0/8")
        assert transport_module._proxy_for("http://example.invalid/v1") == "http://127.0.0.1:3128"
        assert transport_module._proxy_for("http://127.0.0.1:9/v1") is None


def chunked(body, size=7):
    """``body`` in chunks of ``size`` bytes, the first with an extension,
    then the last chunk and one trailer field."""
    pieces = [body[i : i + size] for i in range(0, len(body), size)]
    framed = b"".join(b"%x%b\r\n%b\r\n" % (len(p), b"" if i else b";ext=1", p) for i, p in enumerate(pieces))
    return framed + b"0\r\nX-Trailer: t\r\n\r\n"


def chat_bytes(token):
    return json.dumps(chat_body(token)).encode()


@closes_everything
@pytest.mark.usefixtures("plain_env")
class TestReplyReader:
    """The poster reads each reply itself: its framing, 1xx replies, when
    the connection stays open, and what a malformed reply does."""

    @pytest.mark.parametrize("encoding", [None, "gzip"])
    def test_chunked_reply(self, encoding, sleeps):
        body = gzip.compress(chat_bytes("chunked")) if encoding else chat_bytes("chunked")
        reply = raw_reply(chunked(body), Content_Length=None, Transfer_Encoding="chunked", Content_Encoding=encoding)
        with RawStub([(reply, False)]) as stub:
            backend = HTTPBackend(stub.url)
            assert backend.complete(simple_request("q0")).text == "chunked"
            assert backend.complete(simple_request("q1")).text == "ok"  # after the trailer, on the same connection
            backend.close()
        assert stub.connections == 1 and sleeps == []

    def test_reply_without_a_length_is_read_to_the_end_and_not_reused(self, sleeps):
        reply = raw_reply(chat_bytes("to-eof"), Content_Length=None, Connection="close")
        with RawStub([(reply, True)]) as stub:
            backend = HTTPBackend(stub.url)
            assert backend.complete(simple_request("q0")).text == "to-eof"
            assert backend._poster._idle == []
            assert backend.complete(simple_request("q1")).text == "ok"
            backend.close()
        assert stub.connections == 2 and len(stub.requests) == 2 and sleeps == []

    @pytest.mark.parametrize(
        "head, connection, connections",
        [
            ("HTTP/1.0 200 OK", None, 2),
            ("HTTP/1.0 200 OK", "keep-alive", 1),
            ("HTTP/1.1 200 OK", "close", 2),
            ("HTTP/1.1 200 OK", "Close", 2),
            ("HTTP/1.1 200", None, 1),
        ],
    )
    def test_when_the_connection_stays_open(self, head, connection, connections, sleeps):
        """The stub keeps every connection open, so only the client's rule
        decides whether the second request opens a new one."""
        reply = raw_reply(chat_bytes("first"), head, Connection=connection)
        with RawStub([(reply, False)]) as stub:
            backend = HTTPBackend(stub.url)
            assert backend.complete(simple_request("q0")).text == "first"
            assert backend.complete(simple_request("q1")).text == "ok"
            backend.close()
        assert stub.connections == connections and sleeps == []

    def test_content_lengths_that_differ_close_the_connection_and_retry(self, sleeps):
        """Read by its last Content-Length, this reply would leave 3 bytes
        unread at the head of the next reply on the connection."""
        body = chat_bytes("conflict")
        reply = b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\nContent-Length: %d\r\n\r\n%b" % (
            len(body), len(body) - 3, body,
        )
        with RawStub([(reply, False)]) as stub:
            backend = HTTPBackend(stub.url)
            assert backend.complete(simple_request("q0")).text == "ok"
            assert backend.complete(simple_request("q1")).text == "ok"
            backend.close()
        assert stub.connections == 2 and len(stub.requests) == 3 and len(sleeps) == 1

    def test_transfer_encodings_that_differ_close_the_connection_and_retry(self, sleeps):
        """Read by its last Transfer-Encoding, this chunked reply would be
        framed by its Content-Length: the chunk sizes read as the body, and
        the rest left unread at the head of the next reply."""
        body = chat_bytes("conflict")
        reply = (
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nContent-Length: %d\r\n"
            b"Transfer-Encoding: identity\r\n\r\n%b" % (len(body), chunked(body))
        )
        with RawStub([(reply, False)]) as stub:
            backend = HTTPBackend(stub.url)
            assert backend.complete(simple_request("q0")).text == "ok"
            assert backend.complete(simple_request("q1")).text == "ok"
            backend.close()
        assert stub.connections == 2 and len(stub.requests) == 3 and len(sleeps) == 1

    def test_repeated_equal_transfer_encodings_are_one_encoding(self, sleeps):
        reply = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\ntransfer-encoding:  chunked \r\n\r\n%b" % (
            chunked(chat_bytes("twice")),
        )
        with RawStub([(reply, False)]) as stub:
            backend = HTTPBackend(stub.url)
            assert backend.complete(simple_request("q0")).text == "twice"
            assert backend.complete(simple_request("q1")).text == "ok"
            backend.close()
        assert stub.connections == 1 and sleeps == []

    def test_repeated_equal_content_lengths_are_one_length(self, sleeps):
        body = chat_bytes("twice")
        reply = b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\ncontent-length:  %d \r\n\r\n%b" % (
            len(body), len(body), body,
        )
        with RawStub([(reply, False)]) as stub:
            backend = HTTPBackend(stub.url)
            assert backend.complete(simple_request("q0")).text == "twice"
            assert backend.complete(simple_request("q1")).text == "ok"
            backend.close()
        assert stub.connections == 1 and sleeps == []

    def test_folded_line_continues_the_header_before_it(self, sleeps):
        """Read as a header of its own, the folded line would frame the body
        at 5 bytes; as part of X-Note, it leaves the body to run to the end."""
        reply = b"HTTP/1.1 200 OK\r\nX-Note: a\r\n content-length: 5\r\n\r\n" + chat_bytes("folded")
        with RawStub([(reply, True)]) as stub:
            backend = HTTPBackend(stub.url)
            assert backend.complete(simple_request("q0")).text == "folded"
            assert backend._poster._idle == []
            backend.close()
        assert sleeps == []
        head = io.BytesIO(b"X-Note: a\r\n content-length: 5\r\n\t b \r\nX-Other:\r\n\tc\r\n\r\n")
        assert transport_module._read_fields(head) == {"x-note": "a content-length: 5 b", "x-other": "c"}

    def test_1xx_replies_are_skipped(self, sleeps):
        early = b"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 103 Early Hints\r\nLink: </x>\r\n\r\n"
        with RawStub([(early + raw_chat_reply("final"), False)]) as stub:
            backend = HTTPBackend(stub.url)
            assert backend.complete(simple_request()).text == "final"
            backend.close()
        assert sleeps == []

    def test_204_has_no_body(self, sleeps):
        with RawStub([(b"HTTP/1.1 204 No Content\r\n\r\n", False)]) as stub:
            poster = JSONPoster(stub.url)
            assert poster._exchange(b"{}") == (204, None, b"")
            poster.close()

    def test_lowercase_retry_after_and_content_encoding_are_honoured(self, sleeps):
        slow = raw_reply(b"slow down", "HTTP/1.1 429 Too Many Requests", retry_after="2")
        packed = raw_reply(gzip.compress(chat_bytes("zipped")), content_encoding="gzip")
        with RawStub([(slow, False), (packed, False)]) as stub:
            backend = HTTPBackend(stub.url)
            assert backend.complete(simple_request()).text == "zipped"
            backend.close()
        assert sleeps == [2.0] and stub.connections == 1

    def test_gzip_body_that_does_not_decode_is_malformed_and_not_retried(self, sleeps):
        with RawStub(default=(raw_reply(chat_bytes("plain"), Content_Encoding="gzip"), False)) as stub:
            backend = HTTPBackend(stub.url)
            with pytest.raises(MalformedResponse, match="^gzip body does not decode"):
                backend.complete(simple_request())
            backend.close()
        assert len(stub.requests) == 1 and sleeps == []

    @pytest.mark.parametrize(
        "reply, message",
        [
            (raw_reply(b'{"choices": []}', Content_Length=1000), "IncompleteRead"),
            (raw_reply(b"{}", Content_Length=10**15), "IncompleteRead"),
            (raw_reply(b"zz\r\n{}\r\n0\r\n\r\n", Content_Length=None, Transfer_Encoding="chunked"), "bad chunk size"),
            (raw_reply(b"{}", Content_Length="1e3"), "bad Content-Length"),
            (raw_reply(b"{}", X_Long="a" * 70000), "got more than 65536 bytes"),
            (raw_reply(b"{}", **{f"X_{k}": "v" for k in range(101)}), "more than 100 headers"),
            (b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n", "ended inside its headers"),
            (b"HTTP/1.1 2000 OK\r\n\r\n", "bad status line"),
            (raw_reply(b"{}", Content_Length="+2"), "bad Content-Length"),
            (b"HTTP/1.1 200 OK\r\nGarbage\r\nContent-Length: 2\r\n\r\n{}", "has no colon"),
            (b"HTTP/1.1 200 OK\r\n Content-Length: 2\r\n\r\n{}", "before the first header"),
            (
                raw_reply(chunked(gzip.compress(b"{}")), Content_Length=None, Transfer_Encoding="gzip, chunked"),
                "unsupported Transfer-Encoding",
            ),
            (
                raw_reply(chunked(b"{}"), Content_Length=None, Transfer_Encoding="chunked, gzip"),
                "unsupported Transfer-Encoding",
            ),
        ],
        ids=[
            "short-body", "huge-length", "chunk-size", "content-length", "long-line", "101-headers", "cut-head", "status",
            "signed-length", "no-colon", "leading-fold", "gzip-then-chunked", "chunked-then-gzip",
        ],
    )
    def test_malformed_reply_is_retried_then_unreachable(self, reply, message, sleeps):
        with RawStub(default=(reply, True)) as stub:
            backend = HTTPBackend(stub.url)
            with pytest.raises(EndpointUnreachable, match=message):
                backend.complete(simple_request())
            backend.close()
        assert len(stub.requests) == MAX_RETRIES + 1 and len(sleeps) == MAX_RETRIES

    def test_new_connection_closed_before_a_status_line_is_retried_then_unreachable(self, monkeypatch):
        """Only a reused connection's drop is sent again at once; a new
        connection that closes without a reply is a transport error, retried
        after the backoff."""
        monkeypatch.setattr(transport_module, "BACKOFF_START_S", 0.001)
        with RawStub(default=(b"", True)) as stub:
            backend = HTTPBackend(stub.url)
            with pytest.raises(EndpointUnreachable, match="closed the connection without a reply"):
                backend.complete(simple_request())
            backend.close()
        assert len(stub.requests) == stub.connections == MAX_RETRIES + 1

    def test_garbage_status_line_is_one_error_line(self, tmp_path, monkeypatch, capsys):
        """``eval`` keeps an endpoint error per record; ``sweep`` stops on it,
        with one line and no traceback."""
        monkeypatch.setattr(transport_module, "MAX_RETRIES", 0)
        with RawStub(default=(b"SPAM 200 OK\r\n\r\n", True)) as stub:
            config = generation_config(tmp_path, stub.url, 3, 2)
            assert main(["eval", "--config", str(config)]) == EXIT_OK
            records = (tmp_path / "out" / "records.jsonl").read_text().splitlines()
            assert all(json.loads(r)["flags"] == ["error:EndpointUnreachable"] for r in records)
            capsys.readouterr()
            assert main(["sweep", "--config", str(config), "--taus", "0.5"]) == EXIT_ENDPOINT
        err = capsys.readouterr().err
        assert err.startswith("endpoint error: ") and "bad status line b'SPAM 200 OK" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "url, message",
        [
            ("http://127.0.0.1:abc/v1", "Port could not be cast"),
            ("http://127.0.0.1:99999/v1", "Port out of range"),
            ("http://127.0.0.1:9/v 1", "the URL must be ASCII, with no spaces"),
            ("http://127.0.0.1:9/v\u00e9", "the URL must be ASCII, with no spaces"),
        ],
    )
    def test_bad_url_is_one_endpoint_error_at_once(self, url, message, sleeps):
        with pytest.raises(EndpointUnreachable, match=f"^{re.escape(url)}/chat/completions: {message}"):
            HTTPBackend(url)
        assert sleeps == []

    def test_url_that_is_not_http_is_one_endpoint_error_at_once(self, sleeps):
        url = "ftp://127.0.0.1:9/v1/chat/completions"
        with pytest.raises(EndpointUnreachable, match=f"^{re.escape(url)} is not an http:// or https:// URL$"):
            HTTPBackend("ftp://127.0.0.1:9/v1")
        assert sleeps == []

    @pytest.mark.parametrize("api_key", ["sk\r\nX-Injected: 1", "sk-\u0142"])
    def test_api_key_that_cannot_be_a_header_is_one_config_error(self, api_key):
        with pytest.raises(ConfigInvalid, match="the API key holds") as caught:
            HTTPBackend("http://127.0.0.1:9/v1", api_key=api_key)
        assert "sk" not in str(caught.value)

    def test_bad_proxy_port_is_one_endpoint_error_at_once(self, monkeypatch, sleeps):
        monkeypatch.setenv("HTTP_PROXY", "http://user:pw@127.0.0.1:pw9")
        monkeypatch.delenv("NO_PROXY", raising=False)
        monkeypatch.delenv("no_proxy", raising=False)
        with pytest.raises(EndpointUnreachable, match="proxy for http://127.0.0.1:9/v1") as caught:
            HTTPBackend("http://127.0.0.1:9/v1")
        assert "user" not in str(caught.value) and sleeps == []


@closes_everything
@pytest.mark.usefixtures("plain_env")
class TestWireFormat:
    """The exact bytes of a request: its line, Host, the headers in order,
    Content-Length and the body."""

    def test_direct_request(self):
        with RawStub(default=(raw_reply(b'{"a": 1}'), False)) as stub:
            poster = JSONPoster(f"{stub.url}/chat/completions", api_key="sk-test")
            assert poster.post({"q": "x"}) == {"a": 1}
            poster.close()
        assert stub.requests == [
            b"POST /v1/chat/completions HTTP/1.1\r\n"
            b"Host: 127.0.0.1:%d\r\n"
            b"Content-Type: application/json\r\n"
            b"Accept-Encoding: gzip, deflate\r\n"
            b"Authorization: Bearer sk-test\r\n"
            b"Content-Length: 10\r\n"
            b"\r\n"
            b'{"q": "x"}' % stub.port
        ]

    def test_absolute_form_request_through_an_http_proxy(self, monkeypatch):
        monkeypatch.delenv("NO_PROXY", raising=False)
        monkeypatch.delenv("no_proxy", raising=False)
        with RawStub(default=(raw_reply(b'{"a": 1}'), False)) as proxy:
            monkeypatch.setenv("HTTP_PROXY", f"http://user:pw@127.0.0.1:{proxy.port}")
            poster = JSONPoster("http://example.invalid:8080/v1/chat/completions?x=1")
            assert poster.post({"q": "x"}) == {"a": 1}
            poster.close()
        assert proxy.requests == [
            b"POST http://example.invalid:8080/v1/chat/completions?x=1 HTTP/1.1\r\n"
            b"Host: example.invalid:8080\r\n"
            b"Content-Type: application/json\r\n"
            b"Accept-Encoding: gzip, deflate\r\n"
            b"Proxy-Authorization: Basic " + base64.b64encode(b"user:pw") + b"\r\n"
            b"Content-Length: 10\r\n"
            b"\r\n"
            b'{"q": "x"}'
        ]


@pytest.fixture
def self_signed(tmp_path):
    """A throwaway certificate for IP 127.0.0.1 and its key, made by the
    openssl command: (certificate file, key file)."""
    if shutil.which("openssl") is None:
        pytest.skip("no openssl command")
    cert, key = str(tmp_path / "cert.pem"), str(tmp_path / "key.pem")
    subprocess.run(
        ["openssl", "req", "-x509", "-newkey", "ec", "-pkeyopt", "ec_paramgen_curve:prime256v1",
         "-nodes", "-keyout", key, "-out", cert, "-days", "1", "-subj", "/CN=127.0.0.1",
         "-addext", "subjectAltName=IP:127.0.0.1"],
        check=True, capture_output=True,
    )
    return cert, key


class ConnectProxy(LoopbackServer):
    """Loopback proxy that answers CONNECT with ``status``: a 200, with the
    header lines ``extra`` after its own, then relays bytes both ways until
    either side closes; any other status refuses the tunnel. It keeps each
    tunnel's target and headers."""

    def __init__(self, status=200, extra=()):
        self.targets = []
        self.headers = []
        proxy = self

        class Handler(BaseHTTPRequestHandler):
            def do_CONNECT(self):
                proxy.targets.append(self.path)
                proxy.headers.append(self.headers)
                if status != 200:
                    self.send_error(status)
                    return
                host, port = self.path.rsplit(":", 1)
                with socket.create_connection((host, int(port)), timeout=10) as upstream:
                    self.send_response(200, "Connection established")
                    for name, value in extra:
                        self.send_header(name, value)
                    self.end_headers()
                    relay(self.connection, upstream)

            def log_message(self, *args):
                pass

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.port = self._server.server_port


def relay(a, b):
    """Copies bytes between sockets ``a`` and ``b`` until one closes or both
    stay quiet for 10 s."""
    other = {a: b, b: a}
    while True:
        readable, _, _ = select.select(list(other), [], [], 10)
        if not readable:
            return
        for sock in readable:
            data = sock.recv(65536)
            if not data:
                return
            other[sock].sendall(data)


@closes_everything
@pytest.mark.usefixtures("plain_env")
class TestTLS:
    @pytest.fixture(autouse=True)
    def no_tls_env(self, monkeypatch):
        for name in ("REQUESTS_CA_BUNDLE", "CURL_CA_BUNDLE", "https_proxy", "HTTPS_PROXY", "no_proxy", "NO_PROXY"):
            monkeypatch.delenv(name, raising=False)

    def test_bundle_from_environment_is_trusted(self, self_signed, monkeypatch):
        monkeypatch.setenv("REQUESTS_CA_BUNDLE", self_signed[0])
        with ChatStub(tls=self_signed) as stub:
            backend = HTTPBackend(stub.url)
            assert backend.complete(simple_request()).text == "ok"
            backend.close()
        assert stub.url.startswith("https://") and len(stub.headers) == 1

    def test_bundle_that_does_not_load_is_unreachable_when_built(self, tmp_path, monkeypatch):
        bundle = tmp_path / "bundle.pem"
        bundle.write_text("-----BEGIN CERTIFICATE-----\nnot base64\n-----END CERTIFICATE-----\n")
        monkeypatch.setenv("REQUESTS_CA_BUNDLE", str(bundle))
        with pytest.raises(EndpointUnreachable, match=f"^CA bundle {bundle}: "):
            HTTPBackend("https://127.0.0.1:9/v1")

    def test_certifi_bundle_rejects_a_self_signed_endpoint(self, self_signed, monkeypatch):
        monkeypatch.setattr(transport_module, "MAX_RETRIES", 0)
        with ChatStub(tls=self_signed) as stub:
            backend = HTTPBackend(stub.url)
            with pytest.raises(EndpointUnreachable, match="certificate verify failed"):
                backend.complete(simple_request())
            backend.close()
        assert stub.headers == []

    def test_connect_tunnel_carries_the_proxy_credential(self, self_signed, monkeypatch):
        monkeypatch.setenv("REQUESTS_CA_BUNDLE", self_signed[0])
        with ChatStub(tls=self_signed) as stub, ConnectProxy() as proxy:
            monkeypatch.setenv("https_proxy", f"http://user:pw@127.0.0.1:{proxy.port}")
            backend = HTTPBackend(stub.url)
            assert backend.complete(simple_request()).text == "ok"
            backend.close()
        assert proxy.targets == [stub.url.split("/")[2]]
        assert proxy.headers[0]["Proxy-Authorization"] == "Basic " + base64.b64encode(b"user:pw").decode()
        assert stub.paths == ["/v1/chat/completions"]
        assert "Proxy-Authorization" not in stub.headers[0]

    @pytest.mark.parametrize("status", [407, 502])
    def test_refused_tunnel_is_retried_then_one_endpoint_error(self, self_signed, monkeypatch, sleeps, status):
        monkeypatch.setenv("REQUESTS_CA_BUNDLE", self_signed[0])
        with ChatStub(tls=self_signed) as stub, ConnectProxy(status) as proxy:
            monkeypatch.setenv("https_proxy", f"http://127.0.0.1:{proxy.port}")
            backend = HTTPBackend(stub.url)
            with pytest.raises(EndpointUnreachable, match=f": Tunnel connection failed: {status} "):
                backend.complete(simple_request())
            backend.close()
        assert len(proxy.targets) == MAX_RETRIES + 1 and len(sleeps) == MAX_RETRIES
        assert stub.connections == 0

    def test_tunnel_reply_with_more_header_lines(self, self_signed, monkeypatch):
        """A 200 to CONNECT has no body (RFC 9110 section 9.3.6): its
        Content-Length is not read as one, and the TLS handshake starts
        right after the blank line."""
        monkeypatch.setenv("REQUESTS_CA_BUNDLE", self_signed[0])
        extra = [("Proxy-Agent", "loopback/1"), ("Via", "1.1 loopback"), ("Content-Length", "1000")]
        with ChatStub(tls=self_signed) as stub, ConnectProxy(200, extra) as proxy:
            monkeypatch.setenv("https_proxy", f"http://127.0.0.1:{proxy.port}")
            backend = HTTPBackend(stub.url)
            assert backend.complete(simple_request("q0")).text == "ok"
            assert backend.complete(simple_request("q1")).text == "ok"  # on the same tunnel
            backend.close()
        assert proxy.targets == [stub.url.split("/")[2]]
        assert stub.paths == ["/v1/chat/completions"] * 2 and stub.connections == 1


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


# -0.25 and -1.5 as little-endian IEEE-754 doubles, in base64
GOLDEN_BLOB = "AAAAAAAA0L8AAAAAAAD4vw=="
# -0.25, -1.5 and -2.0 likewise: the block of an older line holding two positions
TWO_POSITION_BLOB = "AAAAAAAA0L8AAAAAAAD4vwAAAAAAAADA"

# signed zeros, -inf, subnormals and the smallest normal, beside any float <= 0
LOGPROBS = st.one_of(
    st.sampled_from([-0.0, 0.0, -math.inf, -5e-324, -1e-310, -2.2250738585072014e-308]),
    st.floats(max_value=0.0, allow_nan=False),
)


def logprob_bits(response):
    first = response.first
    return None if first is None else [(token, struct.pack("<d", lp)) for token, lp in zip(first.tokens, first.logprobs)]


def response_of(text, dist):
    """The response of ``text`` with the top-K ``dist`` (token -> logprob),
    or of no token when ``dist`` is None."""
    if dist is None:
        return CompletionResponse("", None)
    return CompletionResponse(text, TokenDistribution.from_pairs(tuple(dist.items())))


def record_line(digest, response):
    return json.dumps({"request_digest": digest, "response": response}) + "\n"


def blob(*logprobs):
    return base64.b64encode(struct.pack(f"<{len(logprobs)}d", *logprobs)).decode("ascii")


@closes_everything
class TestCacheRecord:
    """A cache line holds the text as the one generated token, the first
    position's top tokens, and their logprobs as one base64 block of
    little-endian float64s; an older line that holds every position loads
    its first."""

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(st.text(max_size=8), st.none() | st.dictionaries(st.text(max_size=4), LOGPROBS, max_size=25))
    @example("", None)
    @example("", {})
    @example('say "hi"\n', {'"': -0.0, "\n\\": -math.inf, "é✓ü": -5e-324, "x": -1e-310})
    def test_put_close_reload_keeps_every_bit(self, text, dist):
        response = response_of(text, dist)
        with tempfile.TemporaryDirectory() as tmp:
            cache = ResponseCache(Path(tmp) / "cache.jsonl")
            cache.put("d1", response)
            cache.close()
            reloaded = ResponseCache(Path(tmp) / "cache.jsonl").get("d1")
        assert reloaded.text == response.text
        assert logprob_bits(reloaded) == logprob_bits(response)

    @pytest.mark.parametrize(
        "response, line",
        [
            (
                CompletionResponse("Yes!", TokenDistribution.from_pairs((("Yes", -0.25), ("No", -1.5)))),
                f'"generated_tokens": ["Yes!"], "top_tokens": [["Yes", "No"]], "top_logprobs": "{GOLDEN_BLOB}"',
            ),
            (CompletionResponse("", None), '"generated_tokens": [], "top_tokens": [], "top_logprobs": ""'),
        ],
        ids=["first-position", "no-token"],
    )
    def test_golden_line(self, tmp_path, response, line):
        path = tmp_path / "cache.jsonl"
        cache = ResponseCache(path)
        cache.put("d1", response)
        cache.close()
        assert path.read_text(encoding="utf-8").startswith(
            f'{{"request_digest": "d1", "response": {{{line}}}, "created_at": '
        )
        assert base64.b64decode(GOLDEN_BLOB) == bytes.fromhex("000000000000d0bf" "000000000000f8bf")
        assert ResponseCache(path).get("d1") == response

    def test_an_older_line_of_two_positions_loads_its_first(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_text(
            '{"request_digest": "d1", "response": {"generated_tokens": ["Yes", "!"], '
            f'"top_tokens": [["Yes", "No"], ["!"]], "top_logprobs": "{TWO_POSITION_BLOB}"}}, "created_at": 1760000000.0}}\n'
        )
        assert base64.b64decode(TWO_POSITION_BLOB) == bytes.fromhex("000000000000d0bf" "000000000000f8bf" "00000000000000c0")
        response = ResponseCache(path).get("d1")
        assert response.text == "Yes!"
        assert logprob_bits(response) == [("Yes", bytes.fromhex("000000000000d0bf")), ("No", bytes.fromhex("000000000000f8bf"))]

    @pytest.mark.parametrize(
        "top_tokens, top_logprobs",
        [
            ([["a", "b"]], "not base64!"),
            ([["a", "b"]], base64.b64encode(bytes(12)).decode()),  # not whole doubles
            ([["a", "b"]], blob(-0.1)),  # too few
            ([["a", "b"]], blob(-0.1, -0.2, -0.3)),  # too many
            ([["a"], ["b"]], blob(-0.1)),  # too few, a position short
            ([["a", "b"]], 5),
            ([["a", "b"]], [-0.1, -0.2]),
            (["ab"], blob(-0.1, -0.2)),  # a position's top tokens that are not a list
        ],
        ids=[
            "bad-base64", "part-double", "too-few", "too-many", "position-short", "int-blob", "list-blob", "str-tokens"
        ],
    )
    def test_damaged_record_fails_the_load_with_its_line(self, tmp_path, top_tokens, top_logprobs):
        path = tmp_path / "cache.jsonl"
        bad = {"generated_tokens": ["a"] * len(top_tokens), "top_tokens": top_tokens, "top_logprobs": top_logprobs}
        path.write_text(cache_line("d1", "a") + record_line("d2", bad) + cache_line("d3", "c"))
        with pytest.raises(SchemaViolation, match=r"cache\.jsonl:2: corrupt cache line"):
            ResponseCache(path)

    def test_a_file_mixing_old_and_new_lines_loads(self, tmp_path):
        """Pairs per position, every position in one block, and the first
        position only, in one file."""
        path = tmp_path / "cache.jsonl"
        pairs = {
            "generated_tokens": ["a", "b"],
            "token_distributions": [{"entries": [["a", -0.1]]}, {"entries": [["b", -0.3]]}],
        }
        every = {"generated_tokens": ["Yes", "."], "top_tokens": [["Yes", "No"], ["."]], "top_logprobs": blob(-0.2, -1.8, -0.5)}
        first = {"generated_tokens": ["No"], "top_tokens": [["No", "Yes"]], "top_logprobs": blob(-0.4, -1.1)}
        path.write_text(
            record_line("d1", pairs) + record_line("d2", every) + record_line("d3", first) + cache_line("d4", "c")
        )
        cache = ResponseCache(path)
        assert cache.get("d1") == CompletionResponse("ab", TokenDistribution.from_pairs((("a", -0.1),)))
        assert cache.get("d2") == CompletionResponse("Yes.", TokenDistribution.from_pairs((("Yes", -0.2), ("No", -1.8))))
        assert cache.get("d3") == CompletionResponse("No", TokenDistribution.from_pairs((("No", -0.4), ("Yes", -1.1))))
        assert cache.get("d4").text == "c"

    def test_an_integer_logprob_beyond_the_float_range_is_malformed_and_not_cached(self, tmp_path):
        response = CompletionResponse("a", TokenDistribution.from_pairs((("a", -(10**400)),)))
        cache = ResponseCache(tmp_path / "cache.jsonl")
        with pytest.raises(MalformedResponse, match="float range"):
            cache.put("d1", response)
        assert cache.get("d1") is None and not (tmp_path / "cache.jsonl").exists()

    @pytest.mark.usefixtures("plain_env")
    def test_positive_logprob_from_the_endpoint_is_read_as_zero_and_cached(self, tmp_path):
        body = chat_body("Yes")
        body["choices"][0]["logprobs"]["content"][0]["top_logprobs"] = [
            {"token": "Yes", "logprob": 0.7},
            {"token": "No", "logprob": -2.0},
        ]
        path = tmp_path / "cache.jsonl"
        with ChatStub(default=(200, {"Content-Type": "application/json"}, json.dumps(body).encode())) as stub:
            client = ModelClient(HTTPBackend(stub.url), cache=ResponseCache(path))
            response = client.complete(simple_request())
            client.close()
        dist = response.first
        assert (dist.tokens, dist.logprobs) == (("Yes", "No"), (0.0, -2.0))
        assert ResponseCache(path).get(request_digest(simple_request())) == response

    def test_a_loaded_response_holds_its_alternatives_compactly(self, tmp_path):
        """200 responses, each 20 alternatives drawn from 60 tokens, as real
        top-K lists repeat a small vocabulary: a token seen in many responses
        is held once, and a distribution is two tuples."""
        rng = random.Random(7)
        vocabulary = [f"tok{k}" for k in range(60)]  # CPython already shares one-character strings
        path = tmp_path / "cache.jsonl"
        with path.open("w") as fh:
            for n in range(200):
                top = [rng.sample(vocabulary, 20)]
                logprobs = [-rng.expovariate(0.5) for _ in range(20)]
                response = {"generated_tokens": [t[0] for t in top], "top_tokens": top, "top_logprobs": blob(*logprobs)}
                fh.write(record_line(f"d{n}", response))
        gc.collect()
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            cache = ResponseCache(path)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert held / (200 * 20) < 100  # bytes per alternative; about 180 with a pair and a dict entry each
        first, second = cache.get("d0").first, cache.get("d1").first
        shared = set(first.tokens) & set(second.tokens)
        assert shared
        for token in shared:
            assert first.tokens[first.tokens.index(token)] is second.tokens[second.tokens.index(token)]


DISTRIBUTIONS = st.one_of(
    st.dictionaries(st.text(max_size=4), st.floats(max_value=0.0, allow_nan=False), max_size=20),
    st.dictionaries(st.text(max_size=4), st.floats(max_value=0.0, allow_nan=False), min_size=21, max_size=30),
)


def wide_reply(request):
    """A reply with 25 top_logprobs per token: an answer, or a Yes/No self-evaluation."""
    token = "ok" if request["max_tokens"] > 1 else "Yes"
    top = [{"token": token, "logprob": -0.1}, {"token": "No", "logprob": -2.5}]
    top += [{"token": f"alt{k}", "logprob": -5.0 - k} for k in range(23)]
    body = {"choices": [{"logprobs": {"content": [{"token": token, "top_logprobs": top}]}}]}
    return 200, {"Content-Type": "application/json"}, json.dumps(body).encode()


@closes_everything
class TestResponseForm:
    """A response is checked in one place, whether a backend or the cache made it."""

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(st.text(max_size=8), st.none() | DISTRIBUTIONS)
    def test_json_round_trip(self, text, dist):
        response = response_of(text, dist)
        line = json.dumps(response.to_json(), ensure_ascii=False)
        assert CompletionResponse.from_json(json.loads(line)) == response

    def test_cache_line_with_older_fields_loads(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_text(
            '{"request_digest": "d1", "response": {"generated_tokens": ["Yes"], "token_distributions": '
            '[{"position_index": 0, "entries": [["Yes", -0.2], ["No", -1.8]]}], "finish_reason": "stop"}, '
            '"created_at": 1760000000.0}\n'
        )
        expected = CompletionResponse("Yes", TokenDistribution.from_pairs((("Yes", -0.2), ("No", -1.8))))
        assert ResponseCache(path).get("d1") == expected

    def test_int_token_in_a_cache_line_fails_the_load_with_its_line(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        bad = {"generated_tokens": [7], "token_distributions": [{"entries": [["7", -0.1]]}]}
        path.write_text(cache_line("d1", "a") + json.dumps({"request_digest": "d2", "response": bad}) + "\n")
        with pytest.raises(SchemaViolation, match=r"cache\.jsonl:2: .*not a string"):
            ResponseCache(path)

    @pytest.mark.parametrize("tokens", [["a", 7], "ab", None])
    def test_tokens_must_be_a_list_of_strings(self, tokens):
        with pytest.raises(MalformedResponse):
            CompletionResponse.from_json({"generated_tokens": tokens, "top_tokens": [["a"]], "top_logprobs": blob(-0.1)})

    @pytest.mark.usefixtures("plain_env")
    def test_a_cache_of_25_entry_replies_reloads(self, tmp_path):
        argv = ["eval", "--cache-path", str(tmp_path / "cache.jsonl")]
        with ChatStub(default=wide_reply) as stub:
            argv += ["--config", str(generation_config(tmp_path, stub.url, 3, 2))]
            assert main(argv) == EXIT_OK
            first_calls = len(stub.bodies)
            records = (tmp_path / "out" / "records.jsonl").read_bytes()
            assert main(argv) == EXIT_OK
        assert first_calls == 6 and len(stub.bodies) == first_calls
        assert (tmp_path / "out" / "records.jsonl").read_bytes() == records

    @pytest.mark.parametrize("name", ["mock.jsonl", "cache.jsonl"])
    def test_nan_logprob_fails_the_load_with_its_line(self, tmp_path, name):
        path = tmp_path / name
        if name == "mock.jsonl":
            path.write_text('{"tokens": ["a"]}\n{"tokens": ["Yes"], "distributions": [{"Yes": NaN}]}\n')
            load = MockBackend.from_jsonl
        else:
            path.write_text(cache_line("d1", "a") + cache_line("d2", "b").replace("-0.1", "NaN"))
            load = ResponseCache
        with pytest.raises(SchemaViolation, match=rf"{name}:2: "):
            load(path)

    @pytest.mark.usefixtures("plain_env")
    def test_nan_logprob_from_the_endpoint_is_an_error_record_and_not_cached(self, tmp_path):
        def reply(request):
            if request["max_tokens"] > 1:
                return chat_reply("ok")
            body = chat_body("Yes")
            body["choices"][0]["logprobs"]["content"][0]["top_logprobs"][0]["logprob"] = math.nan
            return 200, {"Content-Type": "application/json"}, json.dumps(body).encode()

        cache = tmp_path / "cache.jsonl"
        with ChatStub(default=reply) as stub:
            argv = ["eval", "--config", str(generation_config(tmp_path, stub.url, 2, 1)), "--cache-path", str(cache)]
            assert main(argv) == EXIT_OK
            assert len(stub.bodies) == 4
            assert main(argv) == EXIT_OK
            assert len(stub.bodies) == 6  # the self-evaluations are asked again
        records = [json.loads(line) for line in (tmp_path / "out" / "records.jsonl").read_text().splitlines()]
        assert all(r["flags"] == ["error:MalformedResponse"] for r in records) and len(records) == 2
        assert len(cache.read_text().splitlines()) == 2  # the two answers only
        assert "NaN" not in cache.read_text()

    @pytest.mark.usefixtures("plain_env")
    def test_int_token_from_the_endpoint_is_an_error_record(self, tmp_path, capsys):
        body = chat_body("x")
        body["choices"][0]["logprobs"]["content"][0]["token"] = 7
        reply = (200, {"Content-Type": "application/json"}, json.dumps(body).encode())
        cache = tmp_path / "cache.jsonl"
        with ChatStub(default=reply) as stub:
            config = generation_config(tmp_path, stub.url, 2, 1)
            assert main(["eval", "--config", str(config), "--cache-path", str(cache)]) == EXIT_OK
        records = [json.loads(line) for line in (tmp_path / "out" / "records.jsonl").read_text().splitlines()]
        assert len(records) == 2
        assert all("error:MalformedResponse" in r["flags"] for r in records)
        assert capsys.readouterr().err == ""
        assert not cache.exists()

    @pytest.mark.usefixtures("plain_env")
    def test_int_top_token_from_the_endpoint_is_an_error_record_and_not_cached(self, tmp_path, capsys):
        body = chat_body("x")
        body["choices"][0]["logprobs"]["content"][0]["top_logprobs"].append({"token": 7, "logprob": -2.0})
        reply = (200, {"Content-Type": "application/json"}, json.dumps(body).encode())
        cache = tmp_path / "cache.jsonl"
        with ChatStub(default=reply) as stub:
            config = generation_config(tmp_path, stub.url, 2, 1)
            assert main(["eval", "--config", str(config), "--cache-path", str(cache)]) == EXIT_OK
        records = [json.loads(line) for line in (tmp_path / "out" / "records.jsonl").read_text().splitlines()]
        assert len(records) == 2
        assert all("error:MalformedResponse" in r["flags"] for r in records)
        assert capsys.readouterr().err == ""
        assert not cache.exists()

    @pytest.mark.usefixtures("plain_env")
    @pytest.mark.parametrize(
        "alternative",
        [{"token": "y", "logprob": math.nan}, {"token": "x", "logprob": -2.0}, {"token": 7, "logprob": -2.0}],
        ids=["nan-logprob", "duplicate-token", "int-token"],
    )
    def test_a_reply_that_fails_the_check_ends_one_way(self, tmp_path, capsys, alternative):
        """Whatever its fault, an endpoint reply that fails the response check
        is a MalformedResponse: the one flag of an eval record, and exit 2 in
        sweep."""
        body = chat_body("x")
        body["choices"][0]["logprobs"]["content"][0]["top_logprobs"].append(alternative)
        reply = (200, {"Content-Type": "application/json"}, json.dumps(body).encode())
        with ChatStub(default=reply) as stub:
            config = generation_config(tmp_path, stub.url, 2, 1)
            assert main(["eval", "--config", str(config)]) == EXIT_OK
            assert capsys.readouterr().err == ""
            assert main(["sweep", "--config", str(config), "--taus", "0.5"]) == EXIT_ENDPOINT
        records = [json.loads(line) for line in (tmp_path / "out" / "records.jsonl").read_text().splitlines()]
        assert [r["flags"] for r in records] == [["error:MalformedResponse"]] * 2
        err = capsys.readouterr().err
        assert err.startswith("endpoint error: ") and len(err.splitlines()) == 1

    @pytest.mark.usefixtures("plain_env")
    @pytest.mark.parametrize("token, cached", [("!", True), (7, False)], ids=["alternatives", "int-token"])
    def test_past_the_first_position_only_the_token_is_checked(self, tmp_path, token, cached):
        """A NaN logprob and a repeated token among the third position's
        alternatives are never read, so the reply makes a normal record and
        is cached; a third token that is not a string still fails it."""

        def reply(request):
            if request["max_tokens"] == 1:
                body = chat_body("Yes")
                body["choices"][0]["logprobs"]["content"][0]["top_logprobs"].append({"token": "No", "logprob": -2.0})
                return 200, {"Content-Type": "application/json"}, json.dumps(body).encode()
            body = chat_body("o")
            body["choices"][0]["logprobs"]["content"] += [
                {"token": "k", "top_logprobs": [{"token": "k", "logprob": -0.1}]},
                {"token": token, "top_logprobs": [{"token": "x", "logprob": math.nan}, {"token": "x", "logprob": -1.0}]},
            ]
            return 200, {"Content-Type": "application/json"}, json.dumps(body).encode()

        cache = tmp_path / "cache.jsonl"
        with ChatStub(default=reply) as stub:
            argv = ["eval", "--config", str(generation_config(tmp_path, stub.url, 2, 1)), "--cache-path", str(cache)]
            assert main(argv) == EXIT_OK
            records = [json.loads(line) for line in (tmp_path / "out" / "records.jsonl").read_text().splitlines()]
            if cached:
                assert [(r["prediction"], r["correct"], r["flags"]) for r in records] == [("ok!", True, [])] * 2
                assert len(cache.read_text().splitlines()) == 4 and "NaN" not in cache.read_text()
                calls = len(stub.bodies)
                assert main(argv) == EXIT_OK
                assert len(stub.bodies) == calls  # the second run is served from the cache
            else:
                assert [r["flags"] for r in records] == [["error:MalformedResponse"]] * 2
                assert not cache.exists()

    @pytest.mark.parametrize("shape", ["compact", "pairs"])
    def test_int_top_token_in_a_cache_line_fails_the_load_with_its_line(self, tmp_path, shape):
        if shape == "compact":
            bad = CompletionResponse("x", TokenDistribution.from_pairs((("x", -0.1),))).to_json()
            bad["top_tokens"] = [[7]]
        else:
            bad = {"generated_tokens": ["x"], "token_distributions": [{"entries": [[7, -0.1]]}]}
        path = tmp_path / "cache.jsonl"
        path.write_text(cache_line("d1", "a") + json.dumps({"request_digest": "d2", "response": bad}) + "\n")
        with pytest.raises(SchemaViolation, match=r"cache\.jsonl:2: .*top token 7 is not a string"):
            ResponseCache(path)


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
        assert response.text == "Yes"
        assert (response.first.tokens, response.first.logprobs) == (("Yes", "No"), (-0.2, -1.8))

    def test_missing_logprobs_is_malformed(self):
        with pytest.raises(MalformedResponse):
            HTTPBackend._parse({"choices": [{"message": {"content": "hi"}}]})

    def test_null_logprobs_is_malformed(self):
        with pytest.raises(MalformedResponse):
            HTTPBackend._parse({"choices": [{"logprobs": {"content": None}}]})

    def test_logprobs_content_not_a_list_is_malformed(self):
        with pytest.raises(MalformedResponse, match="not a list"):
            HTTPBackend._parse({"choices": [{"logprobs": {"content": 5}}]})

    def test_entry_without_top_logprobs_is_malformed(self):
        with pytest.raises(MalformedResponse, match="^malformed logprob entry at position 0$"):
            HTTPBackend._parse({"choices": [{"logprobs": {"content": [{"token": "Yes"}]}}]})


@st.composite
def label_readouts(draw):
    """A label set with disjoint aliases, and a top-K distribution over some
    of its aliases and some other tokens as a softmax gives it: with ties,
    labels absent from the top-K, or no label at all. In one branch the first
    token sits at logprob 0.0 beside a second alias of its label, so that the
    label's mass rounds past 1."""
    labels = draw(st.lists(st.sampled_from("ABCDEF"), min_size=1, max_size=5, unique=True))
    label_set = {}
    for lab in labels:
        spellings = [lab, " " + lab, lab.lower(), " " + lab.lower()]
        label_set[lab] = frozenset(draw(st.lists(st.sampled_from(spellings), min_size=1, max_size=4, unique=True)))
    aliases = sorted(alias for label_aliases in label_set.values() for alias in label_aliases)
    tokens = draw(st.lists(st.sampled_from(aliases + ["?", "Z", " maybe"]), unique=True))
    if draw(st.booleans()):
        first = labels[0]
        label_set[first] |= {first, " " + first}
        rest = {tok: -draw(st.floats(20.0, 40.0)) for tok in tokens if tok not in label_set[first]}
        return label_set, {first: 0.0, " " + first: -draw(st.floats(10.0, 30.0)), **rest}
    weights = [draw(st.sampled_from([0.25, 0.1]) | st.floats(1e-6, 1.0)) for _ in tokens]
    total = math.fsum(weights) + draw(st.floats(0.0, 1.0))  # the rest lies outside the top-K
    return label_set, {tok: math.log(w / total) for tok, w in zip(tokens, weights)}


def brute_force_classify(label_set, logprobs):
    """The paper's formula: each label's summed alias probability, a sum
    that rounds past 1 counting as 1, over the sum across labels; argmax
    ties go to the alphabetically first label. The raw value is the chosen
    label's probability. None when no label has probability."""
    probs = {
        label: min(math.fsum(math.exp(logprobs[alias]) for alias in aliases if alias in logprobs), 1.0)
        for label, aliases in label_set.items()
    }
    total = math.fsum(probs.values())
    if total == 0.0:
        return None
    chosen = min(label for label, p in probs.items() if p == max(probs.values()))
    return chosen, probs[chosen] / total, probs[chosen]


class TestClassify:
    LABELS = {lab: frozenset({lab}) for lab in ("A", "B", "C", "D")}

    def test_hand_arithmetic(self, scripted_client):
        dist = {"B": math.log(0.6), "A": math.log(0.2), "C": math.log(0.1), "D": math.log(0.1)}
        client = scripted_client([{"tokens": ["B"], "distributions": [dist]}])
        result = client.classify("pick one", self.LABELS)
        assert result.answer == "B"
        assert result.confidence == pytest.approx(0.6)
        assert result.raw == pytest.approx(0.6)

    def test_single_surviving_label(self, scripted_client):
        dist = {"A": math.log(0.05), "Z": math.log(0.9)}
        client = scripted_client([{"tokens": ["Z"], "distributions": [dist]}])
        result = client.classify("pick one", self.LABELS)
        assert result.answer == "A"
        assert result.confidence == pytest.approx(1.0)

    def test_uniform_tie_breaks_alphabetically(self, scripted_client):
        dist = {lab: math.log(0.25) for lab in "ABCD"}
        client = scripted_client([{"tokens": ["A"], "distributions": [dist]}])
        result = client.classify("pick one", self.LABELS)
        assert result.answer == "A"
        assert result.confidence == pytest.approx(0.25)

    def test_aliases_summing_past_one(self, scripted_client):
        """A first token rounded to logprob 0.0 beside a second alias of the
        same label: the label's mass is 1 + 2e-9, which counts as certain."""
        dist = {"A": 0.0, " A": -20.0, "B": -25.0}
        client = scripted_client([{"tokens": ["A"], "distributions": [dist]}])
        result = client.classify("pick one", {"A": frozenset({"A", " A"}), "B": frozenset({"B"})})
        assert result.answer == "A"
        assert result.confidence == pytest.approx(1.0 - math.exp(-25.0), rel=1e-15)

    def test_confidence_sums_to_one(self):
        # label scores as classify builds them, incl. an absent label at -inf
        from confcal.confidence import normalized_confidence

        cands = {"A": math.log(0.5), "B": math.log(0.2), "C": math.log(0.05), "D": float("-inf")}
        total = sum(normalized_confidence(cands, c) for c in cands)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_no_label_token_present(self, scripted_client):
        client = scripted_client([{"tokens": ["?"], "distributions": [{"?": -0.1}]}])
        with pytest.raises(NoLabelTokenPresent):
            client.classify("pick one", self.LABELS)

    @settings(max_examples=300, deadline=None)
    @given(label_readouts())
    @example(({"A": frozenset({"A", " A"}), "B": frozenset({"B"})}, {"A": 0.0, " A": -20.0, "B": -25.0}))
    @example(({"A": frozenset({"A"}), "B": frozenset({"B"})}, {"B": math.log(0.25), "A": math.log(0.25)}))
    @example(({"A": frozenset({"A"})}, {"?": -0.1}))
    @example(  # A's mass is 1 + e^-10: clamped or not, the confidence differs by about 1e-12
        (
            {"A": frozenset({"A", " A"}), "B": frozenset({"B"}), "C": frozenset({"C", " C", "c"}),
             "D": frozenset({"D", " D", "d", " d"}), "E": frozenset({"E", " E", "e", " e"})},
            {"A": 0.0, " A": -10.0, **dict.fromkeys(
                [" C", " D", " E", " d", " e", "B", "C", "D", "E", "c", "d", "e", "?", "Z", " maybe"], -20.0
            )},
        )
    )
    def test_matches_brute_force(self, case):
        label_set, logprobs = case
        client = ModelClient(MockBackend([{"tokens": ["?"], "distributions": [logprobs]}]))
        expected = brute_force_classify(label_set, logprobs)
        if expected is None:
            with pytest.raises(NoLabelTokenPresent):
                client.classify("pick one", label_set)
            return
        readout = client.classify("pick one", label_set)
        assert (readout.answer, readout.confidence, readout.raw, readout.flags) == (
            expected[0], pytest.approx(expected[1], rel=1e-12), pytest.approx(expected[2], rel=1e-12), frozenset()
        )


def self_eval_entries(dist, answer="a"):
    """Script for one ``ModelClient.answer``: the answer, then the self-evaluation."""
    return [{"tokens": [answer]}, {"tokens": ["Yes"], "distributions": [dist]}]


def spied_requests(backend):
    """The list that every request ``backend`` answers is appended to."""
    requests = []
    original = backend.complete

    def spy(request):
        requests.append(request)
        return original(request)

    backend.complete = spy
    return requests


class TestSelfEvaluate:
    def test_yes_heavy(self, scripted_client):
        dist = {"Yes": math.log(0.8), "No": math.log(0.2)}
        client = scripted_client(self_eval_entries(dist))
        readout = client.answer("q?")
        assert readout.confidence == pytest.approx(0.8)

    def test_symmetric(self, scripted_client):
        dist = {"Yes": math.log(0.4), "No": math.log(0.4)}
        client = scripted_client(self_eval_entries(dist))
        assert client.answer("q?").confidence == pytest.approx(0.5)

    def test_conversation_shape(self):
        answer = "Sinclair Lewis won the Nobel Prize for Literature in 1930"
        backend = MockBackend(self_eval_entries({"Yes": -0.1}, answer=answer))
        requests = spied_requests(backend)
        ModelClient(backend).answer(
            "Which American-born Sinclair won the Nobel Prize for Literature in 1930?"
        )
        messages = requests[1].messages
        assert [m.role for m in messages] == ["user", "assistant", "user"]
        assert messages[1].content == "Sinclair Lewis won the Nobel Prize for Literature in 1930"
        assert messages[2].content == SELF_EVAL_PROMPT

    def test_context_included_before_question(self):
        backend = MockBackend(self_eval_entries({"Yes": -0.1}))
        requests = spied_requests(backend)
        ModelClient(backend).answer("q?", context="some passage")
        messages = requests[1].messages
        assert messages[0].content.startswith("some passage")
        assert messages[0].content.endswith("q?")

    def test_anchor_missing_flags(self, scripted_client):
        dist = {"Yes": math.log(0.3), "Other": math.log(0.5)}
        client = scripted_client(self_eval_entries(dist))
        readout = client.answer("q?")
        assert readout.confidence == 1.0
        assert "anchor_missing_no" in readout.flags

    def test_error_policy_raises_without_anchors(self, scripted_client):
        client = scripted_client(self_eval_entries({"Maybe": math.log(0.9)}), missing_policy="error")
        with pytest.raises(AnchorTokensAbsent):
            client.answer("q?")

    @pytest.mark.parametrize("policy", ["skip", "ERROR", "", None])
    def test_unknown_policy_is_refused(self, policy):
        with pytest.raises(InvalidInput, match=r"^missing_policy must be error\|neutral, got "):
            ModelClient(MockBackend([]), missing_policy=policy)

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(
        st.dictionaries(
            st.sampled_from(sorted(DEFAULT_YES_ALIASES | DEFAULT_NO_ALIASES | {"Maybe"})),
            st.sampled_from([0.0, -1e-17, math.log(0.5), -math.inf]) | st.floats(min_value=-800, max_value=0.0),
        )
    )
    def test_raw_and_confidence_are_the_readouts_of_the_distribution(self, logprobs):
        readout = ModelClient(MockBackend(self_eval_entries(logprobs))).answer("q?")
        dist = TokenDistribution.from_pairs(logprobs.items())
        confidence, flags, _ = self_eval_confidence(dist)
        assert (readout.confidence, readout.flags, readout.raw) == (confidence, flags, p_yes(dist))


class TestGenerateAnswer:
    def test_scripted_answer(self, scripted_client):
        client = scripted_client(self_eval_entries({"Yes": -0.1}, answer="42"))
        answer = client.answer("what is six times seven?").answer
        assert answer == "42"

    def test_context_injected_before_question(self, scripted_client):
        backend = MockBackend(self_eval_entries({"Yes": -0.1}, answer="ok"))
        requests = spied_requests(backend)
        client = ModelClient(backend)
        client.answer("the question", context="the context")
        content = requests[0].messages[0].content
        assert content.index("the context") < content.index("the question")

    def test_empty_question_rejected(self, scripted_client):
        client = scripted_client([])
        with pytest.raises(InvalidInput):
            client.answer("  ")


class TestResponseInvariant:
    def test_a_reply_with_tokens_but_no_first_distribution_is_malformed(self):
        class BadBackend:
            def complete(self, request):
                return CompletionResponse("ab", None)

        client = ModelClient(BadBackend())
        with pytest.raises(MalformedResponse):
            client.complete(simple_request())
