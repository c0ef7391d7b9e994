"""Shared fixtures: record builders, bin-table loaders, scripted backends,
loopback HTTP stubs."""

import contextlib
import csv
import json
import math
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from unittest import mock

import pytest

from confcal.client import CompletionResponse, MockBackend, ModelClient, request_digest
from confcal.confidence import TokenDistribution
from confcal.metrics import EvalRecord

DATA_DIR = Path(__file__).parent / "data"


def make_record(i, correct, confidence, task_id="task", method="self_eval", flags=()):
    return EvalRecord(
        id=f"ex{i:05d}",
        task_id=task_id,
        prediction="p",
        gold="g",
        correct=correct,
        confidence=confidence,
        method=method,
        flags=frozenset(flags),
    )


def load_bin_csv(name):
    rows = []
    with open(DATA_DIR / name, newline="") as fh:
        for row in csv.DictReader(fh):
            rows.append(
                (int(row["count"]), float(row["mean_accuracy"]), float(row["mean_confidence"]))
            )
    return rows


def yes_no_entry(p_yes, p_no):
    """Mock script entry answering the self-eval prompt with one token."""
    dist = {}
    if p_yes > 0:
        dist["Yes"] = math.log(p_yes)
    if p_no > 0:
        dist["No"] = math.log(p_no)
    if not dist:
        dist = {"Maybe": math.log(0.9)}
    top = max(dist, key=dist.get)
    return {"tokens": [top], "distributions": [dist]}


def answer_entry(text):
    """Mock script entry for a free-form generation pass."""
    return {"tokens": [text], "distributions": [{text: -0.01}]}


@pytest.fixture
def scripted_client():
    """Factory: ModelClient over an in-order MockBackend script."""

    def _factory(entries, **kwargs):
        return ModelClient(MockBackend(entries), **kwargs)

    return _factory


class PureBackend:
    """Answers each request as a function of its digest alone, so the calls
    may come in any order, and counts the calls."""

    def __init__(self):
        self.calls = 0
        self._lock = threading.Lock()

    def complete(self, request):
        with self._lock:
            self.calls += 1
        n = int(request_digest(request)[:8], 16)
        if request.max_tokens > 1:  # an answer
            token = f"answer {n % 3}"
            entries = ((token, -0.01),)
        else:  # a self-evaluation
            p_yes = (n % 97 + 1) / 99
            token = "Yes"
            entries = (("Yes", math.log(p_yes)), ("No", math.log(1 - p_yes)))
        return CompletionResponse((token,), (TokenDistribution(entries),))


class MemoryCache(dict):
    """In-memory stand-in for ResponseCache: digest -> response."""

    def put(self, digest, response):
        self.setdefault(digest, response)


@contextlib.contextmanager
def thread_starts():
    """Yields the list of threads started inside the block."""
    started = []
    real_start = threading.Thread.start

    def start(thread):
        started.append(thread)
        real_start(thread)

    with mock.patch.object(threading.Thread, "start", start):
        yield started


# An append handle or a pooled connection left open fails the test. A
# ResourceWarning raised while an object is finalized reaches pytest as an
# unraisable-exception warning, hence the second filter.
closes_everything = pytest.mark.filterwarnings(
    "error::ResourceWarning", "error::pytest.PytestUnraisableExceptionWarning"
)


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


def chat_reply(token):
    return 200, {"Content-Type": "application/json"}, json.dumps(chat_body(token)).encode()


class ChatStub:
    """Loopback HTTP/1.1 JSON server that keeps connections alive. It
    answers with ``replies`` in order, each a (status, headers, body)
    triple, and then with ``default``, a triple or a function of the decoded
    request body that returns one; it counts accepted connections and keeps
    the path, the headers and the decoded body of every request."""

    def __init__(self, replies=(), default=chat_reply("ok"), delay_s=0.0):
        self.replies = list(replies)
        self.default = default
        self.connections = 0
        self.paths = []
        self.headers = []
        self.bodies = []
        lock = threading.Lock()
        stub = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def setup(self):
                super().setup()
                with lock:
                    stub.connections += 1

            def do_POST(self):
                request = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
                with lock:
                    stub.paths.append(self.path)
                    stub.headers.append(self.headers)
                    stub.bodies.append(request)
                    reply = stub.replies.pop(0) if stub.replies else stub.default
                status, headers, body = reply(request) if callable(reply) else reply
                time.sleep(delay_s)
                self.send_response(status)
                for name, value in headers.items():
                    self.send_header(name, value)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.url = f"http://127.0.0.1:{self._server.server_port}/v1"

    def __enter__(self):
        self._thread = threading.Thread(target=self._server.serve_forever, args=(0.02,), daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=10)


HTML = (200, {"Content-Type": "text/html"}, b"<html>sign in</html>")


@pytest.fixture
def plain_env(monkeypatch, tmp_path):
    """No proxy and no netrc entry from the surrounding environment."""
    for name in ("http_proxy", "HTTP_PROXY", "all_proxy", "ALL_PROXY"):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("NETRC", str(tmp_path / "no-netrc"))


@pytest.fixture
def sleeps(monkeypatch):
    """The waits of the test's own thread, recorded instead of slept."""
    slept = []
    test_thread = threading.get_ident()
    real_sleep = time.sleep

    def sleep(seconds):
        if threading.get_ident() == test_thread:
            slept.append(seconds)
        else:
            real_sleep(seconds)

    monkeypatch.setattr(time, "sleep", sleep)
    return slept
