"""Loopback chat-completions stub with deterministic top_logprobs.

Serves ``POST /chat/completions`` in the variant that returns per-token
``logprobs.content[].top_logprobs``, plus ``GET /stats`` with request and
status-code counts. Every response is a pure function of the request body
(``respond``), so a cold run and a run from a filled cache write identical
artifacts. Each request is answered a fixed service time after its headers
were read, however long the stub took to compute the answer, so that the
stub's own CPU time, which grows when the host is slow, does not add to it.

Questions are "What is A + B?"; the answer is right with a probability that
rises when a context precedes the question, and the Yes/No self-evaluation
leans towards Yes on right answers. A few answers carry no number, and a few
self-evaluations carry no Yes/No anchor, so those program paths run too.

    python3 stub.py    # binds a free loopback port, prints it, then serves
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

_SUM_RE = re.compile(r"(\d+) \+ (\d+)")
_NUMBER_RE = re.compile(r"-?\d+")
# Distinct from every Yes/No alias the client accepts.
_FILLERS = (
    "Maybe", "Correct", "Sure", "The", "It", "I", "Y", "N", "Not", "Right",
    "Wrong", "True", "False", "Possibly", "Perhaps", "Indeed", "Nope", "Yeah",
    "OK", "Unclear", "A", "Answer", "This", "That",
)
SERVICE_DELAY_S = 0.003
_YES_NO_MASS = 0.9
_ANCHOR_MISSING_RATE = 0.02


def _units(body: dict) -> list[float]:
    """Eight uniforms in [0, 1) drawn from the fields that shape the answer."""
    key = {
        "model": body.get("model"),
        "messages": body["messages"],
        "max_tokens": body.get("max_tokens"),
        "temperature": body.get("temperature"),
        "top_logprobs": body.get("top_logprobs"),
    }
    blob = json.dumps(key, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    digest = hashlib.sha256(blob.encode("utf-8")).digest()
    return [int.from_bytes(digest[4 * i : 4 * i + 4], "big") / 2**32 for i in range(8)]


def _question_truth(content: str) -> int | None:
    """Sum asked in the last paragraph (the question; earlier ones are context)."""
    question = content.rsplit("\n\n", 1)[-1]
    found = _SUM_RE.findall(question)
    if not found:
        return None
    a, b = found[-1]
    return int(a) + int(b)


def _position(token: str, prob: float, k: int, units: list[float], slot: int) -> dict:
    """One generated position: the token plus k-1 filler alternatives."""
    rest = (1.0 - prob) * 0.9
    alts = [(token, math.log(prob))]
    start = int(units[slot % 8] * len(_FILLERS))
    for j in range(k - 1):
        filler = _FILLERS[(start + j) % len(_FILLERS)]
        if filler == token:
            continue
        alts.append((filler, math.log(rest / 2 ** (j + 1))))
    alts = alts[:k]
    return {
        "token": token,
        "logprob": alts[0][1],
        "top_logprobs": [{"token": t, "logprob": lp} for t, lp in alts],
    }


def _answer(content: str, k: int, units: list[float]) -> list[dict]:
    truth = _question_truth(content)
    has_context = "\n\n" in content
    p_unknown, p_right = (0.01, 0.85) if has_context else (0.04, 0.55)
    u = units[0]
    if truth is None or u < p_unknown:
        tokens = ["I", " am", " not", " sure", "."]
    else:
        value = truth
        if u >= p_unknown + p_right:
            step = 1 + int(units[1] * 20)
            value = truth + (step if units[2] < 0.5 else -step)
        tokens = ["The", " answer", " is", f" {value}", "."]
    return [
        _position(tok, 0.5 + 0.5 * units[(i + 3) % 8], k, units, i)
        for i, tok in enumerate(tokens)
    ]


def _self_eval(question: str, answer: str, k: int, units: list[float]) -> list[dict]:
    truth = _question_truth(question)
    numbers = _NUMBER_RE.findall(answer)
    right = truth is not None and bool(numbers) and int(numbers[-1]) == truth
    if units[1] < _ANCHOR_MISSING_RATE:
        return [_position("Maybe", 0.6, k, units, 0)]
    p_yes = (0.35 if right else 0.05) + 0.6 * units[0]
    yes = ("Yes", math.log(_YES_NO_MASS * p_yes))
    no = ("No", math.log(_YES_NO_MASS * (1.0 - p_yes)))
    alts = sorted([yes, no], key=lambda kv: -kv[1])
    rest = 1.0 - _YES_NO_MASS
    start = int(units[2] * len(_FILLERS))
    for j in range(k - 2):
        alts.append((_FILLERS[(start + j) % len(_FILLERS)], math.log(rest / 2 ** (j + 1))))
    alts = alts[:k]
    return [
        {
            "token": alts[0][0],
            "logprob": alts[0][1],
            "top_logprobs": [{"token": t, "logprob": lp} for t, lp in alts],
        }
    ]


def respond(body: dict) -> dict:
    """The completion for one request body; deterministic in the body."""
    messages = body["messages"]
    k = max(1, int(body.get("top_logprobs") or 1))
    units = _units(body)
    if len(messages) >= 3 and messages[1]["role"] == "assistant":
        content = _self_eval(messages[0]["content"], messages[1]["content"], k, units)
    else:
        content = _answer(messages[-1]["content"], k, units)
    content = content[: max(1, int(body.get("max_tokens") or 1))]
    return {
        "object": "chat.completion",
        "model": body.get("model"),
        "choices": [
            {
                "index": 0,
                "message": {"role": "assistant", "content": "".join(c["token"] for c in content)},
                "logprobs": {"content": content},
                "finish_reason": "stop",
            }
        ],
    }


class _Counts:
    def __init__(self):
        self.lock = threading.Lock()
        self.requests = 0
        self.status: dict[str, int] = {}

    def add(self, status: int) -> None:
        with self.lock:
            self.requests += 1
            key = str(status)
            self.status[key] = self.status.get(key, 0) + 1

    def snapshot(self) -> dict:
        with self.lock:
            return {"requests": self.requests, "status": dict(self.status)}


def make_handler(counts: _Counts):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # Headers and body go out in one write; no Nagle stall either way.
        disable_nagle_algorithm = True

        def do_POST(self):
            due = time.monotonic() + SERVICE_DELAY_S
            raw = self.rfile.read(int(self.headers.get("Content-Length") or 0))
            if self.path.rstrip("/").endswith("/chat/completions"):
                try:
                    status, payload = 200, respond(json.loads(raw))
                except (ValueError, KeyError, TypeError, IndexError) as exc:
                    status, payload = 400, {"error": f"bad request: {exc}"}
                time.sleep(max(0.0, due - time.monotonic()))
                counts.add(status)
            else:
                status, payload = 404, {"error": "not found"}
            self._send(status, payload)

        def do_GET(self):
            if self.path == "/stats":
                self._send(200, counts.snapshot())
            else:
                self._send(404, {"error": "not found"})

        def _send(self, status: int, payload: dict) -> None:
            data = json.dumps(payload, separators=(",", ":")).encode("utf-8")
            head = (
                f"HTTP/1.1 {status} {self.responses.get(status, ('',))[0]}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(data)}\r\n\r\n"
            ).encode("ascii")
            self.wfile.write(head + data)

        def log_message(self, format, *args):
            pass

    return Handler


def main() -> int:
    counts = _Counts()
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(counts))
    server.daemon_threads = True
    parent = os.getppid()

    def stop_when_orphaned():
        while os.getppid() == parent:
            time.sleep(0.5)
        server.shutdown()

    threading.Thread(target=stop_when_orphaned, daemon=True).start()
    print(server.server_address[1], flush=True)
    try:
        server.serve_forever(poll_interval=0.1)
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
