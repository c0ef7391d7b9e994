"""Chat-completion client that reads a reply's text and its first position's
top-K logprobs, the one distribution a readout reads.

Speaks the de-facto JSON-over-HTTP chat-completion format (the variant
exposing "logprobs"/"top_logprobs" per generated token), with a scripted
mock backend for deterministic offline runs and an append-only JSONL
response cache keyed by a stable request digest.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
import struct
import threading
import time
from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator, Mapping
from contextlib import contextmanager
from dataclasses import dataclass
from json.encoder import encode_basestring, encode_basestring_ascii
from pathlib import Path
from typing import BinaryIO, NamedTuple, Protocol

from .confidence import TokenDistribution, check_missing_policy, self_eval_confidence
from .errors import ConfcalError, InvalidInput, MalformedResponse, NoLabelTokenPresent, SchemaViolation

SELF_EVAL_PROMPT = "Is this answer correct? Answer only Yes/No."

# every request asks for the top-K logprobs; the endpoint returns them at each
# position, and only the first position's are read
DEFAULT_TOP_K = 20

_wait_hook = threading.local()


@contextmanager
def on_wait(callback: Callable[[], None]) -> Iterator[None]:
    """Inside the block, ``callback()`` runs on this thread ahead of each
    wait on a remote: a request the response cache does not answer, and
    every HTTP post."""
    _wait_hook.callback = callback
    try:
        yield
    finally:
        _wait_hook.callback = None


def about_to_wait() -> None:
    """Runs this thread's ``on_wait`` callback, if there is one."""
    callback = getattr(_wait_hook, "callback", None)
    if callback is not None:
        callback()


def _escaped(text: str) -> str:
    """``text`` as ``json.dumps(..., ensure_ascii=False)`` writes it. ASCII text without DEL takes the ASCII
    escape, twice as fast; DEL (U+007F) is the one character that escape writes differently (``\\u007f``)."""
    return encode_basestring_ascii(text) if text.isascii() and "\x7f" not in text else encode_basestring(text)


class Message(namedtuple("Message", ("role", "content", "digest_form"))):
    """A turn's role (system | user | assistant) and content, and ``[role, content]`` as request_digest
    writes it, escaped once when the turn is built; a tuple, so equal turns are equal and hash alike."""

    __slots__ = ()

    def __new__(cls, role: str, content: str):
        return tuple.__new__(cls, (role, content, f"[{_escaped(role)},{_escaped(content)}]"))


class CompletionRequest(namedtuple("CompletionRequest", ("messages", "model_name", "max_tokens"))):
    """A request's fields, checked when it is built; a tuple, so equal fields are equal and hash alike."""

    __slots__ = ()

    def __new__(cls, messages: Iterable[Message], model_name: str = "mock", max_tokens: int = 1):
        if isinstance(max_tokens, bool) or not isinstance(max_tokens, int):
            raise InvalidInput(f"max_tokens must be an integer, got {max_tokens!r}")
        if max_tokens < 1:
            raise InvalidInput(f"max_tokens must be >= 1, got {max_tokens}")
        return tuple.__new__(cls, (tuple(messages), model_name, max_tokens))


def request_digest(request: CompletionRequest) -> str:
    """Stable hash over everything that affects the response, every request
    being made at temperature 0 with the top-``DEFAULT_TOP_K`` logprobs: the
    SHA-256 of the request as ``json.dumps(..., sort_keys=True,
    separators=(",", ":"), ensure_ascii=False)`` writes it, joined from each
    message's ``digest_form``."""
    blob = '{"max_tokens":%d,"messages":[%s],"model_name":%s,"temperature":0.0,"top_logprobs":%d}' % (
        request.max_tokens,
        ",".join([m.digest_form for m in request.messages]),
        _escaped(request.model_name),
        DEFAULT_TOP_K,
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _text(tokens: list[str]) -> str:
    """The generated text: ``tokens``, a list of strings, joined."""
    if not isinstance(tokens, (list, tuple)):
        raise MalformedResponse("generated tokens must be a list of strings")
    for token in tokens:
        if not isinstance(token, str):
            raise MalformedResponse(f"generated token {token!r} is not a string")
    return "".join(tokens)


@dataclass(frozen=True, slots=True)
class CompletionResponse:
    """Model output: the generated text, and the top-K distribution at its
    first position, None only for a reply with no token."""

    text: str
    first: TokenDistribution | None

    def __post_init__(self):
        if self.first is None and self.text:
            raise MalformedResponse("a reply with a token has no first-position distribution")

    def to_json(self) -> dict:
        """The text as the one generated token, the first position's
        alternative tokens, and their logprobs as one base64 block of
        little-endian float64s; a reply with no token has none of them."""
        if self.first is None:
            tokens, top_tokens, logprobs = [], [], ()
        else:
            tokens, top_tokens, logprobs = [self.text], [list(self.first.tokens)], self.first.logprobs
        try:
            block = struct.pack(f"<{len(logprobs)}d", *logprobs)
        except struct.error:  # an integer logprob, as JSON allows, beyond the float range
            raise MalformedResponse("a logprob is beyond the float range") from None
        return {
            "generated_tokens": tokens,
            "top_tokens": top_tokens,
            "top_logprobs": base64.b64encode(block).decode("ascii"),
        }

    @classmethod
    def from_json(cls, data: dict) -> "CompletionResponse":
        """Reads ``to_json`` output, or an older line that holds every
        position, in this shape or as ``[token, logprob]`` pairs per position,
        keeping the first; any other key, as older cache lines carry, is
        ignored. A line with a token but no position is an IndexError."""
        tokens = data["generated_tokens"]
        if "top_logprobs" not in data:
            first = TokenDistribution.from_pairs(data["token_distributions"][0]["entries"]) if tokens else None
        else:
            block = base64.b64decode(data["top_logprobs"], validate=True)
            logprobs = struct.unpack(f"<{len(block) // 8}d", block)  # struct.error unless whole doubles
            positions = data["top_tokens"]
            for top_tokens in positions:
                if not isinstance(top_tokens, list):
                    raise MalformedResponse(f"top tokens {top_tokens!r:.40} are not a list")
            if sum(map(len, positions)) != len(logprobs):
                raise MalformedResponse(f"{len(logprobs)} logprobs for {sum(map(len, positions))} top tokens")
            first = TokenDistribution(positions[0], logprobs[: len(positions[0])]) if tokens else None
        return cls(_text(tokens), first)


class Backend(Protocol):
    def complete(self, request: CompletionRequest) -> CompletionResponse: ...


def _distribution_from_map(entries: dict[str, float]) -> TokenDistribution:
    # Scripted maps may be in any order; sorting keeps cache lines and to_json output stable.
    return TokenDistribution.from_pairs(sorted(entries.items(), key=lambda kv: (-kv[1], kv[0])))


class MockBackend:
    """Scripted backend: entries served by digest match or in order.

    Digest-keyed entries are reusable; order-based entries are consumed
    one per request. Thread-safe.
    """

    def __init__(self, entries: list[dict]):
        self._by_digest: dict[str, CompletionResponse] = {}
        self._ordered: list[CompletionResponse] = []
        self._lock = threading.Lock()
        self._cursor = 0
        for entry in entries:
            self._add(entry)

    def _add(self, entry: dict) -> None:
        tokens = entry["tokens"]
        # the first position's distribution; without one scripted, its token is certain (logprob 0)
        first = _distribution_from_map((entry.get("distributions") or [{tokens[0]: 0.0}])[0]) if tokens else None
        response = CompletionResponse(_text(tokens), first)
        digest = entry.get("digest")
        if digest:
            self._by_digest[digest] = response
        else:
            self._ordered.append(response)

    @classmethod
    def from_jsonl(cls, path: str | Path) -> "MockBackend":
        backend = cls([])
        with open(path, "rb") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    backend._add(json.loads(line))
                except (ValueError, KeyError, TypeError, AttributeError, ConfcalError) as exc:
                    raise SchemaViolation(
                        f"{path}:{lineno}: bad mock script line ({type(exc).__name__}: {exc})"
                    ) from exc
        return backend

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        digest = request_digest(request)
        with self._lock:
            if digest in self._by_digest:
                return self._by_digest[digest]
            if self._cursor >= len(self._ordered):
                raise MalformedResponse(
                    f"mock script exhausted after {self._cursor} in-order responses"
                )
            response = self._ordered[self._cursor]
            self._cursor += 1
            return response


class HTTPBackend:
    """Adapter to a chat-completion endpoint exposing top_logprobs; posts
    through a ``JSONPoster`` on ``{base_url}/chat/completions``."""

    def __init__(self, base_url: str, api_key: str | None = None):
        from .transport import JSONPoster  # the HTTP stack loads only for an HTTP backend

        self._poster = JSONPoster(f"{base_url.rstrip('/')}/chat/completions", api_key)

    def close(self) -> None:
        """Closes the idle connections."""
        self._poster.close()

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        return self._parse(
            self._poster.post(
                {
                    "model": request.model_name,
                    "messages": [{"role": m.role, "content": m.content} for m in request.messages],
                    "max_tokens": request.max_tokens,
                    "temperature": 0.0,
                    "logprobs": True,
                    "top_logprobs": DEFAULT_TOP_K,
                }
            )
        )

    @staticmethod
    def _parse(body: dict) -> CompletionResponse:
        try:
            content = body["choices"][0]["logprobs"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise MalformedResponse(f"response missing logprob fields: {exc}") from exc
        if not isinstance(content, list):
            raise MalformedResponse(f"endpoint returned logprobs content {content!r:.60}, not a list")
        tokens: list[str] = []
        first = None
        for position, item in enumerate(content):
            try:
                tokens.append(item["token"])
                if position == 0:  # later positions' top_logprobs are never read
                    alternatives = item["top_logprobs"]
                    first = TokenDistribution(
                        [alt["token"] for alt in alternatives],
                        # a positive logprob is read as 0; NaN is kept, for the check to refuse
                        [0.0 if (lp := alt["logprob"]) > 0 else lp for alt in alternatives],
                    )
            except (KeyError, TypeError) as exc:
                raise MalformedResponse(f"malformed logprob entry at position {position}") from exc
        return CompletionResponse(_text(tokens), first)


class ResponseCache:
    """Append-only JSONL cache; concurrent readers and writers.

    The file is opened for appending, unbuffered, at the first ``put`` and
    stays open until ``close``; each record is written with its newline in
    one write, outside the lock (O_APPEND keeps lines from concurrent puts
    whole), so a last line without a newline was cut off mid-append:
    loading skips it with a warning, and the first append cuts it off
    before writing. Any other line that does not parse fails the load with
    its line number. Loading never writes to the file, and a cache that
    puts nothing never opens it.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._entries: dict[str, CompletionResponse] = {}
        self._lock = threading.Lock()
        self._file: BinaryIO | None = None
        self._torn_at: int | None = None
        if self.path.exists():
            with self.path.open("rb") as fh:
                for lineno, line in enumerate(fh, start=1):
                    if line.endswith(b"\n"):
                        if line.strip():
                            self._load_line(lineno, line)
                    elif line.strip():  # the last line, cut off mid-append
                        import logging  # only a torn line is logged

                        self._torn_at = fh.tell() - len(line)
                        logging.getLogger(__name__).warning(
                            "%s:%d: skipping a torn last line (%d bytes, no newline)", self.path, lineno, len(line)
                        )

    def _load_line(self, lineno: int, line: bytes) -> None:
        try:
            record = json.loads(line)
            self._entries[record["request_digest"]] = CompletionResponse.from_json(
                record["response"]
            )
        except (ValueError, KeyError, TypeError, IndexError, struct.error, ConfcalError) as exc:
            raise SchemaViolation(f"{self.path}:{lineno}: corrupt cache line ({exc})") from exc

    def get(self, digest: str) -> CompletionResponse | None:
        return self._entries.get(digest)

    def put(self, digest: str, response: CompletionResponse) -> None:
        if digest in self._entries:
            return
        record = {"request_digest": digest, "response": response.to_json(), "created_at": time.time()}
        line = (json.dumps(record, ensure_ascii=False) + "\n").encode("utf-8")
        with self._lock:
            if digest in self._entries:
                return
            if self._file is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._file = open(self.path, "ab", buffering=0)
                if self._torn_at is not None:
                    self._file.truncate(self._torn_at)
                    self._torn_at = None
            self._entries[digest] = response
            file = self._file
        try:
            written = file.write(line)
            if written != len(line):
                raise OSError(f"{self.path}: wrote {written} of {len(line)} bytes")
        except BaseException:
            with self._lock:
                del self._entries[digest]
            raise

    def close(self) -> None:
        """Closes the append handle; a later ``put`` opens it again."""
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None


_SELF_EVAL_TURN = Message("user", SELF_EVAL_PROMPT)


def _user_turn(question: str, context: str | None) -> Message:
    """The user turn that asks ``question``, after ``context`` and a blank line when given."""
    return Message("user", f"{context}\n\n{question}" if context else question)


class Readout(NamedTuple):
    """One confidence readout: the chosen label or generated answer, its
    confidence in [0, 1], the flag names it carries, and the raw value
    behind it (the chosen label's summed alias probability, or P(Yes))."""

    answer: str
    confidence: float
    flags: frozenset[str]
    raw: float


class _Flight(threading.Event):
    """A backend fetch that the requests for one digest share: once set, it
    holds the response, or else the error that the waiters raise."""

    response: CompletionResponse | None = None
    error: Exception | None = None


class ModelClient:
    """Classification and answer-then-self-evaluation readouts over a backend.

    Requests that miss the cache on one digest at the same time share a
    single backend call, and its response or its failure.
    """

    def __init__(
        self,
        backend: Backend,
        model_name: str = "mock",
        cache: ResponseCache | None = None,
        missing_policy: str = "neutral",
    ):
        check_missing_policy(missing_policy)
        self.backend = backend
        self.model_name = model_name
        self.cache = cache
        self.missing_policy = missing_policy
        self._flights: dict[str, _Flight] = {}
        self._flights_lock = threading.Lock()

    def close(self) -> None:
        """Closes the backend's connections and the cache's append handle."""
        close_backend = getattr(self.backend, "close", None)
        if close_backend is not None:
            close_backend()
        if self.cache is not None:
            self.cache.close()

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        digest = request_digest(request)
        if self.cache is not None:
            hit = self.cache.get(digest)
            if hit is not None:
                return hit
        about_to_wait()
        with self._flights_lock:
            flight = self._flights.get(digest)
            leader = flight is None
            if leader:
                # a fetch that ended since the lookup above left its response in the cache
                hit = self.cache.get(digest) if self.cache is not None else None
                if hit is not None:
                    return hit
                flight = self._flights[digest] = _Flight()
        if not leader:
            flight.wait()
            if flight.response is None:  # the fetch failed, or was interrupted
                raise flight.error or RuntimeError("the shared fetch was interrupted")
            return flight.response
        try:
            response = self.backend.complete(request)
            if self.cache is not None:
                self.cache.put(digest, response)
            flight.response = response
            return response
        except Exception as exc:
            flight.error = exc
            raise
        finally:  # also when interrupted: the waiters fail instead of hanging
            with self._flights_lock:
                del self._flights[digest]
            flight.set()

    def _first_distribution(self, messages: list[Message]) -> TokenDistribution:
        """The top-K distribution at the first position of a one-token reply."""
        first = self.complete(CompletionRequest(tuple(messages), self.model_name, 1)).first
        if first is None:
            raise MalformedResponse("no token distribution at first answer position")
        return first

    def classify(self, input: str, label_set: Mapping[str, frozenset[str]]) -> Readout:
        """Single-token readout: the chosen label's summed alias probability
        divided by the label set's total, in linear space, where the masses
        are (``normalized_confidence`` is the form for sequence log-probabilities).

        ``label_set`` maps each label to its aliases, as ``TaskSpec`` holds it.
        Labels whose aliases are all absent from the top-K score probability 0.
        Argmax ties break to the alphabetically first label.
        """
        dist = self._first_distribution([Message("user", input)])

        probs = {label: dist.mass(aliases) for label, aliases in label_set.items()}
        if all(p == 0.0 for p in probs.values()):
            raise NoLabelTokenPresent(
                f"no alias of any label in {sorted(probs)} present in top-{DEFAULT_TOP_K}"
            )

        chosen = min(probs, key=lambda lab: (-probs[lab], lab))
        return Readout(chosen, probs[chosen] / math.fsum(probs.values()), frozenset(), probs[chosen])

    def answer(self, question: str, context: str | None = None) -> Readout:
        """Free-form answer of up to 256 tokens, then its one-token Yes/No
        self-evaluation, both at temperature 0 and after ``context`` when
        given; ``self_eval_confidence`` applies the missing policy and gives P(Yes), the raw value."""
        if not question.strip():
            raise InvalidInput("question is empty")
        turn = _user_turn(question, context)
        answer = self.complete(CompletionRequest((turn,), self.model_name, 256)).text
        dist = self._first_distribution([turn, Message("assistant", answer), _SELF_EVAL_TURN])
        return Readout(answer, *self_eval_confidence(dist, missing_policy=self.missing_policy))
