"""Chat-completion client with per-token logprob extraction.

Speaks the de-facto JSON-over-HTTP chat-completion format (the variant
exposing "logprobs"/"top_logprobs" per generated token), with a scripted
mock backend for deterministic offline runs and an append-only JSONL
response cache keyed by a stable request digest.
"""

from __future__ import annotations

import base64
import hashlib
import ipaddress
import json
import logging
import math
import netrc
import os
import random
import threading
import time
from collections.abc import Callable, Iterator
from concurrent.futures import Future
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Protocol
from urllib.parse import unquote, urlsplit
from urllib.request import getproxies, proxy_bypass

import certifi
import urllib3

from .confidence import (
    DEFAULT_NO_ALIASES,
    DEFAULT_TOP_K,
    DEFAULT_YES_ALIASES,
    CandidateScore,
    ConfidenceScore,
    MissingPolicy,
    TokenDistribution,
    self_eval_confidence,
    normalized_confidence,
)
from .errors import (
    ConfcalError,
    ConfigInvalid,
    EndpointUnreachable,
    InvalidInput,
    MalformedResponse,
    NoLabelTokenPresent,
    RateLimited,
    SchemaViolation,
    UnmappableLabel,
)

_log = logging.getLogger(__name__)

SELF_EVAL_PROMPT = "Is this answer correct? Answer only Yes/No."

_NEG_INF = float("-inf")

# Longest wait, in seconds, that a Retry-After header is obeyed for.
RETRY_AFTER_CAP_S = 60.0


@dataclass(frozen=True)
class Message:
    role: str  # system | user | assistant
    content: str


@dataclass(frozen=True)
class CompletionRequest:
    messages: tuple[Message, ...]
    model_name: str = "mock"
    max_tokens: int = 1
    temperature: float = 0.0
    top_logprobs: int = DEFAULT_TOP_K

    def __post_init__(self):
        object.__setattr__(self, "messages", tuple(self.messages))
        if self.max_tokens < 1:
            raise InvalidInput(f"max_tokens must be >= 1, got {self.max_tokens}")
        if self.top_logprobs < 1:
            raise InvalidInput(f"top_logprobs must be >= 1, got {self.top_logprobs}")


def request_digest(request: CompletionRequest) -> str:
    """Stable hash over everything that affects the response."""
    payload = {
        "model_name": request.model_name,
        "messages": [[m.role, m.content] for m in request.messages],
        "max_tokens": request.max_tokens,
        "temperature": request.temperature,
        "top_logprobs": request.top_logprobs,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class CompletionResponse:
    generated_tokens: tuple[str, ...]
    token_distributions: tuple[TokenDistribution, ...]
    finish_reason: str = "stop"

    def __post_init__(self):
        object.__setattr__(self, "generated_tokens", tuple(self.generated_tokens))
        object.__setattr__(self, "token_distributions", tuple(self.token_distributions))

    @property
    def text(self) -> str:
        return "".join(self.generated_tokens)

    def to_json(self) -> dict:
        return {
            "generated_tokens": list(self.generated_tokens),
            "token_distributions": [
                {"position_index": d.position_index, "entries": [[t, lp] for t, lp in d.entries]}
                for d in self.token_distributions
            ],
            "finish_reason": self.finish_reason,
        }

    @classmethod
    def from_json(cls, data: dict) -> "CompletionResponse":
        dists = tuple(
            TokenDistribution(
                entries=tuple((t, lp) for t, lp in d["entries"]),
                position_index=d.get("position_index", i),
            )
            for i, d in enumerate(data["token_distributions"])
        )
        return cls(
            generated_tokens=tuple(data["generated_tokens"]),
            token_distributions=dists,
            finish_reason=data.get("finish_reason", "stop"),
        )


class Backend(Protocol):
    def complete(self, request: CompletionRequest) -> CompletionResponse: ...


def _distribution_from_map(entries: dict[str, float], position: int) -> TokenDistribution:
    # Scripted maps may be arbitrarily ordered; keep them sorted for stable digests.
    ordered = tuple(sorted(entries.items(), key=lambda kv: (-kv[1], kv[0])))
    return TokenDistribution(entries=ordered, position_index=position)


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
        if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
            raise SchemaViolation("tokens must be a list of strings")
        raw_dists = entry.get("distributions")
        if raw_dists is None:
            # Tokens without scripted distributions get a certain (logprob 0) dist.
            raw_dists = [{tok: 0.0} for tok in tokens]
        dists = tuple(
            _distribution_from_map(d, i) for i, d in enumerate(raw_dists)
        )
        response = CompletionResponse(generated_tokens=tuple(tokens), token_distributions=dists)
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


def _basic_auth(user: str, password: str, source: str) -> str:
    """A Basic credential; an error names ``source``, never the credential."""
    try:
        pair = f"{user}:{password}".encode("latin-1")
    except UnicodeEncodeError:
        raise ConfigInvalid(f"{source}: login or password is not latin-1") from None
    return "Basic " + base64.b64encode(pair).decode("ascii")


def _proxy_for(url: str) -> str | None:
    """The proxy the environment names for ``url`` (its scheme's, else
    ``all``), or None when NO_PROXY names the host or, for an IPv4 host, an
    IPv4 network that holds it."""
    parts = urlsplit(url)
    host = parts.hostname or ""
    proxies = getproxies()
    proxy = proxies.get(parts.scheme) or proxies.get("all")
    if not proxy or proxy_bypass(f"{host}:{parts.port}" if parts.port else host):
        return None
    for entry in proxies.get("no", "").split(","):
        try:
            if "/" in entry and ipaddress.IPv4Address(host) in ipaddress.IPv4Network(entry.strip(), strict=False):
                return None
        except ValueError:  # a host name, or an entry that is not an IPv4 network
            pass
    return proxy if "://" in proxy else f"http://{proxy}"


def _netrc_auth(host: str) -> str | None:
    """The Basic credential of the netrc entry for ``host`` ($NETRC, else
    ~/.netrc), where the login falls back to the account; a file that does
    not parse is ignored."""
    path = os.path.expanduser(os.environ.get("NETRC", "~/.netrc"))
    try:
        # an explicit path: netrc checks the file's permissions only for its default
        entry = netrc.netrc(path).authenticators(host)
    except (netrc.NetrcParseError, OSError, UnicodeDecodeError):  # a missing file included
        return None
    if not entry:
        return None
    login, account, password = entry
    return _basic_auth(login or account, password or "", f"netrc entry for {host}")


class JSONPoster:
    """POSTs JSON to one URL through one keep-alive pool of up to
    ``pool_size`` connections, and returns the decoded JSON reply.

    Proxies (NO_PROXY included), the CA bundle (REQUESTS_CA_BUNDLE, else
    CURL_CA_BUNDLE, else certifi's) and netrc auth are read from the
    environment once, here; a netrc entry for the host replaces the Bearer
    header. A 429 or 5xx is retried up to ``max_retries`` times, after its
    Retry-After or a doubling backoff with full jitter. Redirects are not
    followed.
    """

    def __init__(
        self,
        url: str,
        api_key: str | None = None,
        max_retries: int = 3,
        backoff_start_s: float = 0.5,
        timeout_s: float = 120.0,
        pool_size: int = 1,
    ):
        self.url = url
        self.max_retries = max_retries
        self.backoff_start_s = backoff_start_s
        self._headers = {"Content-Type": "application/json", "Accept-Encoding": "gzip, deflate"}
        if api_key:
            self._headers["Authorization"] = f"Bearer {api_key}"
        netrc_auth = _netrc_auth(urlsplit(url).hostname or "")
        if netrc_auth:
            self._headers["Authorization"] = netrc_auth
        ca_bundle = (
            os.environ.get("REQUESTS_CA_BUNDLE")
            or os.environ.get("CURL_CA_BUNDLE")
            or certifi.where()
        )
        pool_kw = {
            "maxsize": max(1, pool_size),
            "timeout": timeout_s,
            "cert_reqs": "CERT_REQUIRED",
            ("ca_cert_dir" if os.path.isdir(ca_bundle) else "ca_certs"): ca_bundle,
        }
        proxy = _proxy_for(url)
        if proxy:
            parts = urlsplit(proxy)
            proxy_headers = None
            if parts.username:
                auth = _basic_auth(unquote(parts.username), unquote(parts.password or ""), f"proxy for {url}")
                proxy_headers = {"Proxy-Authorization": auth}
            try:
                self._pool = urllib3.ProxyManager(proxy, proxy_headers=proxy_headers, **pool_kw)
            except ValueError as exc:  # a scheme urllib3 does not speak, such as socks5
                raise EndpointUnreachable(f"proxy for {url}: {exc}") from exc
        else:
            self._pool = urllib3.PoolManager(**pool_kw)

    def close(self) -> None:
        """Closes the pooled connections."""
        self._pool.clear()

    def post(self, payload: object) -> object:
        body = json.dumps(payload, allow_nan=False).encode("utf-8")
        delay = self.backoff_start_s
        wait = 0.0
        last_error: Exception | None = None
        for attempt in range(self.max_retries + 1):
            if attempt:
                time.sleep(wait)
            retry_after = None
            try:
                resp = self._pool.urlopen(
                    "POST", self.url, body=body, headers=self._headers, retries=False, redirect=False
                )
            except (urllib3.exceptions.HTTPError, OSError) as exc:
                last_error = EndpointUnreachable(str(exc))
            else:
                if resp.status == 200:
                    try:
                        return json.loads(resp.data)
                    except ValueError as exc:
                        raise MalformedResponse(f"response is not JSON: {exc}") from exc
                text = resp.data[:200].decode("utf-8", "replace")
                if resp.status != 429 and resp.status < 500:
                    raise EndpointUnreachable(f"HTTP {resp.status}: {text}")
                last_error = RateLimited(f"HTTP {resp.status}: {text}")
                if resp.status in (429, 503):
                    retry_after = _retry_after_s(resp.headers.get("Retry-After"))
            # full jitter on a doubling backoff, unless the server named a wait
            wait = retry_after if retry_after is not None else random.uniform(0.0, delay)
            delay *= 2
        raise last_error if last_error is not None else EndpointUnreachable("no attempts made")


class HTTPBackend:
    """Adapter to a chat-completion endpoint exposing top_logprobs; posts
    through a ``JSONPoster`` on ``{base_url}/chat/completions``."""

    def __init__(
        self,
        base_url: str,
        api_key: str | None = None,
        max_retries: int = 3,
        backoff_start_s: float = 0.5,
        timeout_s: float = 120.0,
        pool_size: int = 1,
    ):
        self._poster = JSONPoster(
            f"{base_url.rstrip('/')}/chat/completions", api_key, max_retries, backoff_start_s, timeout_s, pool_size
        )

    def close(self) -> None:
        """Closes the pooled connections."""
        self._poster.close()

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        return self._parse(
            self._poster.post(
                {
                    "model": request.model_name,
                    "messages": [{"role": m.role, "content": m.content} for m in request.messages],
                    "max_tokens": request.max_tokens,
                    "temperature": request.temperature,
                    "logprobs": True,
                    "top_logprobs": request.top_logprobs,
                }
            )
        )

    @staticmethod
    def _parse(body: dict) -> CompletionResponse:
        try:
            choice = body["choices"][0]
            content = choice["logprobs"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise MalformedResponse(f"response missing logprob fields: {exc}") from exc
        if content is None:
            raise MalformedResponse("endpoint returned null logprobs")
        tokens: list[str] = []
        dists: list[TokenDistribution] = []
        for position, item in enumerate(content):
            try:
                tokens.append(item["token"])
                top = item["top_logprobs"]
                entries = tuple((alt["token"], min(alt["logprob"], 0.0)) for alt in top)
            except (KeyError, TypeError) as exc:
                raise MalformedResponse(f"malformed logprob entry at position {position}") from exc
            dists.append(
                TokenDistribution(entries=entries, position_index=position, max_entries=max(len(entries), DEFAULT_TOP_K))
            )
        return CompletionResponse(
            generated_tokens=tuple(tokens),
            token_distributions=tuple(dists),
            finish_reason=choice.get("finish_reason", "stop"),
        )


def _retry_after_s(value: str | None) -> float | None:
    """The wait a Retry-After header asks for in delta-seconds, capped at
    RETRY_AFTER_CAP_S; None when there is none or it is an HTTP date."""
    if value is None or not value.strip().isdecimal():
        return None
    return min(float(value), RETRY_AFTER_CAP_S)


class ResponseCache:
    """Append-only JSONL cache; concurrent readers, single-writer appends.

    The file is opened for appending at the first ``put`` and stays open
    until ``close``; each record is written with its newline in one write
    and flushed, so a last line without a newline was cut off mid-append:
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
            data = self.path.read_bytes()
            *lines, tail = data.split(b"\n")
            for lineno, line in enumerate(lines, start=1):
                if line.strip():
                    self._load_line(lineno, line)
            if tail.strip():
                self._torn_at = len(data) - len(tail)
                _log.warning(
                    "%s:%d: skipping a torn last line (%d bytes, no newline)",
                    self.path, len(lines) + 1, len(tail),
                )

    def _load_line(self, lineno: int, line: bytes) -> None:
        try:
            record = json.loads(line)
            self._entries[record["request_digest"]] = CompletionResponse.from_json(
                record["response"]
            )
        except (ValueError, KeyError, TypeError, IndexError, ConfcalError) as exc:
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
                self._file = open(self.path, "ab")
                if self._torn_at is not None:
                    self._file.truncate(self._torn_at)
                    self._torn_at = None
            self._file.write(line)
            self._file.flush()
            self._entries[digest] = response

    def close(self) -> None:
        """Closes the append handle; a later ``put`` opens it again."""
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None


@dataclass(frozen=True)
class ClassifyResult:
    label: str
    confidence: ConfidenceScore
    raw_probability: float  # unnormalized summed alias probability of the chosen label


@dataclass(frozen=True)
class SelfEvalResult:
    confidence: ConfidenceScore | None
    raw_yes_probability: float


class ModelClient:
    """High-level classification / self-evaluation protocol over a backend.

    Requests that miss the cache on one digest at the same time share a
    single backend call, and its response or its failure.
    """

    def __init__(
        self,
        backend: Backend,
        model_name: str = "mock",
        cache: ResponseCache | None = None,
        yes_aliases: frozenset[str] = DEFAULT_YES_ALIASES,
        no_aliases: frozenset[str] = DEFAULT_NO_ALIASES,
        missing_policy: MissingPolicy = MissingPolicy.NEUTRAL,
        top_logprobs: int = DEFAULT_TOP_K,
    ):
        self.backend = backend
        self.model_name = model_name
        self.cache = cache
        self.yes_aliases = frozenset(yes_aliases)
        self.no_aliases = frozenset(no_aliases)
        self.missing_policy = missing_policy
        self.top_logprobs = top_logprobs
        self._flights: dict[str, Future] = {}
        self._flights_lock = threading.Lock()
        self._local = threading.local()

    def close(self) -> None:
        """Closes the backend's connections and the cache's append handle."""
        close_backend = getattr(self.backend, "close", None)
        if close_backend is not None:
            close_backend()
        if self.cache is not None:
            self.cache.close()

    @contextmanager
    def before_fetch(self, callback: Callable[[], None]) -> Iterator[None]:
        """Inside the block, ``callback()`` runs on this thread ahead of each
        request that the cache does not answer."""
        self._local.before_fetch = callback
        try:
            yield
        finally:
            self._local.before_fetch = None

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        digest = request_digest(request)
        if self.cache is not None:
            hit = self.cache.get(digest)
            if hit is not None:
                return hit
        callback = getattr(self._local, "before_fetch", None)
        if callback is not None:
            callback()
        with self._flights_lock:
            flight = self._flights.get(digest)
            leader = flight is None
            if leader:
                # a fetch that ended since the lookup above left its response in the cache
                hit = self.cache.get(digest) if self.cache is not None else None
                if hit is not None:
                    return hit
                flight = self._flights[digest] = Future()
        if not leader:
            return flight.result()
        try:
            response = self.backend.complete(request)
            if len(response.token_distributions) != len(response.generated_tokens):
                raise MalformedResponse(
                    f"{len(response.generated_tokens)} tokens but "
                    f"{len(response.token_distributions)} distributions"
                )
            if self.cache is not None:
                self.cache.put(digest, response)
        except Exception as exc:
            flight.set_exception(exc)
            raise
        else:
            flight.set_result(response)
            return response
        finally:
            if not flight.done():  # interrupted: the waiters fail instead of hanging
                flight.cancel()
            with self._flights_lock:
                del self._flights[digest]

    def _single_token_distribution(self, messages: list[Message]) -> TokenDistribution:
        request = CompletionRequest(
            messages=tuple(messages),
            model_name=self.model_name,
            max_tokens=1,
            temperature=0.0,
            top_logprobs=self.top_logprobs,
        )
        response = self.complete(request)
        if not response.token_distributions:
            raise MalformedResponse("no token distribution at first answer position")
        return response.token_distributions[0]

    def classify(
        self, input: str, label_set: list[tuple[str, frozenset[str] | set[str]]]
    ) -> ClassifyResult:
        """Single-token readout: per-label summed alias probability, normalized.

        Labels whose aliases are all absent from the top-K score probability 0.
        Argmax ties break to the alphabetically first label.
        """
        for label, aliases in label_set:
            if not aliases:
                raise UnmappableLabel(f"label {label!r} has no single-token alias")

        dist = self._single_token_distribution([Message("user", input)])

        probs: dict[str, float] = {}
        for label, aliases in label_set:
            probs[label] = math.fsum(dist.probability(tok) for tok in aliases)
        if all(p == 0.0 for p in probs.values()):
            raise NoLabelTokenPresent(
                f"no alias of any label in {sorted(probs)} present in top-{self.top_logprobs}"
            )

        chosen = min(probs, key=lambda lab: (-probs[lab], lab))
        candidates = [
            CandidateScore(label, math.log(p) if p > 0 else _NEG_INF)
            for label, p in probs.items()
        ]
        confidence = normalized_confidence(candidates, chosen)
        return ClassifyResult(label=chosen, confidence=confidence, raw_probability=probs[chosen])

    def _self_eval_messages(
        self, question: str, answer: str, context: str | None
    ) -> list[Message]:
        user_content = f"{context}\n\n{question}" if context else question
        return [
            Message("user", user_content),
            Message("assistant", answer),
            Message("user", SELF_EVAL_PROMPT),
        ]

    def self_evaluate_with_raw(
        self, question: str, answer: str, context: str | None = None
    ) -> SelfEvalResult:
        dist = self._single_token_distribution(
            self._self_eval_messages(question, answer, context)
        )
        confidence = self_eval_confidence(
            dist, self.yes_aliases, self.no_aliases, self.missing_policy
        )
        raw_yes = math.fsum(dist.probability(tok) for tok in self.yes_aliases)
        return SelfEvalResult(confidence=confidence, raw_yes_probability=raw_yes)

    def self_evaluate(
        self, question: str, answer: str, context: str | None = None
    ) -> ConfidenceScore | None:
        return self.self_evaluate_with_raw(question, answer, context).confidence

    def generate_answer(
        self, question: str, context: str | None = None
    ) -> tuple[str, tuple[str, ...]]:
        """Free-form answer pass of up to 256 tokens, at temperature 0."""
        if not question.strip():
            raise InvalidInput("question is empty")
        user_content = f"{context}\n\n{question}" if context else question
        request = CompletionRequest(
            messages=(Message("user", user_content),),
            model_name=self.model_name,
            max_tokens=256,
            temperature=0.0,
            top_logprobs=self.top_logprobs,
        )
        response = self.complete(request)
        return response.text, response.generated_tokens
