"""Chat-completion client with per-token logprob extraction.

Speaks the de-facto JSON-over-HTTP chat-completion format (the variant
exposing "logprobs"/"top_logprobs" per generated token), with a scripted
mock backend for deterministic offline runs and an append-only JSONL
response cache keyed by a stable request digest.
"""

from __future__ import annotations

import base64
import functools
import hashlib
import http.client
import ipaddress
import json
import logging
import math
import netrc
import os
import random
import socket
import ssl
import struct
import threading
import time
import weakref
import zlib
from collections.abc import Callable, Iterator, Mapping
from concurrent.futures import Future
from contextlib import contextmanager
from dataclasses import dataclass, field
from json.encoder import encode_basestring as _escaped  # a str as json.dumps(..., ensure_ascii=False) writes it
from pathlib import Path
from typing import BinaryIO, Protocol
from urllib.parse import SplitResult, unquote, urlsplit
from urllib.request import getproxies, proxy_bypass

import certifi

from .confidence import TokenDistribution, check_missing_policy, normalized_confidence, p_yes, self_eval_confidence
from .errors import (
    ConfcalError,
    ConfigInvalid,
    EndpointUnreachable,
    InvalidInput,
    MalformedResponse,
    NoLabelTokenPresent,
    RateLimited,
    SchemaViolation,
)

_log = logging.getLogger(__name__)

SELF_EVAL_PROMPT = "Is this answer correct? Answer only Yes/No."

# every request asks for the top-K logprobs at each position
DEFAULT_TOP_K = 20

# A 429 or 5xx is retried this many times, after a full-jitter backoff that
# starts at BACKOFF_START_S seconds and doubles, or after its Retry-After,
# obeyed for at most RETRY_AFTER_CAP_S seconds.
MAX_RETRIES = 3
BACKOFF_START_S = 0.5
RETRY_AFTER_CAP_S = 60.0

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


@dataclass(frozen=True)
class Message:
    role: str  # system | user | assistant
    content: str
    # ``[role, content]`` as request_digest writes it, escaped once when the
    # message is built: a turn shared by two requests is escaped once
    digest_form: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "digest_form", f"[{_escaped(self.role)},{_escaped(self.content)}]")


@dataclass(frozen=True)
class CompletionRequest:
    messages: tuple[Message, ...]
    model_name: str = "mock"
    max_tokens: int = 1

    def __post_init__(self):
        object.__setattr__(self, "messages", tuple(self.messages))
        if isinstance(self.max_tokens, bool) or not isinstance(self.max_tokens, int):
            raise InvalidInput(f"max_tokens must be an integer, got {self.max_tokens!r}")
        if self.max_tokens < 1:
            raise InvalidInput(f"max_tokens must be >= 1, got {self.max_tokens}")


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


@dataclass(frozen=True, slots=True)
class CompletionResponse:
    """Model output: the generated tokens and the top-K distribution at each.

    Every response, whether from a backend or the cache, is checked here:
    tokens must be strings, one distribution per token.
    """

    generated_tokens: tuple[str, ...]
    token_distributions: tuple[TokenDistribution, ...]

    def __post_init__(self):
        if not isinstance(self.generated_tokens, (list, tuple)):
            raise MalformedResponse("generated tokens must be a list of strings")
        object.__setattr__(self, "generated_tokens", tuple(self.generated_tokens))
        object.__setattr__(self, "token_distributions", tuple(self.token_distributions))
        for token in self.generated_tokens:
            if not isinstance(token, str):
                raise MalformedResponse(f"generated token {token!r} is not a string")
        if len(self.token_distributions) != len(self.generated_tokens):
            raise MalformedResponse(
                f"{len(self.generated_tokens)} tokens but "
                f"{len(self.token_distributions)} distributions"
            )

    @property
    def text(self) -> str:
        return "".join(self.generated_tokens)

    def to_json(self) -> dict:
        """The tokens, the alternative tokens at each position, and every
        alternative's logprob as one base64 block of little-endian float64s,
        positions in order."""
        logprobs = [lp for d in self.token_distributions for lp in d.logprobs]
        try:
            block = struct.pack(f"<{len(logprobs)}d", *logprobs)
        except struct.error:  # an integer logprob, as JSON allows, beyond the float range
            raise MalformedResponse("a logprob is beyond the float range") from None
        return {
            "generated_tokens": self.generated_tokens,
            "top_tokens": [list(d.tokens) for d in self.token_distributions],
            "top_logprobs": base64.b64encode(block).decode("ascii"),
        }

    @classmethod
    def from_json(cls, data: dict) -> "CompletionResponse":
        """Reads ``to_json`` output, or the older shape of ``[token, logprob]``
        pairs per position; any other key, as older cache lines carry, is
        ignored."""
        if "top_logprobs" not in data:
            return cls(
                data["generated_tokens"],
                [TokenDistribution.from_pairs(d["entries"]) for d in data["token_distributions"]],
            )
        block = base64.b64decode(data["top_logprobs"], validate=True)
        logprobs = struct.unpack(f"<{len(block) // 8}d", block)  # struct.error unless whole doubles
        dists = []
        end = 0
        for tokens in data["top_tokens"]:
            if not isinstance(tokens, list):
                raise MalformedResponse(f"top tokens {tokens!r:.40} are not a list")
            start, end = end, end + len(tokens)
            dists.append(TokenDistribution(tokens, logprobs[start:end]))
        if end != len(logprobs):
            raise MalformedResponse(f"{len(logprobs)} logprobs for {end} top tokens")
        return cls(data["generated_tokens"], dists)


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
        raw_dists = entry.get("distributions")
        if raw_dists is None:
            # Tokens without scripted distributions get a certain (logprob 0) dist.
            raw_dists = [{tok: 0.0} for tok in tokens]
        response = CompletionResponse(tokens, tuple(_distribution_from_map(d) for d in raw_dists))
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


# A reply line longer than _MAX_LINE bytes, or more than _MAX_HEADERS header
# lines, fails the reply, as in http.client.
_MAX_LINE = 65536
_MAX_HEADERS = 100


class JSONPoster:
    """POSTs JSON to one URL and returns the decoded JSON reply. Posts share
    one LIFO stack of idle keep-alive connections: a post takes the one
    returned last, or opens one, and gives it back once the whole reply is
    read, so a poster holds at most one connection per post in flight.

    Proxies (NO_PROXY included), the CA bundle (REQUESTS_CA_BUNDLE, else
    CURL_CA_BUNDLE, else certifi's) and netrc auth are read from the
    environment once, here; a netrc entry for the host replaces the Bearer
    header. An ``http://`` URL goes through an http(s) proxy as an
    absolute-form request, an ``https://`` URL through an ``http://`` proxy's
    CONNECT tunnel. ``http.client`` only opens a connection (TCP, the
    tunnel, TLS); the request line and headers are built here once, each
    request is sent with one write, and ``_read_head``/``_read_body`` read
    the reply. A 429 or 5xx is retried up to ``MAX_RETRIES`` times, after
    its Retry-After or a doubling backoff with full jitter; a request that a
    reused connection drops before any status line (the server closed it
    while idle) is sent again at once on a new connection, without counting
    as a retry. Redirects are not followed; gzip and deflate bodies are
    decoded.
    """

    def __init__(self, url: str, api_key: str | None = None, timeout_s: float = 120.0):
        self.url = url
        parts = urlsplit(url)
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise EndpointUnreachable(f"{url} is not an http:// or https:// URL")
        _check_port(parts, url)
        headers = {"Host": _host_port(parts), "Content-Type": "application/json", "Accept-Encoding": "gzip, deflate"}
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        netrc_auth = _netrc_auth(parts.hostname)
        if netrc_auth:
            headers["Authorization"] = netrc_auth
        target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
        self._tunnel: tuple | None = None
        hop = parts  # what the socket connects to
        proxy = _proxy_for(url)
        if proxy:
            hop = urlsplit(proxy)
            if hop.scheme not in ("http", "https") or not hop.hostname:
                raise EndpointUnreachable(f"proxy for {url}: {hop.scheme}:// proxies are not supported")
            if parts.scheme == "https" and hop.scheme == "https":
                raise EndpointUnreachable(
                    f"proxy for {url}: an https:// proxy in front of an https:// endpoint is not supported"
                )
            _check_port(hop, f"proxy for {url}")
            proxy_headers = {}
            if hop.username:
                auth = _basic_auth(unquote(hop.username), unquote(hop.password or ""), f"proxy for {url}")
                proxy_headers["Proxy-Authorization"] = auth
            if parts.scheme == "https":
                self._tunnel = (_host_port(parts), None, proxy_headers)
            else:
                target = url
                headers.update(proxy_headers)
        if not (target + headers["Host"]).isascii() or " " in target:
            raise EndpointUnreachable(f"{url}: the URL must be ASCII, with no spaces")
        if api_key and ("\r" in api_key or "\n" in api_key):
            raise ConfigInvalid("the API key holds a line break")
        head = f"POST {target} HTTP/1.1\r\n" + "".join(f"{name}: {value}\r\n" for name, value in headers.items())
        try:
            # the request line and headers of every post, up to its length
            self._head = (head + "Content-Length: ").encode("latin-1")
        except UnicodeEncodeError:  # only the API key can be outside latin-1 here
            raise ConfigInvalid("the API key holds a character outside latin-1") from None
        kw: dict = {"timeout": timeout_s}
        connection_class = http.client.HTTPConnection
        if "https" in (parts.scheme, hop.scheme):
            ca_bundle = os.environ.get("REQUESTS_CA_BUNDLE") or os.environ.get("CURL_CA_BUNDLE") or certifi.where()
            try:
                kw["context"] = ssl.create_default_context(
                    **{("capath" if os.path.isdir(ca_bundle) else "cafile"): ca_bundle}
                )
            except OSError as exc:  # ssl.SSLError included
                raise EndpointUnreachable(f"CA bundle {ca_bundle}: {exc}") from None
            connection_class = http.client.HTTPSConnection
        self._open = functools.partial(connection_class, _host_port(hop), **kw)
        self._idle: list[_Connection] = []
        weakref.finalize(self, _close_all, self._idle)

    def close(self) -> None:
        """Closes the idle connections."""
        _close_all(self._idle)

    def _connect(self) -> _Connection:
        conn = self._open()
        if self._tunnel is not None:
            conn.set_tunnel(*self._tunnel)
        try:
            conn.connect()  # sets TCP_NODELAY
        except BaseException:
            conn.close()
            raise
        return _Connection(conn.sock)

    def _exchange(self, body: bytes) -> tuple[int, str | None, bytes]:
        """One POST on the connection returned last, or a new one: the
        status, the Retry-After header and the decoded body. The connection
        goes back on the stack unless the reply or an error closed it."""
        request = b"%b%d\r\n\r\n%b" % (self._head, len(body), body)
        try:
            conn, reused = self._idle.pop(), True
        except IndexError:
            conn, reused = self._connect(), False
        try:
            try:
                conn.sock.sendall(request)
                status, headers, keep_alive = _read_head(conn.reader)
            except ConnectionError:  # no status line arrived
                if not reused:
                    raise
                conn.close()
                conn = self._connect()
                conn.sock.sendall(request)
                status, headers, keep_alive = _read_head(conn.reader)
            data, framed = _read_body(conn.reader, status, headers)
        except BaseException:
            conn.close()
            raise
        if keep_alive and framed:
            self._idle.append(conn)
        else:
            conn.close()
        return status, headers.get("retry-after"), _decoded(data, headers.get("content-encoding"))

    def post(self, payload: object) -> object:
        body = json.dumps(payload, allow_nan=False).encode("utf-8")
        about_to_wait()
        delay = BACKOFF_START_S
        wait = 0.0
        for attempt in range(MAX_RETRIES + 1):
            if attempt:
                time.sleep(wait)
            retry_after = None
            try:
                status, retry_after_header, data = self._exchange(body)
            except (http.client.HTTPException, OSError) as exc:
                last_error = EndpointUnreachable(f"{self.url}: {exc}")
            else:
                if status == 200:
                    try:
                        return json.loads(data)
                    except ValueError as exc:
                        raise MalformedResponse(f"response is not JSON: {exc}") from exc
                text = data[:200].decode("utf-8", "replace")
                if status != 429 and status < 500:
                    raise EndpointUnreachable(f"HTTP {status}: {text}")
                last_error = RateLimited(f"HTTP {status}: {text}")
                if status in (429, 503):
                    retry_after = _retry_after_s(retry_after_header)
            # full jitter on a doubling backoff, unless the server named a wait
            wait = retry_after if retry_after is not None else random.uniform(0.0, delay)
            delay *= 2
        raise last_error


class _Connection:
    """An open socket and the buffered reader of its replies."""

    __slots__ = ("sock", "reader")

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.reader = sock.makefile("rb")

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


def _check_port(parts: SplitResult, where: str) -> None:
    """A port that is not a number, or out of range, is an endpoint error."""
    try:
        parts.port
    except ValueError as exc:
        raise EndpointUnreachable(f"{where}: {exc}") from None


def _host_port(parts: SplitResult) -> str:
    """The ``host[:port]`` of a URL, without its login; http.client reads
    the port and the brackets of an IPv6 address."""
    return parts.netloc.rpartition("@")[2]


def _close_all(connections: list[_Connection]) -> None:
    while True:
        try:
            connections.pop().close()
        except IndexError:
            return


def _read_line(reader: BinaryIO) -> bytes:
    line = reader.readline(_MAX_LINE + 1)
    if len(line) > _MAX_LINE:
        raise http.client.LineTooLong("reply line")
    return line


def _read_fields(reader: BinaryIO) -> dict[str, str]:
    """Header (or trailer) lines up to the blank line that ends them, by
    lower-case name; a repeated name keeps its last value. A line with no
    colon is malformed, and Content-Length or Transfer-Encoding values that
    differ leave the reply's end unknown (RFC 9112 section 6.3): both raise,
    so that the connection is closed. A line that starts with a space or a
    tab (an obs-fold, RFC 9112 section 5.2) continues the value before it and
    is joined to it with one space; before the first header it raises."""
    fields = {}
    name = None
    for _ in range(_MAX_HEADERS + 1):
        line = _read_line(reader)
        if line in (b"\r\n", b"\n"):
            return fields
        if not line:
            raise http.client.HTTPException("the reply ended inside its headers")
        if line[:1] in (b" ", b"\t"):
            if name is None:
                raise http.client.HTTPException(f"folded line {line[:40]!r} before the first header")
            fields[name] = f"{fields[name]} {line.decode('latin-1').strip()}".strip()
            continue
        name, colon, value = line.decode("latin-1").partition(":")
        if not colon:
            raise http.client.HTTPException(f"header line {line[:40]!r} has no colon")
        name, value = name.strip().lower(), value.strip()
        if name in ("content-length", "transfer-encoding") and fields.get(name, value) != value:
            raise http.client.HTTPException(f"{name} {fields[name][:40]!r} and {value[:40]!r} differ")
        fields[name] = value
    raise http.client.HTTPException(f"got more than {_MAX_HEADERS} headers")


def _read_head(reader: BinaryIO) -> tuple[int, dict[str, str], bool]:
    """The status and the headers of the first reply that is not 1xx, and
    whether the connection may stay open: not after ``Connection: close``,
    nor after HTTP/1.0 without keep-alive. A stream that ends before the
    status line raises ``RemoteDisconnected``, a ``ConnectionError``."""
    while True:
        line = _read_line(reader)
        if not line:
            raise http.client.RemoteDisconnected("the server closed the connection without a reply")
        words = line.split(None, 2)  # version, status and reason
        status = int(words[1]) if len(words) > 1 and words[1].isdigit() else 0
        if not 100 <= status <= 999 or not words[0].startswith(b"HTTP/"):
            raise http.client.BadStatusLine(f"bad status line {line[:80]!r}")
        headers = _read_fields(reader)
        if status >= 200:
            break
    connection = headers.get("connection", "").lower()
    keep_alive = "close" not in connection and (words[0] != b"HTTP/1.0" or "keep-alive" in connection)
    return status, headers, keep_alive


def _read_body(reader: BinaryIO, status: int, headers: dict[str, str]) -> tuple[bytes, bool]:
    """The body of a reply, by its chunked transfer-encoding, its
    Content-Length, or else to the end of the stream; and whether it was
    framed, that is, not read to the end of the stream. Any Transfer-Encoding
    but ``chunked`` alone raises: chunked must be the last coding (RFC 9112
    section 6.3), and no other transfer coding is undone."""
    if status in (204, 304):
        return b"", True
    coding = headers.get("transfer-encoding")
    if coding is not None:
        if coding.lower() != "chunked":
            raise http.client.HTTPException(f"unsupported Transfer-Encoding {coding[:40]!r}")
        return _read_chunked(reader), True
    length = headers.get("content-length")
    if length is None:
        return reader.read(), False
    if not length.isdecimal():
        raise http.client.HTTPException(f"bad Content-Length {length[:40]!r}")
    return _read_exactly(reader, int(length)), True


def _read_exactly(reader: BinaryIO, size: int) -> bytes:
    """``size`` bytes, read at most 1 MiB at a time, so that a length the
    stream does not hold fails as a short read, not as one huge allocation."""
    pieces = []
    left = size
    while left:
        piece = reader.read(min(left, 1 << 20))
        if not piece:
            raise http.client.IncompleteRead(b"".join(pieces), left)
        pieces.append(piece)
        left -= len(piece)
    return b"".join(pieces)


def _read_chunked(reader: BinaryIO) -> bytes:
    """A chunked body: each chunk after its hex size line, up to the empty
    chunk and the trailer lines after it."""
    chunks = []
    while True:
        line = _read_line(reader)
        digits = line.split(b";", 1)[0].strip()  # a chunk extension is ignored
        if not digits or digits.strip(b"0123456789abcdefABCDEF"):
            raise http.client.HTTPException(f"bad chunk size line {line[:40]!r}")
        size = int(digits, 16)
        if not size:
            _read_fields(reader)
            return b"".join(chunks)
        chunks.append(_read_exactly(reader, size + 2)[:-2])  # the chunk and its CRLF


def _decoded(body: bytes, encoding: str | None) -> bytes:
    """``body`` with a gzip or deflate Content-Encoding undone; any other is
    left as sent."""
    if not body or (encoding or "").strip().lower() not in ("gzip", "x-gzip", "deflate"):
        return body
    for wbits in (32 + zlib.MAX_WBITS, -zlib.MAX_WBITS):  # a gzip or zlib header, else raw deflate
        try:
            return zlib.decompress(body, wbits)
        except zlib.error as exc:
            error = exc
    raise MalformedResponse(f"{encoding} body does not decode: {error}")


class HTTPBackend:
    """Adapter to a chat-completion endpoint exposing top_logprobs; posts
    through a ``JSONPoster`` on ``{base_url}/chat/completions``."""

    def __init__(self, base_url: str, api_key: str | None = None):
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
        dists: list[TokenDistribution] = []
        for position, item in enumerate(content):
            try:
                tokens.append(item["token"])
                alternatives = item["top_logprobs"]
                dists.append(
                    TokenDistribution(
                        [alt["token"] for alt in alternatives],
                        # a positive logprob is read as 0; NaN is kept, for the check to refuse
                        [0.0 if (lp := alt["logprob"]) > 0 else lp for alt in alternatives],
                    )
                )
            except (KeyError, TypeError) as exc:
                raise MalformedResponse(f"malformed logprob entry at position {position}") from exc
        return CompletionResponse(tokens, dists)


def _retry_after_s(value: str | None) -> float | None:
    """The wait a Retry-After header asks for in delta-seconds, capped at
    RETRY_AFTER_CAP_S; None when there is none or it is an HTTP date."""
    if value is None or not value.strip().isdecimal():
        return None
    return min(float(value), RETRY_AFTER_CAP_S)


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


@dataclass(frozen=True)
class Readout:
    """One confidence readout: the chosen label or generated answer, its
    confidence in [0, 1], the flag names it carries, and the raw value
    behind it (the chosen label's summed alias probability, or P(Yes))."""

    answer: str
    confidence: float
    flags: frozenset[str]
    raw: float


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
        self._flights: dict[str, Future] = {}
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
                flight = self._flights[digest] = Future()
        if not leader:
            return flight.result()
        try:
            response = self.backend.complete(request)
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

    def _first_distribution(self, messages: list[Message]) -> TokenDistribution:
        """The top-K distribution at the first position of a one-token reply."""
        response = self.complete(CompletionRequest(tuple(messages), self.model_name, 1))
        if not response.token_distributions:
            raise MalformedResponse("no token distribution at first answer position")
        return response.token_distributions[0]

    def classify(self, input: str, label_set: Mapping[str, frozenset[str]]) -> Readout:
        """Single-token readout: per-label summed alias probability, normalized.

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
        logprobs = {label: math.log(p) if p > 0 else -math.inf for label, p in probs.items()}
        confidence = normalized_confidence(logprobs, chosen)
        return Readout(chosen, confidence, frozenset(), probs[chosen])

    def answer(self, question: str, context: str | None = None) -> Readout:
        """Free-form answer of up to 256 tokens, then its one-token Yes/No
        self-evaluation, both at temperature 0 and after ``context`` when
        given; ``self_eval_confidence`` applies the missing policy."""
        if not question.strip():
            raise InvalidInput("question is empty")
        turn = _user_turn(question, context)
        answer = self.complete(CompletionRequest((turn,), self.model_name, 256)).text
        dist = self._first_distribution([turn, Message("assistant", answer), _SELF_EVAL_TURN])
        confidence, flags = self_eval_confidence(dist, missing_policy=self.missing_policy)
        return Readout(answer, confidence, flags, p_yes(dist))
