"""JSON over HTTP/1.1: keep-alive posts, retries, proxies, netrc and the
reply reader. Imported only where a backend or retriever that talks to an
endpoint is built, so that a command which opens no socket loads no HTTP stack.
"""

from __future__ import annotations

import base64
import functools
import json
import netrc
import os
import random
import socket
import sys
import time
import weakref
import zlib
from typing import BinaryIO
from urllib.parse import SplitResult, unquote, urlsplit

from .client import about_to_wait
from .errors import ConfigInvalid, EndpointUnreachable, MalformedResponse, RateLimited

# A 429 or 5xx is retried this many times, after a full-jitter backoff that
# starts at BACKOFF_START_S seconds and doubles, or after its Retry-After,
# obeyed for at most RETRY_AFTER_CAP_S seconds.
MAX_RETRIES = 3
BACKOFF_START_S = 0.5
RETRY_AFTER_CAP_S = 60.0


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
    IPv4 network that holds it. urllib.request loads only on macOS and
    Windows (system settings) or when a ``*_proxy`` variable names a proxy."""
    if sys.platform not in ("darwin", "win32") and not any(
        value and name.lower().endswith("_proxy") and name.lower() != "no_proxy" for name, value in os.environ.items()
    ):
        return None
    from urllib.request import getproxies, proxy_bypass

    parts = urlsplit(url)
    host = parts.hostname or ""
    proxies = getproxies()
    proxy = proxies.get(parts.scheme) or proxies.get("all")
    if not proxy or proxy_bypass(f"{host}:{parts.port}" if parts.port else host):
        return None
    for entry in (entry for entry in proxies.get("no", "").split(",") if "/" in entry):
        import ipaddress  # only an entry that may be a network needs it

        try:
            if ipaddress.IPv4Address(host) in ipaddress.IPv4Network(entry.strip(), strict=False):
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


class _BadReply(OSError):
    """A reply that breaks HTTP/1.1 framing: a transport error, retried."""


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
    CONNECT tunnel. The poster opens each connection itself (TCP, the
    tunnel, whose reply ``_read_head`` reads, then TLS); the request line
    and headers are built here once, each request is sent with one write,
    and ``_read_head``/``_read_body`` read the reply. A 429 or 5xx is
    retried up to ``MAX_RETRIES`` times, after its Retry-After or a doubling
    backoff with full jitter; a request that a reused connection drops
    before any status line (the server closed it while idle) is sent again
    at once on a new connection, without counting as a retry. Redirects are
    not followed; gzip and deflate bodies are decoded.
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
        self._tunnel = b""  # the CONNECT request of a tunnel
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
                host = f"[{parts.hostname}]" if ":" in parts.hostname else parts.hostname
                authority = f"{host}:{parts.port or 443}"
                fields = "".join(f"{k}: {v}\r\n" for k, v in {"Host": authority, **proxy_headers}.items())
                self._tunnel = f"CONNECT {authority} HTTP/1.1\r\n{fields}\r\n".encode()  # ASCII: checked below
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
        address = (hop.hostname, hop.port or (443 if hop.scheme == "https" else 80))
        self._open = functools.partial(socket.create_connection, address, timeout_s)
        self._wrap = None  # TLS for each new socket, when a hop is https://
        if "https" in (parts.scheme, hop.scheme):
            import ssl  # an http:// hop loads no TLS

            ca_bundle = os.environ.get("REQUESTS_CA_BUNDLE") or os.environ.get("CURL_CA_BUNDLE")
            if not ca_bundle:
                import certifi  # read only when the environment names no bundle

                ca_bundle = certifi.where()
            try:
                context = ssl.create_default_context(**{("capath" if os.path.isdir(ca_bundle) else "cafile"): ca_bundle})
            except OSError as exc:  # ssl.SSLError included
                raise EndpointUnreachable(f"CA bundle {ca_bundle}: {exc}") from None
            tls_host = (parts if parts.scheme == "https" else hop).hostname
            self._wrap = functools.partial(context.wrap_socket, server_hostname=tls_host)
        self._idle: list[_Connection] = []
        weakref.finalize(self, _close_all, self._idle)

    def close(self) -> None:
        """Closes the idle connections."""
        _close_all(self._idle)

    def _connect(self) -> _Connection:
        """A new connection: TCP without Nagle's delay, the proxy's CONNECT
        tunnel when there is one, then TLS when a hop is https://."""
        sock = self._open()
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self._tunnel:
                sock.sendall(self._tunnel)
                with sock.makefile("rb", buffering=0) as reader:  # reads no byte past the reply's head
                    status = _read_head(reader)[0]
                if status != 200:
                    raise OSError(f"Tunnel connection failed: {status} from the proxy")
            if self._wrap is not None:
                sock = self._wrap(sock)
        except BaseException:
            sock.close()
            raise
        return _Connection(sock)

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
            except OSError as exc:
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
    """The ``host[:port]`` of a URL, without its login, as its Host header
    names it."""
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
        raise _BadReply(f"got more than {_MAX_LINE} bytes when reading a reply line")
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
            raise _BadReply("the reply ended inside its headers")
        if line[:1] in (b" ", b"\t"):
            if name is None:
                raise _BadReply(f"folded line {line[:40]!r} before the first header")
            fields[name] = f"{fields[name]} {line.decode('latin-1').strip()}".strip()
            continue
        name, colon, value = line.decode("latin-1").partition(":")
        if not colon:
            raise _BadReply(f"header line {line[:40]!r} has no colon")
        name, value = name.strip().lower(), value.strip()
        if name in ("content-length", "transfer-encoding") and fields.get(name, value) != value:
            raise _BadReply(f"{name} {fields[name][:40]!r} and {value[:40]!r} differ")
        fields[name] = value
    raise _BadReply(f"got more than {_MAX_HEADERS} headers")


def _read_head(reader: BinaryIO) -> tuple[int, dict[str, str], bool]:
    """The status and the headers of the first reply that is not 1xx, and
    whether the connection may stay open: not after ``Connection: close``,
    nor after HTTP/1.0 without keep-alive. A stream that ends before the
    status line raises ``ConnectionError``."""
    while True:
        line = _read_line(reader)
        if not line:
            raise ConnectionError("the server closed the connection without a reply")
        words = line.split(None, 2)  # version, status and reason
        status = int(words[1]) if len(words) > 1 and words[1].isdigit() else 0
        if not 100 <= status <= 999 or not words[0].startswith(b"HTTP/"):
            raise _BadReply(f"bad status line {line[:80]!r}")
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
            raise _BadReply(f"unsupported Transfer-Encoding {coding[:40]!r}")
        return _read_chunked(reader), True
    length = headers.get("content-length")
    if length is None:
        return reader.read(), False
    if not length.isdecimal():
        raise _BadReply(f"bad Content-Length {length[:40]!r}")
    return _read_exactly(reader, int(length)), True


def _read_exactly(reader: BinaryIO, size: int) -> bytes:
    """``size`` bytes, read at most 1 MiB at a time, so that a length the
    stream does not hold fails as a short read, not as one huge allocation."""
    pieces = []
    left = size
    while left:
        piece = reader.read(min(left, 1 << 20))
        if not piece:
            raise _BadReply(f"IncompleteRead({size - left} bytes read, {left} more expected)")
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
            raise _BadReply(f"bad chunk size line {line[:40]!r}")
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


def _retry_after_s(value: str | None) -> float | None:
    """The wait a Retry-After header asks for in delta-seconds, capped at
    RETRY_AFTER_CAP_S; None when there is none or it is an HTTP date."""
    if value is None or not value.strip().isdecimal():
        return None
    return min(float(value), RETRY_AFTER_CAP_S)
