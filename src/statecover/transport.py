"""HTTP/1.1 on the standard library, for both ends of a campaign's wire.

A campaign sends every request through request(method, path, json=None) ->
(status, body) of a session that owns the base URL and the timeout; body
is the decoded JSON value, or a NonJsonBody of the text. A Connection is
such a session: one persistent connection to the origin of its base URL,
each request written in one send and sent once, each answer read with
read_response. The status and body are the service's own answer to that
request: a 3xx is returned as it came, and its Location is not followed.
A service that cannot be reached raises one of TRANSPORT_ERRORS: an
OSError of its socket, or a ProtocolError for an answer this module cannot
read as HTTP/1.1 or a URL no connection can serve. The demo server reads
its requests' header sections with the same read_fields.

Connection opens its own sockets, TCP with TCP_NODELAY and TLS, so the
package never loads http.client. Of the environment it reads only the CA
bundle; socket and select load when its first socket opens, ssl and
certifi when its first TLS socket opens.
"""

from __future__ import annotations

import json
import os
from functools import partial
from json import dumps as _json_dumps
from time import perf_counter
from typing import Any, NamedTuple, Optional
from urllib.parse import quote, urlsplit

_DEFAULT_PORTS = {"http": 80, "https": 443}
# what a request target keeps unescaped: the reserved characters, ~ and %,
# so that the %XX escapes it is built with go out as they are
_TARGET_SAFE = "!#$%&'()*+,/:;=?@[]~"


class ProtocolError(Exception):
    """An answer that cannot be read as HTTP/1.1 (its framing, or a body
    coding the request did not ask for), or a URL that no connection can
    serve."""


# What a session raises when the service cannot be reached or answers outside HTTP
TRANSPORT_ERRORS = (OSError, ProtocolError)


class NonJsonBody(NamedTuple):
    """A response body that is not JSON, as text."""

    text: str


MAX_LINE = 65536  # the longest status, field or chunk-size line, as in http.client
_MAX_FIELDS = 100  # the most fields in one header section, as in http.client


def _line(stream, what: str) -> bytes:
    """The line stream is at, with its line break; b"" at the end of the input."""
    line = stream.readline(MAX_LINE + 1)
    if len(line) > MAX_LINE:
        raise ProtocolError(f"got more than {MAX_LINE} bytes when reading {what}")
    return line


def read_fields(stream) -> dict[str, str]:
    """The header section stream (a buffered binary file) is at, up to and
    including its empty line: lowercased field name -> its first value,
    trimmed. A line without a colon is skipped."""
    fields: dict[str, str] = {}
    for _ in range(_MAX_FIELDS + 1):
        line = _line(stream, "header line")
        if line in (b"\r\n", b"\n", b""):
            return fields
        name, colon, value = line.decode("latin-1").partition(":")
        if colon:
            fields.setdefault(name.strip().lower(), value.strip())
    raise ProtocolError(f"got more than {_MAX_FIELDS} headers")


def _read_status(stream) -> tuple[bytes, int]:
    """(HTTP version, status code) of the status line stream is at."""
    line = _line(stream, "status line")
    if not line:
        raise ProtocolError("Remote end closed connection without response")
    parts = line.split(None, 2)
    if len(parts) < 2 or not parts[0].startswith(b"HTTP/1.") or not (
        len(parts[1]) == 3 and parts[1].isdigit()
    ):
        raise ProtocolError(line.decode("latin-1"))
    return parts[0], int(parts[1])


def read_response(stream, method: str) -> tuple[int, dict[str, str], bytes, bool]:
    """Read the answer to a method request from stream, a buffered binary
    file: (status, header fields as read_fields gives them, body, whether the
    connection may carry another request). Interim 1xx answers are skipped.
    The body is framed as RFC 9112 section 6.3 says: none for HEAD, 204 and
    304; chunked when that is the last transfer coding; else Content-Length
    bytes; else everything up to the close. A malformed or cut answer raises
    a ProtocolError."""
    status = 100
    while status < 200:
        version, status = _read_status(stream)
        fields = read_fields(stream)
    connection = fields.get("connection", "").lower()
    keep = "close" not in connection and (version != b"HTTP/1.0" or "keep-alive" in connection)
    if method == "HEAD" or status in (204, 304):
        return status, fields, b"", keep
    coding = fields.get("transfer-encoding")
    if coding is not None:
        if coding.rpartition(",")[2].strip().lower() == "chunked":
            return status, fields, _read_chunked(stream), keep
        return status, fields, stream.read(), False
    length = fields.get("content-length")
    if length is None:
        return status, fields, stream.read(), False
    if not (length.isascii() and length.isdigit()):
        raise ProtocolError(f"invalid Content-Length {length!r}")
    return status, fields, _read_exactly(stream, int(length)), keep


def _read_exactly(stream, size: int) -> bytes:
    data = stream.read(size)
    if len(data) < size:
        raise ProtocolError(f"IncompleteRead({len(data)} bytes read, "
                            f"{size - len(data)} more expected)")
    return data


def _read_chunked(stream) -> bytes:
    """A chunked body: its chunks joined, extensions and trailers dropped."""
    chunks = []
    while True:
        digits = _line(stream, "chunk size").split(b";", 1)[0].strip()  # without extensions
        if not digits or digits.strip(b"0123456789abcdefABCDEF"):
            raise ProtocolError(f"IncompleteRead({sum(map(len, chunks))} bytes read)")
        size = int(digits, 16)
        if size == 0:
            read_fields(stream)  # the trailer section
            return b"".join(chunks)
        chunks.append(_read_exactly(stream, size + 2)[:size])  # the data, then CRLF


def _charset(content_type: Optional[str]) -> Optional[str]:
    """The charset parameter of a Content-Type value, lowercased."""
    for parameter in (content_type or "").split(";")[1:]:
        name, _, value = parameter.partition("=")
        if name.strip().lower() == "charset":
            return value.strip().strip('"').lower() or None
    return None


def _body(fields: dict[str, str], content: bytes):
    """The decoded JSON value of a body, or a NonJsonBody of its text: in the
    Content-Type charset, or UTF-8 without one; bytes that do not decode
    become U+FFFD. A body in a content coding other than identity, which
    every request asks for, raises a ProtocolError."""
    coding = fields.get("content-encoding", "")
    if coding.lower() not in ("", "identity"):
        raise ProtocolError(f"got a body in the {coding!r} content coding, "
                            "but the request asked for identity")
    try:
        text = content.decode(_charset(fields.get("content-type")) or "utf-8", errors="replace")
    except LookupError:
        text = content.decode("utf-8", errors="replace")
    try:
        return json.loads(text)
    except ValueError:
        return NonJsonBody(text)


def _host_name(host: str) -> str:
    """host as it is written in a Host field."""
    name = host if host.isascii() else host.encode("idna").decode("ascii")
    return f"[{name}]" if ":" in name else name  # brackets around an IPv6 literal


_RECEIVE = 65536  # the most bytes one read from a socket asks for


class _Reader:
    """The input of one socket through one buffer, read as read_response
    reads a buffered binary file. buffered counts the bytes received and
    not read yet."""

    __slots__ = ("_recv", "_data", "_at")

    def __init__(self, sock):
        self._recv = sock.recv
        self._data = b""
        self._at = 0

    @property
    def buffered(self) -> int:
        return len(self._data) - self._at

    def _take(self, end: int) -> bytes:
        data = self._data[self._at:end]
        self._at = end
        return data

    def readline(self, limit: int) -> bytes:
        """The input up to and including the next line break, but at most
        limit bytes; what is left when the input ends first."""
        while (end := self._data.find(b"\n", self._at, self._at + limit)) < 0:
            if self.buffered >= limit:
                return self._take(self._at + limit)
            more = self._recv(_RECEIVE)
            if not more:
                return self._take(len(self._data))
            self._data = self._data[self._at:] + more
            self._at = 0
        return self._take(end + 1)

    def read(self, size: int = -1) -> bytes:
        """The next size bytes of the input, or all of it up to its end when
        size is negative; fewer when it ends first."""
        if 0 <= size <= self.buffered:
            return self._take(self._at + size)
        chunks = [self._take(len(self._data))]
        have = len(chunks[0])
        while size < 0 or have < size:
            more = self._recv(_RECEIVE)
            if not more:
                break
            chunks.append(more)
            have += len(more)
        data = b"".join(chunks)
        if 0 <= size < have:
            self._data, self._at = data[size:], 0
            return data[:size]
        return data


def _poller(sock):
    """A function of no arguments that tells whether input, or the end of
    the stream, waits on sock now."""
    import select

    if not hasattr(select, "poll"):  # Windows
        return lambda: bool(select.select([sock], [], [], 0)[0])
    poller = select.poll()
    poller.register(sock, select.POLLIN)
    return partial(poller.poll, 0)


def _origin(parts) -> tuple[str, str, int]:
    """(scheme, host, port) of a split URL that a Connection can serve."""
    scheme = parts.scheme.lower()
    if scheme not in _DEFAULT_PORTS or not parts.hostname:
        raise ProtocolError(f"cannot send a request to {parts.geturl()!r}")
    return scheme, parts.hostname, parts.port or _DEFAULT_PORTS[scheme]


class Connection:
    """Sends requests to base_url + path over one persistent connection to
    the origin of base_url, waiting at most timeout seconds on each socket
    operation. The origin is read from the first request's URL, so a URL no
    connection can serve fails that request. The socket's answers are read
    through one buffer, so bytes past an answer stay in it; a connection
    with input waiting before a request, in the buffer or on the socket (the
    peer closed it, or sent what nobody asked for), is reopened, and nothing
    is retried. verify is read once: the CA bundle in REQUESTS_CA_BUNDLE or
    CURL_CA_BUNDLE, or True for certifi's when it imports, else the system
    store. requests counts the calls of request, request_s their wall time.
    """

    def __init__(self, base_url: str, timeout: float):
        self.sock = None  # first, for __del__ on a half-built one
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.requests = 0
        self.request_s = 0.0
        self.verify = (os.environ.get("REQUESTS_CA_BUNDLE") or os.environ.get("CURL_CA_BUNDLE")
                       or True)
        self._origin = None  # (scheme, host, port), read from the first request's URL
        self._host = None  # the Host field
        self._tls = None  # the TLS context, made when the first TLS socket opens
        self._reader = self._readable = None  # while sock is open: its buffer and its poll

    def request(self, method: str, path: str, json=None) -> tuple[int, Any]:
        """Send method to base_url + path once, with json as the body when
        given; (status, body) of the answer, body as _body decodes it. A
        body goes with a Content-Length, and so does every method but GET
        and HEAD."""
        started = perf_counter()
        try:
            status, fields, content = self._exchange(method, path, json)
            return status, _body(fields, content)
        finally:
            self.requests += 1
            self.request_s += perf_counter() - started

    def _exchange(self, method: str, path: str, json) -> tuple[int, dict[str, str], bytes]:
        """(status, header fields, body) of one exchange."""
        parts = urlsplit(self.base_url + path)
        if self._origin is None:
            self._origin = _origin(parts)
            scheme, host, port = self._origin
            name = _host_name(host)
            self._host = name if port == _DEFAULT_PORTS[scheme] else f"{name}:{port}"
        target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
        lines = [f"{method} {quote(target, safe=_TARGET_SAFE)} HTTP/1.1", f"Host: {self._host}",
                 "Accept-Encoding: identity"]
        body = b"" if json is None else _json_dumps(json, allow_nan=False).encode("utf-8")
        if json is not None or method not in ("GET", "HEAD"):
            lines.append(f"Content-Length: {len(body)}")
        if json is not None:
            lines.append("Content-Type: application/json")
        message = "\r\n".join(lines).encode("latin-1") + b"\r\n\r\n" + body
        if self.sock is not None and (self._reader.buffered or self._readable()):
            self.close()  # the peer closed it, or sent what nobody asked for
        try:
            if self.sock is None:
                self._open()
            self.sock.sendall(message)
            status, fields, content, keep = read_response(self._reader, method)
        except BaseException:
            self.close()  # a half-done exchange leaves the connection unusable
            raise
        if not keep:
            self.close()
        return status, fields, content

    def _open(self) -> None:
        """Connect to the origin with TCP_NODELAY, through TLS for https."""
        import socket

        scheme, host, port = self._origin
        sock = socket.create_connection((host, port), self.timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if scheme == "https":
                sock = self._context().wrap_socket(sock, server_hostname=host)
        except BaseException:
            sock.close()
            raise
        self.sock = sock
        self._reader = _Reader(sock)
        self._readable = _poller(sock)

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = self._reader = self._readable = None

    def __del__(self):  # a session nobody closed still releases its socket
        self.close()

    def _context(self):
        """The TLS context that verifies servers against verify."""
        if self._tls is None:
            import ssl

            where = self.verify
            if where is True:
                try:
                    import certifi
                    where = certifi.where()
                except ImportError:
                    where = None  # the system store
            kind = "capath" if where is not None and os.path.isdir(where) else "cafile"
            self._tls = ssl.create_default_context(**{kind: where})
        return self._tls
