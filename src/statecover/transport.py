"""HTTP/1.1 on the standard library, for both ends of a campaign's wire.

A campaign sends every request through request(method, path, json=None) ->
(status, body) of a session that owns the base URL and the timeout; body
is the decoded JSON value, or a NonJsonBody of the text. A Connection is
such a session: one persistent connection, each request written in one
send, each answer read with read_response; a service that cannot be
reached raises one of TRANSPORT_ERRORS. The demo server reads its
requests' header sections with the same read_fields. http.client only
opens sockets and lends its exceptions. urllib.request and netrc load when
the first Connection is built, certifi when the first TLS socket opens.
"""

from __future__ import annotations

import base64
import http.client
import json
import os
import re
import select
import socket
import ssl
import zlib
from dataclasses import dataclass, field as dc_field
from json import dumps as _json_dumps
from time import perf_counter
from typing import Any, Optional
from urllib.parse import quote, unquote, urljoin, urlsplit

MAX_REDIRECTS = 30  # hops followed before giving up, as requests does
_REDIRECTS = (301, 302, 303, 307, 308)
_DEFAULT_PORTS = {"http": 80, "https": 443}

# What a session raises when the service cannot be reached or answers outside HTTP
TRANSPORT_ERRORS = (OSError, http.client.HTTPException)


@dataclass(frozen=True)
class NonJsonBody:
    """A response body that is not JSON, as text."""

    text: str


MAX_LINE = 65536  # the longest status, field or chunk-size line, as in http.client
_MAX_FIELDS = 100  # the most fields in one header section, as in http.client


def read_fields(stream) -> dict[str, str]:
    """The header section stream (a buffered binary file) is at, up to and
    including its empty line: lowercased field name -> its first value,
    trimmed. A line without a colon is skipped."""
    fields: dict[str, str] = {}
    for _ in range(_MAX_FIELDS + 1):
        line = stream.readline(MAX_LINE + 1)
        if len(line) > MAX_LINE:
            raise http.client.LineTooLong("header line")
        if line in (b"\r\n", b"\n", b""):
            return fields
        name, colon, value = line.decode("latin-1").partition(":")
        if colon:
            fields.setdefault(name.strip().lower(), value.strip())
    raise http.client.HTTPException(f"got more than {_MAX_FIELDS} headers")


def read_response(stream, method: str) -> tuple[int, dict[str, str], bytes, bool]:
    """Read the answer to a method request from stream, a buffered binary
    file: (status, header fields as read_fields gives them, body, whether the
    connection may carry another request). Interim 1xx answers are skipped.
    The body is framed as RFC 9112 section 6.3 says: none for HEAD, 204 and
    304; chunked when that is the last transfer coding; else Content-Length
    bytes; else everything up to the close. A malformed or cut answer raises
    an http.client.HTTPException."""
    status = 100
    while status < 200:
        line = stream.readline(MAX_LINE + 1)
        if len(line) > MAX_LINE:
            raise http.client.LineTooLong("status line")
        if not line:
            raise http.client.RemoteDisconnected("Remote end closed connection without response")
        parts = line.split(None, 2)
        if len(parts) < 2 or not parts[0].startswith(b"HTTP/1.") or not (
            len(parts[1]) == 3 and parts[1].isdigit()
        ):
            raise http.client.BadStatusLine(line.decode("latin-1"))
        status = int(parts[1])
        fields = read_fields(stream)
    connection = fields.get("connection", "").lower()
    keep = "close" not in connection and (parts[0] != b"HTTP/1.0" or "keep-alive" in connection)
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
        raise http.client.HTTPException(f"invalid Content-Length {length!r}")
    return status, fields, _read_exactly(stream, int(length)), keep


def _read_exactly(stream, size: int) -> bytes:
    data = stream.read(size)
    if len(data) < size:
        raise http.client.IncompleteRead(data, size - len(data))
    return data


def _read_chunked(stream) -> bytes:
    """A chunked body: its chunks joined, extensions and trailers dropped."""
    chunks = []
    while True:
        line = stream.readline(MAX_LINE + 1)
        if len(line) > MAX_LINE:
            raise http.client.LineTooLong("chunk size")
        digits = line.split(b";", 1)[0].strip()  # the size, without extensions
        if not digits or digits.strip(b"0123456789abcdefABCDEF"):
            raise http.client.IncompleteRead(b"".join(chunks))
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
    become U+FFFD."""
    try:
        text = content.decode(_charset(fields.get("content-type")) or "utf-8", errors="replace")
    except LookupError:
        text = content.decode("utf-8", errors="replace")
    try:
        return json.loads(text)
    except ValueError:
        return NonJsonBody(text)


def _basic(user: str, password: str) -> str:
    token = base64.b64encode(f"{user}:{password}".encode("latin-1")).decode("ascii")
    return f"Basic {token}"


def _origin(url: str) -> tuple[str, str, int]:
    parts = urlsplit(url)
    scheme = parts.scheme.lower()
    if scheme not in _DEFAULT_PORTS or not parts.hostname:
        raise http.client.InvalidURL(f"cannot send a request to {url!r}")
    return scheme, parts.hostname, parts.port or _DEFAULT_PORTS[scheme]


def _strips_auth(old: str, new: str) -> bool:
    """requests' rule: credentials go along a redirect only to the same
    host, scheme and port, or from http to https on the default ports."""
    old_scheme, old_host, old_port = _origin(old)
    new_scheme, new_host, new_port = _origin(new)
    upgrade = (old_scheme, old_port, new_scheme, new_port) == ("http", 80, "https", 443)
    return old_host != new_host or (old_scheme, old_port) != (new_scheme, new_port) and not upgrade


def _decoded(data: bytes, coding: Optional[str]) -> bytes:
    """Undo the gzip and deflate content codings, last applied first."""
    for name in reversed((coding or "").lower().split(",")):
        name = name.strip()
        try:
            if name in ("gzip", "x-gzip"):
                data = zlib.decompress(data, 16 + zlib.MAX_WBITS)
            elif name == "deflate":
                try:
                    data = zlib.decompress(data)
                except zlib.error:  # raw deflate, without the zlib header
                    data = zlib.decompress(data, -zlib.MAX_WBITS)
        except zlib.error as exc:
            raise http.client.HTTPException(f"cannot decode a {name} body: {exc}") from exc
    return data


def _host_field(scheme: str, host: str, port: int) -> str:
    """The Host header of a request to an origin."""
    name = host if host.isascii() else host.encode("idna").decode("ascii")
    if ":" in name:  # an IPv6 literal
        name = f"[{name}]"
    return name if port == _DEFAULT_PORTS[scheme] else f"{name}:{port}"


def _ipv4(text: str) -> Optional[int]:
    """text as a 32-bit number, when socket.inet_aton reads it as IPv4."""
    try:
        return int.from_bytes(socket.inet_aton(text), "big")
    except OSError:
        return None


def environ_proxies(url: str) -> dict[str, str]:
    """The environment's proxies for url (scheme -> proxy URL), or {} when
    no_proxy (else NO_PROXY) exempts its host, by requests' rules: an IPv4
    host matches a CIDR block holding it, or else an equal entry; another
    host matches an entry equal to it or to host:port, or a dotted suffix of
    either. urllib.request's own check ('*' included) comes last."""
    from urllib.request import getproxies_environment, proxy_bypass_environment

    parts = urlsplit(url)
    host = parts.hostname
    if host is None:
        return {}
    no_proxy = os.environ.get("no_proxy") or os.environ.get("NO_PROXY") or ""
    entries = [entry for entry in no_proxy.replace(" ", "").split(",") if entry]
    address = _ipv4(host)
    for entry in entries if address is not None else ():
        net, _, bits = entry.partition("/")
        try:
            size = int(bits) if entry.count("/") == 1 else 0
        except ValueError:
            size = 0
        base = _ipv4(net) if 1 <= size <= 32 else None
        if host == entry if base is None else (address ^ base) >> 32 - size == 0:
            return {}
    if address is None and entries:
        host_port = f"{host}:{parts.port}" if parts.port else host
        for entry in (entry.lstrip(".") for entry in entries):
            if entry in (host, host_port) or host.endswith("." + entry) or (
                    host_port.endswith("." + entry)):
                return {}
    try:
        if proxy_bypass_environment(host):
            return {}
    except (TypeError, socket.gaierror):
        pass
    return getproxies_environment()


def netrc_auth(url: str) -> Optional[tuple[str, str]]:
    """(login, password) for url's host from the netrc file requests reads:
    $NETRC, else ~/.netrc, else ~/_netrc; the account stands in for an empty
    login. None without a file, a host or an entry, or when the file cannot
    be read or parsed."""
    import netrc

    where = os.environ.get("NETRC")
    candidates = (where,) if where is not None else ("~/.netrc", "~/_netrc")
    path = next((p for p in map(os.path.expanduser, candidates) if os.path.exists(p)), None)
    host = urlsplit(url).hostname
    if path is None or host is None:
        return None
    try:
        entry = netrc.netrc(path).authenticators(host)
    except (netrc.NetrcParseError, OSError):
        return None
    return (entry[0] or entry[1] or "", entry[2] or "") if entry and any(entry) else None


_UNRESERVED = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-._~")


def requote(target: str) -> str:
    """target quoted as requests quotes a URL: %XX escapes of unreserved
    characters decoded, then every character but the reserved, the
    unreserved and % escaped. After an invalid escape, % is escaped too."""
    parts = target.split("%")
    for i in range(1, len(parts)):
        code = parts[i][:2]
        try:
            char = chr(int(code, 16)) if len(code) == 2 and code.isalnum() else ""
        except ValueError:
            return quote(target, safe="!#$&'()*+,/:;=?@[]~")
        parts[i] = char + parts[i][2:] if char in _UNRESERVED else "%" + parts[i]
    return quote("".join(parts), safe="!#$%&'()*+,/:;=?@[]~")


def proxy_endpoint(proxy: str) -> tuple[str, int, dict[str, str]]:
    """(host, port, headers) of an http:// proxy URL, read as requests reads
    it: http:// goes in front when it has no scheme, and its unquoted
    credentials become a Proxy-Authorization header."""
    if proxy.startswith("//"):
        proxy = "http:" + proxy
    elif not re.match(r"[a-zA-Z][a-zA-Z0-9+-]*:", proxy):
        proxy = "http://" + proxy
    parts = urlsplit(proxy)
    if parts.scheme.lower() != "http":
        raise http.client.InvalidURL(f"proxy {proxy!r}: only http:// proxies are supported")
    _, host, port = _origin(proxy)
    user, password = parts.username, parts.password
    if user and password is not None:
        return host, port, {"Proxy-Authorization": _basic(unquote(user), unquote(password))}
    return host, port, {}


def _readable(sock) -> bool:
    """Whether input, or the end of the stream, waits on sock now."""
    if not hasattr(select, "poll"):  # Windows
        return bool(select.select([sock], [], [], 0)[0])
    poller = select.poll()
    poller.register(sock, select.POLLIN)
    return bool(poller.poll(0))


@dataclass(eq=False)
class _Route:
    """How requests reach one origin. conn opens the socket (TCP, a CONNECT
    tunnel, TLS) and holds it while it is open. host is the Host header,
    absolute sends targets in absolute form (to an http proxy), and headers
    go with every request."""

    conn: http.client.HTTPConnection
    host: str
    absolute: bool = False
    headers: dict = dc_field(default_factory=dict)


class Connection:
    """Sends requests to base_url + path over one persistent connection per
    origin, waiting at most timeout seconds on each socket operation. Each
    answer is read from a buffered file opened for that exchange, so bytes
    past it go with it; a connection with input waiting before a request
    (the peer closed it, or sent what nobody asked for) is reopened, and
    nothing is retried. The environment is read once: proxies, verify (the
    CA bundle in REQUESTS_CA_BUNDLE or CURL_CA_BUNDLE; True: certifi's when
    it imports, else the system store) and auth (netrc). As with requests,
    an http target behind a proxy gets absolute-form requests, an https one
    a CONNECT tunnel (only http:// proxies), and redirects are followed.
    requests counts the calls of request, request_s their wall time.
    """

    def __init__(self, base_url: str, timeout: float):
        self._routes: dict[tuple, _Route] = {}  # first, for __del__ on a half-built one
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.requests = 0
        self.request_s = 0.0
        self._ssl: Optional[ssl.SSLContext] = None
        self.proxies = environ_proxies(base_url)
        self.verify = (os.environ.get("REQUESTS_CA_BUNDLE") or os.environ.get("CURL_CA_BUNDLE")
                       or True)
        self.auth = netrc_auth(base_url)

    def request(self, method: str, path: str, json=None) -> tuple[int, Any]:
        """Send method to base_url + path, with json as the body when given;
        (status, body) of the final answer, body as _body decodes it."""
        started = perf_counter()
        try:
            return self._follow(method, self.base_url + path, json)
        finally:
            self.requests += 1
            self.request_s += perf_counter() - started

    def _follow(self, method: str, url: str, json) -> tuple[int, Any]:
        headers = {}
        body = None
        if json is not None:
            body = _json_dumps(json, allow_nan=False).encode("utf-8")
            headers["Content-Type"] = "application/json"
        auth = self.auth
        for _ in range(MAX_REDIRECTS + 1):
            if auth is not None:
                headers["Authorization"] = _basic(*auth)
            status, fields, content = self._exchange(method, url, body, headers)
            location = fields.get("location")
            if status not in _REDIRECTS or location is None:
                return status, _body(fields, content)
            target = urljoin(url, location)
            if status not in (307, 308):  # only these keep the method and body
                if status in (302, 303) and method != "HEAD" or status == 301 and method == "POST":
                    method = "GET"
                body = None
                headers.pop("Content-Type", None)
            if auth is not None and _strips_auth(url, target):
                auth = None
                headers.pop("Authorization")
            url = target
        raise http.client.HTTPException(f"exceeded {MAX_REDIRECTS} redirects")

    def close(self) -> None:
        for route in self._routes.values():
            route.conn.close()
        self._routes.clear()

    def __del__(self):  # a session nobody closed still releases its sockets
        self.close()

    def _exchange(self, method, url, body, headers):
        """(status, header fields, body) of one exchange, the body decoded
        from a gzip or deflate content coding. A body goes with a
        Content-Length, and so does every method but GET and HEAD."""
        route = self._route(url)
        if route.absolute:
            target = url
        else:
            parts = urlsplit(url)
            target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
        lines = [f"{method} {requote(target)} HTTP/1.1", f"Host: {route.host}",
                 "Accept-Encoding: identity"]
        if body is not None or method not in ("GET", "HEAD"):
            lines.append(f"Content-Length: {len(body or b'')}")
        lines.extend(f"{name}: {value}" for name, value in {**headers, **route.headers}.items())
        message = "\r\n".join(lines).encode("latin-1") + b"\r\n\r\n" + (body or b"")
        conn = route.conn
        if conn.sock is not None and _readable(conn.sock):
            conn.close()  # the peer closed it, or sent what nobody asked for
        try:
            if conn.sock is None:
                conn.connect()
            conn.sock.sendall(message)
            with conn.sock.makefile("rb") as reader:
                status, fields, content, keep = read_response(reader, method)
        except BaseException:
            conn.close()  # a half-done exchange leaves the connection unusable
            raise
        if not keep:
            conn.close()
        return status, fields, _decoded(content, fields.get("content-encoding"))

    def _route(self, url: str) -> _Route:
        origin = _origin(url)
        if origin not in self._routes:
            scheme, host, port = origin
            proxy = self.proxies.get(scheme) or self.proxies.get("all")
            to_host, to_port, extra = (host, port, {}) if proxy is None else proxy_endpoint(proxy)
            if scheme == "https":
                conn = http.client.HTTPSConnection(to_host, to_port, timeout=self.timeout,
                                                   context=self._context())
                if proxy is not None:
                    conn.set_tunnel(host, port, headers=extra)
                route = _Route(conn, _host_field(*origin))
            else:
                conn = http.client.HTTPConnection(to_host, to_port, timeout=self.timeout)
                route = _Route(conn, _host_field(*origin), proxy is not None, extra)
            self._routes[origin] = route
        return self._routes[origin]

    def _context(self) -> ssl.SSLContext:
        if self._ssl is None:
            where = self.verify
            if where is True:
                try:
                    import certifi
                    where = certifi.where()
                except ImportError:
                    where = None  # the system store
            kind = "capath" if where is not None and os.path.isdir(where) else "cafile"
            self._ssl = ssl.create_default_context(**{kind: where})
        return self._ssl
