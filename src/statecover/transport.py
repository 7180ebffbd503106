"""HTTP/1.1 on the standard library, for both ends of a campaign's wire.

A campaign sends every request through request(method, path, json=None) ->
(status, body) of a session that owns the base URL and the timeout; body
is the decoded JSON value, or a NonJsonBody of the text. A Connection is
such a session: one persistent connection, each request written in one
send, each answer read with read_response; a service that cannot be
reached raises one of TRANSPORT_ERRORS: an OSError of its socket, or a
ProtocolError for an answer this module cannot read as HTTP/1.1 or a URL
no connection can serve. The demo server reads its requests' header
sections with the same read_fields.

Connection opens its own sockets: TCP with TCP_NODELAY, a proxy's CONNECT
tunnel and TLS, so the package never loads http.client. netrc loads when
the first Connection is built, socket and select when its first socket
opens (socket earlier when no_proxy lists hosts), ssl and certifi when its
first TLS socket opens.
"""

from __future__ import annotations

import base64
import json
import os
import re
import zlib
from functools import partial
from json import dumps as _json_dumps
from time import perf_counter
from typing import Any, NamedTuple, Optional
from urllib.parse import quote, unquote, urljoin, urlsplit

MAX_REDIRECTS = 30  # hops followed before giving up, as requests does
_REDIRECTS = (301, 302, 303, 307, 308)
_DEFAULT_PORTS = {"http": 80, "https": 443}


class ProtocolError(Exception):
    """An answer that cannot be read as HTTP/1.1 (framing, a body coding,
    too many redirects), or a URL that no connection can serve."""


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


def _read_status(stream) -> tuple[bytes, int, str]:
    """(HTTP version, status code, reason) of the status line stream is at."""
    line = _line(stream, "status line")
    if not line:
        raise ProtocolError("Remote end closed connection without response")
    parts = line.split(None, 2)
    if len(parts) < 2 or not parts[0].startswith(b"HTTP/1.") or not (
        len(parts[1]) == 3 and parts[1].isdigit()
    ):
        raise ProtocolError(line.decode("latin-1"))
    return parts[0], int(parts[1]), parts[2].decode("latin-1").strip() if len(parts) > 2 else ""


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
        version, status, _ = _read_status(stream)
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


def _origin(parts) -> tuple[str, str, int]:
    """(scheme, host, port) of a split URL that a Connection can serve."""
    scheme = parts.scheme.lower()
    if scheme not in _DEFAULT_PORTS or not parts.hostname:
        raise ProtocolError(f"cannot send a request to {parts.geturl()!r}")
    return scheme, parts.hostname, parts.port or _DEFAULT_PORTS[scheme]


def _strips_auth(old: str, new: str) -> bool:
    """requests' rule: credentials go along a redirect only to the same
    host, scheme and port, or from http to https on the default ports."""
    old_scheme, old_host, old_port = _origin(urlsplit(old))
    new_scheme, new_host, new_port = _origin(urlsplit(new))
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
            raise ProtocolError(f"cannot decode a {name} body: {exc}") from exc
    return data


def _host_name(host: str) -> str:
    """host as it is written in a Host field or a CONNECT target."""
    name = host if host.isascii() else host.encode("idna").decode("ascii")
    return f"[{name}]" if ":" in name else name  # brackets around an IPv6 literal


def _ipv4(text: str) -> Optional[int]:
    """text as a 32-bit number, when socket.inet_aton reads it as IPv4."""
    import socket

    try:
        return int.from_bytes(socket.inet_aton(text), "big")
    except OSError:
        return None


def _environment_proxies() -> dict[str, str]:
    """scheme -> proxy URL from the <scheme>_proxy variables, as
    urllib.request's getproxies_environment reads them: any case, then the
    lowercase names again, so that they win and an empty one removes its
    scheme. HTTP_PROXY in any case but lowercase is ignored when
    REQUEST_METHOD is set (a CGI script, CVE-2016-1000110)."""
    proxies = {}
    for name, value in os.environ.items():
        name = name.lower()
        if value and name[-6:] == "_proxy":
            proxies[name[:-6]] = value
    if "REQUEST_METHOD" in os.environ:
        proxies.pop("http", None)
    for name, value in os.environ.items():
        if name[-6:] == "_proxy":
            name = name.lower()
            if value:
                proxies[name[:-6]] = value
            else:
                proxies.pop(name[:-6], None)
    return proxies


_PORT_SUFFIX = re.compile(r"(.*):([0-9]*)", re.DOTALL)


def _bypassed(host: str, no_proxy: str) -> bool:
    """urllib.request's proxy_bypass_environment: whether no_proxy ('*', or
    comma-separated names) exempts host, with or without a :port suffix,
    as an equal name or a dotted suffix, leading dots and case ignored."""
    if no_proxy == "*":
        return True
    host = host.lower()
    suffixed = _PORT_SUFFIX.fullmatch(host)
    bare = suffixed.group(1) if suffixed else host
    for name in no_proxy.split(","):
        name = name.strip()
        if name:
            name = name.lstrip(".").lower()
            if name in (bare, host) or bare.endswith("." + name) or host.endswith("." + name):
                return True
    return False


def environ_proxies(url: str) -> dict[str, str]:
    """The environment's proxies for url (scheme -> proxy URL), or {} when
    no_proxy (else NO_PROXY) exempts its host, by requests' rules: an IPv4
    host matches a CIDR block holding it, or else an equal entry; another
    host matches an entry equal to it or to host:port, or a dotted suffix of
    either. urllib.request's own check ('*' included) comes last."""
    parts = urlsplit(url)
    host = parts.hostname
    if host is None:
        return {}
    no_proxy = os.environ.get("no_proxy") or os.environ.get("NO_PROXY") or ""
    entries = [entry for entry in no_proxy.replace(" ", "").split(",") if entry]
    address = _ipv4(host) if entries else None
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
    proxies = _environment_proxies()
    return {} if "no" in proxies and _bypassed(host, proxies["no"]) else proxies


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
        raise ProtocolError(f"proxy {proxy!r}: only http:// proxies are supported")
    _, host, port = _origin(parts)
    user, password = parts.username, parts.password
    if user and password is not None:
        return host, port, {"Proxy-Authorization": _basic(unquote(user), unquote(password))}
    return host, port, {}


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


def _tunnel(sock, target: str, headers: dict[str, str]) -> None:
    """Ask the http proxy at the other end of sock for a tunnel to target
    (host:port); OSError unless it answers 200."""
    lines = [f"CONNECT {target} HTTP/1.0", *(f"{name}: {value}" for name, value in headers.items())]
    sock.sendall(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1"))
    answer = _Reader(sock)
    _, status, reason = _read_status(answer)
    read_fields(answer)
    if status != 200:
        raise OSError(f"Tunnel connection failed: {status} {reason}".rstrip())


class _Route:
    """How requests reach one origin. A socket connects to address (the
    origin, or an http proxy), through a CONNECT tunnel when tunnel is
    (target, proxy headers), and speaks TLS to tls_host when that is given.
    host is the Host header, absolute sends targets in absolute form (to an
    http proxy), and headers go with every request. While a socket is open,
    sock is it, reader buffers its input and readable polls it."""

    __slots__ = ("address", "tunnel", "tls_host", "host", "absolute", "headers",
                 "sock", "reader", "readable")

    def __init__(self, address, host: str, *, tunnel=None, tls_host=None, absolute=False,
                 headers=None):
        self.address = address
        self.tunnel = tunnel
        self.tls_host = tls_host
        self.host = host
        self.absolute = absolute
        self.headers = headers or {}
        self.sock = self.reader = self.readable = None

    def open(self, timeout: float, tls_context) -> None:
        """Connect with TCP_NODELAY, waiting at most timeout seconds on each
        socket operation; tls_context() gives the TLS context."""
        import socket

        sock = socket.create_connection(self.address, timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self.tunnel is not None:
                _tunnel(sock, *self.tunnel)
            if self.tls_host is not None:
                sock = tls_context().wrap_socket(sock, server_hostname=self.tls_host)
        except BaseException:
            sock.close()
            raise
        self.sock = sock
        self.reader = _Reader(sock)
        self.readable = _poller(sock)

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = self.reader = self.readable = None


class Connection:
    """Sends requests to base_url + path over one persistent connection per
    origin, waiting at most timeout seconds on each socket operation. A
    socket's answers are read through one buffer, so bytes past an answer
    stay in it; a connection with input waiting before a request, in the
    buffer or on the socket (the peer closed it, or sent what nobody asked
    for), is reopened, and nothing is retried. The environment is read
    once: proxies, verify (the CA bundle in REQUESTS_CA_BUNDLE or
    CURL_CA_BUNDLE; True: certifi's when it imports, else the system store)
    and auth (netrc). As with requests, an http target behind a proxy gets
    absolute-form requests, an https one a CONNECT tunnel (only http://
    proxies), and redirects are followed. requests counts the calls of
    request, request_s their wall time.
    """

    def __init__(self, base_url: str, timeout: float):
        self._routes: dict[tuple[str, str], _Route] = {}  # first, for __del__ on a half-built one
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.requests = 0
        self.request_s = 0.0
        self._tls = None  # the TLS context, made when the first TLS socket opens
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
        raise ProtocolError(f"exceeded {MAX_REDIRECTS} redirects")

    def close(self) -> None:
        for route in self._routes.values():
            route.close()
        self._routes.clear()

    def __del__(self):  # a session nobody closed still releases its sockets
        self.close()

    def _exchange(self, method, url, body, headers):
        """(status, header fields, body) of one exchange, the body decoded
        from a gzip or deflate content coding. A body goes with a
        Content-Length, and so does every method but GET and HEAD."""
        parts = urlsplit(url)
        route = self._route(parts)
        if route.absolute:
            target = url
        else:
            target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
        lines = [f"{method} {requote(target)} HTTP/1.1", f"Host: {route.host}",
                 "Accept-Encoding: identity"]
        if body is not None or method not in ("GET", "HEAD"):
            lines.append(f"Content-Length: {len(body or b'')}")
        lines.extend(f"{name}: {value}" for name, value in {**headers, **route.headers}.items())
        message = "\r\n".join(lines).encode("latin-1") + b"\r\n\r\n" + (body or b"")
        if route.sock is not None and (route.reader.buffered or route.readable()):
            route.close()  # the peer closed it, or sent what nobody asked for
        try:
            if route.sock is None:
                route.open(self.timeout, self._context)
            route.sock.sendall(message)
            status, fields, content, keep = read_response(route.reader, method)
        except BaseException:
            route.close()  # a half-done exchange leaves the connection unusable
            raise
        if not keep:
            route.close()
        return status, fields, _decoded(content, fields.get("content-encoding"))

    def _route(self, parts) -> _Route:
        """The route to the origin of a split URL, made on its first use."""
        route = self._routes.get((parts.scheme, parts.netloc))
        if route is None:
            scheme, host, port = _origin(parts)
            proxy = self.proxies.get(scheme) or self.proxies.get("all")
            to_host, to_port, extra = (host, port, {}) if proxy is None else proxy_endpoint(proxy)
            name = _host_name(host)
            field = name if port == _DEFAULT_PORTS[scheme] else f"{name}:{port}"
            if scheme == "https":
                tunnel = None if proxy is None else (f"{name}:{port}", extra)
                route = _Route((to_host, to_port), field, tunnel=tunnel, tls_host=host)
            else:
                route = _Route((to_host, to_port), field, absolute=proxy is not None,
                               headers=extra)
            self._routes[parts.scheme, parts.netloc] = route
        return route

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
