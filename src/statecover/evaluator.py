"""Evaluates contract formulas against a running service.

Evaluation is read-only: the only requests it ever sends are GETs (a probe
naming any other method is refused when the spec loads), so checking a
clause cannot change the state it is checking. Within one observation
every URL is fetched at most once, so all the clauses it evaluates see one
consistent state of the service; forget() ends what the observation has
seen when a write is about to go out, and a bare evaluate or
capture_previous is an observation of its own. A budget caps the number of
live requests per evaluation so quantifiers over large collections fail
loudly instead of hammering the service.

The pre-state that prev(...) reads is what the latest capture_previous
fetched: one entry per URL, holding the status and body, or the reason the
fetch failed. A capture replaces the previous one.

Formulas are expected to have passed glacier.check_clause for the kind of
clause they are evaluated as; the evaluator checks nothing that does not
depend on the data. Domain errors in the data (a missing field, a non-JSON
body, a quantifier over a non-array) make the enclosing condition false and
produce a witness string. A formula that reduces to a non-boolean, a
{param} the call did not bind, a prev(...) with no captured or an
unavailable snapshot, or a spent budget raises EvaluationError; a dead or
unreachable service raises TransportFailure.

Transport: every request goes through one method, request(method, path,
json=None) -> (status, body), of a session that owns the base URL and the
timeout. body is the decoded JSON value, or a NonJsonBody holding the text
when the answer is not JSON; a service that cannot be reached raises one of
TRANSPORT_ERRORS. A Connection is such a session: it keeps one persistent
connection to the service for every probe, call and cleanup of a campaign,
writes each request in one send and reads each answer with read_response,
a small HTTP/1.1 framer of its own; http.client only opens the connection.
It reads the proxy, CA bundle and netrc settings from the environment once.
requests' helpers, and urllib3 with them, load when the first Connection is
built, so a command that never talks to a service does not pay for
importing them.
"""

from __future__ import annotations

import base64
import http.client
import json
import os
import ssl
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field as dc_field
from json import dumps as _json_dumps
from time import perf_counter
from typing import Any, Optional
from urllib.parse import quote, urljoin, urlsplit

from .glacier import (
    ApiCall,
    BodyFieldPart,
    BoolChain,
    Comparison,
    FieldSuffix,
    Formula,
    LitPart,
    Literal,
    Prev,
    Quantified,
    _print_call,
    _walk_calls,
)


class EvaluationError(RuntimeError):
    """The formula cannot be evaluated on this data; not a verdict about the
    service."""


class BudgetExceeded(EvaluationError):
    pass


class TransportFailure(RuntimeError):
    """The service could not be reached; distinct from a false formula."""


class _Undefined(Exception):
    """Internal: a value needed by a condition does not exist. The nearest
    condition converts this into False plus a witness."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


@dataclass
class OpContext:
    """The operation under test, as seen by '@'; req_body, res_code and
    res_body are named after the functions that read them. Before the call
    is sent the response fields are None: only postconditions read them."""

    req_body: Any = None
    res_code: Any = None
    res_body: Any = None
    path_args: dict = dc_field(default_factory=dict)


@dataclass(frozen=True)
class EvalResult:
    value: bool
    witness: str = ""


@dataclass(frozen=True)
class NonJsonBody:
    """A response body that is not JSON, as text."""

    text: str


def _shorten(value, limit: int = 80) -> str:
    text = repr(value)
    return text if len(text) <= limit else text[: limit - 3] + "..."


def json_equal(a, b) -> bool:
    """Structural equality: objects ignore key order, arrays are ordered,
    ints and floats compare by exact value, booleans only equal booleans."""
    if isinstance(a, bool) or isinstance(b, bool):
        return isinstance(a, bool) and isinstance(b, bool) and a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return a == b  # exact: no int is rounded to a float first
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(json_equal(v, b[k]) for k, v in a.items())
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(json_equal(x, y) for x, y in zip(a, b))
    return type(a) is type(b) and a == b


MAX_REDIRECTS = 30  # hops followed before giving up, as requests does
_REDIRECTS = (301, 302, 303, 307, 308)
_DEFAULT_PORTS = {"http": 80, "https": 443}

# What a session may raise when the service cannot be reached or answers
# outside HTTP. requests' exceptions derive from OSError, so a passed
# requests-based session is covered too.
TRANSPORT_ERRORS = (OSError, http.client.HTTPException)


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
    if old_host != new_host:
        return True
    if (old_scheme, old_port, new_scheme, new_port) == ("http", 80, "https", 443):
        return False
    return (old_scheme, old_port) != (new_scheme, new_port)


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


@dataclass(eq=False)
class _Route:
    """How requests reach one origin. conn opens the socket (TCP, a CONNECT
    tunnel, TLS) and holds it while it is open; reader buffers its input.
    host is the Host header, absolute sends targets in absolute form (to an
    http proxy), and headers go with every request."""

    conn: http.client.HTTPConnection
    host: str
    absolute: bool = False
    headers: dict = dc_field(default_factory=dict)
    reader: Any = None

    def close(self) -> None:
        if self.reader is not None:
            self.reader.close()
            self.reader = None
        self.conn.close()


class Connection:
    """Sends a campaign's requests over persistent connections, one per
    origin; every request to base_url's host shares one. Each request goes
    to base_url + path and waits at most timeout seconds on each socket
    operation.

    Each exchange writes the request line, Host, Accept-Encoding: identity,
    the request's headers and its body in one send, and reads the answer
    with read_response from a buffered file over the socket. http.client
    only opens the socket: TCP, a CONNECT tunnel, TLS.

    The proxy, CA bundle and netrc credentials are read from the environment
    once, with requests' helpers, for base_url: proxies maps a scheme (or
    scheme://host) to a proxy URL after NO_PROXY, verify is the CA bundle
    (True: certifi's), auth the netrc (login, password) or None. After that
    the environment is not read again.

    As requests does, an http target behind a proxy gets absolute-form
    requests and an https one a CONNECT tunnel; only http:// proxies are
    supported. An idle connection the peer closed is reopened before it is
    reused; nothing is retried. Redirects are followed by requests' rules.

    requests counts the calls of request and request_s adds up the wall
    time spent in them.

    requests.utils and urllib3 load when the first Connection is built, not
    when this module is imported; each Connection binds their helpers once.
    """

    def __init__(self, base_url: str, timeout: float):
        # origin -> _Route; set first, so that __del__ on a half-built
        # Connection cannot raise
        self._routes: dict[tuple, _Route] = {}
        import requests.utils
        from urllib3.util import wait_for_read

        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.requests = 0
        self.request_s = 0.0
        self._utils = requests.utils
        self._wait_for_read = wait_for_read
        self._requote_uri = requests.utils.requote_uri
        self._ssl: Optional[ssl.SSLContext] = None
        self.proxies = requests.utils.get_environ_proxies(base_url)
        self.verify = (
            os.environ.get("REQUESTS_CA_BUNDLE") or os.environ.get("CURL_CA_BUNDLE") or True
        )
        self.auth = requests.utils.get_netrc_auth(base_url)

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
                if status in (302, 303) and method != "HEAD" or (
                    status == 301 and method == "POST"
                ):
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
            route.close()
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
        lines = [f"{method} {self._requote_uri(target)} HTTP/1.1", f"Host: {route.host}",
                 "Accept-Encoding: identity"]
        if body is not None or method not in ("GET", "HEAD"):
            lines.append(f"Content-Length: {len(body or b'')}")
        lines.extend(f"{name}: {value}" for name, value in {**headers, **route.headers}.items())
        message = "\r\n".join(lines).encode("latin-1") + b"\r\n\r\n" + (body or b"")
        if route.reader is not None and self._wait_for_read(route.conn.sock, timeout=0.0):
            route.close()  # the peer closed it, or sent what nobody asked for
        try:
            if route.reader is None:
                route.conn.connect()
                route.reader = route.conn.sock.makefile("rb")
            route.conn.sock.sendall(message)
            status, fields, content, keep = read_response(route.reader, method)
        except BaseException:
            route.close()  # a half-done exchange leaves the connection unusable
            raise
        if not keep:
            route.close()
        return status, fields, _decoded(content, fields.get("content-encoding"))

    def _route(self, url: str) -> _Route:
        origin = _origin(url)
        route = self._routes.get(origin)
        if route is not None:
            return route
        scheme, host, port = origin
        host_field = _host_field(*origin)
        proxy = self._utils.select_proxy(url, self.proxies)
        if proxy is None:
            if scheme == "https":
                conn = http.client.HTTPSConnection(host, port, timeout=self.timeout,
                                                   context=self._context())
            else:
                conn = http.client.HTTPConnection(host, port, timeout=self.timeout)
            route = _Route(conn, host_field)
        else:
            proxy = self._utils.prepend_scheme_if_needed(proxy, "http")
            if urlsplit(proxy).scheme.lower() != "http":
                raise http.client.InvalidURL(f"proxy {proxy!r}: only http:// proxies are supported")
            _, p_host, p_port = _origin(proxy)
            user, password = self._utils.get_auth_from_url(proxy)
            extra = {"Proxy-Authorization": _basic(user, password)} if user else {}
            if scheme == "https":
                conn = http.client.HTTPSConnection(p_host, p_port, timeout=self.timeout,
                                                   context=self._context())
                conn.set_tunnel(host, port, headers=extra)
                route = _Route(conn, host_field)
            else:
                conn = http.client.HTTPConnection(p_host, p_port, timeout=self.timeout)
                route = _Route(conn, host_field, absolute=True, headers=extra)
        self._routes[origin] = route
        return route

    def _context(self) -> ssl.SSLContext:
        if self._ssl is None:
            where = self._utils.DEFAULT_CA_BUNDLE_PATH if self.verify is True else self.verify
            if os.path.isdir(where):
                self._ssl = ssl.create_default_context(capath=where)
            else:
                self._ssl = ssl.create_default_context(cafile=where)
        return self._ssl


def path_segment(value) -> str:
    """A concrete id as one URL path segment."""
    return quote(str(value), safe="")


class Evaluator:
    def __init__(self, session, *, budget: int = 256):
        self.session = session
        self.budget = budget
        self.sent = 0  # probe GETs that went out, over the evaluator's life
        self._spent = 0
        self._cache: dict[str, tuple[int, Any]] = {}
        # URL -> (status, body), or the message of the TransportFailure
        self._pre_state: dict[str, Any] = {}
        self._observing = False

    # -- public API ----------------------------------------------------------

    @contextmanager
    def observation(self):
        """Share one URL cache across every evaluate and capture_previous
        made inside the block, as one consistent view of the service, until
        forget() is called."""
        self._cache.clear()
        self._observing = True
        try:
            yield
        finally:
            self._observing = False
            self._cache.clear()

    def forget(self) -> None:
        """Drop what the current observation fetched: the service is about
        to change, so later evaluations fetch afresh."""
        self._cache.clear()

    def _begin(self) -> None:
        if not self._observing:
            self._cache.clear()
        self._spent = 0

    def evaluate(self, formula: Formula, ctx: Optional[OpContext] = None) -> EvalResult:
        self._begin()
        return self._formula(formula, ctx, {})

    def capture_previous(self, formulas, ctx: OpContext) -> None:
        """Fetch every URL a prev(...) call in the given formulas reads and
        keep the responses as the pre-state, replacing the previous capture.
        Must run before the operation is sent; a transport problem is kept
        as its message and only surfaces if a clause actually reads it. A URL
        that cannot be resolved is skipped: the postcondition resolves it
        again and turns the reason into a false clause."""
        self._begin()
        self._pre_state = {}
        for formula in formulas:
            for call, inside_prev in _walk_calls(formula):
                if not inside_prev:
                    continue
                try:
                    url = self._resolve_url(call, ctx, {})
                except _Undefined:
                    continue
                if url in self._pre_state:
                    continue
                try:
                    self._pre_state[url] = self._fetch(url)
                except TransportFailure as failure:
                    self._pre_state[url] = str(failure)

    # -- formulas ------------------------------------------------------------

    def _formula(self, f: Formula, ctx, env: dict) -> EvalResult:
        if isinstance(f, Quantified):
            return self._quantified(f, ctx, env)
        if isinstance(f, BoolChain):
            return self._chain(list(f.items), list(f.ops), ctx, env)
        if isinstance(f, Comparison):
            return self._comparison(f, ctx, env)
        # bare expression: must produce a boolean
        try:
            value = self._expr(f, ctx, env)
        except _Undefined as u:
            return EvalResult(False, u.reason)
        if isinstance(value, bool):
            return EvalResult(value, "" if value else "expression is false")
        raise EvaluationError(f"formula reduced to a non-boolean: {_shorten(value)}")

    def _quantified(self, f: Quantified, ctx, env: dict) -> EvalResult:
        return self._bind(f, list(f.bindings), ctx, dict(env))

    def _bind(self, f: Quantified, remaining, ctx, env: dict) -> EvalResult:
        if not remaining:
            return self._formula(f.body, ctx, env)
        var, call = remaining[0]
        try:
            domain = self._expr(call, ctx, env)
        except _Undefined as u:
            return EvalResult(False, f"domain of {var!r}: {u.reason}")
        if not isinstance(domain, list):
            return EvalResult(
                False, f"domain of {var!r} is not an array: {_shorten(domain)}"
            )
        conjunctive = f.kind == "for"
        for i, element in enumerate(domain):
            env[var] = element
            result = self._bind(f, remaining[1:], ctx, env)
            if conjunctive and not result.value:
                witness = f"{var}[{i}] = {_shorten(element)}: {result.witness}"
                return EvalResult(False, witness)
            if not conjunctive and result.value:
                return EvalResult(True)
        env.pop(var, None)
        if conjunctive:
            return EvalResult(True)  # vacuously true on empty domains
        return EvalResult(False, f"no element of {var!r} satisfies the body")

    def _chain(self, items, ops, ctx, env) -> EvalResult:
        """Flat chain with 'and' over 'or' over '=>'; right-associative
        implication; everything short-circuits left to right."""
        if "=>" in ops:
            i = ops.index("=>")
            antecedent = self._chain(items[: i + 1], ops[:i], ctx, env)
            if not antecedent.value:
                return EvalResult(True)
            return self._chain(items[i + 1 :], ops[i + 1 :], ctx, env)
        if "or" in ops:
            start = 0
            witnesses = []
            ors = [i for i, op in enumerate(ops) if op == "or"]
            for cut in ors + [len(ops)]:
                result = self._chain(items[start : cut + 1], ops[start:cut], ctx, env)
                if result.value:
                    return EvalResult(True)
                witnesses.append(result.witness)
                start = cut + 1
            return EvalResult(False, " | ".join(w for w in witnesses if w))
        for item in items:
            result = self._formula(item, ctx, env)
            if not result.value:
                return result
        return EvalResult(True)

    def _comparison(self, c: Comparison, ctx, env) -> EvalResult:
        try:
            lhs = self._expr(c.lhs, ctx, env)
            rhs = self._expr(c.rhs, ctx, env)
        except _Undefined as u:
            return EvalResult(False, u.reason)
        ok = self._compare(lhs, c.op, rhs)
        if isinstance(ok, str):  # incomparable; the string says why
            return EvalResult(False, ok)
        if ok:
            return EvalResult(True)
        return EvalResult(
            False, f"{_shorten(lhs)} {c.op} {_shorten(rhs)} does not hold"
        )

    def _compare(self, lhs, op: str, rhs):
        if op == "=":
            return json_equal(lhs, rhs)
        if op == "!=":
            return not json_equal(lhs, rhs)
        numeric = lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)
        if numeric(lhs) and numeric(rhs):
            pass
        elif isinstance(lhs, str) and isinstance(rhs, str):
            pass
        else:
            return (
                f"cannot order {_shorten(lhs)} against {_shorten(rhs)}"
            )
        table = {
            "<": lhs < rhs, "<=": lhs <= rhs,
            ">": lhs > rhs, ">=": lhs >= rhs,
        }
        return table[op]

    # -- expressions -----------------------------------------------------------

    def _expr(self, e, ctx, env):
        if isinstance(e, Literal):
            return e.value
        if isinstance(e, Prev):
            return self._prev(e, ctx, env)
        return self._call(e, ctx, env)

    def _call(self, call: ApiCall, ctx, env):
        if call.is_self():
            value = getattr(ctx, call.func)
        else:
            status, body = self._fetch(self._resolve_url(call, ctx, env))
            value = status if call.func == "res_code" else body
        if isinstance(value, NonJsonBody):
            raise _Undefined(f"response body is not JSON: {_shorten(value.text)}")
        return self._suffix(call, value)

    def _suffix(self, call: ApiCall, value):
        suffix = call.suffix
        if suffix is None:
            return value
        if isinstance(suffix, FieldSuffix):
            if not isinstance(value, dict):
                raise _Undefined(
                    f"{{{suffix.name}}} applied to a non-object: {_shorten(value)}"
                )
            if suffix.name not in value:
                raise _Undefined(f"field {suffix.name!r} missing from {_shorten(value)}")
            return value[suffix.name]
        # the parser admits one suffix function, .len
        if isinstance(value, (list, str, dict)):
            return len(value)
        raise _Undefined(f".len applied to {_shorten(value)}")

    def _prev(self, p: Prev, ctx, env):
        url = self._resolve_url(p.call, ctx, env)
        if url not in self._pre_state:
            raise EvaluationError(f"no snapshot was captured for {_print_call(p.call)}")
        entry = self._pre_state[url]
        if isinstance(entry, str):
            raise EvaluationError(f"snapshot unavailable: {entry}")
        status, body = entry
        value = status if p.call.func == "res_code" else body
        if isinstance(value, NonJsonBody):
            raise _Undefined(f"snapshot body is not JSON: {_shorten(value.text)}")
        return self._suffix(p.call, value)

    # -- URLs and transport ------------------------------------------------------

    def _resolve_url(self, call: ApiCall, ctx, env: dict) -> str:
        segments = []
        for seg in call.url.segments:
            rendered = ""
            for part in seg:
                if isinstance(part, LitPart):
                    rendered += part.text
                elif isinstance(part, BodyFieldPart):
                    body = ctx.req_body
                    if not isinstance(body, dict) or part.field not in body:
                        raise _Undefined(
                            f"request body has no field {part.field!r}"
                        )
                    rendered += path_segment(body[part.field])
                elif part.is_dotted():
                    root, field_name = part.name.split(".", 1)
                    element = env[root]
                    if not isinstance(element, dict) or field_name not in element:
                        raise _Undefined(
                            f"{part.name} missing: binder value is {_shorten(element)}"
                        )
                    value = element[field_name]
                    if not isinstance(value, (str, int)):
                        raise _Undefined(f"{part.name} is not usable in a URL")
                    rendered += path_segment(value)
                else:
                    if part.name not in ctx.path_args:
                        raise EvaluationError(
                            f"no binding for path parameter {{{part.name}}}"
                        )
                    rendered += path_segment(ctx.path_args[part.name])
            segments.append(rendered)
        return "/" + "/".join(segments)

    def _fetch(self, path: str) -> tuple[int, Any]:
        if path in self._cache:
            return self._cache[path]
        if self._spent >= self.budget:
            raise BudgetExceeded(
                f"evaluation exceeded its budget of {self.budget} requests"
            )
        self._spent += 1
        self.sent += 1
        try:
            self._cache[path] = self.session.request("GET", path)
        except TRANSPORT_ERRORS as exc:
            raise TransportFailure(f"GET {path}: {exc}") from exc
        return self._cache[path]
