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

Transport: unless a session is passed, requests go through a Connection,
which keeps one persistent http.client connection to the service for every
probe, call and cleanup of a campaign and reads the proxy, CA bundle and
netrc settings from the environment once. A passed session is used as
given. It needs get(url, timeout=) and, for the executor,
request(method, url, json=, timeout=) and delete(url, timeout=); each
returns an object with status_code, json() (raising ValueError on a
non-JSON body) and text, and raises one of TRANSPORT_ERRORS when the
service cannot be reached.
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
from typing import Any, Optional
from urllib.parse import quote, urljoin, urlsplit

import requests
from urllib3.util import wait_for_read

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
class _NonJsonBody:
    text: str


def _shorten(value, limit: int = 80) -> str:
    text = repr(value)
    return text if len(text) <= limit else text[: limit - 3] + "..."


def json_equal(a, b) -> bool:
    """Structural equality: objects ignore key order, arrays are ordered,
    ints and floats compare by value, booleans only equal booleans."""
    if isinstance(a, bool) or isinstance(b, bool):
        return isinstance(a, bool) and isinstance(b, bool) and a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return float(a) == float(b)
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


@dataclass(frozen=True)
class Response:
    """An answer as received, its body decoded from a gzip or deflate
    content coding."""

    status_code: int
    headers: http.client.HTTPMessage
    content: bytes

    @property
    def text(self) -> str:
        """The body in the Content-Type charset, or UTF-8 without one;
        bytes that do not decode become U+FFFD."""
        charset = self.headers.get_content_charset()
        if charset:
            try:
                return self.content.decode(charset, errors="replace")
            except LookupError:
                pass
        return self.content.decode("utf-8", errors="replace")

    def json(self):
        return json.loads(self.text)


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


class Connection:
    """Sends a campaign's requests over persistent http.client connections,
    one per origin; every request to base_url's host shares one.

    The proxy, CA bundle and netrc credentials are read from the environment
    once, with requests' helpers, for base_url: proxies maps a scheme (or
    scheme://host) to a proxy URL after NO_PROXY, verify is the CA bundle
    (True: certifi's), auth the netrc (login, password) or None. After that
    the environment is not read again.

    As requests does, an http target behind a proxy gets absolute-form
    requests and an https one a CONNECT tunnel; only http:// proxies are
    supported. An idle connection the peer closed is reopened before it is
    reused; nothing is retried. Redirects are followed by requests' rules.
    """

    def __init__(self, base_url: str):
        # origin -> (connection, absolute-form target, per-request headers)
        self._routes: dict[tuple, tuple[http.client.HTTPConnection, bool, dict]] = {}
        self._ssl: Optional[ssl.SSLContext] = None
        self.proxies = requests.utils.get_environ_proxies(base_url)
        self.verify = (
            os.environ.get("REQUESTS_CA_BUNDLE") or os.environ.get("CURL_CA_BUNDLE") or True
        )
        self.auth = requests.utils.get_netrc_auth(base_url)

    def get(self, url: str, timeout: Optional[float] = None) -> Response:
        return self.request("GET", url, timeout=timeout)

    def delete(self, url: str, timeout: Optional[float] = None) -> Response:
        return self.request("DELETE", url, timeout=timeout)

    def request(self, method: str, url: str, json=None, timeout: Optional[float] = None):
        headers = {}
        body = None
        if json is not None:
            body = _json_dumps(json, allow_nan=False).encode("utf-8")
            headers["Content-Type"] = "application/json"
        elif method not in ("GET", "HEAD"):
            headers["Content-Length"] = "0"
        auth = self.auth
        for _ in range(MAX_REDIRECTS + 1):
            if auth is not None:
                headers["Authorization"] = _basic(*auth)
            response = self._exchange(method, url, body, headers, timeout)
            location = response.headers.get("Location")
            status = response.status_code
            if status not in _REDIRECTS or location is None:
                return response
            target = urljoin(url, location)
            if status not in (307, 308):  # only these keep the method and body
                if status in (302, 303) and method != "HEAD" or (
                    status == 301 and method == "POST"
                ):
                    method = "GET"
                body = None
                headers.pop("Content-Type", None)
                headers.pop("Content-Length", None)
            if auth is not None and _strips_auth(url, target):
                auth = None
                headers.pop("Authorization")
            url = target
        raise http.client.HTTPException(f"exceeded {MAX_REDIRECTS} redirects")

    def close(self) -> None:
        for conn, _, _ in self._routes.values():
            conn.close()
        self._routes.clear()

    def __del__(self):  # a session nobody closed still releases its sockets
        self.close()

    def _exchange(self, method, url, body, headers, timeout) -> Response:
        conn, absolute, route_headers = self._route(url)
        if absolute:
            target = url
        else:
            parts = urlsplit(url)
            target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
        if conn.sock is not None and wait_for_read(conn.sock, timeout=0.0):
            conn.close()  # the peer closed it, or sent what nobody asked for
        conn.timeout = timeout
        if conn.sock is not None:
            conn.sock.settimeout(timeout)
        try:
            conn.request(method, requests.utils.requote_uri(target), body,
                         {**headers, **route_headers})
            answer = conn.getresponse()
            content = answer.read()
        except BaseException:
            conn.close()  # a half-done exchange leaves the connection unusable
            raise
        return Response(
            answer.status, answer.headers,
            _decoded(content, answer.headers.get("Content-Encoding")),
        )

    def _route(self, url: str):
        origin = _origin(url)
        route = self._routes.get(origin)
        if route is not None:
            return route
        scheme, host, port = origin
        proxy = requests.utils.select_proxy(url, self.proxies)
        extra = {}
        if proxy is None:
            if scheme == "https":
                conn = http.client.HTTPSConnection(host, port, context=self._context())
            else:
                conn = http.client.HTTPConnection(host, port)
            route = (conn, False, extra)
        else:
            proxy = requests.utils.prepend_scheme_if_needed(proxy, "http")
            if urlsplit(proxy).scheme.lower() != "http":
                raise http.client.InvalidURL(f"proxy {proxy!r}: only http:// proxies are supported")
            _, p_host, p_port = _origin(proxy)
            user, password = requests.utils.get_auth_from_url(proxy)
            if user:
                extra["Proxy-Authorization"] = _basic(user, password)
            if scheme == "https":
                conn = http.client.HTTPSConnection(p_host, p_port, context=self._context())
                conn.set_tunnel(host, port, headers=extra)
                route = (conn, False, {})
            else:
                route = (http.client.HTTPConnection(p_host, p_port), True, extra)
        self._routes[origin] = route
        return route

    def _context(self) -> ssl.SSLContext:
        if self._ssl is None:
            where = requests.utils.DEFAULT_CA_BUNDLE_PATH if self.verify is True else self.verify
            if os.path.isdir(where):
                self._ssl = ssl.create_default_context(capath=where)
            else:
                self._ssl = ssl.create_default_context(cafile=where)
        return self._ssl


def make_session(base_url: str) -> Connection:
    """The session a campaign uses when none is passed: a Connection with the
    environment read once for base_url."""
    return Connection(base_url)


def path_segment(value) -> str:
    """A concrete id as one URL path segment."""
    return quote(str(value), safe="")


class Evaluator:
    def __init__(
        self,
        base_url: str,
        *,
        session=None,
        timeout: float = 5.0,
        budget: int = 256,
    ):
        self.base_url = base_url.rstrip("/")
        self.session = session if session is not None else make_session(self.base_url)
        self.timeout = timeout
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
        if isinstance(value, _NonJsonBody):
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
        if isinstance(value, _NonJsonBody):
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
        url = self.base_url + path
        try:
            response = self.session.get(url, timeout=self.timeout)
        except TRANSPORT_ERRORS as exc:
            raise TransportFailure(f"GET {path}: {exc}") from exc
        try:
            body = response.json()
        except ValueError:
            body = _NonJsonBody(response.text)
        self._cache[path] = (response.status_code, body)
        return self._cache[path]
