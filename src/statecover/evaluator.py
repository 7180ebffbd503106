"""Evaluates contract formulas against a running service.

Evaluation is read-only: the only requests it ever sends are GETs (a probe
naming any other method is refused when the spec loads), so checking a
clause cannot change the state it is checking. Within one observation (one phase of a call)
every URL is fetched at most once, so all the clauses of that phase see one
consistent state of the service; a bare evaluate or capture_previous is an
observation of its own. A budget caps the number of live requests per
evaluation so quantifiers over large collections fail loudly instead of
hammering the service.

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
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field as dc_field
from typing import Any, Optional
from urllib.parse import quote

import requests

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


def make_session(base_url: str) -> requests.Session:
    """A requests session for one service, with the environment read once.

    A default session looks up proxies, the CA bundle and netrc credentials
    in the environment on every request, which is about half of requests'
    own cost per call. Every request of a campaign goes to base_url's host,
    so this resolves them once for it and then stops reading the
    environment.
    """
    session = requests.Session()
    settings = session.merge_environment_settings(base_url, {}, None, None, None)
    session.proxies = settings["proxies"]
    session.verify = settings["verify"]
    session.auth = requests.utils.get_netrc_auth(base_url)
    session.trust_env = False
    return session


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
        made inside the block, as one consistent view of the service."""
        self._cache.clear()
        self._observing = True
        try:
            yield
        finally:
            self._observing = False
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
        except requests.RequestException as exc:
            raise TransportFailure(f"GET {path}: {exc}") from exc
        try:
            body = response.json()
        except ValueError:
            body = _NonJsonBody(response.text)
        self._cache[path] = (response.status_code, body)
        return self._cache[path]
