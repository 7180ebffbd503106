"""Evaluates contract formulas against a running service.

Evaluation is read-only: the only requests a clause ever makes are GETs (a
probe naming any other method is refused when the spec loads), so checking
a clause cannot change the state it is checking. One rule says what a read
sees. The evaluator keeps what the service answered since the last write,
one entry per URL: the status and body, the TransportFailure of a GET that
failed, or the BudgetExceeded of a GET that capture_previous's budget did
not allow. A read is served from that entry, or fetched into it (the last
kind is fetched again), so every clause evaluated between two writes sees
one consistent state of the service and each URL costs at most one GET.
Every write goes through send(), which calls forget() just before it: what
was observed becomes the state before the write, which prev(...) reads, and
later reads fetch afresh. Until then a bare Evaluator keeps answering from
what it fetched. capture_previous only fetches the URLs that prev(...)
calls will read, so that the write keeps them. A budget caps the number of
live requests per evaluation so quantifiers over large collections fail
loudly instead of hammering the service; reads served from what was
observed are free.

Formulas are expected to have passed glacier.check_clause for the kind of
clause they are evaluated as; the evaluator checks nothing that does not
depend on the data. Domain errors in the data (a missing field, a non-JSON
body, a quantifier over a non-array) make the enclosing condition false and
produce a witness string. A formula that reduces to a non-boolean, a
{param} the call did not bind, a prev(...) of a URL not observed before the
last write or whose entry is a failure, or a spent budget raises
EvaluationError; a dead or unreachable service raises TransportFailure.
'@' (the call's own answer), a probe and a snapshot are read alike.

Transport: every request goes through the request(method, path, json=None)
-> (status, body) method of a session that owns the base URL and the
timeout, such as a transport.Connection, which returns the service's answer,
a 3xx included; a body that is not JSON arrives as a NonJsonBody, and any
of transport.TRANSPORT_ERRORS that a GET raises becomes a TransportFailure
(send() passes them on).
"""

from __future__ import annotations

from typing import Any, NamedTuple, Optional
from urllib.parse import quote

from .glacier import (
    ApiCall,
    BodyFieldPart,
    BoolOp,
    Comparison,
    FieldSuffix,
    Formula,
    LitPart,
    Literal,
    Prev,
    Quantified,
    _walk_calls,
)
from .transport import TRANSPORT_ERRORS, NonJsonBody


class EvaluationError(RuntimeError):
    """The formula cannot be evaluated on this data; not a verdict about the
    service."""


class BudgetExceeded(EvaluationError):
    pass


class TransportFailure(RuntimeError):
    """The service could not be reached; distinct from a false formula."""


class _Undefined(Exception):
    """Internal: a value needed by a condition does not exist. The nearest
    condition converts this into False plus a witness, its message."""


class OpContext(NamedTuple):
    """The operation under test, as seen by '@'; req_body, res_code and
    res_body are named after the functions that read them, res_body as the
    session returned it. Before the call is sent the response fields are
    None: only postconditions read them. path_args binds the bare {param}s
    of its URLs."""

    req_body: Any = None
    res_code: Any = None
    res_body: Any = None
    path_args: dict = {}  # never mutated, so one empty default serves all


class EvalResult(NamedTuple):
    value: Optional[bool]  # evaluate gives a bool; None: could not be evaluated
    witness: str = ""


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


def path_segment(value) -> str:
    """A concrete id as one URL path segment."""
    return quote(str(value), safe="")


class Evaluator:
    def __init__(self, session, *, budget: int = 256):
        self.session = session
        self.budget = budget
        self.sent = 0  # probe GETs that went out, over the evaluator's life
        self._spent = 0
        # URL -> (status, body), the TransportFailure of the GET that failed,
        # or the BudgetExceeded that kept capture_previous from sending it:
        # what the service answered since the last write, and before it
        self._now: dict[str, Any] = {}
        self._before: dict[str, Any] = {}

    # -- public API ----------------------------------------------------------

    def forget(self) -> None:
        """A write is about to go out: what was observed becomes the state
        prev(...) reads, and later reads fetch afresh."""
        self._before, self._now = self._now, {}

    def send(self, method: str, path: str, json=None) -> tuple[int, Any]:
        """Send a write through the session, after forget()."""
        self.forget()
        return self.session.request(method, path, json=json)

    def evaluate(self, formula: Formula, ctx: Optional[OpContext] = None) -> EvalResult:
        self._spent = 0
        return self._formula(formula, ctx, {})

    def capture_previous(self, formulas, ctx: OpContext) -> None:
        """Fetch every URL a prev(...) call in the given formulas reads, so
        that the send() of the operation keeps it. Raises
        nothing: a URL that cannot be fetched, for a failed GET or a spent
        budget, is kept as its failure and only surfaces if prev(...) reads
        it; a live read fetches a URL the budget kept anew. A URL that
        cannot be resolved is skipped: the postcondition resolves it again
        and says why."""
        self._spent = 0
        for formula in formulas:
            for call, inside_prev in _walk_calls(formula):
                if not inside_prev:
                    continue
                try:
                    url = self._resolve_url(call, ctx, {})
                except (_Undefined, EvaluationError):
                    continue
                try:
                    self._fetch(url)
                except BudgetExceeded as exc:
                    self._now[url] = exc
                except TransportFailure:
                    pass  # _fetch kept it

    # -- formulas ------------------------------------------------------------

    def _formula(self, f: Formula, ctx, env: dict) -> EvalResult:
        if isinstance(f, Quantified):
            return self._bind(f, list(f.bindings), ctx, dict(env))
        if isinstance(f, BoolOp):
            return self._bool(f, ctx, env)
        if isinstance(f, Comparison):
            return self._comparison(f, ctx, env)
        # bare expression: must produce a boolean
        try:
            value = self._expr(f, ctx, env)
        except _Undefined as u:
            return EvalResult(False, str(u))
        if isinstance(value, bool):
            return EvalResult(value, "" if value else "expression is false")
        raise EvaluationError(f"formula reduced to a non-boolean: {_shorten(value)}")

    def _bind(self, f: Quantified, remaining, ctx, env: dict) -> EvalResult:
        if not remaining:
            return self._formula(f.body, ctx, env)
        var, call = remaining[0]
        try:
            domain = self._expr(call, ctx, env)
        except _Undefined as u:
            return EvalResult(False, f"domain of {var!r}: {u}")
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

    def _bool(self, f: BoolOp, ctx, env) -> EvalResult:
        """Left to right, up to the first item that decides: a false 'and'
        item, a true 'or' item, or a false '=>' antecedent, which makes
        a => b => c true as a => (b => c) is."""
        if f.op == "=>":
            for antecedent in f.items[:-1]:
                if not self._formula(antecedent, ctx, env).value:
                    return EvalResult(True)
            return self._formula(f.items[-1], ctx, env)
        witnesses = []
        for item in f.items:
            result = self._formula(item, ctx, env)
            if f.op == "and" and not result.value:
                return result
            if f.op == "or" and result.value:
                return EvalResult(True)
            witnesses.append(result.witness)
        if f.op == "and":
            return EvalResult(True)
        return EvalResult(False, " | ".join(w for w in witnesses if w))

    def _comparison(self, c: Comparison, ctx, env) -> EvalResult:
        try:
            lhs = self._expr(c.lhs, ctx, env)
            rhs = self._expr(c.rhs, ctx, env)
        except _Undefined as u:
            return EvalResult(False, str(u))
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
        if not (numeric(lhs) and numeric(rhs) or isinstance(lhs, str) and isinstance(rhs, str)):
            return f"cannot order {_shorten(lhs)} against {_shorten(rhs)}"
        return {"<": lhs < rhs, "<=": lhs <= rhs, ">": lhs > rhs, ">=": lhs >= rhs}[op]

    # -- expressions -----------------------------------------------------------

    def _expr(self, e, ctx, env):
        if isinstance(e, Literal):
            return e.value
        if isinstance(e, Prev):
            return self._read(e.call, ctx, env, self._snapshot)
        return self._read(e, ctx, env, self._fetch)

    def _read(self, call: ApiCall, ctx, env, entry_of):
        """The value call reads: from '@', or from the (status, body) entry
        that entry_of gives for its URL."""
        if call.is_self():
            value = getattr(ctx, call.func)
        else:
            status, body = entry_of(self._resolve_url(call, ctx, env))
            value = status if call.func == "res_code" else body
        if isinstance(value, NonJsonBody):
            raise _Undefined(f"response body is not JSON: {_shorten(value.text)}")
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

    def _snapshot(self, path: str) -> tuple[int, Any]:
        """The entry prev(...) reads: what was observed before the last write."""
        if path not in self._before:
            raise EvaluationError(f"no snapshot was captured for GET {path}")
        entry = self._before[path]
        if isinstance(entry, Exception):
            raise EvaluationError(f"snapshot unavailable: {entry}")
        return entry

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
        if path not in self._now or isinstance(self._now[path], BudgetExceeded):
            if self._spent >= self.budget:
                raise BudgetExceeded(
                    f"evaluation exceeded its budget of {self.budget} requests"
                )
            self._spent += 1
            self.sent += 1
            try:
                self._now[path] = self.session.request("GET", path)
            except TRANSPORT_ERRORS as exc:
                self._now[path] = TransportFailure(f"GET {path}: {exc}")
                raise self._now[path] from exc
        entry = self._now[path]
        if isinstance(entry, TransportFailure):
            raise entry
        return entry
