"""Drives generated call sequences against a live service.

Each call is sent with concrete, freshly generated inputs while a plain dict,
abstract id ('p1') -> Entry in creation order, tracks what the service should
contain: a prepared call carries the insert, data update or pop that a 2xx
answer applies. Around every request the operation's contract is evaluated
(preconditions and invariants before, postconditions and, on the last call,
invariants again after), and the combination of verdicts and status code is
classified as OK, WARN, or ERR. Between two requests that may write, the
service is observed once: a URL that several clauses read is fetched once,
for the post phase of one call and the pre phase of the next alike, since
nothing was sent in between. The pre-state the postconditions' prev(...)
calls read is captured in the pre phase.

A call whose inputs cannot be produced (a foreign id that was never created,
an id the sequence already created, an operation with no usable key, a
request body the schema does not let the generator build as an object) is
reported NOT_TESTED, and nothing is sent for it. A 5xx answer short-circuits
classification: the service failed outright, so postconditions are not
evaluated.

Every request goes through one session: the one passed to run_campaign or
SequenceRunner, or else an evaluator.Connection that run_campaign opens for
the campaign and closes at its end. The evaluator module's docstring says
what a passed session must provide.
"""

from __future__ import annotations

import time
from contextlib import ExitStack, closing
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Optional

from .evaluator import (
    TRANSPORT_ERRORS,
    EvaluationError,
    Evaluator,
    OpContext,
    TransportFailure,
    make_session,
    path_segment,
)
from .glacier import Formula
from .runtime import Entry, GenerationError, InputGenerator

OK = "OK"
WARN = "WARN"
ERR = "ERR"
NOT_TESTED = "NOT_TESTED"


def classify(pre: bool, post: bool, inv: bool, status: int) -> str:
    """Verdict table over (precondition, postcondition, invariants, status).

    With the precondition met, the call must succeed and keep every promise:
    anything else is a fault, except a clean 4xx rejection where nothing was
    promised anyway, which is only suspicious (WARN). With the precondition
    unmet, a 4xx rejection is exactly right; succeeding anyway is suspicious;
    and succeeding while breaking invariants, or answering 2xx/3xx/5xx with
    broken promises, is a fault.
    """
    success = 200 <= status < 300
    rejected = 400 <= status < 500
    if pre:
        if post and inv:
            return OK if success else ERR
        if not post and not inv:
            return WARN if rejected else ERR
        return ERR
    if post:
        return WARN if inv else ERR
    return OK if rejected else ERR


@dataclass
class ClauseVerdict:
    value: Optional[bool]  # None: evaluation itself failed
    witness: str = ""

    @property
    def ok(self) -> bool:
        return self.value is True


@dataclass
class CallOutcome:
    sequence_index: int
    call_index: int
    operation_id: str
    request: Optional[dict]
    response: Optional[dict]
    pre: Optional[bool]
    post: Optional[bool]
    inv: Optional[bool]
    classification: str
    reason: str

    def to_json(self) -> dict:
        return {
            "sequenceIndex": self.sequence_index,
            "callIndex": self.call_index,
            "operationId": self.operation_id,
            "request": self.request,
            "response": self.response,
            "pre": self.pre,
            "post": self.post,
            "inv": self.inv,
            "classification": self.classification,
            "reason": self.reason,
        }


class _Skip(Exception):
    """Internal: this call cannot be issued; carries the NOT_TESTED reason."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


@dataclass
class _Prepared:
    payload: Optional[dict]  # body to send (None for DELETE)
    clause_body: Any  # what req_body(@) means for this call
    path: str
    bindings: dict
    effect: Callable[[], None]  # state update on 2xx


class SequenceRunner:
    def __init__(
        self,
        spec,
        base_url: str,
        generator: InputGenerator,
        *,
        session=None,
        timeout: float = 5.0,
        budget: int = 256,
    ):
        self.spec = spec
        self.base_url = base_url.rstrip("/")
        self.generator = generator
        self.http = session if session is not None else make_session(self.base_url)
        self.timeout = timeout
        self.sends = 0  # requests sent for calls, over the runner's life
        self.evaluator = Evaluator(
            self.base_url,
            session=self.http,
            timeout=timeout,
            budget=budget,
        )

    # -- one sequence --------------------------------------------------------

    def run_sequence(self, calls, sequence_index: int):
        """Run the calls in order. Returns their outcomes and the emulated
        state they leave: abstract id -> Entry, in creation order."""
        state: dict[str, Entry] = {}
        outcomes = []
        with self.evaluator.observation():
            for i, call in enumerate(calls):
                is_last = i == len(calls) - 1
                outcomes.append(self._run_call(call, state, sequence_index, i, is_last))
        return outcomes, state

    def _run_call(self, call, state, seq_index, call_index, is_last) -> CallOutcome:
        def skipped(reason: str) -> CallOutcome:
            return CallOutcome(
                seq_index, call_index, call.op, None, None,
                None, None, None, NOT_TESTED, reason,
            )

        op = self.spec.op_profile(call.op)
        if op is None:
            return skipped(f"operation {call.op!r} is not in the API description")
        try:
            prep = self._prepare(call, op, state)
        except _Skip as skip:
            return skipped(skip.reason)

        pre_ctx = OpContext(req_body=prep.clause_body, path_args=prep.bindings)
        capture_error = None
        inv_verdict = self._eval_clauses(self.spec.invariants, None)
        pre_verdict = self._eval_clauses(op.requires, pre_ctx)
        try:
            self.evaluator.capture_previous([c.formula for c in op.ensures], pre_ctx)
        except EvaluationError as exc:
            capture_error = str(exc)

        status, body = self._send(op.method, prep.path, prep.payload)
        request_info = {
            "method": op.method,
            "url": prep.path,
            "body": prep.payload,
        }
        response_info = {"status": status, "body": body}

        if 200 <= status < 300:
            prep.effect()

        if status >= 500:
            return CallOutcome(
                seq_index, call_index, call.op, request_info, response_info,
                pre_verdict.value, None, inv_verdict.value, ERR,
                f"server error {status}",
            )

        if capture_error is not None:
            post_verdict = ClauseVerdict(None, f"pre-state capture failed: {capture_error}")
        else:
            post_ctx = OpContext(
                req_body=prep.clause_body,
                res_code=status,
                res_body=body,
                path_args=prep.bindings,
            )
            post_verdict = self._eval_clauses(op.ensures, post_ctx)
        if is_last:
            inv_verdict = self._eval_clauses(self.spec.invariants, None)

        return self._classified(
            seq_index, call_index, call.op, request_info, response_info,
            pre_verdict, post_verdict, inv_verdict, status,
        )

    def _classified(
        self, seq_index, call_index, op_id, request_info, response_info,
        pre_verdict, post_verdict, inv_verdict, status,
    ) -> CallOutcome:
        verdicts = (pre_verdict, post_verdict, inv_verdict)
        if any(v.value is None for v in verdicts):
            classification = ERR
        else:
            classification = classify(
                pre_verdict.value, post_verdict.value, inv_verdict.value, status
            )
        reason = ""
        if classification != OK:
            for v in (post_verdict, inv_verdict, pre_verdict):  # blame order
                if not v.ok and v.witness:
                    reason = v.witness
                    break
            else:
                reason = f"unexpected status {status}"
        return CallOutcome(
            seq_index, call_index, op_id, request_info, response_info,
            pre_verdict.value, post_verdict.value, inv_verdict.value,
            classification, reason,
        )

    # -- request construction -----------------------------------------------------

    def _prepare(self, call, op, state: dict) -> _Prepared:
        """The request for one call and the state update a 2xx answer applies.
        A POST sends a fresh id and the foreign keys its label arguments name;
        a PUT keeps the stored id and foreign fields; a DELETE sends no body."""
        if op.method not in ("POST", "PUT", "DELETE"):
            raise _Skip(f"{op.method} operations are not driven by this runner")
        key = op.own_key
        if key is None:
            raise _Skip("operation has no key field to track instances by")
        # the key comes from the API description, not the (serializable) call
        tla = call.params.get(key)
        if tla is None:
            raise _Skip(f"no abstract id for key {key!r}")
        entry = state.get(tla)
        if op.method == "POST" and entry is not None:
            raise _Skip(f"{tla} was already created in this sequence")
        if op.method != "POST" and entry is None:
            raise _Skip(f"{tla} was never created in this sequence")

        if op.method == "DELETE":
            bindings = {key: entry.concrete_id}
            path = self._fill_path(op.path, bindings)
            # nothing goes over the wire, but req_body(@) means the stored instance
            return _Prepared(None, entry.data, path, bindings, partial(state.pop, tla))

        try:
            payload = (
                self.generator.generate(op.request_schema) if op.request_schema else {}
            )
        except GenerationError as exc:
            raise _Skip(f"request body: {exc}") from None
        if not isinstance(payload, dict):
            raise _Skip("request body schema is not an object")
        if entry is None:
            concrete = self.generator.next_id(key)
            foreign = {}
            for field_name in op.foreign_keys:
                foreign_tla = call.params.get(field_name)
                if foreign_tla is None:
                    raise _Skip(f"no abstract id for foreign key {field_name!r}")
                owner = state.get(foreign_tla)
                if owner is None:
                    raise _Skip(f"foreign {field_name}={foreign_tla} was never created")
                foreign[field_name] = owner.concrete_id
            created = Entry(op.collection or op.path, payload, concrete)
            effect = partial(state.__setitem__, tla, created)
        else:
            concrete = entry.concrete_id  # the key itself is immutable
            foreign = {f: entry.data[f] for f in op.foreign_keys if f in entry.data}
            effect = partial(setattr, entry, "data", payload)
        bindings = {key: concrete, **foreign}
        payload.update(bindings)
        path = self._fill_path(op.path, bindings)
        return _Prepared(payload, payload, path, bindings, effect)

    @staticmethod
    def _fill_path(template: str, bindings: dict) -> str:
        path = template
        for name, value in bindings.items():
            path = path.replace("{" + name + "}", path_segment(value))
        if "{" in path:
            raise _Skip(f"unresolved parameters in path {path!r}")
        return path

    # -- evaluation and transport -------------------------------------------------

    def _eval_clauses(self, clauses, ctx) -> ClauseVerdict:
        for clause in clauses:
            formula: Formula = clause.formula
            try:
                result = self.evaluator.evaluate(formula, ctx)
            except EvaluationError as exc:
                return ClauseVerdict(None, f"{clause.text}: cannot evaluate: {exc}")
            if not result.value:
                return ClauseVerdict(False, f"{clause.text}: {result.witness}")
        return ClauseVerdict(True)

    def _send(self, method: str, path: str, payload):
        url = self.base_url + path
        self.sends += 1
        self.evaluator.forget()  # what was observed may change now
        try:
            response = self.http.request(
                method, url, json=payload, timeout=self.timeout
            )
        except TRANSPORT_ERRORS as exc:
            raise TransportFailure(f"{method} {path}: {exc}") from exc
        try:
            body = response.json()
        except ValueError:
            body = response.text
        return response.status_code, body


def run_campaign(
    spec,
    sequences,
    base_url: str,
    *,
    seed: int = 0,
    timeout: float = 5.0,
    cleanup: bool = True,
    session=None,
    budget: int = 256,
    traffic: Optional[dict] = None,
) -> dict:
    """Execute every sequence against the service and return a report.

    The service is probed once up front so an unreachable target fails fast
    with TransportFailure instead of producing a report full of noise. Unless
    disabled, instances left behind by a sequence are deleted in reverse
    creation order so later sequences start from a clean service; every
    cleanup DELETE that raises or answers non-2xx is listed in
    cleanupFailures by its path, with its status or error.

    A dict passed as traffic receives the number of requests the campaign
    sent for calls (sends), for clause evaluation (probes) and for cleanup
    (cleanups). They stay out of the report, which depends only on the
    seed, the sequences and the service.
    """
    started = time.monotonic()
    with ExitStack() as stack:
        # a connection made here is closed here; a passed session is the caller's
        http = session if session is not None else stack.enter_context(
            closing(make_session(base_url))
        )
        try:
            http.get(base_url.rstrip("/") + "/", timeout=timeout)
        except TRANSPORT_ERRORS as exc:
            raise TransportFailure(f"service probe failed: {exc}") from exc

        generator = InputGenerator(seed)
        runner = SequenceRunner(
            spec, base_url, generator, session=http, timeout=timeout, budget=budget
        )
        outcomes: list[CallOutcome] = []
        cleanup_failures: list[dict] = []
        cleanups = 0
        for index, sequence in enumerate(sequences):
            calls = getattr(sequence, "calls", sequence)
            seq_outcomes, state = runner.run_sequence(calls, index)
            outcomes.extend(seq_outcomes)
            if cleanup:
                for entry in reversed(state.values()):
                    path = f"{entry.resource}/{path_segment(entry.concrete_id)}"
                    failure = {"sequenceIndex": index, "url": path}
                    cleanups += 1
                    try:
                        response = http.delete(runner.base_url + path, timeout=timeout)
                    except TRANSPORT_ERRORS as exc:
                        cleanup_failures.append({**failure, "error": str(exc)})
                        continue
                    if not 200 <= response.status_code < 300:
                        cleanup_failures.append({**failure, "status": response.status_code})

    if traffic is not None:
        traffic.update(sends=runner.sends, probes=runner.evaluator.sent, cleanups=cleanups)
    counts = {OK: 0, WARN: 0, ERR: 0, NOT_TESTED: 0}
    for outcome in outcomes:
        counts[outcome.classification] += 1
    return {
        "seed": seed,
        "baseUrl": base_url,
        "summary": {
            "ok": counts[OK],
            "warn": counts[WARN],
            "err": counts[ERR],
            "notTested": counts[NOT_TESTED],
            "calls": len(outcomes),
        },
        "outcomes": [o.to_json() for o in outcomes],
        "cleanupFailures": cleanup_failures,
        "duration": round(time.monotonic() - started, 3),
    }
