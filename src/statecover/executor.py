"""Drives generated call sequences against a live service.

Each call is sent with concrete, freshly generated inputs while a plain dict,
abstract id ('p1') -> Entry in creation order, tracks what the service should
contain: a prepared call carries the entry a 2xx answer leaves in its
place, or None for a DELETE, whose 2xx answer removes it. Around every
request the operation's contract is evaluated (preconditions and invariants
before, postconditions and, on the last call, invariants again after), and
the combination of verdicts and status code is classified as OK, WARN, or
ERR. A call's send and cleanup's DELETEs go through the evaluator, whose
write rule says what a clause reads (see the evaluator module), and the pre
phase captures the URLs the postconditions' prev(...) calls read. The post
phase reads the call's own answer as the session returned it.

A call whose inputs cannot be produced (a foreign id that was never created,
an id the sequence already created, an operation with no usable key, a
request body the schema does not let the generator build as an object) is
reported NOT_TESTED, and nothing is sent for it.

A sent call's verdict is decided in one place, from three evaluator.EvalResults:
preconditions, postconditions and invariants. Each is True, False with the
first false clause as its witness, or None when a clause could not be
evaluated. Any None makes the call ERR; otherwise classify decides. A call
that is not OK is blamed on the witness of the first of post, inv and pre
that is not True. A 5xx answer is ERR without evaluating postconditions:
the service failed outright, and the post verdict is None with the reason
"server error N".

Every request, for calls, probes and cleanup alike, goes through the
request(method, path, json=None) -> (status, body) method of one session,
which owns the base URL and the timeout (see the transport module).
run_campaign opens a transport.Connection for the campaign and closes it at
the end; a SequenceRunner hands the session it is given to its evaluator.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import closing
from typing import NamedTuple, Optional

from .evaluator import (
    EvalResult, EvaluationError, Evaluator, OpContext, TransportFailure, path_segment,
)
from .runtime import Entry, GenerationError, InputGenerator
from .transport import TRANSPORT_ERRORS, Connection, NonJsonBody

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


# CallOutcome's fields in order, as the report names them
_REPORT_KEYS = ("sequenceIndex", "callIndex", "operationId", "request", "response",
                "pre", "post", "inv", "classification", "reason")


class CallOutcome(NamedTuple):
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
        return dict(zip(_REPORT_KEYS, self))


class _Skip(Exception):
    """Internal: this call cannot be issued; its message is the NOT_TESTED
    reason."""


class _Prepared(NamedTuple):
    path: str
    bindings: dict
    leaves: Optional[Entry]  # the entry a 2xx answer leaves; None for DELETE


class SequenceRunner:
    def __init__(self, spec, generator: InputGenerator, session, *, budget: int = 256):
        self.spec = spec
        self.generator = generator
        self.evaluator = Evaluator(session, budget=budget)

    # -- one sequence --------------------------------------------------------

    def run_sequence(self, calls, sequence_index: int):
        """Run the calls in order. Returns their outcomes and the emulated
        state they leave: abstract id -> Entry, in creation order."""
        state: dict[str, Entry] = {}
        outcomes = []
        for i, call in enumerate(calls):
            is_last = i == len(calls) - 1
            outcomes.append(self._run_call(call, state, sequence_index, i, is_last))
        return outcomes, state

    def _run_call(self, call, state, seq_index, call_index, is_last) -> CallOutcome:
        op = self.spec.op_profile(call.op)
        try:
            if op is None:
                raise _Skip(f"operation {call.op!r} is not in the API description")
            prep = self._prepare(call, op, state)
        except _Skip as skip:
            return CallOutcome(seq_index, call_index, call.op, None, None,
                               None, None, None, NOT_TESTED, str(skip))

        tla = call.params[op.own_key]
        if prep.leaves is None:
            # nothing goes over the wire, but req_body(@) means the stored instance
            payload, req_body = None, state[tla].data
        else:
            payload = req_body = prep.leaves.data
        pre_ctx = OpContext(req_body=req_body, path_args=prep.bindings)
        inv = self._eval_clauses(self.spec.invariants, None)
        pre = self._eval_clauses(op.requires, pre_ctx)
        self.evaluator.capture_previous([c.formula for c in op.ensures], pre_ctx)

        try:
            status, body = self.evaluator.send(op.method, prep.path, payload)
        except TRANSPORT_ERRORS as exc:
            raise TransportFailure(f"{op.method} {prep.path}: {exc}") from exc
        if 200 <= status < 300:
            if prep.leaves is None:
                del state[tla]
            else:
                state[tla] = prep.leaves

        if status >= 500:  # the service failed outright: nothing to evaluate
            post = EvalResult(None, f"server error {status}")
        else:
            post = self._eval_clauses(op.ensures,
                                      pre_ctx._replace(res_code=status, res_body=body))
        if is_last and status < 500:
            inv = self._eval_clauses(self.spec.invariants, None)

        if None in (pre.value, post.value, inv.value):
            classification = ERR
        else:
            classification = classify(pre.value, post.value, inv.value, status)
        reason = ""
        if classification != OK:  # blame order: post, then inv, then pre
            reason = next((v.witness for v in (post, inv, pre) if not v.value and v.witness),
                          f"unexpected status {status}")
        return CallOutcome(
            seq_index, call_index, call.op,
            {"method": op.method, "url": prep.path, "body": payload},
            {"status": status, "body": body.text if isinstance(body, NonJsonBody) else body},
            pre.value, post.value, inv.value, classification, reason,
        )

    # -- request construction -----------------------------------------------------

    def _prepare(self, call, op, state: dict) -> _Prepared:
        """The request for one call and the entry a 2xx answer leaves.
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
            return _Prepared(self._fill_path(op.path, bindings), bindings, None)

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
        else:
            concrete = entry.concrete_id  # the key itself is immutable
            foreign = {f: entry.data[f] for f in op.foreign_keys if f in entry.data}
        bindings = {key: concrete, **foreign}
        payload.update(bindings)
        path = self._fill_path(op.path, bindings)
        if entry is None:
            # the item path the instance lives at, where a cleanup deletes it
            return _Prepared(path, bindings,
                             Entry(self._fill_path(op.item_path, bindings), payload, concrete))
        return _Prepared(path, bindings, entry._replace(data=payload))

    @staticmethod
    def _fill_path(template: str, bindings: dict) -> str:
        path = template
        for name, value in bindings.items():
            path = path.replace("{" + name + "}", path_segment(value))
        if "{" in path:
            raise _Skip(f"unresolved parameters in path {path!r}")
        return path

    # -- evaluation ---------------------------------------------------------------

    def _eval_clauses(self, clauses, ctx) -> EvalResult:
        """The first clause that is false or cannot be evaluated (value
        None), with the clause's text in its witness; True if none."""
        for clause in clauses:
            try:
                result = self.evaluator.evaluate(clause.formula, ctx)
            except EvaluationError as exc:
                return EvalResult(None, f"{clause.text}: cannot evaluate: {exc}")
            if not result.value:
                return EvalResult(False, f"{clause.text}: {result.witness}")
        return EvalResult(True)


def run_campaign(
    spec,
    sequences,
    base_url: str,
    *,
    seed: int = 0,
    timeout: float = 5.0,
    cleanup: bool = True,
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
    sent for calls (sends: the outcomes with a request, as a call is either
    NOT_TESTED before anything is sent or sent once), for clause evaluation
    (probes) and for cleanup (cleanups), and how many requests the session
    made in all, the up-front probe included (requests), with the seconds
    spent in them (request_s). They stay out of the report, which depends
    only on the seed, the sequences and the service.
    """
    started = time.monotonic()
    with closing(Connection(base_url, timeout)) as session:
        try:
            session.request("GET", "/")
        except TRANSPORT_ERRORS as exc:
            raise TransportFailure(f"service probe failed: {exc}") from exc

        runner = SequenceRunner(spec, InputGenerator(seed), session, budget=budget)
        outcomes: list[CallOutcome] = []
        cleanup_failures: list[dict] = []
        cleanups = 0
        for index, calls in enumerate(sequences):
            seq_outcomes, state = runner.run_sequence(calls, index)
            outcomes.extend(seq_outcomes)
            if cleanup:
                for entry in reversed(state.values()):
                    failure = {"sequenceIndex": index, "url": entry.path}
                    cleanups += 1
                    try:
                        status, _ = runner.evaluator.send("DELETE", entry.path)
                    except TRANSPORT_ERRORS as exc:
                        cleanup_failures.append({**failure, "error": str(exc)})
                        continue
                    if not 200 <= status < 300:
                        cleanup_failures.append({**failure, "status": status})

    if traffic is not None:
        traffic.update(sends=sum(o.request is not None for o in outcomes),
                       probes=runner.evaluator.sent, cleanups=cleanups,
                       requests=session.requests, request_s=round(session.request_s, 4))
    counts = Counter(o.classification for o in outcomes)
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
