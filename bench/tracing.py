"""Spans around calls into statecover's public functions.

The tracer patches module and class attributes from outside the program,
keeps every span in memory and computes the per-layer metrics from them.
Nothing is traced inside a function: a span covers one call of a public
function, and its parent is the span open on the same thread, or, for the
demo's request handler on the server thread, the HTTP request in flight
(the campaign is a closed loop, so at most one is).
"""

from __future__ import annotations

import functools
import itertools
import statistics
import threading
import time


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "attrs")

    def __init__(self, span_id, name, parent, start):
        self.id, self.name, self.parent, self.start = span_id, name, parent, start
        self.end, self.attrs = start, {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {"id": self.id, "name": self.name, "parent": self.parent,
                "start": self.start, "end": self.end, **self.attrs}


def _targets():
    """(owner, attribute, span name, note) for every traced function; note
    turns (args, result) into span attributes."""
    import requests
    from statecover import cli, demo, evaluator, executor, lifecycle, runtime, seqgen
    from statecover import speckit, ssg

    return [
        (lifecycle, "explore", "lifecycle.explore",
         lambda a, r: {"states": r.state_count}),
        (ssg, "parse_dot", "ssg.parse_dot", lambda a, r: {"bytes": len(a[0])}),
        (ssg, "clean", "ssg.clean", None),
        (ssg, "build", "ssg.build", None),
        (ssg, "emit_dot", "ssg.emit_dot", None),
        (seqgen, "select_sequences", "seqgen.select_sequences",
         lambda a, r: {"sequences": len(r), "visited": sum(map(len, r))}),
        (seqgen, "coverage_report", "seqgen.coverage_report",
         lambda a, r: {"transitions": r.transitions_covered}),
        (seqgen, "to_call_sequences", "seqgen.to_call_sequences", None),
        (seqgen, "insert_puts", "seqgen.insert_puts", None),
        (seqgen, "sequences_to_json", "seqgen.sequences_to_json",
         lambda a, r: {"bytes": len(r)}),
        (speckit, "load_oas", "speckit.load_oas", None),
        (speckit.ApiSpec, "resolver", "speckit.resolver", None),
        (speckit.ApiSpec, "op_profile", "speckit.op_profile", None),
        (runtime.InputGenerator, "generate", "runtime.generate", None),
        (evaluator.Evaluator, "evaluate", "evaluator.evaluate", None),
        (evaluator.Evaluator, "capture_previous", "evaluator.capture_previous", None),
        (executor, "run_campaign", "executor.run_campaign", None),
        # cli imported run_campaign by name, so its reference is patched too
        (cli, "run_campaign", "executor.run_campaign", None),
        (executor.SequenceRunner, "run_sequence", "executor.run_sequence",
         lambda a, r: {"calls": len(r[0])}),
        (requests.Session, "request", "http.request", lambda a, r: {"method": a[1]}),
        (demo.TournamentsApp, "handle", "demo.handle", None),
    ]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._in_flight = None
        self._saved = []

    def install(self) -> None:
        for owner, attr, name, note in _targets():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, note))

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, fn, note):
        tracer = self
        is_request = name == "http.request"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else tracer._in_flight
            span = Span(next(tracer._ids), name, parent, time.perf_counter())
            tracer.spans.append(span)
            stack.append(span.id)
            if is_request:
                tracer._in_flight = span.id
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    span.attrs = note(args, result)
                return result
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if is_request:
                    tracer._in_flight = None

        return traced


def _covered(span, kids) -> float:
    """Length of the union of the children's intervals inside the span."""
    total, reach = 0.0, span.start
    for kid in sorted(kids, key=lambda k: k.start):
        lo, hi = max(kid.start, reach), min(kid.end, span.end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def _percentile(values, q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer metrics of one traced round; a layer the round does not
    exercise reads 0."""
    by_id = {s.id: s for s in spans}
    kids: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            kids.setdefault(s.parent, []).append(s)

    def ancestors(s):
        while s.parent is not None:
            s = by_id[s.parent]
            yield s.name

    def named(name):
        return [s for s in spans if s.name == name]

    def total(name):  # outermost spans only: generate() recurses
        return sum(s.duration for s in named(name) if name not in ancestors(s))

    def self_time(names):
        return sum(s.duration - _covered(s, kids.get(s.id, ()))
                   for s in spans if s.name in names)

    def attr(name, key):
        return sum(s.attrs.get(key, 0) for s in named(name))

    def ratio(a, b):
        return a / b if b else 0.0

    requests_ = named("http.request")
    kinds = {"probe": 0, "send": 0, "cleanup": 0}
    for r in requests_:
        up = list(ancestors(r))
        if any(n.startswith("evaluator.") for n in up):
            kinds["probe"] += 1
        elif "executor.run_sequence" in up:
            kinds["send"] += 1
        elif "executor.run_campaign" in up and r.attrs.get("method") == "DELETE":
            kinds["cleanup"] += 1
    handles = named("demo.handle")
    calls = attr("executor.run_sequence", "calls")
    explore_s, parse_s = total("lifecycle.explore"), total("ssg.parse_dot")
    return {
        "lifecycle.explore_s": explore_s,
        "lifecycle.states_per_s": ratio(attr("lifecycle.explore", "states"), explore_s),
        "ssg.parse_dot_s": parse_s,
        "ssg.parse_mb_per_s": ratio(attr("ssg.parse_dot", "bytes") / 1e6, parse_s),
        "ssg.clean_s": total("ssg.clean"),
        "ssg.emit_dot_s": total("ssg.emit_dot"),
        "ssg.build_s": total("ssg.build"),
        "seqgen.select_s": total("seqgen.select_sequences"),
        "seqgen.coverage_s": total("seqgen.coverage_report"),
        "seqgen.label_s": total("seqgen.to_call_sequences"),
        "seqgen.insert_puts_s": total("seqgen.insert_puts"),
        "speckit.resolver_s": total("speckit.resolver"),
        "seqgen.to_json_s": total("seqgen.sequences_to_json"),
        "seqgen.json_mb": attr("seqgen.sequences_to_json", "bytes") / 1e6,
        "seqgen.sequences": attr("seqgen.select_sequences", "sequences"),
        "seqgen.visited_per_transition": ratio(
            attr("seqgen.select_sequences", "visited"),
            attr("seqgen.coverage_report", "transitions")),
        "speckit.load_oas_s": total("speckit.load_oas"),
        "speckit.op_profile_calls": len(named("speckit.op_profile")),
        "speckit.op_profile_s": total("speckit.op_profile"),
        "runtime.generate_s": total("runtime.generate"),
        "evaluator.evaluations": len(named("evaluator.evaluate")),
        "evaluator.self_s": self_time({"evaluator.evaluate", "evaluator.capture_previous"}),
        "evaluator.probe_gets": kinds["probe"],
        "evaluator.probe_gets_per_call": ratio(kinds["probe"], calls),
        "executor.sends": kinds["send"],
        "executor.cleanup_deletes": kinds["cleanup"],
        "executor.self_s": self_time({"executor.run_campaign", "executor.run_sequence"}),
        "executor.ms_per_call": ratio(1e3 * total("executor.run_campaign"), calls),
        "transport.request_ms_p50": 1e3 * _percentile([r.duration for r in requests_], 0.5),
        "transport.request_ms_p95": 1e3 * _percentile([r.duration for r in requests_], 0.95),
        "transport.wait_s": sum(r.duration - _covered(r, kids.get(r.id, ()))
                                for r in requests_),
        "demo.handle_s": sum(h.duration for h in handles),
        "demo.handle_us_p50": 1e6 * _percentile([h.duration for h in handles], 0.5),
    }


def median_metrics(rounds: list[dict]) -> dict:
    return {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}
