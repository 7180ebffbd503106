"""Checks of the program's outputs against the benchmark's own oracles.

Each check returns a list of problems; an empty list means the output is
correct. Nothing here imports statecover.
"""

from __future__ import annotations

import json

import dotdump
import oracle

# The member-list clause the demo contracts attach to deleteEnrolment.
MEMBER_LIST_CLAUSE = "prev(res_body(GET /tournaments/req_body(@){tid}/players).len)"
# Key field of each demo collection, as the service stores instances.
KEYS = {"/players": "pid", "/tournaments": "tid", "/enrolments": "eid"}


def log_events(stderr_text: str) -> dict:
    """The JSON-lines events a --json-logs command wrote, by event name."""
    events = {}
    for line in stderr_text.splitlines():
        if line.startswith("{"):
            event = json.loads(line)
            events[event["event"]] = event
    return events


def call_lists(suite_doc: dict) -> list:
    return [s["calls"] for s in suite_doc["sequences"]]


def check_suite(suite_doc: dict, model: dict) -> list:
    """Every sequence replays on the model from the empty state to the final
    state, and together the replays cover every state and transition."""
    states, edges = model["states"], model["edges"]
    problems, seen_states, seen_edges = oracle.replay(call_lists(suite_doc), model["caps"])
    problems = problems[:5]
    if seen_states != states:
        problems.append(f"suite covers {len(seen_states & states)} of {len(states)} states")
    if seen_edges != edges:
        problems.append(f"suite covers {len(seen_edges & edges)} of {len(edges)} transitions")
    return problems


def check_explored(event: dict | None, model: dict) -> list:
    want = (len(model["states"]), len(model["edges"]))
    got = None if event is None else (event.get("states"), event.get("transitions"))
    return [] if got == want else [f"explore reported {got} states/transitions, want {want}"]


def check_clean(clean_text: str, event: dict | None, nodes, edges, ratio: float) -> list:
    """The cleaned graph is the generator's distinct statements in
    first-occurrence order, nodes before edges, and the reported dedup ratio
    is the generator's."""
    try:
        got_nodes, got_edges = dotdump.read_clean_dot(clean_text)
    except ValueError as exc:
        return [f"cleaned DOT: {exc}"]
    problems = []
    for kind, got, want in (("node", got_nodes, nodes), ("edge", got_edges, edges)):
        if got != want:
            at = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w),
                      min(len(got), len(want)))
            problems.append(f"{kind} statements differ at #{at}: "
                            f"{len(got)} written, {len(want)} distinct")
    reported = None if event is None else event.get("dedup_ratio")
    if reported != round(ratio, 4):
        problems.append(f"dedup ratio {reported}, generator's is {ratio}")
    return problems


def expected_writes(report: dict) -> list:
    """Non-GET requests the service must have seen: every sent call, and
    after each sequence a DELETE of what it left behind, newest first."""
    out, sequence, alive = [], None, {}
    # the sentinel outcome closes the last sequence
    for outcome in report["outcomes"] + [{"sequenceIndex": None}]:
        if outcome["sequenceIndex"] != sequence:
            out.extend(f"DELETE {path}" for path in reversed(list(alive)))
            sequence, alive = outcome["sequenceIndex"], {}
        request = outcome.get("request")
        if request is None:
            continue
        method, url = request["method"], request["url"]
        out.append(f"{method} {url}")
        if not 200 <= outcome["response"]["status"] < 300:
            continue
        if method == "POST" and url in KEYS:
            alive[f"{url}/{request['body'][KEYS[url]]}"] = True
        elif method == "DELETE":
            alive.pop(url, None)
    return out


def check_campaign(report: dict, calls: int, request_log: list, leftovers: dict) -> list:
    """Every call of the suite ran and is OK with pre, post and inv true; the
    service saw exactly the sent calls and cleanup DELETEs apart from GETs;
    nothing is left on the service."""
    problems = []
    outcomes = report["outcomes"]
    if len(outcomes) != calls:
        problems.append(f"{len(outcomes)} calls ran, the suite has {calls}")
    for o in outcomes:
        if (o["classification"], o["pre"], o["post"], o["inv"]) != ("OK", True, True, True):
            problems.append(f"sequence {o['sequenceIndex']} call {o['callIndex']} "
                            f"{o['operationId']}: {o['classification']} {o['reason']}")
    writes = [r for r in request_log if not r.startswith("GET ")]
    if writes != expected_writes(report):
        problems.append(f"service saw {len(writes)} non-GET requests, "
                        f"expected {len(expected_writes(report))}")
    for collection, items in leftovers.items():
        if items:
            problems.append(f"{len(items)} instance(s) left in {collection}")
    return problems[:10]


def check_fault_found(report: dict) -> list:
    """The seeded delete_enrolment_no_backref fault is flagged on a
    deleteEnrolment call, with the member-list clause as the reason."""
    for o in report["outcomes"]:
        if (o["operationId"] == "deleteEnrolment" and o["classification"] == "ERR"
                and MEMBER_LIST_CLAUSE in o["reason"]):
            return []
    return ["the seeded fault delete_enrolment_no_backref went unflagged"]
