"""Self-tests of the benchmark's oracles and checks: each check passes on a
correct output and fails on a corrupted one.

    python3 -m pytest bench/test_checks.py -q
"""

from __future__ import annotations

import copy
import json

import pytest

import checks
import dotdump
import oracle
import run
import tracing

SMALL = (("p1",), ("t1",), ("e1",), (1, 2))


@pytest.mark.parametrize("domains, counts", [
    ((("p1",), ("t1",), ("e1",), (1,)), (6, 10)),
    ((("p1", "p2"), ("t1", "t2"), ("e1", "e2"), (1, 2)), (193, 872)),
    (run.GENERATE_DOMAINS, (1657, 9696)),
])
def test_enumerator_counts(domains, counts):
    states, edges = oracle.enumerate_lifecycle(*domains)
    assert (len(states), len(edges)) == counts


@pytest.fixture(scope="module")
def small_suite(tmp_path_factory):
    """A suite the program derives for the p1/t1/e1 model, capacities (1, 2)."""
    where = tmp_path_factory.mktemp("suite")
    (where / "model.yaml").write_text(run.model_yaml(*SMALL), encoding="utf-8")
    run.statecover("fixtures", str(where / "fx"))
    run.statecover("explore", str(where / "model.yaml"), str(where / "g.dot"))
    code, err = run.statecover(
        "sequences", str(where / "g.dot"), str(where / "s.json"),
        "--spec", str(where / "fx" / "tournaments-contracts.yaml"),
        "--seed", "7", "--puts-max", "2")
    assert code == 0, err
    return json.loads((where / "s.json").read_text(encoding="utf-8"))


def test_suite_check_passes_on_program_output(small_suite):
    assert checks.check_suite(small_suite, run.oracle_model(SMALL)) == []


def test_suite_check_fails_on_dropped_call(small_suite):
    doc = copy.deepcopy(small_suite)
    del doc["sequences"][3]["calls"][0]
    assert checks.check_suite(doc, run.oracle_model(SMALL))


def test_suite_check_fails_on_dropped_sequence(small_suite):
    doc = copy.deepcopy(small_suite)
    doc["sequences"] = doc["sequences"][:2]
    problems = checks.check_suite(doc, run.oracle_model(SMALL))
    assert any("covers" in p for p in problems)


def test_suite_check_fails_on_update_before_create(small_suite):
    doc = copy.deepcopy(small_suite)
    calls = doc["sequences"][0]["calls"]
    put = next(c for c in calls if c["op"].startswith("put"))
    calls.insert(0, put)
    assert checks.check_suite(doc, run.oracle_model(SMALL))


def test_explored_check():
    model = run.oracle_model(SMALL)
    assert checks.check_explored({"states": 9, "transitions": 18}, model) == []
    assert checks.check_explored({"states": 9, "transitions": 17}, model)
    assert checks.check_explored(None, model)


def test_dump_size_is_independent_of_the_seed():
    sizes = {len(dotdump.make_dump(seed, 50, 4)[0]) for seed in range(6)}
    assert len(sizes) == 1


@pytest.fixture(scope="module")
def cleaned(tmp_path_factory):
    where = tmp_path_factory.mktemp("dump")
    text, nodes, edges = dotdump.make_dump(3, 60, 4)
    (where / "d.dot").write_text(text, encoding="utf-8")
    code, err = run.statecover("clean", str(where / "d.dot"), str(where / "c.dot"))
    assert code == 0, err
    out = (where / "c.dot").read_text(encoding="utf-8")
    return out, checks.log_events(err)["cleaned"], nodes, edges


def test_clean_check_passes_on_program_output(cleaned):
    assert checks.check_clean(*cleaned, 0.5) == []


def test_clean_check_fails_on_missing_edge(cleaned):
    out, event, nodes, edges = cleaned
    lines = out.split("\n")
    victim = next(i for i, line in enumerate(lines) if " -> " in line)
    del lines[victim]
    assert checks.check_clean("\n".join(lines), event, nodes, edges, 0.5)


def test_clean_check_fails_on_duplicate_left_in(cleaned):
    out, event, nodes, edges = cleaned
    lines = out.split("\n")
    lines.insert(2, lines[1])
    assert checks.check_clean("\n".join(lines), event, nodes, edges, 0.5)


def test_clean_check_fails_on_wrong_ratio(cleaned):
    out, event, nodes, edges = cleaned
    assert checks.check_clean(out, {**event, "dedup_ratio": 0.49}, nodes, edges, 0.5)


def _outcome(seq, call, op, method, url, body, status=200, verdict="OK"):
    ok = verdict == "OK"
    return {"sequenceIndex": seq, "callIndex": call, "operationId": op,
            "request": {"method": method, "url": url, "body": body},
            "response": {"status": status, "body": body},
            "pre": True, "post": ok, "inv": True, "classification": verdict,
            "reason": "" if ok else "clause: 1 < 1 does not hold"}


REPORT = {"outcomes": [
    _outcome(0, 0, "postPlayer", "POST", "/players", {"pid": "pid1", "name": "ab"}),
    _outcome(0, 1, "deletePlayer", "DELETE", "/players/pid1", None),
    _outcome(1, 0, "postTournament", "POST", "/tournaments", {"tid": "tid1"}),
]}
LOG = ["GET /", "GET /players", "POST /players", "GET /players/pid1",
       "DELETE /players/pid1", "GET /tournaments", "POST /tournaments",
       "DELETE /tournaments/tid1"]
EMPTY = {"/players": [], "/tournaments": [], "/enrolments": []}


def test_campaign_check_passes_and_expects_cleanup():
    assert checks.expected_writes(REPORT)[-1] == "DELETE /tournaments/tid1"
    assert checks.check_campaign(REPORT, 3, LOG, EMPTY) == []


def test_campaign_check_fails_on_dropped_call():
    report = {"outcomes": REPORT["outcomes"][1:]}
    assert checks.check_campaign(report, 3, LOG, EMPTY)


def test_campaign_check_fails_on_err_verdict():
    report = copy.deepcopy(REPORT)
    report["outcomes"][1] = _outcome(0, 1, "deletePlayer", "DELETE", "/players/pid1",
                                     None, verdict="ERR")
    assert checks.check_campaign(report, 3, LOG, EMPTY)


def test_campaign_check_fails_on_leftover_instance():
    leftovers = {**EMPTY, "/tournaments": [{"tid": "tid1"}]}
    assert checks.check_campaign(REPORT, 3, LOG, leftovers)


def test_campaign_check_fails_on_unexpected_write():
    assert checks.check_campaign(REPORT, 3, LOG + ["PUT /players/pid1"], EMPTY)
    assert checks.check_campaign(REPORT, 3, LOG[:-1], EMPTY)


def test_fault_check():
    found = {"outcomes": [_outcome(0, 2, "deleteEnrolment", "DELETE", "/enrolments/e",
                                   None, verdict="ERR")]}
    found["outcomes"][0]["reason"] = checks.MEMBER_LIST_CLAUSE + ": 1 < 1 does not hold"
    assert checks.check_fault_found(found) == []
    assert checks.check_fault_found(REPORT)


def test_layer_metrics_self_time_and_request_classes():
    def span(i, name, parent, start, end, **attrs):
        s = tracing.Span(i, name, parent, start)
        s.end, s.attrs = end, attrs
        return s

    spans = [
        span(0, "executor.run_campaign", None, 0.0, 10.0),
        span(1, "executor.run_sequence", 0, 1.0, 8.0, calls=2),
        span(2, "evaluator.evaluate", 1, 1.0, 3.0),
        span(3, "http.request", 2, 1.5, 2.5, method="GET"),
        span(4, "demo.handle", 3, 2.0, 2.1),
        span(5, "http.request", 1, 4.0, 5.0, method="POST"),
        span(6, "http.request", 0, 9.0, 9.5, method="DELETE"),
    ]
    m = tracing.layer_metrics(spans)
    assert (m["evaluator.probe_gets"], m["executor.sends"], m["executor.cleanup_deletes"]) \
        == (1, 1, 1)
    assert m["evaluator.self_s"] == pytest.approx(1.0)
    assert m["executor.self_s"] == pytest.approx(2.5 + 4.0)
    assert m["transport.wait_s"] == pytest.approx(0.9 + 1.0 + 0.5)
    assert m["evaluator.probe_gets_per_call"] == 0.5
