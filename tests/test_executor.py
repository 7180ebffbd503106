import json
from urllib.parse import urlsplit

import pytest
import requests
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import TOURNAMENTS_RESOLVER_TABLE, AppSession, FakeResponse
from statecover import lifecycle, seqgen, ssg
from statecover.demo import (
    DemoServer,
    add_manual_clauses,
    demo_spec,
    make_tournaments_model,
)
from statecover.evaluator import TransportFailure
from statecover.executor import (
    ERR,
    NOT_TESTED,
    OK,
    WARN,
    SequenceRunner,
    classify,
    run_campaign,
)
from statecover.runtime import InputGenerator
from statecover.seqgen import Call, CallSequence
from statecover.speckit import Clause, fixture_path, infer_contracts, load_oas


@pytest.fixture(scope="module")
def server():
    with DemoServer(seed=3) as srv:
        yield srv


@pytest.fixture
def live(server):
    requests.post(server.base_url + "/_reset", timeout=5)
    return server


def inferred_spec(manual=False):
    spec = demo_spec()
    infer_contracts(spec)
    if manual:
        add_manual_clauses(spec)
    return spec


def mk(op, **params):
    meta = TOURNAMENTS_RESOLVER_TABLE[op]
    return Call(op=op, verb=meta["verb"], path=meta["path"],
                params=params, own_key=meta["own_key"])


def put_call(op, key, tla):
    path = "/players/{pid}" if key == "pid" else "/tournaments/{tid}"
    return Call(op=op, verb="PUT", path=path, params={key: tla}, own_key=key)


def runner_for(server, spec=None, seed=0):
    return SequenceRunner(spec or inferred_spec(), server.base_url,
                          InputGenerator(seed))


FULL_CYCLE = [
    ("postPlayer", {"pid": "p1"}),
    ("postTournament", {"tid": "t1"}),
    ("postEnrolment", {"eid": "e1", "pid": "p1", "tid": "t1"}),
    ("deleteEnrolment", {"eid": "e1"}),
    ("deleteTournament", {"tid": "t1"}),
    ("deletePlayer", {"pid": "p1"}),
]


def full_cycle_calls():
    return [mk(op, **params) for op, params in FULL_CYCLE]


# Frozen verdict table: (pre, post, inv) x representative status per class.
CLASSIFY_TABLE = {
    (True, True, True): {200: OK, 301: ERR, 404: ERR, 503: ERR},
    (True, True, False): {200: ERR, 301: ERR, 404: ERR, 503: ERR},
    (True, False, True): {200: ERR, 301: ERR, 404: ERR, 503: ERR},
    (True, False, False): {200: ERR, 301: ERR, 404: WARN, 503: ERR},
    (False, True, True): {200: WARN, 301: WARN, 404: WARN, 503: WARN},
    (False, True, False): {200: ERR, 301: ERR, 404: ERR, 503: ERR},
    (False, False, True): {200: ERR, 301: ERR, 404: OK, 503: ERR},
    (False, False, False): {200: ERR, 301: ERR, 404: OK, 503: ERR},
}


class TestClassify:
    @pytest.mark.parametrize("combo", sorted(CLASSIFY_TABLE, reverse=True))
    def test_matches_frozen_table(self, combo):
        pre, post, inv = combo
        for status, expected in CLASSIFY_TABLE[combo].items():
            assert classify(pre, post, inv, status) == expected, (combo, status)

    def test_other_statuses_fall_in_the_same_classes(self):
        assert classify(True, True, True, 204) == OK
        assert classify(True, False, False, 422) == WARN
        assert classify(False, False, True, 409) == OK
        assert classify(True, True, True, 500) == ERR


class Broken5xxSession:
    """Rejects nothing, answers every probe GET 404 and every mutation 503."""

    def get(self, url, timeout=None):
        return FakeResponse(404, {"error": "nothing here"})

    def request(self, method, url, json=None, timeout=None):
        return FakeResponse(503, {"error": "boom"})


class TestSingleCalls:
    def test_post_player_is_ok(self, live):
        runner = runner_for(live)
        outcomes, state = runner.run_sequence([mk("postPlayer", pid="p1")], 0)
        (outcome,) = outcomes
        assert outcome.classification == OK
        assert outcome.reason == ""
        assert outcome.pre is True and outcome.post is True and outcome.inv is True
        assert outcome.request["body"]["pid"] == "pid10000"  # seed 0 base
        assert outcome.response["status"] == 200
        assert state["p1"].concrete_id == "pid10000"

    def test_create_then_delete_round_trip(self, live):
        runner = runner_for(live)
        calls = [mk("postPlayer", pid="p1"), mk("deletePlayer", pid="p1")]
        outcomes, state = runner.run_sequence(calls, 0)
        assert [o.classification for o in outcomes] == [OK, OK]
        assert state == {}
        # the delete really happened
        concrete = outcomes[0].request["body"]["pid"]
        r = requests.get(live.base_url + f"/players/{concrete}", timeout=5)
        assert r.status_code == 404

    def test_full_cycle_all_ok(self, live):
        runner = runner_for(live, spec=inferred_spec(manual=True))
        outcomes, state = runner.run_sequence(full_cycle_calls(), 0)
        assert [o.classification for o in outcomes] == [OK] * 6
        assert state == {}

    def test_delete_request_carries_no_body(self, live):
        runner = runner_for(live)
        calls = [mk("postPlayer", pid="p1"), mk("deletePlayer", pid="p1")]
        outcomes, _ = runner.run_sequence(calls, 0)
        assert outcomes[1].request["body"] is None
        assert outcomes[1].request["method"] == "DELETE"

    def test_put_pins_key_and_updates_tracked_data(self, live):
        runner = runner_for(live)
        calls = [
            mk("postPlayer", pid="p1"),
            put_call("putPlayer", "pid", "p1"),
            mk("deletePlayer", pid="p1"),
        ]
        outcomes, _ = runner.run_sequence(calls, 0)
        assert [o.classification for o in outcomes] == [OK, OK, OK]
        created = outcomes[0].request["body"]
        updated = outcomes[1].request["body"]
        assert updated["pid"] == created["pid"]
        assert outcomes[1].request["url"] == f"/players/{created['pid']}"

    def test_put_on_enrolled_tournament_keeps_foreign_data(self, live):
        runner = runner_for(live)
        calls = [
            mk("postPlayer", pid="p1"),
            mk("postTournament", tid="t1"),
            mk("postEnrolment", eid="e1", pid="p1", tid="t1"),
            put_call("putTournament", "tid", "t1"),
        ]
        outcomes, state = runner.run_sequence(calls, 0)
        assert [o.classification for o in outcomes] == [OK] * 4
        assert state["t1"].data == outcomes[3].request["body"]


class TestPhases:
    def test_each_phase_fetches_a_url_once(self):
        session = AppSession()
        runner = SequenceRunner(inferred_spec(), "http://fake", InputGenerator(0),
                                session=session)
        calls = [mk("postTournament", tid="t1"), mk("deleteTournament", tid="t1")]
        outcomes, _ = runner.run_sequence(calls, 0)
        assert [o.classification for o in outcomes] == [OK, OK]
        item = "/tournaments/tid10000"
        # postTournament's postcondition reads the item; nothing is sent
        # before deleteTournament's precondition and the prev() its echo
        # clause compares against read it again, so that one GET serves all
        # three; after each send the item is fetched afresh
        assert session.log == [
            f"GET {item}", "POST /tournaments", f"GET {item}",
            f"DELETE {item}", f"GET {item}",
        ]
        assert runner.sends == 2 and runner.evaluator.sent == 3

    def test_a_sequence_end_forgets_what_was_observed(self):
        session = AppSession()
        runner = SequenceRunner(inferred_spec(manual=True), "http://fake",
                                InputGenerator(0), session=session)
        runner.run_sequence([mk("postPlayer", pid="p1")], 0)
        assert session.log[-1] == "GET /tournaments"  # the closing invariant
        del session.log[:]
        runner.run_sequence([mk("postPlayer", pid="p1")], 1)
        assert session.log[0] == "GET /tournaments"

    def test_concrete_ids_are_one_path_segment(self):
        path = SequenceRunner._fill_path("/players/{pid}", {"pid": "a/b c"})
        assert path == "/players/a%2Fb%20c"


class TestDefaultSession:
    def test_environment_is_read_once_per_campaign(self, live, monkeypatch):
        lookups = []
        real = requests.utils.get_environ_proxies

        def counted(*args, **kwargs):
            lookups.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(requests.sessions, "get_environ_proxies", counted)
        monkeypatch.setattr(requests.utils, "get_environ_proxies", counted)
        report = run_campaign(inferred_spec(), [full_cycle_calls()],
                              live.base_url, seed=0)
        assert report["summary"]["ok"] == 6
        assert len(lookups) <= 1


def _campaign_domains():
    ids = lambda prefix, n: tuple(f"{prefix}{i}" for i in range(1, n + 1))
    shapes = st.sampled_from([(0, 1, 0), (1, 1, 0), (1, 1, 1), (2, 1, 1),
                              (2, 1, 2), (1, 2, 1)])
    capacities = st.sampled_from([(1,), (2,), (1, 2)])
    return st.builds(
        lambda shape, caps: (ids("p", shape[0]), ids("t", shape[1]),
                             ids("e", shape[2]), caps),
        shapes, capacities)


# The generator draws a tournament's capacity from the schema (1 to 3), not
# from the model's capacity branch, which the call labels do not carry. Where
# the model lets two players share a tournament, the demo may refuse an
# enrolment or a capacity update the model allows; the refused instance's
# later calls then cannot be issued.
CAPACITY_REFUSALS = ("tournament is full", "capacity below current enrolment count")


class TestCleanDemoProperty:
    @settings(max_examples=10, deadline=None)
    @given(_campaign_domains(), st.integers(0, 2**16), st.integers(0, 2))
    def test_every_call_is_ok_or_a_known_capacity_refusal(
            self, server, domains, seed, puts_max):
        requests.post(server.base_url + "/_reset", timeout=5)
        spec = inferred_spec(manual=True)
        exploration = lifecycle.explore(make_tournaments_model(*domains))
        graph = ssg.build(ssg.parse_dot(exploration.to_dot()), initial="0")
        sequences = seqgen.to_call_sequences(
            graph, seqgen.select_sequences(graph), resolver=spec.resolver())
        sequences = seqgen.insert_puts(sequences, spec.put_catalog(), puts_max, seed)
        report = run_campaign(spec, sequences, server.base_url, seed=seed)
        assert report["summary"]["calls"] == sum(len(s.calls) for s in sequences)
        players, _, enrolments, caps = domains
        shared = len(players) >= 2 and len(enrolments) >= 2 and max(caps) >= 2
        for outcome in report["outcomes"]:
            if outcome["classification"] == OK:
                continue
            assert shared, outcome
            if outcome["classification"] == NOT_TESTED:
                assert "never created" in outcome["reason"], outcome
            else:
                assert outcome["classification"] == ERR, outcome
                assert outcome["response"]["status"] == 422, outcome
                assert outcome["response"]["body"]["error"] in CAPACITY_REFUSALS


class TestNotTested:
    def test_delete_before_create(self, live):
        runner = runner_for(live)
        outcomes, _ = runner.run_sequence([mk("deletePlayer", pid="p1")], 0)
        (outcome,) = outcomes
        assert outcome.classification == NOT_TESTED
        assert "never created" in outcome.reason
        assert outcome.request is None and outcome.response is None

    def test_enrolment_with_missing_foreign_instance(self, live):
        runner = runner_for(live)
        calls = [
            mk("postPlayer", pid="p1"),
            mk("postEnrolment", eid="e1", pid="p1", tid="t1"),
        ]
        outcomes, _ = runner.run_sequence(calls, 0)
        assert outcomes[0].classification == OK
        assert outcomes[1].classification == NOT_TESTED
        assert "t1" in outcomes[1].reason

    def test_unknown_operation(self, live):
        runner = runner_for(live)
        ghost = Call(op="mystery", verb="POST", path="/x", params={}, own_key=None)
        outcomes, _ = runner.run_sequence([ghost], 0)
        assert outcomes[0].classification == NOT_TESTED
        assert "mystery" in outcomes[0].reason

    def test_read_only_operations_are_not_driven(self, live):
        spec = inferred_spec()
        get_op = next(o for o in spec.operations if o.method == "GET")
        call = Call(op=get_op.op_id, verb="GET", path=get_op.path,
                    params={}, own_key=None)
        runner = runner_for(live, spec=spec)
        outcomes, _ = runner.run_sequence([call], 0)
        assert outcomes[0].classification == NOT_TESTED
        assert "not driven" in outcomes[0].reason

    def test_skipped_calls_do_not_touch_the_service(self, live):
        requests.post(live.base_url + "/_reset", timeout=5)
        runner = runner_for(live)
        runner.run_sequence([mk("deletePlayer", pid="p1")], 0)
        log = requests.get(live.base_url + "/_requests", timeout=5).json()
        assert log == []


class RecordingSession:
    """Answers every request 200 and records what was sent."""

    def __init__(self):
        self.sent = []

    def request(self, method, url, json=None, timeout=None):
        self.sent.append((method, urlsplit(url).path))
        return FakeResponse(200, json)


class TestDuplicateOperationIds:
    def test_sequence_file_and_request_come_from_the_first_operation(self):
        schema = {"type": "object", "properties": {"k": {"type": "string"}}}
        spec = load_oas({
            "openapi": "3.0.3",
            "info": {"title": "t", "version": "1"},
            "paths": {
                "/a": {"post": {
                    "operationId": "same",
                    "requestBody": {"content": {"application/json": {"schema": schema}}},
                    "responses": {"200": {"description": "ok"}},
                }},
                "/a/{k}": {
                    "parameters": [{"name": "k", "in": "path", "required": True}],
                    "delete": {"operationId": "same",
                               "responses": {"200": {"description": "ok"}}},
                },
            },
        })
        graph = ssg.build(ssg.parse_dot(
            'digraph { 0 -> 1 [label="same(x1)"]; 1 [label="final = TRUE"]; }'))
        sequences = seqgen.to_call_sequences(
            graph, seqgen.select_sequences(graph), resolver=spec.resolver())
        _, (written,) = seqgen.sequences_from_json(
            seqgen.sequences_to_json(sequences, 0))
        (call,) = written.calls
        assert (call.verb, call.path) == ("POST", "/a")
        session = RecordingSession()
        runner = SequenceRunner(spec, "http://service.invalid", InputGenerator(0),
                                session=session)
        (outcome,), _ = runner.run_sequence(written.calls, 0)
        assert session.sent == [(call.verb, call.path)]
        assert outcome.classification == OK


class TestServerErrors:
    def test_5xx_blocks_classification(self):
        runner = SequenceRunner(inferred_spec(), "http://fake",
                                InputGenerator(0), session=Broken5xxSession())
        outcomes, state = runner.run_sequence([mk("postPlayer", pid="p1")], 0)
        (outcome,) = outcomes
        assert outcome.classification == ERR
        assert outcome.reason == "server error 503"
        assert outcome.post is None
        assert outcome.pre is True  # the 404 probe satisfied the precondition
        assert state == {}  # 503 is not a creation


class TestFaultFlows:
    def test_noop_delete_is_caught_by_the_404_promise(self):
        with DemoServer(seed=3, fault="delete_player_noop") as srv:
            runner = runner_for(srv)
            calls = [mk("postPlayer", pid="p1"), mk("deletePlayer", pid="p1")]
            outcomes, _ = runner.run_sequence(calls, 0)
        assert outcomes[0].classification == OK
        assert outcomes[1].classification == ERR
        assert "res_code(GET /players/{pid}) = 404" in outcomes[1].reason

    def test_stale_membership_is_caught_by_the_manual_clause(self):
        with DemoServer(seed=3, fault="delete_enrolment_no_backref") as srv:
            runner = runner_for(srv, spec=inferred_spec(manual=True))
            outcomes, _ = runner.run_sequence(full_cycle_calls(), 0)
        by_op = {o.operation_id: o for o in outcomes}
        assert by_op["deleteEnrolment"].classification == ERR
        assert "prev(res_body(GET /tournaments/req_body(@){tid}/players)" in by_op[
            "deleteEnrolment"
        ].reason


def spec_with_player_body(schema):
    """The inferred demo spec with postPlayer's request schema replaced."""
    doc = yaml.safe_load(fixture_path("tournaments_oas.yaml").read_text())
    body = doc["paths"]["/players"]["post"]["requestBody"]
    body["content"]["application/json"]["schema"] = schema
    spec = load_oas(doc)
    infer_contracts(spec)
    return spec


class TestUngeneratableBody:
    @pytest.mark.parametrize("schema, reason", [
        pytest.param({"oneOf": [{"type": "object"}, {"type": "string"}]},
                     "request body: unsupported schema construct 'oneOf'",
                     id="oneOf"),
        pytest.param({"type": "array", "items": {"type": "string"}},
                     "request body schema is not an object", id="array"),
    ])
    def test_call_is_not_tested_and_nothing_is_sent(self, live, schema, reason):
        calls = [mk("postPlayer", pid="p1"), mk("postTournament", tid="t1")]
        report = run_campaign(spec_with_player_body(schema), [calls],
                              live.base_url, seed=0)
        player, tournament = report["outcomes"]
        assert (player["classification"], player["reason"]) == (NOT_TESTED, reason)
        assert player["request"] is None
        assert tournament["classification"] == OK
        log = requests.get(live.base_url + "/_requests", timeout=5).json()
        assert not any(line.startswith("POST /players") for line in log)


class TestUnresolvablePrevUrl:
    def test_is_a_false_postcondition_and_the_campaign_goes_on(self, live):
        spec = inferred_spec()
        op = spec.operation("deletePlayer")
        op.ensures = op.ensures + (
            Clause("prev(res_code(GET /players/req_body(@){nope})) = 200"),
        )
        calls = [mk("postPlayer", pid="p1"), mk("deletePlayer", pid="p1"),
                 mk("postTournament", tid="t1")]
        report = run_campaign(spec, [calls], live.base_url, seed=0)
        created, deleted, left = report["outcomes"]
        assert (created["classification"], left["classification"]) == (OK, OK)
        assert deleted["classification"] == ERR
        assert deleted["post"] is False
        assert deleted["reason"].endswith("request body has no field 'nope'")
        assert report["cleanupFailures"] == []
        assert requests.get(live.base_url + "/tournaments", timeout=5).json() == []


class TestCampaign:
    def test_report_shape_and_counts(self, live):
        report = run_campaign(
            inferred_spec(),
            [CallSequence(calls=tuple(full_cycle_calls()))],
            live.base_url,
            seed=0,
        )
        assert report["seed"] == 0
        assert report["baseUrl"] == live.base_url
        assert report["summary"] == {
            "ok": 6, "warn": 0, "err": 0, "notTested": 0, "calls": 6,
        }
        assert isinstance(report["duration"], float)
        first = report["outcomes"][0]
        assert first["sequenceIndex"] == 0 and first["callIndex"] == 0
        assert first["operationId"] == "postPlayer"
        assert first["classification"] == OK
        assert json.dumps(report)  # the whole report is JSON serializable

    def test_plain_lists_work_as_sequences(self, live):
        report = run_campaign(
            inferred_spec(), [[mk("postPlayer", pid="p1"),
                               mk("deletePlayer", pid="p1")]],
            live.base_url, seed=0,
        )
        assert report["summary"]["ok"] == 2

    def test_cleanup_removes_leftovers_in_reverse_order(self, live):
        report = run_campaign(
            inferred_spec(),
            [[mk("postPlayer", pid="p1"), mk("postTournament", tid="t1"),
              mk("postEnrolment", eid="e1", pid="p1", tid="t1")]],
            live.base_url, seed=0,
        )
        assert report["summary"]["ok"] == 3
        for path in ("/players", "/tournaments", "/enrolments"):
            assert requests.get(live.base_url + path, timeout=5).json() == []

    def test_cleanup_failures_are_reported(self):
        calls = [mk("postPlayer", pid="p1"), mk("postTournament", tid="t1"),
                 mk("postEnrolment", eid="e1", pid="p1", tid="t1"),
                 mk("deleteEnrolment", eid="e1")]
        with DemoServer(seed=3, fault="delete_enrolment_no_backref") as srv:
            report = run_campaign(inferred_spec(), [calls], srv.base_url, seed=0)
            left = requests.get(srv.base_url + "/tournaments", timeout=5).json()
        # the stale member list makes the service refuse the tournament's DELETE
        (tournament,) = left
        assert report["cleanupFailures"] == [{
            "sequenceIndex": 0,
            "url": f"/tournaments/{tournament['tid']}",
            "status": 409,
        }]
        assert report["summary"]["ok"] == 4

    def test_report_does_not_depend_on_the_service_address(self):
        calls = [mk("postPlayer", pid="p1"), mk("postTournament", tid="t1"),
                 mk("postEnrolment", eid="e1", pid="p1", tid="t1"),
                 mk("deleteEnrolment", eid="e1")]
        reports = []
        for _ in range(2):
            with DemoServer(seed=3, fault="delete_enrolment_no_backref") as srv:
                report = run_campaign(inferred_spec(), [calls, calls], srv.base_url, seed=5)
            reports.append({k: v for k, v in report.items()
                            if k not in ("baseUrl", "duration")})
        assert reports[0]["cleanupFailures"]
        assert reports[0] == reports[1]

    def test_clean_service_reports_no_cleanup_failures(self, live):
        report = run_campaign(inferred_spec(), [full_cycle_calls()[:4]],
                              live.base_url, seed=0)
        assert report["cleanupFailures"] == []

    def test_cleanup_can_be_disabled(self, live):
        run_campaign(inferred_spec(), [[mk("postPlayer", pid="p1")]],
                     live.base_url, seed=0, cleanup=False)
        assert len(requests.get(live.base_url + "/players", timeout=5).json()) == 1

    def test_later_sequences_start_from_fresh_ids(self, live):
        report = run_campaign(
            inferred_spec(),
            [[mk("postPlayer", pid="p1")], [mk("postPlayer", pid="p1")]],
            live.base_url, seed=0,
        )
        bodies = [o["request"]["body"]["pid"] for o in report["outcomes"]]
        assert bodies == ["pid10000", "pid10001"]
        assert report["summary"]["ok"] == 2

    def test_same_seed_reproduces_the_same_campaign(self, live):
        sequences = [full_cycle_calls(), [mk("postPlayer", pid="p1"),
                                          mk("deletePlayer", pid="p1")]]
        first = run_campaign(inferred_spec(), sequences, live.base_url, seed=5)
        requests.post(live.base_url + "/_reset", timeout=5)
        second = run_campaign(inferred_spec(), sequences, live.base_url, seed=5)
        assert first["outcomes"] == second["outcomes"]
        assert first["summary"] == second["summary"]

    def test_unreachable_service_fails_fast(self):
        with pytest.raises(TransportFailure, match="probe"):
            run_campaign(inferred_spec(), [], "http://127.0.0.1:9", timeout=0.3)
