import calendar
import io
import json
import socket
import threading
from email.utils import formatdate

import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st

from statecover import demo, lifecycle
from statecover.demo import (
    CAPACITY_INVARIANT,
    ENROLMENT_DETACH_CLAUSE,
    DemoServer,
    TournamentsApp,
    add_manual_clauses,
    demo_spec,
    make_tournaments_model,
)
from statecover.speckit import infer_contracts
from statecover.transport import read_response


PLAYER = {"pid": "p1", "name": "alice"}
TOURNAMENT = {"tid": "t1", "name": "open", "capacity": 1}
ENROLMENT = {"eid": "e1", "pid": "p1", "tid": "t1"}


def post(app, path, body):
    return app.handle("POST", path, json.dumps(body).encode())


def put(app, path, body):
    return app.handle("PUT", path, json.dumps(body).encode())


def get(app, path):
    return app.handle("GET", path, None)


def delete(app, path):
    return app.handle("DELETE", path, None)


def seed_world(app, capacity=1):
    t = dict(TOURNAMENT, capacity=capacity)
    assert post(app, "/players", PLAYER)[0] == 200
    assert post(app, "/tournaments", t)[0] == 200
    assert post(app, "/enrolments", ENROLMENT)[0] == 200


class TestPlayers:
    def test_post_echoes_verbatim(self):
        app = TournamentsApp()
        status, body = post(app, "/players", PLAYER)
        assert (status, body) == (200, PLAYER)
        assert get(app, "/players/p1") == (200, PLAYER)
        assert get(app, "/players") == (200, [PLAYER])

    def test_post_duplicate(self):
        app = TournamentsApp()
        post(app, "/players", PLAYER)
        assert post(app, "/players", PLAYER)[0] == 409

    def test_post_malformed(self):
        app = TournamentsApp()
        assert post(app, "/players", {"pid": "p1"})[0] == 422
        assert post(app, "/players", {"pid": 5, "name": "x"})[0] == 422

    def test_get_missing(self):
        assert get(TournamentsApp(), "/players/nope")[0] == 404

    def test_put(self):
        app = TournamentsApp()
        post(app, "/players", PLAYER)
        assert put(app, "/players/ghost", PLAYER)[0] == 404
        assert put(app, "/players/p1", {"pid": "p2", "name": "bob"})[0] == 409
        renamed = {"pid": "p1", "name": "bob"}
        assert put(app, "/players/p1", renamed) == (200, renamed)
        assert get(app, "/players/p1") == (200, renamed)

    def test_delete(self):
        app = TournamentsApp()
        assert delete(app, "/players/p1")[0] == 404
        post(app, "/players", PLAYER)
        status, body = delete(app, "/players/p1")
        assert (status, body) == (200, PLAYER)
        assert get(app, "/players/p1")[0] == 404

    def test_delete_blocked_while_enrolled(self):
        app = TournamentsApp()
        seed_world(app)
        assert delete(app, "/players/p1")[0] == 409
        delete(app, "/enrolments/e1")
        assert delete(app, "/players/p1")[0] == 200


class TestTournaments:
    @pytest.mark.parametrize("capacity", [0, 4, True, "2", None])
    def test_capacity_validation(self, capacity):
        app = TournamentsApp()
        body = {"tid": "t1", "name": "open", "capacity": capacity}
        assert post(app, "/tournaments", body)[0] == 422

    def test_put_cannot_shrink_below_members(self):
        app = TournamentsApp()
        seed_world(app, capacity=2)
        shrunk = {"tid": "t1", "name": "open", "capacity": 1}
        assert put(app, "/tournaments/t1", shrunk)[0] == 200
        # p1 is enrolled; dropping capacity to 0 is impossible anyway (min 1),
        # so block any value below the member count via a second enrolment
        post(app, "/players", {"pid": "p2", "name": "bob"})
        grown = {"tid": "t1", "name": "open", "capacity": 2}
        assert put(app, "/tournaments/t1", grown)[0] == 200
        post(app, "/enrolments", {"eid": "e2", "pid": "p2", "tid": "t1"})
        assert put(app, "/tournaments/t1", shrunk)[0] == 422

    def test_delete_blocked_with_members(self):
        app = TournamentsApp()
        seed_world(app)
        assert delete(app, "/tournaments/t1")[0] == 409


class TestEnrolments:
    def test_create_updates_both_sides(self):
        app = TournamentsApp()
        seed_world(app)
        assert get(app, "/tournaments/t1/players") == (200, ["p1"])
        assert get(app, "/players/p1/tournaments") == (200, ["t1"])
        assert get(app, "/players/p1/enrolments") == (200, [ENROLMENT])
        assert get(app, "/tournaments/t1/enrolments") == (200, [ENROLMENT])

    def test_bad_refs(self):
        app = TournamentsApp()
        assert post(app, "/enrolments", ENROLMENT)[0] == 422

    def test_duplicate_eid(self):
        app = TournamentsApp()
        seed_world(app, capacity=2)
        post(app, "/players", {"pid": "p2", "name": "bob"})
        again = {"eid": "e1", "pid": "p2", "tid": "t1"}
        assert post(app, "/enrolments", again)[0] == 409

    def test_double_enrolment_same_pair(self):
        app = TournamentsApp()
        seed_world(app, capacity=2)
        again = {"eid": "e2", "pid": "p1", "tid": "t1"}
        assert post(app, "/enrolments", again)[0] == 409

    def test_capacity_full(self):
        app = TournamentsApp()
        seed_world(app, capacity=1)
        post(app, "/players", {"pid": "p2", "name": "bob"})
        overflow = {"eid": "e2", "pid": "p2", "tid": "t1"}
        assert post(app, "/enrolments", overflow)[0] == 422

    def test_delete_detaches_both_sides(self):
        app = TournamentsApp()
        seed_world(app)
        status, body = delete(app, "/enrolments/e1")
        assert (status, body) == (200, ENROLMENT)
        assert get(app, "/tournaments/t1/players") == (200, [])
        assert get(app, "/players/p1/tournaments") == (200, [])
        assert get(app, "/enrolments/e1")[0] == 404

    def test_subresource_capacity_is_bare_int(self):
        app = TournamentsApp()
        seed_world(app, capacity=3)
        assert get(app, "/tournaments/t1/capacity") == (200, 3)


class TestPlumbing:
    def test_root_and_unknown(self):
        app = TournamentsApp()
        assert get(app, "/")[0] == 200
        assert get(app, "/nothing")[0] == 404
        assert app.handle("PATCH", "/players", b"{}")[0] == 405

    def test_invalid_json(self):
        app = TournamentsApp()
        assert app.handle("POST", "/players", b"{nope")[0] == 422
        assert app.handle("POST", "/players", b"[1,2]")[0] == 422

    def test_request_log_excludes_admin(self):
        app = TournamentsApp()
        get(app, "/players")
        post(app, "/players", PLAYER)
        status, log = get(app, "/_requests")
        assert status == 200
        assert log == ["GET /players", "POST /players"]
        app.handle("POST", "/_reset", None)
        assert get(app, "/_requests")[1] == []

    def test_reset_clears_state(self):
        app = TournamentsApp()
        seed_world(app)
        app.handle("POST", "/_reset", None)
        assert get(app, "/players")[1] == []
        assert get(app, "/tournaments")[1] == []
        assert get(app, "/enrolments")[1] == []


NOT_ALLOWED = (405, {"error": "method not allowed"})


class TestRouter:
    """One answer for each branch the router tells apart, in the world of
    seed_world plus p2, who is enrolled nowhere."""

    @pytest.mark.parametrize("method, path, body, answer", [
        ("POST", "/", {}, NOT_ALLOWED),
        ("DELETE", "/players", None, NOT_ALLOWED),
        ("POST", "/players/p1", PLAYER, NOT_ALLOWED),
        ("PATCH", "/players/p1", None, NOT_ALLOWED),
        ("PUT", "/enrolments/e1", ENROLMENT, NOT_ALLOWED),
        ("GET", "/enrolments/e1/players", None, NOT_ALLOWED),
        ("GET", "/players/p1/zz", None, NOT_ALLOWED),
        ("DELETE", "/players/p1/tournaments", None, NOT_ALLOWED),
        ("GET", "/players/p1/tournaments/x", None, NOT_ALLOWED),
        ("GET", "/players/ghost/zz", None, (404, {"error": "no such player"})),
        ("GET", "/players/p1/tournaments", None, (200, ["t1"])),
        ("GET", "/players/p2/enrolments", None, (200, [])),
        ("GET", "/tournaments/t1/players", None, (200, ["p1"])),
        ("GET", "/tournaments/t1/capacity", None, (200, 1)),
        ("GET", "/tournaments/t1/enrolments", None, (200, [ENROLMENT])),
        # only a tournament's capacity is checked
        ("PUT", "/players/p1", dict(PLAYER, capacity=0), (200, dict(PLAYER, capacity=0))),
        ("PUT", "/players/p1", {"pid": "p1"}, (422, {"error": "player needs a string 'name'"})),
        # existence comes before the body
        ("PUT", "/tournaments/ghost", {"tid": 5}, (404, {"error": "no such tournament"})),
        # the id comes before the references
        ("POST", "/enrolments", dict(ENROLMENT, pid="ghost"),
         (409, {"error": "enrolment id already in use"})),
    ])
    def test_answer(self, method, path, body, answer):
        app = TournamentsApp()
        seed_world(app)
        assert post(app, "/players", {"pid": "p2", "name": "bob"})[0] == 200
        raw = None if body is None else json.dumps(body).encode()
        assert app.handle(method, path, raw) == answer


def _second(*when):
    return calendar.timegm((*when, 0, 0, 0))


class TestDateField:
    """The Date field is written without email.utils, byte for byte as
    formatdate(second, usegmt=True) writes it."""

    @pytest.mark.parametrize("second", [
        0, 1, 59, 3599, 86399, 86400,
        _second(2024, 1, 31, 23, 59, 59), _second(2024, 2, 1, 0, 0, 0),
        _second(2024, 2, 28, 23, 59, 59), _second(2024, 2, 29, 0, 0, 0),
        _second(2024, 2, 29, 23, 59, 59), _second(2024, 3, 1, 0, 0, 0),
        _second(2023, 2, 28, 23, 59, 59), _second(2023, 3, 1, 0, 0, 0),
        _second(2000, 2, 29, 12, 0, 0), _second(2100, 3, 1, 0, 0, 0),
        _second(2025, 12, 31, 23, 59, 59), _second(2026, 1, 1, 0, 0, 0),
        _second(2026, 10, 19, 5, 30, 32), _second(9999, 12, 31, 23, 59, 59),
    ])
    def test_edges(self, second):
        assert demo._date_field(second) == formatdate(second, usegmt=True)

    @given(st.integers(0, _second(9999, 12, 31, 23, 59, 59)))
    @settings(max_examples=500, deadline=None)
    def test_spread(self, second):
        assert demo._date_field(second) == formatdate(second, usegmt=True)


class TestFaults:
    def test_unknown_fault_rejected(self):
        with pytest.raises(ValueError, match="unknown fault"):
            TournamentsApp(fault="wat")

    def test_delete_player_noop(self):
        app = TournamentsApp(fault="delete_player_noop")
        post(app, "/players", PLAYER)
        status, body = delete(app, "/players/p1")
        assert (status, body) == (200, PLAYER)
        assert get(app, "/players/p1") == (200, PLAYER)  # still there

    def test_delete_player_noop_guards_still_apply(self):
        app = TournamentsApp(fault="delete_player_noop")
        assert delete(app, "/players/ghost")[0] == 404
        seed_world(app)
        assert delete(app, "/players/p1")[0] == 409

    def test_delete_tournament_random_victim(self):
        hit_wrong_victim = False
        for seed in range(20):
            app = TournamentsApp(seed=seed, fault="delete_tournament_random")
            post(app, "/tournaments", {"tid": "ta", "name": "a", "capacity": 1})
            post(app, "/tournaments", {"tid": "tb", "name": "b", "capacity": 1})
            status, body = delete(app, "/tournaments/ta")
            assert status == 200
            assert body["tid"] == "ta"  # response echoes the requested one
            survivors = {t["tid"] for _, t in [(None, x) for x in get(app, "/tournaments")[1]]}
            assert len(survivors) == 1
            if survivors == {"ta"}:
                hit_wrong_victim = True
        assert hit_wrong_victim, "no seed in 0..19 removed the wrong tournament"

    def test_delete_tournament_random_checks_requested(self):
        app = TournamentsApp(fault="delete_tournament_random")
        assert delete(app, "/tournaments/ghost")[0] == 404
        seed_world(app)
        assert delete(app, "/tournaments/t1")[0] == 409

    def test_delete_enrolment_no_backref(self):
        app = TournamentsApp(fault="delete_enrolment_no_backref")
        seed_world(app)
        status, body = delete(app, "/enrolments/e1")
        assert status == 200
        assert body == {"eid": "e1"}  # truncated body
        assert get(app, "/enrolments/e1")[0] == 404
        assert get(app, "/players/p1/tournaments") == (200, [])
        # the stale side: tournament still lists the player
        assert get(app, "/tournaments/t1/players") == (200, ["p1"])


class TestHttpServer:
    def test_round_trip(self):
        with DemoServer() as server:
            r = requests.post(f"{server.base_url}/players", json=PLAYER, timeout=5)
            assert r.status_code == 200
            assert r.json() == PLAYER
            r = requests.get(f"{server.base_url}/players/p1", timeout=5)
            assert r.json() == PLAYER
            r = requests.delete(f"{server.base_url}/players/p1", timeout=5)
            assert r.status_code == 200
            assert requests.get(f"{server.base_url}/players/p1", timeout=5).status_code == 404

    def test_admin_over_http(self):
        with DemoServer() as server:
            requests.get(f"{server.base_url}/players", timeout=5)
            log = requests.get(f"{server.base_url}/_requests", timeout=5).json()
            assert log == ["GET /players"]
            requests.post(f"{server.base_url}/_reset", timeout=5)
            assert requests.get(f"{server.base_url}/_requests", timeout=5).json() == []


    def test_each_response_leaves_in_one_write(self):
        # Status line, headers and body in separate small writes meet delayed
        # ACK on a keep-alive connection; in one write they arrive together.
        with DemoServer() as server, socket.create_connection(
            ("127.0.0.1", server.port), timeout=5
        ) as conn:
            request = b"GET /players HTTP/1.1\r\nHost: demo\r\n\r\n"
            for _ in range(20):
                conn.sendall(request)
                chunk = conn.recv(65536)
                head, _, body = chunk.partition(b"\r\n\r\n")
                length = next(
                    int(line.split(b":", 1)[1])
                    for line in head.split(b"\r\n")
                    if line.lower().startswith(b"content-length:")
                )
                assert head.startswith(b"HTTP/1.1 200")
                assert len(body) == length and json.loads(body) == []

    def test_continue_is_sent_before_the_body_arrives(self):
        body = json.dumps(PLAYER).encode()
        with DemoServer() as server, socket.create_connection(
            ("127.0.0.1", server.port), timeout=5
        ) as conn:
            conn.sendall(b"POST /players HTTP/1.1\r\nHost: demo\r\n"
                         b"Content-Type: application/json\r\nExpect: 100-continue\r\n"
                         b"Content-Length: %d\r\n\r\n" % len(body))
            assert conn.recv(65536).startswith(b"HTTP/1.1 100")
            conn.sendall(body)
            assert conn.recv(65536).startswith(b"HTTP/1.1 200")

    def test_stopping_a_server_that_never_started_returns(self):
        server = DemoServer()
        port = server.port
        stopper = threading.Thread(target=server.stop, daemon=True)
        stopper.start()
        stopper.join(timeout=5)
        assert not stopper.is_alive()
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(("127.0.0.1", port), timeout=5)

    def test_ids_are_unquoted_per_path_segment(self):
        player = {"pid": "a/b c", "name": "slash"}
        with DemoServer() as server:
            url = f"{server.base_url}/players/a%2Fb%20c"
            assert requests.post(f"{server.base_url}/players", json=player,
                                 timeout=5).status_code == 200
            assert requests.get(url, timeout=5).json() == player
            assert requests.delete(url, timeout=5).status_code == 200
            assert requests.get(url, timeout=5).status_code == 404
            log = requests.get(f"{server.base_url}/_requests", timeout=5).json()
            assert log == ["POST /players", "GET /players/a%2Fb%20c",
                           "DELETE /players/a%2Fb%20c", "GET /players/a%2Fb%20c"]


def until_close(server, request):
    """Everything the demo sends back on one connection for request; fails
    with a timeout unless the demo closes the connection."""
    with socket.create_connection(("127.0.0.1", server.port), timeout=5) as conn:
        conn.sendall(request)
        data = b""
        while chunk := conn.recv(65536):
            data += chunk
    return data


def answer(data, method="GET"):
    """(status, header fields, body, rest) of the first answer in data."""
    wire = io.BufferedReader(io.BytesIO(data))
    status, fields, body, _ = read_response(wire, method)
    return status, fields, body, wire.read()


class TestConnections:
    """Framing and keep-alive of the demo's HTTP/1.1 server, on raw sockets."""

    @pytest.mark.parametrize("method", ["HEAD", "PATCH"])
    def test_an_unserved_method_gets_501_and_a_close(self, method):
        with DemoServer() as server:
            data = until_close(server, f"{method} /players HTTP/1.1\r\nHost: demo\r\n"
                                       "Content-Length: 2\r\n\r\n{}".encode())
            status, fields, body, rest = answer(data, method)
            assert (status, fields["connection"], rest) == (501, "close", b"")
            if method == "HEAD":
                assert body == b""
            else:
                assert json.loads(body) == {"error": "method PATCH is not supported"}
            assert server.app.requests == []

    @pytest.mark.parametrize("line", [b"NONSENSE", b"GET /players", b"GET / HTTP/2.0",
                                      b"GET / HTTP/1.1 extra"])
    def test_a_malformed_request_line_gets_400_and_a_close(self, line):
        with DemoServer() as server:
            data = until_close(server, line + b"\r\nHost: demo\r\n\r\n")
            status, fields, body, rest = answer(data)
            assert data.startswith(b"HTTP/1.1 400 Bad Request\r\n")
            assert (fields["connection"], rest) == ("close", b"")
            assert json.loads(body)["error"].startswith("malformed request line")

    def test_a_body_without_a_length_gets_400_and_a_close(self):
        with DemoServer() as server:
            data = until_close(server, b"POST /players HTTP/1.1\r\nHost: demo\r\n"
                                       b"Transfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n")
            assert answer(data)[0] == 400
            assert server.app.requests == []

    @pytest.mark.parametrize("request_head", [
        b"GET /players HTTP/1.0\r\n\r\n",
        b"GET /players HTTP/1.1\r\nHost: demo\r\nConnection: close\r\n\r\n",
    ])
    def test_the_connection_closes_after_http_1_0_or_connection_close(self, request_head):
        with DemoServer() as server:
            # the second request is never read: the demo closes after the first
            data = until_close(server, request_head * 2)
            status, fields, body, rest = answer(data)
            assert (status, json.loads(body), fields["connection"], rest) == (
                200, [], "close", b"")
            assert server.app.requests == ["GET /players"]

    def test_the_connection_stays_open_otherwise(self):
        with DemoServer() as server, socket.create_connection(
            ("127.0.0.1", server.port), timeout=5
        ) as conn:
            wire = conn.makefile("rb")
            for path in ("/players", "/tournaments", "/nowhere"):
                conn.sendall(f"GET {path} HTTP/1.1\r\nHost: demo\r\n\r\n".encode())
                status, fields, _, keep = read_response(wire, "GET")
                assert keep and "connection" not in fields
                assert fields["content-type"] == "application/json" and "date" in fields
            assert status == 404
            wire.close()
            assert server.app.requests == ["GET /players", "GET /tournaments", "GET /nowhere"]


class TestCompanions:
    def test_model_matches_fixture_exploration(self):
        x = lifecycle.explore(make_tournaments_model())
        assert x.state_count == 6
        assert x.transition_count == 10

    def test_two_tournament_variant(self):
        model = make_tournaments_model(players=(), tournaments=("t1", "t2"), enrolments=())
        x = lifecycle.explore(model)
        assert x.state_count == 5
        assert x.transition_count == 8

    def test_manual_clauses(self):
        spec = demo_spec()
        infer_contracts(spec)
        add_manual_clauses(spec)
        assert spec.invariants[-1].text == CAPACITY_INVARIANT
        op = spec.operation("deleteEnrolment")
        assert op.ensures[-1].text == ENROLMENT_DETACH_CLAUSE
        assert op.ensures[-1].formula is not None

    def test_demo_spec_is_clean(self):
        assert demo_spec().diagnostics == []
