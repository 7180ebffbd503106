import json
import socket

import pytest
import requests

from statecover import lifecycle
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
