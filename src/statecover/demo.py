"""A small tournament-enrolment HTTP service used as the test target.

Players enrol in tournaments with bounded capacity; nothing referenced may
be deleted. Stored bodies are echoed back verbatim on create, read, and
delete, which is what the inferred contracts expect.

Besides the clean behavior, the service can be started with one of three
seeded faults:

    delete_player_noop        DELETE /players/{pid} answers 200 with the
                              body but leaves the player in place
    delete_tournament_random  DELETE /tournaments/{tid} checks the requested
                              tournament but removes a random one
    delete_enrolment_no_backref
                              DELETE /enrolments/{eid} forgets to detach the
                              player from the tournament's member list and
                              answers with a partial body

Two admin endpoints exist outside the published description: POST /_reset
clears all state and GET /_requests returns every non-admin request seen so
far (useful for asserting that evaluation only ever issues GETs).
"""

from __future__ import annotations

import json
import random
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional
from urllib.parse import unquote

from . import lifecycle, speckit
from .speckit import ApiSpec, Clause

FAULTS = (
    "delete_player_noop",
    "delete_tournament_random",
    "delete_enrolment_no_backref",
)

CAPACITY_INVARIANT = (
    "for t in res_body(GET /tournaments) :- "
    "res_body(GET /tournaments/{t.tid}/players).len <= res_body(GET /tournaments/{t.tid}/capacity)"
)

# CRUD inference cannot see that removing an enrolment must shrink the
# tournament's member list, so the demo contract states it explicitly.
ENROLMENT_DETACH_CLAUSE = (
    "res_body(GET /tournaments/req_body(@){tid}/players).len < "
    "prev(res_body(GET /tournaments/req_body(@){tid}/players).len)"
)


class TournamentsApp:
    """The service logic, independent of HTTP plumbing."""

    def __init__(self, seed: int = 0, fault: Optional[str] = None):
        if fault is not None and fault not in FAULTS:
            raise ValueError(f"unknown fault {fault!r}, pick one of {FAULTS}")
        self.seed = seed
        self.fault = fault
        self.players: dict[str, dict] = {}      # pid -> {"body": ..., "ts": set}
        self.tournaments: dict[str, dict] = {}  # tid -> {"body": ..., "ps": set}
        self.enrolments: dict[str, dict] = {}   # eid -> {"body": ...}
        self.requests: list[str] = []
        self.rng = random.Random(seed)
        self._lock = threading.Lock()

    # -- entry point -------------------------------------------------------

    def handle(self, method: str, path: str, raw_body: Optional[bytes]):
        with self._lock:
            if path == "/_reset" and method == "POST":
                self._reset()
                return 200, {"reset": True}
            if path == "/_requests" and method == "GET":
                return 200, list(self.requests)
            self.requests.append(f"{method} {path}")

            body = None
            if method in ("POST", "PUT"):
                try:
                    body = json.loads(raw_body or b"")
                except (ValueError, TypeError):
                    return 422, {"error": "request body is not valid JSON"}
                if not isinstance(body, dict):
                    return 422, {"error": "request body must be a JSON object"}

            parts = [unquote(p) for p in path.split("/") if p]
            return self._route(method, parts, body)

    def _reset(self):
        self.players.clear()
        self.tournaments.clear()
        self.enrolments.clear()
        self.requests.clear()
        self.rng = random.Random(self.seed)

    # -- routing -----------------------------------------------------------

    def _route(self, method, parts, body):
        if not parts:
            if method == "GET":
                return 200, {"service": "tournaments"}
            return 405, {"error": "method not allowed"}
        head = parts[0]
        if head == "players":
            return self._route_players(method, parts, body)
        if head == "tournaments":
            return self._route_tournaments(method, parts, body)
        if head == "enrolments":
            return self._route_enrolments(method, parts, body)
        return 404, {"error": "no such endpoint"}

    def _route_players(self, method, parts, body):
        if len(parts) == 1:
            if method == "GET":
                return 200, [rec["body"] for rec in self.players.values()]
            if method == "POST":
                return self._post_player(body)
        elif len(parts) == 2:
            pid = parts[1]
            if method == "GET":
                rec = self.players.get(pid)
                return (200, rec["body"]) if rec else (404, {"error": "no such player"})
            if method == "PUT":
                return self._put_player(pid, body)
            if method == "DELETE":
                return self._delete_player(pid)
        elif len(parts) == 3 and method == "GET":
            pid, sub = parts[1], parts[2]
            rec = self.players.get(pid)
            if rec is None:
                return 404, {"error": "no such player"}
            if sub == "tournaments":
                return 200, sorted(rec["ts"])
            if sub == "enrolments":
                return 200, [
                    e["body"] for e in self.enrolments.values() if e["body"].get("pid") == pid
                ]
        return 405, {"error": "method not allowed"}

    def _route_tournaments(self, method, parts, body):
        if len(parts) == 1:
            if method == "GET":
                return 200, [rec["body"] for rec in self.tournaments.values()]
            if method == "POST":
                return self._post_tournament(body)
        elif len(parts) == 2:
            tid = parts[1]
            if method == "GET":
                rec = self.tournaments.get(tid)
                return (200, rec["body"]) if rec else (404, {"error": "no such tournament"})
            if method == "PUT":
                return self._put_tournament(tid, body)
            if method == "DELETE":
                return self._delete_tournament(tid)
        elif len(parts) == 3 and method == "GET":
            tid, sub = parts[1], parts[2]
            rec = self.tournaments.get(tid)
            if rec is None:
                return 404, {"error": "no such tournament"}
            if sub == "players":
                return 200, sorted(rec["ps"])
            if sub == "capacity":
                return 200, rec["body"]["capacity"]
            if sub == "enrolments":
                return 200, [
                    e["body"] for e in self.enrolments.values() if e["body"].get("tid") == tid
                ]
        return 405, {"error": "method not allowed"}

    def _route_enrolments(self, method, parts, body):
        if len(parts) == 1:
            if method == "GET":
                return 200, [rec["body"] for rec in self.enrolments.values()]
            if method == "POST":
                return self._post_enrolment(body)
        elif len(parts) == 2:
            eid = parts[1]
            if method == "GET":
                rec = self.enrolments.get(eid)
                return (200, rec["body"]) if rec else (404, {"error": "no such enrolment"})
            if method == "DELETE":
                return self._delete_enrolment(eid)
        return 405, {"error": "method not allowed"}

    # -- players -------------------------------------------------------------

    def _post_player(self, body):
        problem = _check_player(body)
        if problem:
            return 422, {"error": problem}
        pid = body["pid"]
        if pid in self.players:
            return 409, {"error": "player id already in use"}
        self.players[pid] = {"body": body, "ts": set()}
        return 200, body

    def _put_player(self, pid, body):
        if pid not in self.players:
            return 404, {"error": "no such player"}
        problem = _check_player(body)
        if problem:
            return 422, {"error": problem}
        if body["pid"] != pid:
            return 409, {"error": "body key differs from path key"}
        self.players[pid]["body"] = body
        return 200, body

    def _delete_player(self, pid):
        rec = self.players.get(pid)
        if rec is None:
            return 404, {"error": "no such player"}
        if rec["ts"]:
            return 409, {"error": "player is still enrolled"}
        if self.fault == "delete_player_noop":
            return 200, rec["body"]  # claims success, removes nothing
        del self.players[pid]
        return 200, rec["body"]

    # -- tournaments -----------------------------------------------------------

    def _post_tournament(self, body):
        problem = _check_tournament(body)
        if problem:
            return 422, {"error": problem}
        tid = body["tid"]
        if tid in self.tournaments:
            return 409, {"error": "tournament id already in use"}
        self.tournaments[tid] = {"body": body, "ps": set()}
        return 200, body

    def _put_tournament(self, tid, body):
        rec = self.tournaments.get(tid)
        if rec is None:
            return 404, {"error": "no such tournament"}
        problem = _check_tournament(body)
        if problem:
            return 422, {"error": problem}
        if body["tid"] != tid:
            return 409, {"error": "body key differs from path key"}
        if body["capacity"] < len(rec["ps"]):
            return 422, {"error": "capacity below current enrolment count"}
        rec["body"] = body
        return 200, body

    def _delete_tournament(self, tid):
        rec = self.tournaments.get(tid)
        if rec is None:
            return 404, {"error": "no such tournament"}
        if rec["ps"]:
            return 409, {"error": "tournament still has enrolled players"}
        if self.fault == "delete_tournament_random":
            victim = self.rng.choice(sorted(self.tournaments))
            del self.tournaments[victim]
            return 200, rec["body"]
        del self.tournaments[tid]
        return 200, rec["body"]

    # -- enrolments --------------------------------------------------------------

    def _post_enrolment(self, body):
        problem = _check_enrolment(body)
        if problem:
            return 422, {"error": problem}
        eid, pid, tid = body["eid"], body["pid"], body["tid"]
        if eid in self.enrolments:
            return 409, {"error": "enrolment id already in use"}
        player = self.players.get(pid)
        tournament = self.tournaments.get(tid)
        if player is None or tournament is None:
            return 422, {"error": "unknown player or tournament"}
        if pid in tournament["ps"]:
            return 409, {"error": "player already enrolled in this tournament"}
        if len(tournament["ps"]) >= tournament["body"]["capacity"]:
            return 422, {"error": "tournament is full"}
        self.enrolments[eid] = {"body": body}
        player["ts"].add(tid)
        tournament["ps"].add(pid)
        return 200, body

    def _delete_enrolment(self, eid):
        rec = self.enrolments.get(eid)
        if rec is None:
            return 404, {"error": "no such enrolment"}
        body = rec["body"]
        pid, tid = body["pid"], body["tid"]
        del self.enrolments[eid]
        if pid in self.players:
            self.players[pid]["ts"].discard(tid)
        if self.fault == "delete_enrolment_no_backref":
            return 200, {"eid": eid}  # member list left stale, body truncated
        if tid in self.tournaments:
            self.tournaments[tid]["ps"].discard(pid)
        return 200, body


def _check_player(body) -> Optional[str]:
    for key in ("pid", "name"):
        if not isinstance(body.get(key), str):
            return f"player needs a string {key!r}"
    return None


def _check_tournament(body) -> Optional[str]:
    for key in ("tid", "name"):
        if not isinstance(body.get(key), str):
            return f"tournament needs a string {key!r}"
    cap = body.get("capacity")
    if isinstance(cap, bool) or not isinstance(cap, int) or not 1 <= cap <= 3:
        return "capacity must be an integer between 1 and 3"
    return None


def _check_enrolment(body) -> Optional[str]:
    for key in ("eid", "pid", "tid"):
        if not isinstance(body.get(key), str):
            return f"enrolment needs a string {key!r}"
    return None


# --- HTTP plumbing -----------------------------------------------------------

def _make_handler(app: TournamentsApp):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # Buffer the response so that handle_one_request's flush sends the
        # status line, headers and body in one write: two small writes on a
        # keep-alive connection meet Nagle's algorithm on this side and
        # delayed ACK on the client's, and each response then waits ~44 ms.
        wbufsize = -1
        disable_nagle_algorithm = True

        def log_message(self, *args):
            pass

        def handle_expect_100(self):
            # the client sends the body only after this interim answer
            ok = super().handle_expect_100()
            self.wfile.flush()
            return ok

        def _serve(self, method):
            length = int(self.headers.get("Content-Length") or 0)
            raw = self.rfile.read(length) if length else b""
            status, payload = app.handle(method, self.path, raw)
            data = json.dumps(payload).encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def do_GET(self):
            self._serve("GET")

        def do_POST(self):
            self._serve("POST")

        def do_PUT(self):
            self._serve("PUT")

        def do_DELETE(self):
            self._serve("DELETE")

    return Handler


class DemoServer:
    """Threaded HTTP wrapper around TournamentsApp; port 0 picks a free one."""

    def __init__(self, port: int = 0, seed: int = 0, fault: Optional[str] = None):
        self.app = TournamentsApp(seed=seed, fault=fault)
        self._httpd = ThreadingHTTPServer(("127.0.0.1", port), _make_handler(self.app))
        self._thread = None

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def base_url(self) -> str:
        return f"http://127.0.0.1:{self.port}"

    def start(self) -> "DemoServer":
        # shutdown() waits for the loop's next poll, so stop() takes up to
        # one poll interval.
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread:
            self._thread.join(timeout=5)

    def __enter__(self) -> "DemoServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


# --- companion artifacts -----------------------------------------------------

def demo_spec() -> ApiSpec:
    """The service's API description, freshly loaded."""
    return speckit.load_oas(speckit.fixture_path("tournaments_oas.yaml"))


def add_manual_clauses(spec: ApiSpec) -> None:
    """Contract clauses that CRUD inference cannot derive: the capacity
    invariant and the member-list shrink on enrolment deletion."""
    spec.invariants = spec.invariants + (Clause(CAPACITY_INVARIANT),)
    op = spec.operation("deleteEnrolment")
    op.ensures = op.ensures + (Clause(ENROLMENT_DETACH_CLAUSE),)


def make_tournaments_model(
    players=("p1",),
    tournaments=("t1",),
    enrolments=("e1",),
    capacities=(1,),
) -> lifecycle.Model:
    """The service's lifecycle model over the given abstract id domains."""
    return lifecycle.load_model(
        tournaments_model_doc(players, tournaments, enrolments, capacities)
    )


def tournaments_model_doc(
    players=("p1",),
    tournaments=("t1",),
    enrolments=("e1",),
    capacities=(1,),
) -> dict:
    doc = {
        "name": "tournaments",
        "resources": [
            {"name": "players", "key": "pid", "ids": list(players),
             "record": {"ts": {"set": "tournaments"}}},
            {"name": "tournaments", "key": "tid", "ids": list(tournaments),
             "record": {"ps": {"set": "players"}, "c": "capacity"}},
            {"name": "enrolments", "key": "eid", "ids": list(enrolments),
             "record": {"pid": {"ref": "players"}, "tid": {"ref": "tournaments"}}},
        ],
        "capacities": list(capacities),
        "actions": [
            {"name": "postPlayer", "params": {"pid": "players"},
             "guard": "pid not in players",
             "effect": ["put players[pid] = {ts: {}}"],
             "unchanged": ["tournaments", "enrolments"]},
            {"name": "deletePlayer", "params": {"pid": "players"},
             "guard": "pid in players and size(players[pid].ts) = 0",
             "effect": ["del players[pid]"],
             "unchanged": ["tournaments", "enrolments"]},
            {"name": "postTournament", "params": {"tid": "tournaments"},
             "guard": "tid not in tournaments",
             "effect": ["put tournaments[tid] = {ps: {}, c: any capacity}"],
             "unchanged": ["players", "enrolments"]},
            {"name": "deleteTournament", "params": {"tid": "tournaments"},
             "guard": "tid in tournaments and size(tournaments[tid].ps) = 0",
             "effect": ["del tournaments[tid]"],
             "unchanged": ["players", "enrolments"]},
            {"name": "postEnrolment",
             "params": {"eid": "enrolments", "pid": "players", "tid": "tournaments"},
             "guard": ("eid not in enrolments and pid in players and tid in tournaments"
                       " and pid not in tournaments[tid].ps"
                       " and size(tournaments[tid].ps) < tournaments[tid].c"),
             "effect": ["put enrolments[eid] = {pid: pid, tid: tid}",
                        "add players[pid].ts tid",
                        "add tournaments[tid].ps pid"]},
            {"name": "deleteEnrolment", "params": {"eid": "enrolments"},
             "guard": "eid in enrolments",
             "effect": ["remove players[enrolments[eid].pid].ts enrolments[eid].tid",
                        "remove tournaments[enrolments[eid].tid].ps enrolments[eid].pid",
                        "del enrolments[eid]"]},
        ],
        "invariants": [
            {"name": "backrefs_live", "forall": "e", "in": "enrolments",
             "check": "enrolments[e].pid in players and enrolments[e].tid in tournaments"},
            {"name": "capacity_respected", "forall": "t", "in": "tournaments",
             "check": "size(tournaments[t].ps) <= tournaments[t].c"},
        ],
        "terminal": "all_empty",
    }
    return doc
