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

TournamentsApp is plain Python. DemoServer serves it over HTTP/1.1 from a
socketserver.ThreadingTCPServer, one thread per connection, reading
requests with transport's header reader and writing each answer in one
piece; socketserver loads when the first DemoServer is built, so importing
this module for its fixtures or its model documents loads neither a server
nor the socket module.
A model document is the packaged tournaments_p1t1e1.yaml, renamed
"tournaments", over the id domains and capacities asked for.
"""

from __future__ import annotations

import functools
import json
import random
import threading
import time
from http import HTTPStatus
from typing import Optional
from urllib.parse import unquote

from . import lifecycle, speckit
from .speckit import ApiSpec, Clause
from .transport import MAX_LINE, ProtocolError, read_fields

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

_METHODS = ("GET", "POST", "PUT", "DELETE")


_WEEKDAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")


@functools.lru_cache(maxsize=1)
def _date_field(second: int) -> str:
    """The Date field of a Unix time, in the IMF-fixdate form of RFC 9110
    that email.utils.formatdate(second, usegmt=True) writes."""
    t = time.gmtime(second)
    return (f"{_WEEKDAYS[t.tm_wday]}, {t.tm_mday:02d} {_MONTHS[t.tm_mon - 1]} {t.tm_year:04d} "
            f"{t.tm_hour:02d}:{t.tm_min:02d}:{t.tm_sec:02d} GMT")


def _answer(status: int, payload, close: bool, head_only: bool = False) -> bytes:
    """A whole response: status line, Content-Type, Content-Length, Date, a
    Connection: close when the connection ends after it, and the JSON
    payload unless the request was a HEAD."""
    data = json.dumps(payload).encode()
    head = (
        f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(data)}\r\n"
        f"Date: {_date_field(int(time.time()))}\r\n"
        + ("Connection: close\r\n\r\n" if close else "\r\n")
    ).encode("latin-1")
    return head if head_only else head + data


def _read_request(rfile, wfile):
    """(method, target, version, header fields, body) of the next request on
    a connection, or None once the client has closed it. A request that asks
    for an interim 100 Continue gets it before its body is read. A request
    that cannot be framed raises ProtocolError."""
    line = rfile.readline(MAX_LINE + 1)
    if not line:
        return None
    words = line.decode("latin-1").split()
    if len(words) != 3 or not words[2].startswith("HTTP/1.") or not line.endswith(b"\n"):
        raise ProtocolError(f"malformed request line {line.decode('latin-1')!r}")
    fields = read_fields(rfile)
    length = fields.get("content-length", "0")
    if not (length.isascii() and length.isdigit()) or "transfer-encoding" in fields:
        raise ProtocolError("a request body needs a Content-Length")
    if fields.get("expect", "").lower() == "100-continue" and words[2] != "HTTP/1.0":
        wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
    size = int(length)
    body = rfile.read(size)
    return None if len(body) < size else (*words, fields, body)


def _serve(app: TournamentsApp, rfile, wfile) -> None:
    """Answer the requests of one connection until either side ends it. Each
    answer leaves in one write: two small writes on a keep-alive connection
    meet Nagle's algorithm on this side and delayed ACK on the client's, and
    each response then waits ~44 ms. The connection ends after an HTTP/1.0
    request, a Connection: close, a method the service does not serve (501)
    or a request that cannot be framed (400)."""
    while True:
        try:
            request = _read_request(rfile, wfile)
        except ProtocolError as exc:
            wfile.write(_answer(400, {"error": str(exc)}, close=True))
            return
        if request is None:
            return
        method, target, version, fields, body = request
        if method not in _METHODS:
            wfile.write(_answer(501, {"error": f"method {method} is not supported"},
                                close=True, head_only=method == "HEAD"))
            return
        close = version == "HTTP/1.0" or "close" in fields.get("connection", "").lower()
        # app.handle is looked up per request, so that a wrapper put on
        # TournamentsApp.handle meanwhile sees every later request
        status, payload = app.handle(method, target, body)
        wfile.write(_answer(status, payload, close))
        if close:
            return


def _make_server(app: TournamentsApp, port: int):
    """A server for app on 127.0.0.1:port, one daemon thread per connection.
    socketserver loads here, not when this module is imported."""
    import socketserver

    class Handler(socketserver.StreamRequestHandler):
        disable_nagle_algorithm = True

        def handle(self):
            _serve(app, self.rfile, self.wfile)

    class Server(socketserver.ThreadingTCPServer):
        daemon_threads = True
        allow_reuse_address = True

    return Server(("127.0.0.1", port), Handler)


class DemoServer:
    """Threaded HTTP/1.1 server around TournamentsApp; port 0 picks a free
    one."""

    def __init__(self, port: int = 0, seed: int = 0, fault: Optional[str] = None):
        self.app = TournamentsApp(seed=seed, fault=fault)
        self._httpd = _make_server(self.app, port)
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
    """The packaged tournaments_p1t1e1.yaml model, named "tournaments", over
    the given id domains and capacities."""
    path = speckit.fixture_path("tournaments_p1t1e1.yaml")
    doc = speckit.load_yaml(path.read_text(encoding="utf-8"))
    doc["name"] = "tournaments"
    for resource, ids in zip(doc["resources"], (players, tournaments, enrolments)):
        resource["ids"] = list(ids)
    doc["capacities"] = list(capacities)
    return doc
