"""A small tournament-enrolment HTTP service used as the test target.

Players enrol in tournaments with bounded capacity; nothing referenced may
be deleted. Stored bodies are echoed back verbatim on create, read, and
delete, which is what the inferred contracts expect.

Routes: GET / answers {"service": "tournaments"}. Each collection C, of
players (key pid), tournaments (tid) and enrolments (eid), has GET and POST
/C and GET, PUT and DELETE /C/{id}, except that enrolments have no PUT.
Five GETs read sub-resources: /players/{pid}/tournaments and
/tournaments/{tid}/players (the linked ids, sorted),
/players/{pid}/enrolments and /tournaments/{tid}/enrolments (the enrolment
bodies that name it) and /tournaments/{tid}/capacity (a bare integer).

Refusals, in the order they are checked (NOUN is the collection's noun):

    422 request body is not valid JSON / must be a JSON object: POST, PUT
    404 no such endpoint: the first segment names no collection
    405 method not allowed: any other method or path
    404 no such NOUN: item and sub-resource routes, before the body
    422 NOUN needs a string 'FIELD': pid, name; tid, name; eid, pid, tid
    422 capacity must be an integer between 1 and 3: tournaments
    409 NOUN id already in use: POST
    409 body key differs from path key: PUT
    422 capacity below current enrolment count: PUT of a tournament
    422 unknown player or tournament, 409 player already enrolled in this
        tournament, 422 tournament is full: POST of an enrolment
    409 player is still enrolled, tournament still has enrolled players:
        DELETE

Besides the clean behavior, the service can be started with one of three
seeded faults, each breaking one rule of a DELETE:

    delete_player_noop        the player is removed: it answers 200 with
                              the body but leaves the player in place
    delete_tournament_random  the tournament named is removed: it checks
                              that one but removes one the seeded RNG draws
    delete_enrolment_no_backref
                              both sides are detached and the body echoed:
                              it leaves the player in the tournament's
                              member list and answers only {"eid": ...}

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
from .speckit import ApiSpec
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

# collection -> (key field, noun, required string fields, link set and the
# sub-resource listing it); enrolments have no link set, so no PUT or sub-resources
_COLLECTIONS = {
    "players": ("pid", "player", ("pid", "name"), ("ts", "tournaments")),
    "tournaments": ("tid", "tournament", ("tid", "name"), ("ps", "players")),
    "enrolments": ("eid", "enrolment", ("eid", "pid", "tid"), None),
}

_NOT_ALLOWED = 405, {"error": "method not allowed"}


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
            return (200, {"service": "tournaments"}) if method == "GET" else _NOT_ALLOWED
        name = parts[0]
        if name not in _COLLECTIONS:
            return 404, {"error": "no such endpoint"}
        key, noun, _, link = _COLLECTIONS[name]
        store = getattr(self, name)
        if len(parts) == 1:
            if method == "GET":
                return 200, [rec["body"] for rec in store.values()]
            return self._post(name, store, body) if method == "POST" else _NOT_ALLOWED
        # an item route, or else a sub-resource read; enrolments have neither PUT nor these
        item = len(parts) == 2 and (method in ("GET", "DELETE") or method == "PUT" and link)
        if not (item or len(parts) == 3 and method == "GET" and link):
            return _NOT_ALLOWED
        ident = parts[1]
        rec = store.get(ident)
        if rec is None:
            return 404, {"error": f"no such {noun}"}
        if not item:
            sub = parts[2]
            if sub == link[1]:
                return 200, sorted(rec[link[0]])
            if sub == "enrolments":
                return 200, [e["body"] for e in self.enrolments.values()
                             if e["body"].get(key) == ident]
            if sub == "capacity" and name == "tournaments":
                return 200, rec["body"]["capacity"]
            return _NOT_ALLOWED
        if method == "GET":
            return 200, rec["body"]
        if method == "PUT":
            return self._put(name, rec, ident, body)
        return getattr(self, f"_delete_{noun}")(ident, rec)

    # -- create and update -------------------------------------------------

    def _post(self, name, store, body):
        key, noun, _, link = _COLLECTIONS[name]
        problem = _check(name, body)
        if problem:
            return 422, {"error": problem}
        if body[key] in store:
            return 409, {"error": f"{noun} id already in use"}
        if link is None:
            return self._enrol(body)
        store[body[key]] = {"body": body, link[0]: set()}
        return 200, body

    def _put(self, name, rec, ident, body):
        problem = _check(name, body)
        if problem:
            return 422, {"error": problem}
        if body[_COLLECTIONS[name][0]] != ident:
            return 409, {"error": "body key differs from path key"}
        if name == "tournaments" and body["capacity"] < len(rec["ps"]):
            return 422, {"error": "capacity below current enrolment count"}
        rec["body"] = body
        return 200, body

    def _enrol(self, body):
        """Admit a checked enrolment with a fresh eid and link both sides."""
        pid, tid = body["pid"], body["tid"]
        player, tournament = self.players.get(pid), self.tournaments.get(tid)
        if player is None or tournament is None:
            return 422, {"error": "unknown player or tournament"}
        if pid in tournament["ps"]:
            return 409, {"error": "player already enrolled in this tournament"}
        if len(tournament["ps"]) >= tournament["body"]["capacity"]:
            return 422, {"error": "tournament is full"}
        self.enrolments[body["eid"]] = {"body": body}
        player["ts"].add(tid)
        tournament["ps"].add(pid)
        return 200, body

    # -- deletes, each with its fault --------------------------------------

    def _delete_player(self, pid, rec):
        if rec["ts"]:
            return 409, {"error": "player is still enrolled"}
        if self.fault != "delete_player_noop":  # the fault removes nothing
            del self.players[pid]
        return 200, rec["body"]

    def _delete_tournament(self, tid, rec):
        if rec["ps"]:
            return 409, {"error": "tournament still has enrolled players"}
        if self.fault == "delete_tournament_random":
            tid = self.rng.choice(sorted(self.tournaments))
        del self.tournaments[tid]
        return 200, rec["body"]

    def _delete_enrolment(self, eid, rec):
        pid, tid = rec["body"]["pid"], rec["body"]["tid"]
        del self.enrolments[eid]
        if pid in self.players:
            self.players[pid]["ts"].discard(tid)
        if self.fault == "delete_enrolment_no_backref":
            return 200, {"eid": eid}  # member list left stale, body truncated
        if tid in self.tournaments:
            self.tournaments[tid]["ps"].discard(pid)
        return 200, rec["body"]


def _check(name, body) -> Optional[str]:
    """Why body cannot be stored in the collection, or None."""
    _, noun, fields, _ = _COLLECTIONS[name]
    for key in fields:
        if not isinstance(body.get(key), str):
            return f"{noun} needs a string {key!r}"
    if name == "tournaments":
        cap = body.get("capacity")
        if isinstance(cap, bool) or not isinstance(cap, int) or not 1 <= cap <= 3:
            return "capacity must be an integer between 1 and 3"
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
        # shutdown() waits for a serving loop to end, forever if none runs
        if self._thread is not None and self._thread.is_alive():
            self._httpd.shutdown()
            self._thread.join(timeout=5)
        self._httpd.server_close()

    def __enter__(self) -> "DemoServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


# --- companion artifacts -----------------------------------------------------

def demo_spec() -> ApiSpec:
    """The service's API description, freshly loaded."""
    path = speckit.fixture_path("tournaments_oas.yaml")
    return speckit.load_oas(speckit.load_yaml(path.read_text(encoding="utf-8")))


def add_manual_clauses(spec: ApiSpec) -> None:
    """Contract clauses that CRUD inference cannot derive: the capacity
    invariant and the member-list shrink on enrolment deletion."""
    at = f"x-invariants[{len(spec.invariants)}]"
    spec.invariants += (speckit.clause(CAPACITY_INVARIANT, "invariants", at, frozenset()),)
    op = spec.operation("deleteEnrolment")
    at = f"{op.method} {op.path}: x-ensures[{len(op.ensures)}]"
    op.ensures += (speckit.clause(ENROLMENT_DETACH_CLAUSE, "ensures", at, op.bound),)


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
