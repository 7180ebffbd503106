"""Shared test utilities: random graph construction, independent oracles,
and an in-process stand-in for an HTTP session to the demo service.

The oracles here are deliberately written against the public graph arrays
only, with none of the production path logic, so they can arbitrate.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from json import dumps
from pathlib import Path

from statecover.demo import TournamentsApp
from statecover.lifecycle import Model, State
from statecover.speckit import Operation, fixture_path, load_yaml
from statecover.ssg import EdgeStatement, NodeStatement, RawGraph, StateSpaceGraph, build
from statecover.transport import Connection


# Clauses that parse but that their kind cannot evaluate, as (kind, clause,
# the message load_oas gives after the clause's place); one per rule misused.
MISUSED_CLAUSES = [
    ("requires", "prev(res_code(GET /players/{pid})) = 200",
     "prev(res_code(GET /players/{pid})) is only allowed in ensures"),
    ("requires", "res_code(@) = 200", "res_code(@) is only allowed in ensures"),
    ("invariants", "req_body(@){pid} = 'p1'",
     "req_body(@){pid}: an invariant has no operation for '@'"),
    ("ensures", "prev(res_code(@)) = 200", "prev(res_code(@)): prev over '@' is not defined"),
    ("ensures", "req_body(GET /players) = 1",
     "req_body(GET /players): req_body reads only the request of '@'"),
    ("invariants", "res_code(GET /players/{pid}) = 200",
     "res_code(GET /players/{pid}): an invariant has no path parameter {pid}"),
]


def add_clause(doc: dict, kind: str, clause: str) -> str:
    """Append clause to DELETE /players/{pid}'s x-<kind> list, or to the
    document's x-invariants; return the place load_oas names it by."""
    if kind == "invariants":
        node, where = doc, ""
    else:
        node, where = doc["paths"]["/players/{pid}"]["delete"], "DELETE /players/{pid}: "
    clauses = node.setdefault(f"x-{kind}", [])
    clauses.append(clause)
    return f"{where}x-{kind}[{len(clauses) - 1}]: "


def run_in_ascii_locale(code: str) -> str:
    """Run Python code in a child whose locale encoding is ASCII, with this
    tree's src importable; return its stdout. A file read without an
    explicit encoding fails there on the first non-ASCII byte."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "LC_ALL": "C", "LANG": "C", "PYTHONUTF8": "0",
           "PYTHONCOERCECLOCALE": "0", "PYTHONPATH": str(src)}
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    return run.stdout


def fixture_doc(name: str):
    """The parsed document of a data file shipped with the package."""
    return load_yaml(fixture_path(name).read_text(encoding="utf-8"))


def type_error(model: Model, state: State) -> str | None:
    """What makes a state ill-typed, or None: a state that is not a tuple
    of one entry per declared id (resources in declaration order, ids in
    domain order), a record that is not a tuple of one value per declared
    field (in field-name order), or a field value not of its kind. The
    reference for load_model's kind checks, which should leave no reachable
    state that this finds fault with."""
    ids = {r.name: r.ids for r in model.resources}
    declared = [(r, rid) for r in model.resources for rid in r.ids]
    if not isinstance(state, tuple) or len(state) != len(declared):
        return f"the state is not a tuple of {len(declared)} entries, one per declared id"
    for (r, rid), rec in zip(declared, state):
        if rec is None:
            continue
        if not isinstance(rec, tuple) or len(rec) != len(r.record):
            return f"{r.name}[{rid}] = {rec!r} is not a tuple of its {len(r.record)} fields"
        for (fname, spec), value in zip(sorted(r.record.items()), rec):
            if spec.kind == "set":
                if not isinstance(value, frozenset):
                    return f"{r.name}[{rid}].{fname} is not a set"
                bad = [e for e in value if e not in ids[spec.target]]
                if bad:
                    return f"{r.name}[{rid}].{fname} holds foreign ids {bad}"
            elif spec.kind == "ref":
                if value not in ids[spec.target]:
                    return f"{r.name}[{rid}].{fname} = {value!r} is not a {spec.target} id"
            elif value not in model.capacities:
                return f"{r.name}[{rid}].{fname} = {value!r} not in capacities"
    return None


def make_random_dag_raw(rng: random.Random) -> RawGraph:
    """Random DAG over 2..12 states: node 0 initial, sinks are final states.

    Every node j > 0 gets at least one incoming edge from an earlier node, so
    the whole graph is reachable from 0; in a DAG every node reaches a sink,
    so co-reachability holds by construction.
    """
    n = rng.randint(2, 12)
    edges: set[tuple[int, int]] = set()
    for j in range(1, n):
        for i in range(j):
            if rng.random() < 0.4:
                edges.add((i, j))
        if not any(dst == j for (_, dst) in edges):
            edges.add((rng.randrange(j), j))
    has_out = {u for (u, _) in edges}
    nodes = []
    for i in range(n):
        final = i not in has_out
        label = "final = TRUE" if final else "final = FALSE"
        nodes.append(NodeStatement(str(i), label))
    edge_stmts = [
        EdgeStatement(str(u), str(v), f"step{u}_{v}(x)") for (u, v) in sorted(edges)
    ]
    return RawGraph(name="rand", nodes=nodes, edges=edge_stmts)


def build_random_dag(seed: int) -> StateSpaceGraph:
    return build(make_random_dag_raw(random.Random(seed)))


def _reached(adj: list[list[int]], start: int) -> set[int]:
    seen, stack = {start}, [start]
    while stack:
        for v in adj[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def assert_graph_laws(graph: StateSpaceGraph) -> None:
    """The structural laws every built graph obeys: the sink is the last
    index and has no out-edges, adjacency lists are ascending and dual, the
    labelled pairs are exactly the edges, each listed once per label (once
    if it has none), every final state has a sink edge, and every state is
    reachable from the initial state and co-reaches the sink."""
    n, sink = graph.n_states, graph.super_final
    assert sink == n - 1
    assert graph.out_adj[sink] == []
    assert all(adj == sorted(adj) for adj in graph.out_adj + graph.in_adj)
    out_pairs = sorted((u, v) for u in range(n) for v in graph.out_adj[u])
    assert out_pairs == sorted((u, v) for v in range(n) for u in graph.in_adj[v])
    assert set(out_pairs) == set(graph.labels)
    for (u, v), labels in graph.labels.items():
        assert graph.out_adj[u].count(v) == max(1, len(labels))
    assert all((f, sink) in out_pairs for f in graph.finals)
    assert _reached(graph.out_adj, graph.initial) == set(range(n))
    assert _reached(graph.in_adj, sink) == set(range(n))


def brute_force_paths(graph: StateSpaceGraph) -> set[tuple[int, ...]]:
    """Every path from the initial state to the sink, by plain DFS.

    Only terminates on acyclic graphs; the callers only hand it DAGs.
    """
    sink = graph.super_final
    out: set[tuple[int, ...]] = set()
    stack = [(graph.initial, (graph.initial,))]
    while stack:
        node, path = stack.pop()
        if node == sink:
            out.add(path)
            continue
        for nxt in graph.out_adj[node]:
            stack.append((nxt, path + (nxt,)))
    return out


def bfs_distance_to_sink(graph: StateSpaceGraph) -> dict[int, int]:
    """Hop count from every state to the sink over reversed edges."""
    dist = {graph.super_final: 0}
    frontier = [graph.super_final]
    while frontier:
        nxt = []
        for v in frontier:
            for u in graph.in_adj[v]:
                if u not in dist:
                    dist[u] = dist[v] + 1
                    nxt.append(u)
        frontier = nxt
    return dist


def tournaments_raw() -> RawGraph:
    """Hand-written dump of the 1-player/1-tournament/1-enrolment lifecycle.

    The structure (6 states, 10 transitions) and the expected selected paths
    in the tests were traced by hand from the BFS algorithms.
    """
    false = "final = FALSE"
    nodes = [
        NodeStatement("0", false),  # all empty
        NodeStatement("1", false),  # player only
        NodeStatement("2", false),  # tournament only
        NodeStatement("3", false),  # player + tournament
        NodeStatement("4", "final = TRUE"),  # all empty again, terminal
        NodeStatement("5", false),  # enrolled
    ]
    edges = [
        EdgeStatement("0", "1", "postPlayer(p1)"),
        EdgeStatement("0", "2", "postTournament(t1)"),
        EdgeStatement("1", "3", "postTournament(t1)"),
        EdgeStatement("1", "4", "deletePlayer(p1)"),
        EdgeStatement("2", "3", "postPlayer(p1)"),
        EdgeStatement("2", "4", "deleteTournament(t1)"),
        EdgeStatement("3", "1", "deleteTournament(t1)"),
        EdgeStatement("3", "2", "deletePlayer(p1)"),
        EdgeStatement("3", "5", "postEnrolment(e1,p1,t1)"),
        EdgeStatement("5", "3", "deleteEnrolment(e1)"),
    ]
    return RawGraph(name="tournaments", nodes=nodes, edges=edges)


TOURNAMENTS_RESOLVER_TABLE = {
    "postPlayer": {"op": "postPlayer", "verb": "POST", "path": "/players", "param_names": ["pid"], "own_key": "pid"},
    "deletePlayer": {"op": "deletePlayer", "verb": "DELETE", "path": "/players/{pid}", "param_names": ["pid"], "own_key": "pid"},
    "postTournament": {"op": "postTournament", "verb": "POST", "path": "/tournaments", "param_names": ["tid"], "own_key": "tid"},
    "deleteTournament": {"op": "deleteTournament", "verb": "DELETE", "path": "/tournaments/{tid}", "param_names": ["tid"], "own_key": "tid"},
    "postEnrolment": {"op": "postEnrolment", "verb": "POST", "path": "/enrolments", "param_names": ["eid", "pid", "tid"], "own_key": "eid"},
    "deleteEnrolment": {"op": "deleteEnrolment", "verb": "DELETE", "path": "/enrolments/{eid}", "param_names": ["eid"], "own_key": "eid"},
}


def tournaments_resolver(name: str) -> Operation | None:
    meta = TOURNAMENTS_RESOLVER_TABLE.get(name)
    if meta is None:
        return None
    return Operation(op_id=meta["op"], method=meta["verb"], path=meta["path"], raw={},
                     own_key=meta["own_key"], param_names=tuple(meta["param_names"]))


class AppSession:
    """Serves the demo service in-process and logs every request."""

    def __init__(self):
        self.app = TournamentsApp()
        self.log = []

    def request(self, method, path, json=None):
        self.log.append(f"{method} {path}")
        return self.app.handle(method, path, None if json is None else dumps(json).encode())


def failing_on(verb):
    """A Connection whose requests of one method raise, as on a connection
    the service reset."""

    class Failing(Connection):
        def request(self, method, path, json=None):
            if method == verb:
                raise ConnectionResetError("reset by peer")
            return super().request(method, path, json=json)

    return Failing
