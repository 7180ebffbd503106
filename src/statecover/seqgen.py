"""Test sequence extraction from a state-space graph.

paths_to collects complete and incomplete paths by forward BFS, paths_from
gives each state its shortest route to the sink by reverse BFS, and
select_sequences completes every incomplete path with such a route. The
graph lists a pair once per labelled transition (source, label, target), so
a pair with n labels lies on at least n selected paths, and
to_call_sequences sends its labels, parsed at build, in turn: the selected
set visits every state and sends every transition. A Call is one entry of
a sequence file, so sequences_from_json reads back the suite that
sequences_to_json wrote; insert_puts places seeded blocks of PUTs in it.

The graph (`ssg`) and the operations (`speckit`) appear here only in
annotations, so importing this module loads neither: `statecover test`
reads a sequence file without the graph module.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from itertools import chain
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional

if TYPE_CHECKING:
    from .speckit import Operation
    from .ssg import StateSpaceGraph


class PathSets(NamedTuple):
    complete: tuple[tuple[int, ...], ...]
    incomplete: tuple[tuple[int, ...], ...]


def paths_to(graph: StateSpaceGraph) -> PathSets:
    """Forward BFS from the initial state.

    A path reaching the sink is complete; a path whose last hop lands on an
    already-found state is incomplete and retained for later completion.
    """
    sink = graph.super_final
    # a state's BFS path once found; the sink counts as found, with no path
    stored: list[tuple[int, ...] | None] = [None] * graph.n_states
    stored[sink] = ()
    stored[graph.initial] = (graph.initial,)
    complete: list[tuple[int, ...]] = []
    incomplete: list[tuple[int, ...]] = []
    queue = [graph.initial]
    for u in queue:
        base = stored[u]
        assert base is not None
        for v in graph.out_adj[u]:
            path = base + (v,)
            if stored[v] is None:
                stored[v] = path
                queue.append(v)
            elif v == sink:
                complete.append(path)
            else:
                incomplete.append(path)
    return PathSets(tuple(complete), tuple(incomplete))


def paths_from(graph: StateSpaceGraph) -> list[tuple[int, ...]]:
    """Reverse BFS from the sink: shortest path from every state to the sink."""
    n = graph.n_states
    sink = graph.super_final
    route: list[tuple[int, ...] | None] = [None] * n
    route[sink] = (sink,)
    queue = [sink]
    for v in queue:
        suffix = route[v]
        assert suffix is not None
        for u in graph.in_adj[v]:
            if route[u] is None:
                route[u] = (u,) + suffix
                queue.append(u)
    missing = [i for i, r in enumerate(route) if r is None]
    if missing:
        raise ValueError(f"states cannot reach the sink: {missing}")
    return route  # type: ignore[return-value]


def select_sequences(graph: StateSpaceGraph) -> list[tuple[int, ...]]:
    """Complete paths plus every incomplete path finished via a shortest route.

    An incomplete path ends on an already-visited state v; it is completed by
    dropping v and appending the whole shortest path from v to the sink.
    """
    sets = paths_to(graph)
    routes = paths_from(graph)
    return [*sets.complete, *(path[:-1] + routes[path[-1]] for path in sets.incomplete)]


class Call(NamedTuple):
    """One call of a sequence, exactly as its sequence-file entry holds it:
    the operation, its method and path template, and the abstract ids its
    label binds (params, one dict per call, which is why it has no default).
    A suite read back from its file equals the suite written."""

    op: str
    verb: str
    path: str
    params: dict[str, str]

    def to_json(self) -> dict:
        return {"op": self.op, "verb": self.verb, "path": self.path, "params": dict(self.params)}


# A resolver maps an operation name from an edge label to the operation it
# names (ApiSpec.resolver), or None; the label's arguments bind, in order,
# the operation's param_names.
Resolver = Callable[[str], Optional["Operation"]]


def to_call_sequences(
    graph: StateSpaceGraph,
    paths: list[tuple[int, ...]],
    resolver: Resolver | None = None,
) -> list[list[Call]]:
    """Attach operation calls to state paths.

    The k-th traversal of a pair with n labels, counted over the paths in
    order, sends label min(k, n-1), so the pair's labels go out in label
    order; the synthetic sink edge and unlabeled edges contribute nothing.
    The i-th label argument is sent as the operation's i-th param name, and
    one past param_names is kept as arg<i>, such as a capacity draw of the
    model. A label the resolver does not name, or any label without one, is
    an operation of that name with no param names, verb "" and path "".
    """
    traversals: dict[tuple[int, int], int] = {}
    sequences = []
    for path in paths:
        calls: list[Call] = []
        for hop in zip(path, path[1:]):
            labels = graph.labels[hop]
            if not labels:
                continue
            k = traversals.get(hop, 0)
            traversals[hop] = k + 1
            name, args = labels[min(k, len(labels) - 1)]
            op = resolver(name) if resolver else None
            op_id, verb, where, names = (
                (name, "", "", ()) if op is None else (op.op_id, op.method, op.path, op.param_names))
            params = {(names[i] if i < len(names) else f"arg{i}"): a for i, a in enumerate(args)}
            calls.append(Call(op_id, verb, where, params))
        sequences.append(calls)
    return sequences


def insert_puts(
    sequences: list[list[Call]],
    put_catalog: dict[str, Operation],
    max_puts: int,
    seed: int,
) -> list[list[Call]]:
    """Insert 0..max_puts consecutive update calls per created resource.

    put_catalog maps a resource's collection and item path to the PUT on its
    item path (ApiSpec.put_catalog). A call on either path addresses the
    resource, and its param of the PUT's key name holds the id. For each
    POST of such an id, in call order, one seeded RNG draws
    the block size k in 0..max_puts and then, if k > 0, where the block of k
    PUTs on the id goes: uniformly from just after the id's first POST up to
    just before the first DELETE of the id that follows it, or up to the end
    without one, in the sequence as the blocks before it left it. With
    max_puts 0, or a catalog with no PUT, the sequences come back unchanged;
    a negative max_puts raises ValueError either way. The command line bounds
    --puts-max; this takes any count.
    """
    if max_puts < 0:
        raise ValueError(f"max_puts must be at least 0, got {max_puts}")
    rng = random.Random(seed)
    out = []
    for seq in sequences:
        created = []  # (PUT, id) of each POST, in call order
        posts: dict[tuple, Call] = {}  # the first POST of each id
        deletes: dict[tuple, Call] = {}  # and the first DELETE of the id after it
        for c in seq:
            put = put_catalog.get(c.path)
            if put is None or not c.params.get(put.own_key):
                continue
            made = (put, c.params[put.own_key])
            verb = c.verb.upper()
            if verb == "POST":
                created.append(made)
                posts.setdefault(made, c)
            elif verb == "DELETE" and made in posts:
                deletes.setdefault(made, c)
        calls = list(seq)
        for made in created:
            k = rng.randint(0, max_puts)
            if k == 0:
                continue
            # a block holds only PUTs, so index finds the very POST and DELETE
            post = calls.index(posts[made])
            end = calls.index(deletes[made], post) if made in deletes else len(calls)
            pos = rng.randint(post + 1, end)
            put, tla_id = made
            calls[pos:pos] = [Call(put.op_id, put.method, put.path, {put.own_key: tla_id})
                              for _ in range(k)]
        out.append(calls)
    return out


class CoverageReport(NamedTuple):
    path_count: int
    states_covered: int
    states_total: int
    transitions_covered: int
    transitions_total: int

    @property
    def state_pct(self) -> float:
        return 100.0 if self.states_total == 0 else 100.0 * self.states_covered / self.states_total

    @property
    def transition_pct(self) -> float:
        if self.transitions_total == 0:
            return 100.0
        return 100.0 * self.transitions_covered / self.transitions_total


def coverage_report(graph: StateSpaceGraph, paths: list[tuple[int, ...]]) -> CoverageReport:
    """State and transition coverage of the selected paths.

    The synthetic sink and its edges are excluded. A transition is
    (source, label, target); as to_call_sequences sends a pair's labels in
    turn, a pair traversed k times covers min(k, n) of its n labels, and an
    unlabelled pair is one transition.
    """
    sink = graph.super_final
    traversals = Counter(chain.from_iterable(zip(p, p[1:]) for p in paths))
    return CoverageReport(
        path_count=len(paths),
        states_covered=len(set().union(*paths) - {sink}),
        states_total=graph.n_states - 1,
        transitions_covered=sum(min(k, len(graph.labels[hop]) or 1)
                                for hop, k in traversals.items() if hop[1] != sink),
        transitions_total=graph.edge_count() - len(graph.finals),
    )


def sequences_to_json(sequences: list[list[Call]], seed: int) -> str:
    doc = {
        "seed": seed,
        "sequences": [{"calls": [c.to_json() for c in s]} for s in sequences],
    }
    return json.dumps(doc, indent=2) + "\n"


def _expect(node, kind: type, where: str):
    if not isinstance(node, kind):
        name = {dict: "an object", list: "a list", str: "a string"}[kind]
        raise ValueError(f"{where}: expected {name}")
    return node


def sequences_from_json(text: str) -> tuple[int, list[list[Call]]]:
    """Read a sequence file. A malformed shape raises ValueError naming
    where it is, as in 'sequences[0].calls[2]: expected an object'."""
    try:
        doc = _expect(json.loads(text), dict, "top level")
    except RecursionError:
        raise ValueError("top level: nested too deeply to read") from None
    sequences = []
    for i, s in enumerate(_expect(doc.get("sequences", []), list, "sequences")):
        where = f"sequences[{i}]"
        calls = []
        raw_calls = _expect(s, dict, where).get("calls", [])
        for j, c in enumerate(_expect(raw_calls, list, f"{where}.calls")):
            at = f"{where}.calls[{j}]"
            c = _expect(c, dict, at)
            fields = {k: _expect(c.get(k, ""), str, f"{at}.{k}") for k in ("op", "verb", "path")}
            params = _expect(c.get("params", {}), dict, f"{at}.params")
            for name, value in params.items():
                _expect(value, str, f"{at}.params.{name}")
            calls.append(Call(**fields, params=dict(params)))
        sequences.append(calls)
    seed = doc.get("seed", 0)
    if type(seed) is not int:  # a JSON integer; bool is a subclass of int
        raise ValueError(f"seed: expected an integer, got {seed!r}")
    return seed, sequences
