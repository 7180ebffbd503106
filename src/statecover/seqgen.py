"""Test sequence extraction from a state-space graph.

paths_to collects complete and incomplete paths by forward BFS, paths_from
gives each state its shortest route to the sink by reverse BFS, and
select_sequences completes every incomplete path with such a route. The
selected set visits every state, and every transition when the graph has no
merged parallel edges.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from typing import Callable

from .speckit import Operation
from .ssg import StateSpaceGraph


@dataclass(frozen=True)
class PathSets:
    complete: tuple[tuple[int, ...], ...]
    incomplete: tuple[tuple[int, ...], ...]


def paths_to(graph: StateSpaceGraph) -> PathSets:
    """Forward BFS from the initial state.

    A path reaching the sink is complete; a path whose last hop lands on an
    already-found state is incomplete and retained for later completion.
    """
    n = graph.n_states
    sink = graph.super_final
    found = [False] * n
    found[sink] = True
    stored: list[tuple[int, ...] | None] = [None] * n
    stored[graph.initial] = (graph.initial,)
    found[graph.initial] = True
    complete: list[tuple[int, ...]] = []
    incomplete: list[tuple[int, ...]] = []
    queue = [graph.initial]
    head = 0
    while head < len(queue):
        u = queue[head]
        head += 1
        base = stored[u]
        assert base is not None
        for v in graph.out_adj[u]:
            path = base + (v,)
            if not found[v]:
                found[v] = True
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
    head = 0
    while head < len(queue):
        v = queue[head]
        head += 1
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
    selected = list(sets.complete)
    for path in sets.incomplete:
        last = path[-1]
        selected.append(path[:-1] + routes[last])
    return selected


_LABEL_RE = re.compile(r"^(\w+)\s*(?:\((.*)\))?$")


def parse_label(label: str) -> tuple[str, tuple[str, ...]] | None:
    """Split an edge label like 'postEnrolment(e1,p1,t1)' into name and args."""
    m = _LABEL_RE.match(label.strip())
    if not m:
        return None
    name = m.group(1)
    raw_args = m.group(2)
    if raw_args is None or raw_args.strip() == "":
        return name, ()
    return name, tuple(a.strip() for a in raw_args.split(","))


@dataclass(frozen=True)
class Call:
    op: str
    verb: str
    path: str
    params: dict[str, str] = field(default_factory=dict)
    own_key: str | None = None

    def own_id(self) -> str | None:
        if self.own_key is None:
            return None
        return self.params.get(self.own_key)

    def to_json(self) -> dict:
        return {"op": self.op, "verb": self.verb, "path": self.path, "params": dict(self.params)}


@dataclass
class CallSequence:
    calls: list[Call]


# A resolver maps an operation name from an edge label to the operation it
# names (ApiSpec.resolver), or None; the label's arguments bind, in order,
# the operation's param_names.
Resolver = Callable[[str], Operation | None]


def to_call_sequences(
    graph: StateSpaceGraph,
    paths: list[tuple[int, ...]],
    resolver: Resolver | None = None,
) -> list[CallSequence]:
    """Attach operation calls to state paths.

    Each traversed edge contributes its lexicographically least label; the
    synthetic sink edge and unlabeled edges contribute nothing. A label that
    parse_label cannot read raises ValueError naming the edge. Without a
    resolver, calls keep the label name and positional argument names.
    """
    sequences = []
    for path in paths:
        calls: list[Call] = []
        for u, v in zip(path, path[1:]):
            label = graph.least_label(u, v)
            if not label:
                continue
            parsed = parse_label(label)
            if parsed is None:
                raise ValueError(
                    f"edge {graph.raw_ids[u]} -> {graph.raw_ids[v]}: cannot read "
                    f"label {label!r} as name(arg, ...)"
                )
            name, args = parsed
            op = resolver(name) if resolver else None
            if op is None:
                params = {f"arg{i}": a for i, a in enumerate(args)}
                calls.append(Call(op=name, verb="", path="", params=params))
                continue
            names = op.param_names
            params = {}
            for i, a in enumerate(args):
                key = names[i] if i < len(names) else f"arg{i}"
                params[key] = a
            calls.append(
                Call(
                    op=op.op_id,
                    verb=op.method,
                    path=op.path,
                    params=params,
                    own_key=op.own_key,
                )
            )
        sequences.append(CallSequence(calls=calls))
    return sequences


MAX_PUTS_LIMIT = 3


def insert_puts(
    sequences: list[CallSequence],
    put_catalog: dict[str, Operation],
    max_puts: int,
    seed: int,
) -> list[CallSequence]:
    """Insert 0..max_puts consecutive update calls per created resource.

    put_catalog maps a resource's key parameter name to its PUT operation
    (ApiSpec.put_catalog). The block lands uniformly at random
    (seeded) strictly after the resource's POST and strictly before its
    DELETE when one exists, otherwise anywhere after the POST. With
    max_puts 0, or a catalog with no PUT, the sequences come back unchanged;
    a max_puts outside 0..MAX_PUTS_LIMIT raises ValueError either way.
    """
    if max_puts < 0 or max_puts > MAX_PUTS_LIMIT:
        raise ValueError(f"max_puts must be in 0..{MAX_PUTS_LIMIT}, got {max_puts}")
    if max_puts == 0:
        return [CallSequence(calls=list(s.calls)) for s in sequences]
    rng = random.Random(seed)
    out = []
    for seq in sequences:
        calls = list(seq.calls)
        created = [
            (c.own_key, c.own_id())
            for c in calls
            if c.verb.upper() == "POST" and c.own_key and c.own_id()
        ]
        for own_key, tla_id in created:
            if own_key not in put_catalog:
                continue
            k = rng.randint(0, max_puts)
            if k == 0:
                continue
            post_idx = next(
                i
                for i, c in enumerate(calls)
                if c.verb.upper() == "POST" and c.own_key == own_key and c.own_id() == tla_id
            )
            delete_idx = None
            for i in range(post_idx + 1, len(calls)):
                c = calls[i]
                if c.verb.upper() == "DELETE" and c.own_key == own_key and c.own_id() == tla_id:
                    delete_idx = i
                    break
            lo = post_idx + 1
            hi = delete_idx if delete_idx is not None else len(calls)
            pos = rng.randint(lo, hi)
            put = put_catalog[own_key]
            block = [
                Call(
                    op=put.op_id,
                    verb=put.method,
                    path=put.path,
                    params={own_key: tla_id},
                    own_key=own_key,
                )
                for _ in range(k)
            ]
            calls[pos:pos] = block
        out.append(CallSequence(calls=calls))
    return out


@dataclass(frozen=True)
class CoverageReport:
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

    The synthetic sink and its edges are excluded. A transition is a
    (source, target) pair, so parallel edges merged into one pair count
    once however many labels they carry.
    """
    sink = graph.super_final
    visited_states = set()
    visited_pairs = set()
    for path in paths:
        for s in path:
            if s != sink:
                visited_states.add(s)
        for u, v in zip(path, path[1:]):
            if v != sink:
                visited_pairs.add((u, v))
    return CoverageReport(
        path_count=len(paths),
        states_covered=len(visited_states),
        states_total=graph.n_states - 1,
        transitions_covered=len(visited_pairs),
        transitions_total=sum(v != sink for _, v in graph.edge_labels),
    )


def sequences_to_json(sequences: list[CallSequence], seed: int) -> str:
    doc = {
        "seed": seed,
        "sequences": [{"calls": [c.to_json() for c in s.calls]} for s in sequences],
    }
    return json.dumps(doc, indent=2) + "\n"


def _expect(node, kind: type, where: str):
    if not isinstance(node, kind):
        name = {dict: "an object", list: "a list", str: "a string"}[kind]
        raise ValueError(f"{where}: expected {name}")
    return node


def sequences_from_json(text: str) -> tuple[int, list[CallSequence]]:
    """Read a sequence file. A malformed shape raises ValueError naming
    where it is, as in 'sequences[0].calls[2]: expected an object'."""
    doc = _expect(json.loads(text), dict, "top level")
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
        sequences.append(CallSequence(calls=calls))
    try:
        seed = int(doc.get("seed", 0))
    except (TypeError, ValueError):
        raise ValueError(f"seed: expected an integer, got {doc['seed']!r}") from None
    return seed, sequences
