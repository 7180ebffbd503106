"""State-space graph ingestion.

Parses the DOT subset that model-checker dumps use (node and edge statements
with optional label attributes), deduplicates repeated statements, and builds
a dense-index graph with a synthetic super-final sink so that every final
state funnels into a single traversal target. A final state is one whose
label matches `final = TRUE`; self-loops are rejected; and the one
validation checks that every state is reachable from the initial state and
co-reachable to the sink.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable


_FINAL = re.compile(r"final\s*=\s*TRUE")


class DotParseError(ValueError):
    """Malformed DOT input; carries the 1-based source line."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class GraphError(ValueError):
    pass


@dataclass(frozen=True)
class NodeStatement:
    node_id: str
    label: str | None


@dataclass(frozen=True)
class EdgeStatement:
    src: str
    dst: str
    label: str | None


@dataclass
class RawGraph:
    """Statement-level view of a dump, duplicates preserved."""

    name: str
    nodes: list[NodeStatement] = field(default_factory=list)
    edges: list[EdgeStatement] = field(default_factory=list)

    def statement_count(self) -> int:
        return len(self.nodes) + len(self.edges)

    def state_ids(self) -> list[str]:
        """Distinct ids in dense-index order: numeric ids ascending by value,
        then string ids lexicographically. Independent of statement layout,
        so a reordered or deduplicated dump maps to the same dense indices.
        """
        seen: set[str] = set()
        for n in self.nodes:
            seen.add(n.node_id)
        for e in self.edges:
            seen.add(e.src)
            seen.add(e.dst)
        numeric = sorted((s for s in seen if re.fullmatch(r"\d+", s)), key=int)
        textual = sorted(s for s in seen if not re.fullmatch(r"\d+", s))
        return numeric + textual


_STRING_PREFIX = re.compile(r'"[^"\\\n]*(?:\\.[^"\\\n]*)*', re.DOTALL)
# A bad '"' or '/*' starts a malformed string or an unterminated comment.
_TOKEN = re.compile(
    r"""(?P<skip>(?:[ \t\r\n]+|//[^\n]*|/\*.*?\*/)+)
    |(?P<str>%s")
    |(?P<num>-?\d+(?:\.\d+)?)
    |(?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    |(?P<punct>->|[{}\[\]=,;])
    |(?P<bad>.)""" % _STRING_PREFIX.pattern,
    re.VERBOSE | re.DOTALL,
)
# \" and \\ are decoded, and \n to the line break it stands for, so that a
# literal backslash before n stays apart from it; DOT keeps every other
# escape literally.
_ESCAPE = re.compile(r'\\(["\\n])')
_DECODED = {'"': '"', "\\": "\\", "n": "\n"}


def _error(text: str, offset: int, message: str) -> DotParseError:
    return DotParseError(message, text.count("\n", 0, offset) + 1)


def _reject_string(text: str, offset: int) -> None:
    """Raise the error of the malformed quoted string that starts at offset."""
    end = _STRING_PREFIX.match(text, offset).end()
    if end == len(text):
        raise _error(text, offset, "unterminated string")
    if text[end] == "\n":
        raise _error(text, offset, "newline inside quoted string")
    raise _error(text, end, "dangling escape at end of input")


def _tokens(text: str):
    """Yield (kind, value, offset) lazily, then ("eof", "", len(text)).

    A punctuation token's kind is its own text; a string's value is decoded.
    An unterminated comment raises only when the parser pulls it, and a
    malformed string only when the parser reads it as an id or value, so the
    first error in reading order wins.
    """
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "skip":
            continue
        if kind == "bad" and text.startswith("/*", m.start()):
            raise _error(text, m.start(), "unterminated block comment")
        value = m.group()
        if kind == "punct":
            kind = value
        elif kind == "str":
            value = _ESCAPE.sub(lambda e: _DECODED[e.group(1)], value[1:-1])
        yield kind, value, m.start()
    yield "eof", "", len(text)


class _Parser:
    """Recursive descent over the token stream; kind, value and at describe
    the current token."""

    def __init__(self, text: str):
        self.text = text
        self._tokens = _tokens(text)
        self.advance()

    def advance(self) -> None:
        self.kind, self.value, self.at = next(self._tokens)

    def error(self, message: str) -> DotParseError:
        return _error(self.text, self.at, message)

    def accept(self, punct: str) -> bool:
        if self.kind != punct:
            return False
        self.advance()
        return True

    def take(self, kinds: tuple[str, ...], what: str) -> str:
        if self.kind not in kinds:
            if "str" in kinds and self.text.startswith('"', self.at):
                _reject_string(self.text, self.at)
            raise self.error(f"expected {what}")
        value = self.value
        self.advance()
        return value

    def label(self) -> str | None:
        """Parse an optional [k=v, ...] list; return the label value if present."""
        if not self.accept("["):
            return None
        label = None
        while True:
            name = self.take(("ident",), "attribute name")
            self.take(("=",), "'=' after attribute name")
            value = self.take(("ident", "num", "str"), "attribute value")
            if name == "label":
                label = value
            if not self.accept(","):
                self.take(("]",), "']' or ',' in attribute list")
                return label


def parse_dot(text: str) -> RawGraph:
    """Parse one digraph in the supported DOT subset, preserving duplicates."""
    p = _Parser(text)
    if p.kind == "eof":
        raise p.error("empty input")
    if p.kind != "ident" or p.value != "digraph":
        raise p.error("expected 'digraph'")
    p.advance()
    name = ""
    if p.kind == "ident":
        name = p.value
        p.advance()
    elif p.kind != "{":
        raise p.error("expected graph name or '{'")
    p.take(("{",), "'{' opening the graph body")
    graph = RawGraph(name=name)
    while not p.accept("}"):
        if p.kind == "eof":
            raise p.error("unterminated graph body")
        first = p.take(("num", "str"), "a state id (decimal integer or quoted string)")
        if p.accept("->"):
            second = p.take(("num", "str"), "destination id after '->'")
            graph.edges.append(EdgeStatement(first, second, p.label()))
        else:
            graph.nodes.append(NodeStatement(first, p.label()))
        p.accept(";")
    if p.kind != "eof":
        if text.startswith("digraph", p.at):
            raise p.error("multiple digraphs in one document")
        raise p.error("trailing content after graph body")
    return graph


_LABEL_SPECIAL = re.compile(r'\\[lr\n]|["\\\n]')
_ENCODED = {'"': '\\"', "\\": "\\\\", "\n": "\\n"}


def _escape_label(text: str) -> str:
    """Inverse of parse_dot's decoding: '"', backslashes and line breaks are
    escaped, except a backslash before l, r or a line break, which parse_dot
    keeps as written."""
    return _LABEL_SPECIAL.sub(lambda m: _ENCODED.get(m.group(), m.group()), text)


def _format_id(raw_id: str) -> str:
    if re.fullmatch(r"\d+", raw_id):
        return raw_id
    return '"%s"' % _escape_label(raw_id)


def emit_dot(graph: RawGraph) -> str:
    """Write a RawGraph back out in the same subset, one statement per line."""
    lines = ["digraph %s {" % (graph.name or "G")]
    for n in graph.nodes:
        if n.label is None:
            lines.append(f"{_format_id(n.node_id)};")
        else:
            lines.append(f'{_format_id(n.node_id)} [label="{_escape_label(n.label)}"];')
    for e in graph.edges:
        arrow = f"{_format_id(e.src)} -> {_format_id(e.dst)}"
        if e.label is None:
            lines.append(f"{arrow};")
        else:
            lines.append(f'{arrow} [label="{_escape_label(e.label)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def clean(graph: RawGraph) -> RawGraph:
    """Drop duplicate statements, keeping first occurrences in order."""
    return RawGraph(
        name=graph.name,
        nodes=list(dict.fromkeys(graph.nodes)),
        edges=list(dict.fromkeys(graph.edges)),
    )


@dataclass
class StateSpaceGraph:
    """Dense-index directed graph with a super-final sink at index n-1.

    Parallel edges are merged; edge_labels maps (src, dst) to the sorted
    tuple of labels the merged edge carries (possibly empty).
    """

    n_states: int
    out_adj: list[list[int]]
    in_adj: list[list[int]]
    edge_labels: dict[tuple[int, int], tuple[str, ...]]
    initial: int
    finals: tuple[int, ...]
    super_final: int
    raw_ids: list[str]

    def edge_count(self) -> int:
        return sum(len(a) for a in self.out_adj)

    def least_label(self, u: int, v: int) -> str | None:
        labels = self.edge_labels.get((u, v), ())
        return labels[0] if labels else None


def _bfs_set(adj: list[list[int]], start: int) -> set[int]:
    seen = {start}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return seen


def _fmt_ids(ids: Iterable[str], cap: int = 12) -> str:
    ids = list(ids)
    shown = ", ".join(ids[:cap])
    if len(ids) > cap:
        shown += f", ... ({len(ids)} total)"
    return shown


def build(raw: RawGraph, *, initial: str | None = None, prune: bool = False) -> StateSpaceGraph:
    """Build a StateSpaceGraph from raw statements.

    The initial state is either the explicitly flagged raw id or the unique
    in-degree-zero state. Final states are those whose label matches
    `final = TRUE`; a super-final sink is appended with an edge from every
    final state. Self-loops are rejected. Every state must be reachable from
    the initial state and co-reachable to the sink, unless prune=True drops
    the offenders instead. Adjacency lists come out ascending and mutually
    dual, with the sink last and without out-edges.
    """
    if not raw.nodes and not raw.edges:
        raise GraphError("empty graph: no statements")

    ids = raw.state_ids()
    index_of = {rid: i for i, rid in enumerate(ids)}
    n_real = len(ids)

    labels: list[str | None] = [None] * n_real
    for n in raw.nodes:
        i = index_of[n.node_id]
        if labels[i] is None and n.label is not None:
            labels[i] = n.label

    merged: dict[tuple[int, int], set[str]] = {}
    for e in raw.edges:
        key = (index_of[e.src], index_of[e.dst])
        bucket = merged.setdefault(key, set())
        if e.label is not None:
            bucket.add(e.label)

    self_loops = sorted({u for (u, v) in merged if u == v})
    if self_loops:
        raise GraphError(
            "self-loops rejected: " + _fmt_ids(ids[u] for u in self_loops)
        )

    in_degree = [0] * n_real
    for (_, v) in merged:
        in_degree[v] += 1

    if initial is not None:
        if initial not in index_of:
            raise GraphError(f"flagged initial state {initial!r} not present")
        init_idx = index_of[initial]
    else:
        candidates = [i for i in range(n_real) if in_degree[i] == 0]
        if len(candidates) != 1:
            raise GraphError(
                "initial state not unique; in-degree-zero candidates: "
                + (_fmt_ids(ids[i] for i in candidates) if candidates else "(none)")
            )
        init_idx = candidates[0]

    finals = [i for i in range(n_real) if labels[i] is not None and _FINAL.search(labels[i])]
    if not finals:
        raise GraphError("no final states: no state label matches 'final = TRUE'")

    sink = n_real
    n = n_real + 1
    out_adj: list[list[int]] = [[] for _ in range(n)]
    in_adj: list[list[int]] = [[] for _ in range(n)]
    edge_labels: dict[tuple[int, int], tuple[str, ...]] = {}
    for (u, v), label_set in merged.items():
        out_adj[u].append(v)
        in_adj[v].append(u)
        edge_labels[(u, v)] = tuple(sorted(label_set))
    for f in finals:
        out_adj[f].append(sink)
        in_adj[sink].append(f)
        edge_labels[(f, sink)] = ()
    for u in range(n):
        out_adj[u].sort()
        in_adj[u].sort()

    reach = _bfs_set(out_adj, init_idx)
    coreach = _bfs_set(in_adj, sink)
    keep = reach & coreach
    offenders = [i for i in range(n_real) if i not in keep]
    if offenders:
        if not prune:
            raise GraphError(
                "validation failed; states not both reachable and co-reachable: "
                + _fmt_ids(ids[i] for i in offenders)
            )
        if init_idx not in keep:
            raise GraphError("initial state itself is not co-reachable; nothing to keep")
        kept_set = {ids[i] for i in keep if i < n_real}
        filtered = RawGraph(
            name=raw.name,
            nodes=[s for s in raw.nodes if s.node_id in kept_set],
            edges=[e for e in raw.edges if e.src in kept_set and e.dst in kept_set],
        )
        return build(filtered, initial=ids[init_idx])

    return StateSpaceGraph(
        n_states=n,
        out_adj=out_adj,
        in_adj=in_adj,
        edge_labels=edge_labels,
        initial=init_idx,
        finals=tuple(finals),
        super_final=sink,
        raw_ids=ids,
    )
