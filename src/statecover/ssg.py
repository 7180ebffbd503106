r"""State-space graph ingestion.

Parses the DOT subset that model-checker dumps use (node and edge statements
with optional label attributes), deduplicates repeated statements, and builds
a dense-index graph of labelled transitions (source, label, target), with a
synthetic super-final sink so that every final state funnels into a single
traversal target. Each distinct label is decoded and parsed once, at build,
by `parse_label`, and a transition's label is its parsed form: `a(x)` and
`a( x )` are one transition, as are `f` and `f()`. A final state is one whose label matches `final = TRUE`;
self-loops are rejected; and the one validation checks that every state is
reachable from the initial state and co-reachable to the sink.

A statement holds its text as written: each id its token, quotes included,
and its label a quoted value's body, escapes untouched, or an unquoted value
as it is. So `clean` writes every statement back byte for byte, and
deduplicates by spelling: labels `"\\q"` and `"\q"`, which read alike, stay
two statements, as do ids `"7"` and `7`. Parsing keeps text; `build` decodes
it where it reads ids and labels (`_unquote`); and the writers encode the
text they make (`_escape_label`, the exact inverse), as
`lifecycle.Exploration.dot_lines` does.

`parse_dot` has two readers. The line path takes a dump whose closing `}`
stands alone on its line, after only spaces, tabs and carriage returns. It
reads the body after the `digraph NAME {` header in batches of whole lines:
a batch ends at the first line break after `_BATCH` characters, so the
lines of all batches, joined, are the body split on line breaks, and
parsing holds the lines of one batch at a time. The maps it keeps are
shared across batches: every distinct line read so far to its edge, or to
None for a node or a blank line, and each node line to its node; each
distinct rest of a line after its ids to its label; and each distinct id
token to itself, so that every statement naming an id holds one string. A
line repeated in a later batch is therefore read once. A batch joins its
new distinct lines that are not blank and reads them all in one `findall`
of `_HEAD`, which takes a line's ids and leaves the rest of the line; it
parses each new distinct rest (attribute list, `;` and comments) once with
`_TAIL`, as a model checker's edges share a few attribute lists; then it
appends the statement of each of its lines to the nodes or the edges.
Every line must be one statement, `id [-> id] [attr list] [;]`: a line
without a match of `_HEAD`, or whose rest `_TAIL` rejects, sends the text
from the start to `_parse_tokens`, a recursive descent over single tokens,
which is the reference for what the subset accepts and the only source of
`DotParseError` messages and lines.

No match of `_HEAD` crosses a line: none of its pieces takes a line break,
so each match runs from the start of one joined line to its end, and a line
has at most one. A batch's `findall` reads only that batch's joined lines,
so the rule holds batch by batch: as many matches as lines in the batch
means the i-th match is that of its i-th line.

The two readers agree. On a line the line path reads, every string and
comment closes on that line, so each line starts and ends outside strings
and comments, and the token parser splits it into the same tokens. A
statement continued on the next line always leaves a line that is not one
statement, as only `->`, `[` or `;` may follow an id or a `]` within a
statement. The closing `}` must be alone on its line, since a line comment
before it would hide it. A repeated line or rest parses to an equal,
immutable value, so sharing it is exact.

Statements (`NodeStatement`, `EdgeStatement`) and the `RawGraph` that
holds them are named tuples: building, hashing and comparing one runs in C,
and `clean` hashes every statement of a dump. A node never equals an edge,
as their lengths differ, and a RawGraph equals a plain tuple of its name,
nodes and edges.

`dot_lines` is the one DOT writer, a line at a time from (id, label) nodes
and (src, dst, label) edges that are already DOT text; `emit_dot` joins the
lines of a RawGraph's statements.
"""

from __future__ import annotations

import functools
import re
from collections import deque
from itertools import compress, filterfalse, islice, repeat
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, Sequence


_FINAL = re.compile(r"final\s*=\s*TRUE")


# The dense-index order of decoded ids: decimal ids ascending by value,
# equal values (`7`, `07`) by text, then the other ids lexicographically.
# Decimal means ASCII digits only, as DOT's numerals are.
def _id_order(state_id: str) -> tuple:
    if state_id.isascii() and state_id.isdigit():
        return 0, int(state_id), state_id
    return 1, 0, state_id


# An edge label: an action name, then its arguments in parentheses.
_LABEL_RE = re.compile(r"^(\w+)\s*(?:\((.*)\))?$")


class DotParseError(ValueError):
    """Malformed DOT input; carries the 1-based source line."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class GraphError(ValueError):
    pass


class NodeStatement(NamedTuple):
    node_id: str
    label: str | None


class EdgeStatement(NamedTuple):
    src: str
    dst: str
    label: str | None


class RawGraph(NamedTuple):
    """Statement-level view of a dump, duplicates preserved, every id token
    and label as written."""

    name: str
    nodes: Sequence[NodeStatement] = ()
    edges: Sequence[EdgeStatement] = ()

    def statement_count(self) -> int:
        return len(self.nodes) + len(self.edges)

    def state_ids(self) -> dict[str, str]:
        """Each distinct id token -> its id, a quoted token decoded, in
        dense-index order of the ids (`_id_order`), tokens of one id by
        text. Independent of statement layout and of set iteration order,
        so a reordered or deduplicated dump maps to the same dense indices
        in every process.
        """
        tokens = {n.node_id for n in self.nodes}
        tokens.update(map(itemgetter(0), self.edges), map(itemgetter(1), self.edges))
        ids = [(_unquote(t[1:-1]) if t[:1] == '"' else t, t) for t in tokens]
        ids.sort(key=lambda pair: (*_id_order(pair[0]), pair[1]))
        return {token: state_id for state_id, token in ids}


_STRING_PREFIX = re.compile(r'"[^"\\\n]*(?:\\.[^"\\\n]*)*', re.DOTALL)
# Token shapes shared by the token parser and the line path, so that both
# split a text at the same places (the line path's ids narrow `_NUM`).
_STR = _STRING_PREFIX.pattern + '"'
_NUM = r"-?\d+(?:\.\d+)?"
_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
# A bad '"' or '/*' starts a malformed string or an unterminated comment.
_TOKEN = re.compile(
    r"""(?P<skip>(?:[ \t\r\n]+|//[^\n]*|/\*.*?\*/)+)
    |(?P<str>%s)
    |(?P<num>%s)
    |(?P<ident>%s)
    |(?P<punct>->|[{}\[\]=,;])
    |(?P<bad>.)""" % (_STR, _NUM, _IDENT),
    re.VERBOSE | re.DOTALL,
)

# The patterns of the header, the closing '}' and the line path. Whitespace
# and comments are skipped by pieces that each match one length only: a
# whitespace run to its end, a line comment to the line end, a block comment
# to its first '*/'. Backtracking can therefore neither end a comment early
# and read an id out of it, nor run a block comment past its '*/', nor split
# a whitespace run in exponentially many ways before failing.
_SKIP = r"(?:[ \t\r\n]+(?![ \t\r\n])|//[^\n]*(?![^\n])|/\*[^*]*\*+(?:[^*/][^*]*\*+)*/)*"
_HEADER = re.compile(
    _SKIP + "digraph(?![A-Za-z0-9_])" + _SKIP + "(" + _IDENT + ")?" + _SKIP + "[{]",
    re.DOTALL,
)
# The line path reads the distinct lines of a body joined by line breaks in
# one pass of `_HEAD`, which matches each line from its start to its end. Its
# skip is `_SKIP` without line breaks: a whitespace run, then comments each
# followed by a whitespace run. Without DOTALL neither a string's escape nor
# the rest of the line takes a line break either, so no match crosses a line.
# Groups: the first id; the second id of an edge, or ''; the rest of the
# line.
#
# The line path's numbers take ASCII digits only, which the regex engine
# matches faster than \d. A number with another digit leaves text that
# `_TAIL` rejects, or no match, so such a dump goes to the token parser.
_LINE_NUM = r"-?[0-9]+(?:\.[0-9]+)?"
_LINE_SPACE = r"[ \t\r]*(?![ \t\r])"
_LINE_SKIP = r"{W}(?:(?://[^\n]*(?![^\n])|/\*[^*\n]*\*+(?:[^*/\n][^*\n]*\*+)*/){W})*".format(
    W=_LINE_SPACE)
_LINE_ID = "(?:%s|%s)" % (_LINE_NUM, _STR)
_HEAD = re.compile(
    r"^{S}({ID}){S}(?:->{S}({ID}){S})?(.*)$".format(S=_LINE_SKIP, ID=_LINE_ID), re.MULTILINE
)
# The rest of a statement line: an optional attribute list, then an optional
# ';', each followed by skip. Groups: the value of the first attribute if it
# is a label; the value of the last label among the later attributes, which
# wins. Each piece is decided by the text at its own start, never by the
# character before it, which may end a comment that backtracking gave up.
_VALUE = "(?:%s|%s|%s)" % (_STR, _LINE_NUM, _IDENT)
_ATTR = "(?:label{S}={S}({V})|{I}{S}={S}{V})".format(S=_SKIP, V=_VALUE, I=_IDENT)
_TAIL = re.compile(
    r"(?:\[{S}{A}{S}(?:,{S}{A}{S})*\]{S})?(?:;{S})?".format(S=_SKIP, A=_ATTR), re.DOTALL
)
_END = re.compile(_SKIP + "[}]" + _SKIP + r"\Z", re.DOTALL)


def _unquote(body: str) -> str:
    r"""The text of a quoted string, given its body between the quotes.

    \" and \\ are decoded, and \n to the line break it stands for; DOT
    keeps every other escape literally. Splitting on \\ first pairs
    backslashes from the left, as reading the escapes in order does, so
    every backslash left in a piece starts an escape, and \" and \n are
    replaced with plain string methods; the pieces are joined by the one
    backslash that each \\ stands for.
    """
    return "\\".join([piece.replace('\\"', '"').replace("\\n", "\n")
                      for piece in body.split("\\\\")])


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

    The tokens of `_parse_tokens`, the reference parser that reads what the
    line path of `parse_dot` cannot and reports every error. A
    punctuation token's kind is its own text; a string's value is its token,
    quotes included.
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
                label = value[1:-1] if value[0] == '"' else value
            if not self.accept(","):
                self.take(("]",), "']' or ',' in attribute list")
                return label


def _parse_tokens(text: str) -> RawGraph:
    """Parse one digraph token by token: the reference for `parse_dot`, and
    the reader of every text its line path cannot read."""
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
    graph = RawGraph(name, [], [])
    ids = _Ids()
    while not p.accept("}"):
        if p.kind == "eof":
            raise p.error("unterminated graph body")
        first = ids[p.take(("num", "str"), "a state id (decimal integer or quoted string)")]
        if p.accept("->"):
            second = ids[p.take(("num", "str"), "destination id after '->'")]
            graph.edges.append(EdgeStatement(first, second, p.label()))
        else:
            graph.nodes.append(NodeStatement(first, p.label()))
        p.accept(";")
    if p.kind != "eof":
        if text.startswith("digraph", p.at):
            raise p.error("multiple digraphs in one document")
        raise p.error("trailing content after graph body")
    return graph


# The line path reads a body in batches of whole lines: a batch ends at the
# first line break after this many characters.
_BATCH = 1 << 16


class _Ids(dict):
    """Id token -> itself, so that every statement naming it holds one string."""

    def __missing__(self, token: str) -> str:
        self[token] = token
        return token


def _read_lines(text: str, at: int, stop: int) -> tuple[list, list] | None:
    """The node and edge statements of the lines of text[at:stop] if every
    line is blank or one statement, else None. The lines are read in
    batches, and each distinct line, rest and id token is read once."""
    # every distinct line read so far -> its edge, or None for a node or a
    # blank line; each node line -> its node
    edge_at: dict[str, EdgeStatement | None] = {}
    node_at: dict[str, NodeStatement] = {}
    labels: dict[str, str | None] = {}
    ids = _Ids()
    nodes: list[NodeStatement] = []
    edges: list[EdgeStatement] = []
    make = tuple.__new__  # skips the named tuples' Python __new__
    while True:
        end = text.find("\n", at + _BATCH, stop)
        if end < 0:
            end = stop
        lines = text[at:end].split("\n")
        # setdefault adds each line not read before to edge_at, and insertion
        # order puts those last; the ones that are not blank are matched
        known = len(edge_at)
        deque(map(edge_at.setdefault, lines), 0)  # runs the map in C
        new = [*islice(reversed(edge_at), len(edge_at) - known)][::-1]
        keys = [*compress(new, map(str.strip, new, repeat(" \t\r")))]
        heads = _HEAD.findall("\n".join(keys))
        # a line without a match leaves fewer matches than lines; otherwise the
        # i-th match is that of the i-th line
        if len(heads) != len(keys):
            return None
        for rest in filterfalse(labels.__contains__, map(itemgetter(2), heads)):
            m = _TAIL.fullmatch(rest)
            if m is None:
                return None
            label, later = m.groups()
            if later is not None:
                label = later
            if label is not None and label[0] == '"':
                label = label[1:-1]
            labels[rest] = label
        for line, (first, second, rest) in zip(keys, heads):
            if second:
                edge_at[line] = make(EdgeStatement, (ids[first], ids[second], labels[rest]))
            else:
                node_at[line] = make(NodeStatement, (ids[first], labels[rest]))
        del keys, heads
        nodes += filter(None, map(node_at.get, lines))
        edges += filter(None, map(edge_at.get, lines))
        if end == stop:
            return nodes, edges
        at = end + 1


def parse_dot(text: str) -> RawGraph:
    """Parse one digraph in the supported DOT subset, preserving duplicates.

    A dump whose body lines are each blank or one statement, closed by a
    `}` alone on its line, is read by the line path, in batches of whole
    lines; `_parse_tokens` reads any other text and raises every error (see
    the module docstring for why the two agree).
    """
    head = _HEADER.match(text)
    if head is not None:
        at = head.end()
        close = text.rfind("}")
        stop = text.rfind("\n", at, close) if close > at else -1
        if stop >= 0 and not text[stop + 1:close].strip(" \t\r") and _END.match(text, close):
            statements = _read_lines(text, at, stop)
            if statements is not None:
                return RawGraph(head.group(1) or "", *statements)
    return _parse_tokens(text)


def _escape_label(text: str) -> str:
    """The body of a quoted string that `_unquote` decodes to text: every
    backslash doubled, and '"' and line breaks escaped."""
    return text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def dot_lines(name: str, nodes: Iterable[tuple[str, str | None]],
              edges: Iterable[tuple[str, str, str | None]]) -> Iterator[str]:
    """The DOT text of a graph in the same subset, one statement per line,
    each with its line break. Ids and labels are DOT text, written as given:
    a label is the body of a quoted string, or None where there is none."""
    yield "digraph %s {\n" % (name or "G")
    for node_id, label in nodes:
        if label is None:
            yield f"{node_id};\n"
        else:
            yield f'{node_id} [label="{label}"];\n'
    for src, dst, label in edges:
        if label is None:
            yield f"{src} -> {dst};\n"
        else:
            yield f'{src} -> {dst} [label="{label}"];\n'
    yield "}\n"


def emit_dot(graph: RawGraph) -> str:
    """Write a RawGraph back out in the same subset, one statement per line,
    every id token and label as written."""
    return "".join(dot_lines(graph.name, graph.nodes, graph.edges))


def clean(graph: RawGraph) -> RawGraph:
    """Drop duplicate statements, keeping first occurrences in order."""
    return RawGraph(
        name=graph.name,
        nodes=list(dict.fromkeys(graph.nodes)),
        edges=list(dict.fromkeys(graph.edges)),
    )


# A parsed edge label: the action name and its arguments.
Label = tuple[str, tuple[str, ...]]


def parse_label(label: str) -> Label | None:
    """Split an edge label like 'postEnrolment(e1,p1,t1)' into name and args."""
    m = _LABEL_RE.match(label.strip())
    if not m:
        return None
    name, raw_args = m.groups()
    if raw_args is None or raw_args.strip() == "":
        return name, ()
    return name, tuple(a.strip() for a in raw_args.split(","))


class StateSpaceGraph(NamedTuple):
    """Dense-index directed graph with a super-final sink at index n-1.

    labels maps (src, dst) to its transitions' distinct parsed labels in
    ascending order, or () if it has none. out_adj[u] lists v once per label of (u, v), or
    once if it has none; in_adj[v] lists u the same way.
    """

    n_states: int
    out_adj: list[list[int]]
    in_adj: list[list[int]]
    labels: dict[tuple[int, int], tuple[Label, ...]]
    initial: int
    finals: tuple[int, ...]
    super_final: int
    raw_ids: list[str]

    def edge_count(self) -> int:
        return sum(len(a) for a in self.out_adj)


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

    Ids are read decoded (`RawGraph.state_ids`), so `"7"` and `7` name one
    state. The initial state is either the explicitly flagged raw id or the
    unique in-degree-zero state. Final states are those whose label matches
    `final = TRUE`; a super-final sink is appended with an edge from every
    final state. Self-loops are rejected. Every state must be reachable from
    the initial state and co-reachable to the sink, unless prune=True drops
    the offenders instead. Adjacency lists come out ascending and mutually
    dual, with the sink last and without out-edges. Every distinct label is
    decoded and parsed once, and the labels of a pair that parse alike are one;
    an unreadable label fails only if its edge is kept. An empty label is no
    label.
    """
    if not raw.nodes and not raw.edges:
        raise GraphError("empty graph: no statements")

    # each token's dense index: tokens of one id, such as "7" and 7, share it
    tokens = raw.state_ids()
    ids = [*dict.fromkeys(tokens.values())]
    index_of = {rid: i for i, rid in enumerate(ids)}
    at = {token: index_of[rid] for token, rid in tokens.items()}
    n_real = len(ids)

    labels: list[str | None] = [None] * n_real
    for n in raw.nodes:
        i = at[n.node_id]
        if labels[i] is None and n.label is not None:
            labels[i] = n.label

    # a pair's distinct labels by parsed form, each distinct label decoded and
    # parsed once; an unreadable one stays text and is refused if its edge is kept
    read = functools.cache(lambda label: parse_label(text := _unquote(label)) or text)
    pairs: dict[tuple[int, int], set] = {}
    for e in raw.edges:
        forms = pairs.setdefault((at[e.src], at[e.dst]), set())
        if e.label:
            forms.add(read(e.label))

    self_loops = sorted({u for (u, v) in pairs if u == v})
    if self_loops:
        raise GraphError(
            "self-loops rejected: " + _fmt_ids(ids[u] for u in self_loops)
        )

    if initial is not None:
        if initial not in index_of:
            raise GraphError(f"flagged initial state {initial!r} not present")
        init_idx = index_of[initial]
    else:
        targets = {v for (_, v) in pairs}
        candidates = [i for i in range(n_real) if i not in targets]
        if len(candidates) != 1:
            raise GraphError(
                "initial state not unique; in-degree-zero candidates: "
                + (_fmt_ids(ids[i] for i in candidates) if candidates else "(none)")
            )
        init_idx = candidates[0]

    finals = [i for i, t in enumerate(labels) if t is not None and _FINAL.search(_unquote(t))]
    if not finals:
        raise GraphError("no final states: no state label matches 'final = TRUE'")

    sink = n_real
    n = n_real + 1
    out_adj: list[list[int]] = [[] for _ in range(n)]
    in_adj: list[list[int]] = [[] for _ in range(n)]
    for (u, v), forms in pairs.items():
        out_adj[u] += [v] * (len(forms) or 1)
        in_adj[v] += [u] * (len(forms) or 1)
    for f in finals:
        out_adj[f].append(sink)
        in_adj[sink].append(f)
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
        kept = {token for token, i in at.items() if i in keep}
        filtered = RawGraph(
            name=raw.name,
            nodes=[s for s in raw.nodes if s.node_id in kept],
            edges=[e for e in raw.edges if e.src in kept and e.dst in kept],
        )
        return build(filtered, initial=ids[init_idx])

    pair_labels: dict[tuple[int, int], tuple[Label, ...]] = {(f, sink): () for f in finals}
    for (u, v), forms in pairs.items():
        unreadable = sorted(f for f in forms if isinstance(f, str))
        if unreadable:
            raise GraphError(f"edge {ids[u]} -> {ids[v]}: cannot read label "
                             f"{unreadable[0]!r} as name(arg, ...)")
        pair_labels[u, v] = tuple(sorted(forms))
    return StateSpaceGraph(
        n_states=n,
        out_adj=out_adj,
        in_adj=in_adj,
        labels=pair_labels,
        initial=init_idx,
        finals=tuple(finals),
        super_final=sink,
        raw_ids=ids,
    )
