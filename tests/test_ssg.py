from __future__ import annotations

import dataclasses
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from statecover import ssg
from statecover.lifecycle import explore, load_model
from statecover.ssg import (
    DotParseError,
    EdgeStatement,
    GraphError,
    NodeStatement,
    RawGraph,
    build,
    clean,
    emit_dot,
    parse_dot,
)

from helpers import (
    assert_graph_laws,
    build_random_dag,
    fixture_doc,
    make_random_dag_raw,
    tournaments_raw,
)


REFERENCE = ssg._parse_tokens


DIAMOND = """
digraph G {
  0 [label="final = FALSE"];
  1 [label="final = FALSE"];
  2 [label="final = FALSE"];
  3 [label="final = TRUE"];
  0 -> 1 [label="a(x)"];
  0 -> 2 [label="b(x)"];
  1 -> 3 [label="c(x)"];
  2 -> 3 [label="d(x)"];
}
"""


class TestParseDot:
    def test_minimal_edge_only(self):
        raw = parse_dot("digraph G { 0 -> 1; }")
        assert raw.name == "G"
        assert raw.state_ids() == {"0": "0", "1": "1"}
        assert len(raw.edges) == 1
        assert raw.edges[0] == EdgeStatement("0", "1", None)

    def test_node_statements_with_labels(self):
        raw = parse_dot(DIAMOND)
        assert len(raw.nodes) == 4
        assert raw.nodes[3].label == "final = TRUE"
        assert len(raw.edges) == 4

    def test_comments_both_styles(self):
        text = """
        // leading comment
        digraph G {
          /* block
             comment */
          0 [label="final = FALSE"]; // trailing
          0 -> 1;
          1 [label="final = TRUE"];
        }
        """
        raw = parse_dot(text)
        assert len(raw.nodes) == 2
        assert len(raw.edges) == 1

    def test_quoted_string_ids(self):
        raw = parse_dot('digraph { "s0" -> "s1"; "s1" [label="final = TRUE"]; }')
        assert raw.edges == [EdgeStatement('"s0"', '"s1"', None)]
        assert raw.state_ids() == {'"s0"': "s0", '"s1"': "s1"}

    def test_ids_of_other_digits_sort_as_text(self):
        raw = parse_dot('digraph { "\u0663" -> "10"; "10" -> 9; "\u0662" -> "\u0663"; }')
        assert list(raw.state_ids().items()) == [
            ("9", "9"), ('"10"', "10"), ('"\u0662"', "\u0662"), ('"\u0663"', "\u0663")]

    def test_quoted_escapes(self):
        raw = parse_dot(r'digraph { 0 [label="a \"b\" /\ c"]; }')
        assert raw.nodes[0].label == r'a \"b\" /\ c'
        assert ssg._unquote(raw.nodes[0].label) == 'a "b" /\\ c'

    def test_non_label_attributes_ignored(self):
        raw = parse_dot('digraph { 0 -> 1 [color=red, label="go(x)", style=dotted]; }')
        assert raw.edges[0].label == "go(x)"

    def test_semicolons_optional(self):
        raw = parse_dot('digraph { 0 [label="x"] 0 -> 1 }')
        assert len(raw.nodes) == 1 and len(raw.edges) == 1

    def test_duplicates_preserved(self):
        raw = parse_dot("digraph { 0 -> 1; 0 -> 1; 0 -> 1; }")
        assert len(raw.edges) == 3

    def test_error_carries_line_number(self):
        with pytest.raises(DotParseError) as err:
            parse_dot("digraph G {\n  0 -> ;\n}")
        assert err.value.line == 2
        assert "destination" in str(err.value)

    def test_unterminated_string(self):
        with pytest.raises(DotParseError, match="unterminated string"):
            parse_dot('digraph { 0 [label="oops]; }')

    def test_unterminated_comment(self):
        with pytest.raises(DotParseError, match="unterminated block comment"):
            parse_dot("digraph { /* forever }")

    def test_multiple_digraphs_rejected(self):
        with pytest.raises(DotParseError, match="multiple digraphs"):
            parse_dot("digraph A { 0 -> 1; }\ndigraph B { 2 -> 3; }")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(DotParseError, match="trailing content"):
            parse_dot("digraph A { 0 -> 1; } stray")

    def test_not_a_digraph(self):
        with pytest.raises(DotParseError, match="expected 'digraph'"):
            parse_dot("graph G { }")

    def test_emit_parse_round_trip(self):
        raw = parse_dot(DIAMOND)
        again = parse_dot(emit_dot(raw))
        assert again.nodes == raw.nodes
        assert again.edges == raw.edges

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ('digraph {\n  0 [label="one\ntwo"];\n}', 2, "newline inside quoted string"),
            ('digraph {\n  0 [label="a\\\nb\\', 3, "dangling escape at end of input"),
            ("digraph {\n  0;\n  /* open\n  still open\n", 3, "unterminated block comment"),
            ("digraph {\n/* one\ntwo\n*/ 0 -> ;\n}", 4, "expected destination id after '->'"),
            ('digraph {\n  0 [label "x"];\n}', 2, "expected '=' after attribute name"),
            ("digraph G\n\n[", 3, "expected '{' opening the graph body"),
            ("", 1, "empty input"),
        ],
    )
    def test_error_lines_and_messages(self, text, line, message):
        with pytest.raises(DotParseError) as err:
            parse_dot(text)
        assert err.value.line == line
        assert str(err.value) == f"line {line}: {message}"

    def test_quoted_punctuation_is_an_id(self):
        raw = parse_dot('digraph { "->" -> "{"; "[" [label="]"]; }')
        assert raw.edges == [EdgeStatement('"->"', '"{"', None)]
        assert raw.nodes == [NodeStatement('"["', "]")]
        assert raw.state_ids() == {'"->"': "->", '"["': "[", '"{"': "{"}

    def test_escaped_newline_inside_quotes_is_kept(self):
        raw = parse_dot('digraph {\n  0 [label="a\\\nb"];\n}')
        assert raw.nodes[0].label == "a\\\nb"

    def test_literal_backslash_before_n_is_not_a_line_break(self):
        dot = 'digraph G {\n0 [label="a\\\\nb\\nc"];\n}\n'  # a\\nb\nc in the file
        raw = parse_dot(dot)
        assert raw.nodes[0].label == "a\\\\nb\\nc"
        assert ssg._unquote(raw.nodes[0].label) == "a\\nb\nc"
        assert emit_dot(clean(raw)) == dot

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_emit_parse_round_trip_property(self, seed):
        raw = make_random_dag_raw(random.Random(seed))
        # a label is the body of a quoted string, escapes as written
        awkward = 'say \\"hi\\" to a\\\\b\\n, \\\\l \\l \\q and \\\n'
        raw = RawGraph(
            name=raw.name,
            nodes=[NodeStatement(n.node_id, n.label + awkward) for n in raw.nodes],
            edges=[EdgeStatement(e.src, e.dst, awkward + e.label) for e in raw.edges],
        )
        again = parse_dot(emit_dot(raw))
        assert (again.nodes, again.edges) == (raw.nodes, raw.edges)


# The regex codec that `ssg` used before it decoded and encoded escapes with
# string methods: the reference for both directions.
_REF_ESCAPE = re.compile(r'\\(["\\n])')
_REF_DECODED = {'"': '"', "\\": "\\", "n": "\n"}
_REF_LABEL_SPECIAL = re.compile(r'["\\\n]')
_REF_ENCODED = {'"': '\\"', "\\": "\\\\", "\n": "\\n"}


def _ref_unquote(token):
    return _REF_ESCAPE.sub(lambda e: _REF_DECODED[e.group(1)], token[1:-1])


def _ref_escape_label(text):
    return _REF_LABEL_SPECIAL.sub(lambda m: _REF_ENCODED.get(m.group(), m.group()), text)


# what escapes are made of, and characters that are plain text either side
codec_text = st.text(alphabet=["\\", '"', "n", "l", "r", "\n", "\r", "\0", "a"], max_size=24)
# the body of a quoted label: DOT's escapes, one it does not know, and the
# letters they end in
label_body = st.lists(
    st.sampled_from(["\\\\", '\\"', "\\l", "\\r", "\\n", "\\q", "l", "r", "n", "a", " "]),
    max_size=8).map("".join)
# an id token: a quoted id with DOT's escapes, or a numeral, some of them
# equal in value (7, 07) and some spelled both ways (7, "7")
id_token = st.one_of(
    st.lists(st.sampled_from(["\\\\", '\\"', "\\l", "\\n", "l", "n", "a", " ", "-1"]),
             max_size=4).map(lambda body: '"%s"' % "".join(body)),
    st.sampled_from(["-12", "-3", "0", "7", "07", '"07"', '"7"', "1.5", "-0.25"]),
)


def _ref_id(token):
    return _ref_unquote(token) if token.startswith('"') else token


def _spellings(token):
    """The tokens of token's id: itself, its text quoted anew and, for a
    numeral, the numeral unquoted."""
    state_id = _ref_id(token)
    numeral = [state_id] if re.fullmatch(r"-?[0-9]+(?:\.[0-9]+)?", state_id) else []
    return sorted({token, '"%s"' % _ref_escape_label(state_id), *numeral})


class TestLabelCodec:
    @settings(max_examples=1000, deadline=None)
    @given(codec_text)
    @example("0123")
    @example("a\\\\\\nb\\\\\\\n\\l\\\\\\r")
    def test_string_methods_match_the_regex_codec(self, text):
        assert ssg._unquote(text) == _ref_unquote('"%s"' % text)
        assert ssg._escape_label(text) == _ref_escape_label(text)
        assert ssg._unquote(ssg._escape_label(text)) == text

    def test_a_literal_backslash_before_l_or_r_stays_apart_from_the_escape(self):
        bodies = ["a\\\\lb", "a\\lb", "a\\\\rb", "a\\rb"]  # a\\lb, a\lb, a\\rb, a\rb
        dot = "digraph G {\n" + "".join('0 [label="%s"];\n' % b for b in bodies) + "}\n"
        raw = parse_dot(dot)
        assert [n.label for n in raw.nodes] == bodies
        assert emit_dot(clean(raw)) == dot

    @settings(max_examples=300, deadline=None)
    @given(st.lists(label_body, min_size=3, max_size=7), st.booleans())
    def test_clean_writes_every_label_body_back_and_build_decodes_it(self, bodies, on_close):
        node, final, *edge_bodies = bodies
        lines = [f'0 [label="{node}"];', f'1 [label="{final} final = TRUE"];']
        lines += [f'0 -> 1 [label="{b}"];' for b in edge_bodies]
        # a statement on the closing line sends the text to the token parser
        dot = "digraph G {\n" + "\n".join(lines) + (" }\n" if on_close else "\n}\n")
        with _count_fallbacks() as fallback:
            raw = parse_dot(dot)
        assert fallback.call_count == on_close
        written = "".join(f"{line}\n" for line in dict.fromkeys(lines))
        assert emit_dot(clean(raw)) == "digraph G {\n" + written + "}\n"
        with mock.patch.object(ssg, "parse_label", return_value=("go", ())) as read, \
                mock.patch.object(ssg, "_FINAL", wraps=ssg._FINAL) as finals:
            assert build(raw).finals == (1,)
        assert [c.args[0] for c in read.call_args_list] == [
            ssg._unquote(b) for b in dict.fromkeys(edge_bodies) if b]
        assert [c.args[0] for c in finals.search.call_args_list] == [
            ssg._unquote(node), ssg._unquote(final) + " final = TRUE"]


    @settings(max_examples=300, deadline=None)
    @given(st.lists(id_token, min_size=3, max_size=6, unique_by=_ref_id), st.booleans(),
           st.data())
    def test_clean_writes_every_id_token_back_and_build_decodes_it(self, tokens, on_close,
                                                                   data):
        # a chain of states through the last, final one, with an edge from the
        # first into a dead end; each statement names its ids in drawn spellings
        *chain, dead = tokens

        def spell(token):
            return data.draw(st.sampled_from(_spellings(token)))

        lines = [f'{spell(t)} [label="final = {"TRUE" if t == chain[-1] else "FALSE"}"];'
                 for t in tokens]
        lines += [f'{spell(u)} -> {spell(v)} [label="go(x)"];' for u, v in zip(chain, chain[1:])]
        lines += [f"{spell(chain[0])} -> {spell(dead)};" for _ in range(2)]
        lines += data.draw(st.lists(st.sampled_from(lines), max_size=4))
        # a statement on the closing line sends the text to the token parser
        dot = "digraph G {\n" + "\n".join(lines) + (" }\n" if on_close else "\n}\n")
        with _count_fallbacks() as fallback:
            raw = parse_dot(dot)
        assert fallback.call_count == on_close
        written = "".join(f"{line}\n" for line in dict.fromkeys(lines))
        assert emit_dot(clean(raw)) == "digraph G {\n" + written + "}\n"
        with pytest.raises(GraphError, match="not both reachable"):
            build(raw)
        ids = [_ref_id(t) for t in tokens]
        kept = sorted(ids[:-1], key=lambda s: (0, int(s), s) if s.isdigit() else (1, 0, s))
        assert build(raw, prune=True).raw_ids == kept
        assert build(raw, initial=ids[0], prune=True).raw_ids == kept


class TestStatements:
    @pytest.mark.parametrize("cls, names, values", [
        (NodeStatement, ("node_id", "label"), ("0", None)),
        (NodeStatement, ("node_id", "label"), ("-12", '/\\ x = 1\n/\\ y = "a"')),
        (EdgeStatement, ("src", "dst", "label"), ("0", "1", None)),
        (EdgeStatement, ("src", "dst", "label"), ("s0", "s1", "postPlayer(p1)")),
    ])
    def test_repr_and_hash_match_a_frozen_dataclass(self, cls, names, values):
        twin = dataclasses.make_dataclass(cls.__name__, names, frozen=True)
        assert repr(cls(*values)) == repr(twin(*values))
        assert hash(cls(*values)) == hash(twin(*values))

    def test_a_node_never_equals_an_edge(self):
        assert NodeStatement("0", "1") != EdgeStatement("0", "1", None)
        assert NodeStatement("0", None) != EdgeStatement("0", None, None)
        assert len({NodeStatement("0", "1"), EdgeStatement("0", "1", None)}) == 2

    def test_keyword_construction(self):
        node = NodeStatement(node_id="3", label="final = TRUE")
        edge = EdgeStatement(src="2", dst="3", label="deletePlayer(p1)")
        assert (node.node_id, node.label) == ("3", "final = TRUE")
        assert (edge.src, edge.dst, edge.label) == ("2", "3", "deletePlayer(p1)")
        assert node == NodeStatement("3", "final = TRUE")
        assert edge == EdgeStatement("2", "3", "deletePlayer(p1)")


def _outcome(parse, text):
    """parse(text) as a comparable value: the graph, or the error's text and line."""
    try:
        return parse(text)
    except DotParseError as exc:
        return ("error", str(exc), exc.line)


def _count_fallbacks():
    return mock.patch.object(ssg, "_parse_tokens", wraps=REFERENCE)


_GAPS = st.sampled_from(
    ["", "", " ", "\n", "\r\n", "\t", "/* c */", "/**/", "/* * / **/", "/* a\n*/", "// c\n",
     "// [\n", "/*[*/"]
)
_IDS = st.sampled_from(["1", "-2", "07", "1.5", '"s"', '"a b"', '"x\\"y"', '"\\\\n\\l"', '"->"'])
_VALUES = st.sampled_from(["1", "-2", "1.5", '"go(x)"', '"a\\nb"', "red", "x_1"])
_NAMES = st.sampled_from(["label", "label", "labelx", "color", "_l"])
# Pieces that break or bend the grammar, and token boundaries that differ
# from what they look like.
_JUNK = st.sampled_from(
    ["digraphG", "digraph", "labelx", "1.", "12a", "[]", ",]", "[label=1,]", ",", "=",
     '"\\q"', '"open', '"a\\', '"\n"', "/*", "/* open", "//", "// end", "*/", "x", ".",
     "-", ">", "->", "}", "{", "[", "]", ";", "\r\n", "\r", "\f", "G", '"G"']
)
_CHARS = st.sampled_from(list('dgl{}[]=,;->" \\/*\n\r1.0_x'))


@st.composite
def dot_soup(draw):
    """A DOT-like text: a graph of random statements with random gaps and
    sometimes a missing comma, then a few junk pieces inserted or pieces
    deleted, then a few characters inserted or replaced."""
    pieces = [draw(_GAPS), "digraph", draw(_GAPS), draw(st.sampled_from(["", "G", "g_1"])),
              draw(_GAPS), "{"]
    for _ in range(draw(st.integers(0, 4))):
        pieces += [draw(_GAPS), draw(_IDS), draw(_GAPS)]
        if draw(st.booleans()):
            pieces += ["->", draw(_GAPS), draw(_IDS), draw(_GAPS)]
        if draw(st.booleans()):
            pieces.append("[")
            for i in range(draw(st.integers(1, 3))):
                if i:
                    pieces.append(draw(st.sampled_from([",", ",", ""])))
                pieces += [draw(_GAPS), draw(_NAMES), draw(_GAPS), "=", draw(_GAPS),
                           draw(_VALUES), draw(_GAPS)]
            pieces += ["]", draw(_GAPS)]
        if draw(st.booleans()):
            pieces.append(";")
    pieces += [draw(_GAPS), "}", draw(_GAPS)]
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(pieces)))
        if draw(st.booleans()):
            pieces.insert(at, draw(_JUNK))
        elif at < len(pieces):
            del pieces[at]
    text = "".join(pieces)
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(_CHARS) + text[at + draw(st.integers(0, 1)):]
    return text


def _large_dump_lines() -> list[str]:
    """The lines of an emitted random graph of about 1.1 MB."""
    rng = random.Random(12)
    nodes, edges = [], []
    while len(nodes) * 30 + len(edges) * 40 < 1_120_000:
        raw = make_random_dag_raw(rng)
        base = len(nodes)
        nodes += [NodeStatement(str(base + int(n.node_id)), n.label) for n in raw.nodes]
        edges += [EdgeStatement(str(base + int(e.src)), str(base + int(e.dst)), e.label)
                  for e in raw.edges]
    return emit_dot(RawGraph("big", nodes, edges)).split("\n")


class TestReferenceParser:
    """parse_dot hands every text its line path cannot read to the token
    parser, which stays the reference for results and errors."""

    @pytest.mark.parametrize(
        "text, message",
        [
            # a lazy block comment would run past its '*/' to the next one
            ("digraph{1;/*a*/;/*b*/}", "line 1: expected a state id (decimal integer or quoted string)"),
            # a line comment that may stop early would give up a node '2'
            ("digraph{1;//2\n;}", "line 2: expected a state id (decimal integer or quoted string)"),
            ("digraphG {1}", "line 1: expected 'digraph'"),
            # the character before an attribute may end a comment, not be its '['
            ("digraph{1[a=1//[\nb=2]}", "line 2: expected ']' or ',' in attribute list"),
        ],
    )
    def test_hazards_fail_like_the_reference(self, text, message):
        with _count_fallbacks() as fallback, pytest.raises(DotParseError) as err:
            parse_dot(text)
        assert str(err.value) == message
        assert _outcome(REFERENCE, text) == ("error", message, err.value.line)
        assert fallback.call_count == 1

    def test_a_failing_match_after_a_whitespace_run_does_not_backtrack_exponentially(self):
        # the line path's fullmatch fails after the run; with a whitespace run
        # that may split anywhere, this takes tens of seconds
        text = "digraph{\n" + " " * 28 + "x\n}"
        started = time.perf_counter()
        with pytest.raises(DotParseError) as err:
            parse_dot(text)
        assert time.perf_counter() - started < 1.0
        assert _outcome(REFERENCE, text) == ("error", str(err.value), err.value.line)

    def test_error_near_the_end_of_a_large_dump(self):
        lines = _large_dump_lines()
        broken = len(lines) - 5
        lines[broken] = lines[broken].replace("->", "-> ;", 1)
        text = "\n".join(lines)
        assert len(text) > 1_000_000
        with _count_fallbacks() as fallback, pytest.raises(DotParseError) as err:
            parse_dot(text)
        assert (str(err.value), err.value.line) == (
            f"line {broken + 1}: expected destination id after '->'", broken + 1)
        assert fallback.call_count == 1

    def test_dense_index_order_does_not_depend_on_the_hash_seed(self):
        dot = ('digraph G {\n1 -> 7;\n1 -> "07";\n1 -> "007";\n7 -> 9;\n"07" -> 9;\n'
               '"007" -> 9;\n9 [label="final = TRUE"];\n}\n')
        code = ("import sys\nfrom statecover import ssg\n"
                "print(ssg.build(ssg.parse_dot(sys.stdin.read())).raw_ids)")
        src = Path(__file__).resolve().parent.parent / "src"
        orders = set()
        for seed in ("1", "2"):
            run = subprocess.run(
                [sys.executable, "-c", code], input=dot, capture_output=True, text=True,
                env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(src)}, timeout=60,
            )
            assert run.returncode == 0, run.stderr
            orders.add(run.stdout)
        assert orders == {"['1', '007', '07', '7', '9']\n"}


# Lines of a dump written one statement a line, and lines that bend that
# layout: blank and comment-only lines, characters that are not whitespace,
# a statement split across two lines, two statements on one line, open
# comments and strings.
_STATEMENT_LINES = st.sampled_from(
    ["1;", "1", "  2 -> 3;", '2 -> 3 [label="go(x)"];', '"s" [label="a\\nb", color=red]',
     '-5 -> "s";', "07 [label=x]", "1 // note", "1; /* c */", '4 [label="}"];', '"->" -> 4']
)
_OTHER_LINES = st.sampled_from(
    ["", "", " \t", "\r", "// only a comment", "/* one line */", "\f", "\v", " \f ", "1; 2;",
     "2 -> 3 4", "/* opens", "closes */", '"opens', "x", "} ", "{"]
)
_SPLIT_STATEMENTS = st.sampled_from(
    [["1 ->", "2;"], ["1", "-> 2;"], ["1 -> 2", '[label="x"];'], ["1", ";"], ["1", "", "-> 2"],
     ["1", "// c", "-> 2"], ['3 [label="a"', "];"], ["1 /*", "*/ -> 2"]]
)
_LAST_LINES = st.sampled_from(
    ["}", " }", "3; }", "3 }", "3 // }", "-> 4 }", "} // }", "}\n// }", "} /* } */", "// }", "}}",
     "} x", "/* } */"]
)


@st.composite
def line_dump(draw):
    """A digraph written line by line, with repeated lines and mixed line
    ends."""
    chunks = draw(st.lists(
        st.one_of(_STATEMENT_LINES.map(lambda line: [line]),
                  _OTHER_LINES.map(lambda line: [line]),
                  _SPLIT_STATEMENTS),
        max_size=10,
    ))
    lines = [draw(st.sampled_from(["digraph G {", "digraph{", "digraph G { 1;", "digraph {/*"]))]
    lines += [line for chunk in chunks for line in chunk]
    if draw(st.booleans()):
        lines += lines[1:]
    lines.append(draw(_LAST_LINES))
    ends = [draw(st.sampled_from(["\n", "\n", "\r\n"])) for _ in lines]
    return "".join(line + end for line, end in zip(lines, ends))


# Attribute lists as a model checker writes them, shared by many lines: valid
# ones, with comments, line ends and spacing around them, and ones that are
# not valid. '' leaves a line that ends right after an id.
_TLC_TAILS = st.sampled_from(
    ["", ";", ' [label="Tick(p8)",color="green",fontcolor="green"];',
     ' [label="/\\\\ x = 1\\n/\\\\ pc = \\"w\\"",style = filled];', '[label = go, color=red]',
     ' [label="a" /* c */, label="b"] ;', ' [color="x"]; // c', ' [label="x"];\r', " // c", "\r",
     " /* c */ ;"]
)
_BAD_TAILS = st.sampled_from(
    ["[label=1,]", '[label="x"', "; ;", " x", " [label=1] ; 2", " /* c", "\f"]
)
_TLC_IDS = st.one_of(st.integers(-10 ** 19, 10 ** 19).map(str),
                     st.sampled_from(['"s"', '"a b"', '"x\\"y"', '"->"']))


@st.composite
def tlc_dump(draw):
    """(text, valid): a dump of many distinct node and edge lines, indented
    or not, that share a small pool of attribute lists; valid is whether
    every list in the pool is valid."""
    pool = draw(st.lists(_TLC_TAILS, min_size=1, max_size=3))
    valid = draw(st.sampled_from([True, True, True, False]))
    if not valid:
        pool.append(draw(_BAD_TAILS))
    lines = []
    for tail in pool:  # each list of the pool on at least one line
        lines.append(draw(_TLC_IDS) + tail)
    for _ in range(draw(st.integers(0, 12))):
        head = draw(_TLC_IDS)
        if draw(st.booleans()):
            head += draw(st.sampled_from([" -> ", "->", " /* c */ -> "])) + draw(_TLC_IDS)
        lines.append(draw(st.sampled_from(["", "", "  ", "\t"])) + head
                     + draw(st.sampled_from(pool)))
    lines = draw(st.permutations(lines))
    if draw(st.booleans()):
        lines += lines
    return "digraph DiskGraph {\n" + "\n".join(lines) + "\n}\n", valid


class TestLinePath:
    """parse_dot matches each distinct line of a dump once, in one batch for
    a dump shorter than `ssg._BATCH`, and parses each distinct attribute list
    once; a text with a line that is not one statement goes to the token
    parser from the start."""

    @settings(max_examples=800, deadline=None)
    @given(st.one_of(dot_soup(), line_dump()))
    def test_matches_the_token_parser(self, text):
        with _count_fallbacks() as fallback:
            got = _outcome(parse_dot, text)
        assert got == _outcome(REFERENCE, text)
        assert fallback.call_count <= 1

    @pytest.mark.parametrize("text", ["digraph{\n1;\n\f\n}", "digraph{\n1;\n\v\n}\n"])
    def test_only_space_tab_and_line_ends_are_whitespace(self, text):
        with pytest.raises(DotParseError) as err:
            parse_dot(text)
        assert err.value.line == 3
        assert _outcome(REFERENCE, text) == ("error", str(err.value), 3)

    # only the third text has every statement on a line of its own
    @pytest.mark.parametrize("text, fallbacks", [
        ("digraph{\n1\n-> 2;\n}", 1), ("digraph{\n1\n\n// c\n-> 2;\n}", 1),
        ("digraph{\n1 -> 2\n}", 0), ('digraph{\n1 -> 2\n[label="x"]}', 1), ("digraph{\n1\n;}", 1),
    ])
    def test_a_statement_continued_on_the_next_line(self, text, fallbacks):
        with _count_fallbacks() as fallback:
            raw = parse_dot(text)
        assert (raw.nodes, raw.edges) == (REFERENCE(text).nodes, REFERENCE(text).edges)
        assert fallback.call_count == fallbacks

    def test_repeated_lines_share_one_statement(self):
        distinct = ['1 [label="final = FALSE"];', '2 [label="final = TRUE"];',
                    '1 -> 2 [label="go(x)"];', '"a" -> 2;', "1 -> 2;"]
        rng = random.Random(3)
        body = [rng.choice(distinct) for _ in range(200)] + distinct
        text = "digraph G {\n" + "\n".join(body) + "\n}\n"
        with _count_fallbacks() as fallback, \
                mock.patch.object(ssg, "_HEAD", wraps=ssg._HEAD) as head, \
                mock.patch.object(ssg, "_TAIL", wraps=ssg._TAIL) as tail:
            raw = parse_dot(text)
        reference = REFERENCE(text)
        assert (raw.nodes, raw.edges) == (reference.nodes, reference.edges)
        # one batch match over the distinct lines, each once
        assert head.findall.call_count == 1
        assert head.findall.call_args.args[0].split("\n") == list(dict.fromkeys(body))
        # one parse per distinct attribute list: the last two distinct lines share ';'
        rests = [call.args[0] for call in tail.fullmatch.call_args_list]
        assert sorted(rests) == sorted(
            ['[label="final = FALSE"];', '[label="final = TRUE"];', '[label="go(x)"];', ";"])
        assert fallback.call_count == 0
        first: dict = {}
        for statement in raw.nodes + raw.edges:
            assert first.setdefault(statement, statement) is statement
        assert len(first) == len(distinct)

    def test_explored_dot_of_the_fixture_model_takes_the_line_path(self):
        text = "".join(explore(load_model(fixture_doc("tournaments_p1t1e1.yaml"))).dot_lines())
        with _count_fallbacks() as fallback, \
                mock.patch.object(ssg, "_HEAD", wraps=ssg._HEAD) as head, \
                mock.patch.object(ssg, "_TAIL", wraps=ssg._TAIL) as tail:
            raw = parse_dot(text)
        assert raw == REFERENCE(text)
        assert raw.edges
        assert (head.findall.call_count, fallback.call_count) == (1, 0)
        rests = [call.args[0] for call in tail.fullmatch.call_args_list]
        assert len(rests) == len(set(rests)) < raw.statement_count()

    @settings(max_examples=400, deadline=None)
    @given(tlc_dump())
    def test_a_model_checker_dump_matches_the_token_parser(self, dump):
        text, valid = dump
        with _count_fallbacks() as fallback:
            got = _outcome(parse_dot, text)
        assert got == _outcome(REFERENCE, text)
        assert fallback.call_count == (0 if valid else 1)


class TestLinePathInBatches:
    """The line path on dumps that span many batches: batches of one line
    (0) and of a few lines (24) agree with the token parser as one batch
    does."""

    @pytest.fixture(autouse=True, scope="class", params=[0, 24])
    def small_batches(self, request):
        with mock.patch.object(ssg, "_BATCH", request.param):
            yield

    test_matches_the_token_parser = TestLinePath.test_matches_the_token_parser
    test_a_model_checker_dump_matches_the_token_parser = (
        TestLinePath.test_a_model_checker_dump_matches_the_token_parser)
    test_a_statement_continued_on_the_next_line = (
        TestLinePath.test_a_statement_continued_on_the_next_line)
    test_only_space_tab_and_line_ends_are_whitespace = (
        TestLinePath.test_only_space_tab_and_line_ends_are_whitespace)


def _batches(text: str) -> list[str]:
    """The arguments of every `_HEAD.findall` call that parse_dot(text) makes."""
    with mock.patch.object(ssg, "_HEAD", wraps=ssg._HEAD) as head:
        parse_dot(text)
    return [call.args[0] for call in head.findall.call_args_list]


class TestBatchCuts:
    """Where parse_dot cuts a body into batches, with the batch size made a
    few characters."""

    def test_one_findall_per_batch_over_its_new_distinct_lines(self, monkeypatch):
        # a batch ends at the first line break after _BATCH characters: with
        # 1, each line that is not empty ends a batch, and an empty line, such
        # as the rest of the header's, joins the next
        monkeypatch.setattr(ssg, "_BATCH", 1)
        body = ["1;", "2 -> 1;", "1;", "", "3;", "2 -> 1;", "4; ", "  ", "4; ", "5;"]
        text = "digraph {\n" + "\n".join(body) + "\n}\n"
        assert _batches(text) == ["1;", "2 -> 1;", "", "3;", "", "4; ", "", "", "5;"]
        assert parse_dot(text) == REFERENCE(text)
        # 12 characters take "\n1;\n2 -> 1;\n1;", then "\n3;\n2 -> 1;\n4; " and
        # the rest; a line seen in an earlier batch is not matched again
        monkeypatch.setattr(ssg, "_BATCH", 12)
        assert _batches(text) == ["1;\n2 -> 1;", "3;\n4; ", "5;"]

    def test_a_line_repeated_in_a_later_batch_shares_its_statement(self, monkeypatch):
        monkeypatch.setattr(ssg, "_BATCH", 0)
        text = ('digraph {\n1 [label="a"];\n1 -> 2 [label="go(x)"];\n2 [label="b"];\n'
                '1 -> 2 [label="go(x)"];\n1 [label="a"];\n2 -> 1;\n}\n')
        raw = parse_dot(text)
        assert raw == REFERENCE(text)
        assert raw.nodes[0] is raw.nodes[2] and raw.edges[0] is raw.edges[1]
        # every statement naming an id holds one string
        assert raw.nodes[0].node_id is raw.edges[0].src is raw.edges[2].dst
        assert raw.nodes[1].node_id is raw.edges[0].dst is raw.edges[2].src

    @pytest.mark.parametrize("batch", range(0, 60, 7))
    def test_a_malformed_line_in_a_later_batch(self, monkeypatch, batch):
        monkeypatch.setattr(ssg, "_BATCH", batch)
        lines = ["digraph G {"] + [f"{i} -> {i + 1};" for i in range(8)] + ["8 -> ;", "}", ""]
        text = "\n".join(lines)
        with _count_fallbacks() as fallback, pytest.raises(DotParseError) as err:
            parse_dot(text)
        assert (str(err.value), err.value.line) == (
            "line 10: expected destination id after '->'", 10)
        assert fallback.call_count == 1

    @pytest.mark.parametrize("body", [
        ["1;", "", "2 -> 1;", "", "", "3;"],
        ["1;\r", "\r", "2 -> 1;\r", " \t\r", "3;\r", "\r"],
        ["1;", "// a comment", "2 -> 1;", "/* a comment */", "3;"],
        ["", "1;", "   ", "2 -> 1; // c", "\t", ""],
    ], ids=["blank", "crlf", "comment-only", "edges"])
    def test_blank_crlf_and_comment_only_lines_next_to_every_cut(self, monkeypatch, body):
        text = "digraph G {\n" + "\n".join(body) + "\n}\n"
        reference = REFERENCE(text)
        for batch in range(len(text) + 1):
            monkeypatch.setattr(ssg, "_BATCH", batch)
            assert parse_dot(text) == reference, batch

    @pytest.mark.parametrize("text", [
        "digraph G {\n1;\n2 -> 1;\n3 -> 1;\n}", "digraph G { 1;\n2 -> 1;\n3 -> 1;\r\n}",
        'digraph G {\n1 -> 2 [label="a"]\n2\n}', "digraph G {\n}", "digraph G {\n\n}",
    ])
    def test_a_body_without_a_final_line_break(self, monkeypatch, text):
        reference = REFERENCE(text)
        for batch in range(len(text) + 1):
            monkeypatch.setattr(ssg, "_BATCH", batch)
            with _count_fallbacks() as fallback:
                assert parse_dot(text) == reference, batch
            assert fallback.call_count == 0


def _model_checker_dump(states: int) -> str:
    """A dump written as a model checker writes one: 18- and 19-digit
    fingerprint ids, a state's variables in its node's label, coloured
    edges, and every statement written twice, the second copies in another
    order after the first."""
    rng = random.Random(states)
    ids = [str(rng.choice((-1, 1)) * rng.randrange(10 ** 17, 10 ** 19)) for _ in range(states)]
    lines = []
    for i, sid in enumerate(ids):
        values = "\\n".join(f"/\\\\ {name} = {rng.randrange(10 ** 4):04d}"
                            for name in ("inbox", "round", "votes", "phase"))
        lines.append(f'{sid} [label="{values}",style = filled];')
        for dst in [ids[(i + 1) % states]] + rng.sample(ids, 3):
            action = f"{rng.choice(('Send', 'Recv', 'Drop', 'Tick'))}(p{rng.randrange(10)})"
            lines.append(f'{sid} -> {dst} [label="{action}",color="green",fontcolor="green"];')
    again = lines[:]
    rng.shuffle(again)
    return "digraph DiskGraph {\n" + "\n".join(lines + again) + "\n}\n"


class TestParseMemory:
    def test_parsing_holds_the_distinct_statements_only(self):
        """The tracemalloc peak of parse_dot on a dump of about 1 MB, and
        what its graph holds, against the dump's length. A parse that holds
        every line, or every match, at once peaks above 3.3 times the
        length, and statements that each hold their own id strings take
        above 1.1 times."""
        text = _model_checker_dump(1100)
        assert len(text) > 1_000_000
        tracemalloc.start()
        try:
            raw = parse_dot(text)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert raw.statement_count() == text.count(";")
        assert peak < 3 * len(text)
        assert retained < 0.9 * len(text)


class TestClean:
    def test_removes_duplicates_keeps_order(self):
        raw = RawGraph(
            name="g",
            nodes=[NodeStatement("0", "a"), NodeStatement("1", "b"), NodeStatement("0", "a")],
            edges=[EdgeStatement("0", "1", "x"), EdgeStatement("0", "1", "x"), EdgeStatement("0", "1", "y")],
        )
        out = clean(raw)
        assert [n.node_id for n in out.nodes] == ["0", "1"]
        assert [(e.src, e.dst, e.label) for e in out.edges] == [("0", "1", "x"), ("0", "1", "y")]
        assert (raw.statement_count(), out.statement_count()) == (6, 4)

    def test_every_statement_duplicated_halves(self):
        base = parse_dot(DIAMOND)
        doubled = RawGraph(name=base.name, nodes=base.nodes * 2, edges=base.edges * 2)
        out = clean(doubled)
        assert out.statement_count() == base.statement_count()

    def test_idempotent(self):
        raw = parse_dot("digraph { 0 -> 1; 0 -> 1; 1 [label=\"final = TRUE\"]; }")
        once = clean(raw)
        twice = clean(once)
        assert twice.nodes == once.nodes
        assert twice.edges == once.edges
        assert twice.statement_count() == once.statement_count() == 2

    def test_statements_without_labels_are_written_back_byte_for_byte(self):
        dot = 'digraph G {\n0;\n1 [label="final = TRUE"];\n0 -> 1;\n}\n'
        doubled = dot.replace("{\n", "{\n" + dot[12:-2], 1)
        assert emit_dot(clean(parse_dot(doubled))) == dot

    def test_clean_preserves_semantics(self):
        base = parse_dot(DIAMOND)
        doubled = RawGraph(name=base.name, nodes=base.nodes * 2, edges=base.edges * 2)
        g1 = build(base)
        g2 = build(clean(doubled))
        assert g1.out_adj == g2.out_adj
        assert g1.labels == g2.labels
        assert g1.finals == g2.finals

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_clean_idempotence_property(self, seed):
        raw = make_random_dag_raw(random.Random(seed))
        noisy = RawGraph(name=raw.name, nodes=raw.nodes + raw.nodes[:2], edges=raw.edges * 2)
        once = clean(noisy)
        twice = clean(once)
        assert (once.nodes, once.edges) == (twice.nodes, twice.edges)
        assert once.statement_count() == raw.statement_count()


class TestBuild:
    def test_diamond_structure(self):
        g = build(parse_dot(DIAMOND))
        assert g.n_states == 5
        assert g.initial == 0
        assert g.finals == (3,)
        assert g.super_final == 4
        assert g.out_adj == [[1, 2], [3], [3], [4], []]
        assert g.in_adj == [[], [0], [0], [1, 2], [3]]
        assert g.labels[(0, 1)] == (("a", ("x",)),)
        assert g.labels[(3, 4)] == ()
        assert_graph_laws(g)

    def test_stats_paper_vs_traversal(self):
        g = build(parse_dot(DIAMOND))
        # the paper counts neither the synthetic sink nor its edges
        assert (g.n_states - 1, g.edge_count() - len(g.finals)) == (4, 4)
        assert (g.n_states, g.edge_count()) == (5, 5)

    def test_parallel_labels_are_transitions(self):
        raw = parse_dot(
            'digraph { 0 -> 1 [label="b(x)"]; 0 -> 1 [label="a(x)"]; 0 -> 1 [label="b(x)"]; '
            '1 -> 2 [label="c(x)"]; 2 [label="final = TRUE"]; }'
        )
        g = build(raw)
        # one transition per distinct label, in label order
        assert g.labels[(0, 1)] == (("a", ("x",)), ("b", ("x",)))
        assert g.out_adj[0] == [1, 1] and g.in_adj[1] == [0, 0]
        assert g.edge_count() - len(g.finals) == 3
        assert_graph_laws(g)

    def test_labels_that_parse_alike_are_one_transition(self):
        raw = parse_dot('digraph { 0 -> 1 [label="a(x)"]; 0 -> 1 [label="a( x )"]; '
                        '0 -> 1 [label="deletePlayer()"]; 0 -> 1 [label="deletePlayer"]; '
                        '1 [label="final = TRUE"]; }')
        g = build(raw)
        assert g.labels[(0, 1)] == (("a", ("x",)), ("deletePlayer", ()))
        assert g.out_adj[0] == [1, 1] and g.in_adj[1] == [0, 0]
        assert_graph_laws(g)

    def test_unlabelled_pair_is_one_transition(self):
        raw = parse_dot('digraph { 0 -> 1; 0 -> 1 [label=""]; 1 [label="final = TRUE"]; }')
        g = build(raw)
        assert g.labels[(0, 1)] == ()
        assert g.out_adj[0] == [1]
        assert_graph_laws(g)

    def test_unreadable_label_fails_naming_the_edge(self):
        # a label that is never the least of its pair is read too
        raw = parse_dot('digraph { "s0" -> "s1" [label="a(x)"]; "s0" -> "s1" [label="go now"]; '
                        '"s1" [label="final = TRUE"]; }')
        with pytest.raises(GraphError, match="^edge s0 -> s1: cannot read label 'go now' "
                                             r"as name\(arg, \.\.\.\)$"):
            build(raw)

    def test_each_label_text_is_parsed_once(self):
        raw = parse_dot('digraph { 0 -> 1 [label="a(x)"]; 1 -> 2 [label="a(x)"]; '
                        '0 -> 2 [label="b(x)"]; 2 [label="final = TRUE"]; }')
        with mock.patch.object(ssg, "parse_label", wraps=ssg.parse_label) as parse:
            g = build(raw)
        assert sorted(c.args[0] for c in parse.call_args_list) == ["a(x)", "b(x)"]
        assert g.labels[(0, 1)][0] is g.labels[(1, 2)][0]

    def test_prune_never_refuses_a_dropped_label(self):
        raw = parse_dot('digraph { 0 -> 1 [label="a(x)"]; 1 [label="final = TRUE"]; '
                        '9 -> 1 [label="not a label!!"]; }')
        g = build(raw, initial="0", prune=True)
        assert g.raw_ids == ["0", "1"]
        assert g.labels[(0, 1)] == (("a", ("x",)),)

    def test_tournaments_fixture_counts(self):
        g = build(tournaments_raw())
        assert (g.n_states - 1, g.edge_count() - len(g.finals)) == (6, 10)
        assert (g.n_states, g.edge_count()) == (7, 11)

    def test_no_finals_error(self):
        raw = parse_dot('digraph { 0 -> 1; 1 [label="final = FALSE"]; }')
        with pytest.raises(GraphError, match="no final states"):
            build(raw)

    def test_ambiguous_initial_lists_candidates(self):
        raw = parse_dot(
            'digraph { 0 -> 2; 1 -> 2; 2 [label="final = TRUE"]; }'
        )
        with pytest.raises(GraphError) as err:
            build(raw)
        assert "0" in str(err.value) and "1" in str(err.value)

    def test_a_long_candidate_list_is_capped_at_twelve_ids(self):
        raw = parse_dot("digraph { " + " ".join(f"{i} -> 99;" for i in range(15))
                        + ' 99 [label="final = TRUE"]; }')
        with pytest.raises(GraphError) as err:
            build(raw)
        assert str(err.value) == ("initial state not unique; in-degree-zero candidates: "
                                  + ", ".join(map(str, range(12))) + ", ... (15 total)")

    def test_explicit_initial_resolves_ambiguity(self):
        raw = parse_dot('digraph { 0 -> 2; 1 -> 2; 2 [label="final = TRUE"]; }')
        with pytest.raises(GraphError, match="not both reachable"):
            build(raw, initial="0")
        g = build(raw, initial="0", prune=True)
        assert g.raw_ids == ["0", "2"]
        assert_graph_laws(g)

    def test_an_absent_initial_state(self):
        raw = parse_dot('digraph { 0 -> 1; 1 [label="final = TRUE"]; }')
        with pytest.raises(GraphError) as err:
            build(raw, initial="7")
        assert str(err.value) == "flagged initial state '7' not present"

    def test_prune_refuses_an_initial_state_that_reaches_no_final(self):
        raw = parse_dot('digraph { 0 -> 1; 2 -> 3; 3 [label="final = TRUE"]; }')
        with pytest.raises(GraphError) as err:
            build(raw, initial="0", prune=True)
        assert str(err.value) == "initial state itself is not co-reachable; nothing to keep"

    def test_isolated_node_reported(self):
        raw = parse_dot(
            'digraph { 0 -> 1; 1 [label="final = TRUE"]; 9 [label="final = FALSE"]; }'
        )
        with pytest.raises(GraphError) as err:
            build(raw)
        assert "9" in str(err.value)

    def test_prune_drops_unreachable(self):
        raw = parse_dot(
            'digraph { 0 -> 1; 1 [label="final = TRUE"]; 9 [label="final = FALSE"]; }'
        )
        g = build(raw, initial="0", prune=True)
        assert g.raw_ids == ["0", "1"]
        assert_graph_laws(g)

    def test_dead_end_state_rejected(self):
        # 2 has no route to a final state
        raw = parse_dot('digraph { 0 -> 1; 0 -> 2; 1 [label="final = TRUE"]; }')
        with pytest.raises(GraphError) as err:
            build(raw)
        assert "2" in str(err.value)

    def test_self_loop_rejected(self):
        raw = parse_dot('digraph { 0 -> 1; 1 -> 1; 1 [label="final = TRUE"]; }')
        with pytest.raises(GraphError, match="self-loops"):
            build(raw)

    def test_empty_graph_error(self):
        with pytest.raises(GraphError, match="empty graph"):
            build(RawGraph(name="g"))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_random_dag_invariants(self, seed):
        assert_graph_laws(build_random_dag(seed))
