from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statecover import ssg
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

from helpers import assert_graph_laws, build_random_dag, make_random_dag_raw, tournaments_raw


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
        assert raw.state_ids() == ["0", "1"]
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
        assert raw.state_ids() == ["s0", "s1"]

    def test_quoted_escapes(self):
        raw = parse_dot(r'digraph { 0 [label="a \"b\" /\ c"]; }')
        assert raw.nodes[0].label == 'a "b" /\\ c'

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
        ],
    )
    def test_error_lines_and_messages(self, text, line, message):
        with pytest.raises(DotParseError) as err:
            parse_dot(text)
        assert err.value.line == line
        assert str(err.value) == f"line {line}: {message}"

    def test_quoted_punctuation_is_an_id(self):
        raw = parse_dot('digraph { "->" -> "{"; "[" [label="]"]; }')
        assert raw.edges == [EdgeStatement("->", "{", None)]
        assert raw.nodes == [NodeStatement("[", "]")]

    def test_escaped_newline_inside_quotes_is_kept(self):
        raw = parse_dot('digraph {\n  0 [label="a\\\nb"];\n}')
        assert raw.nodes[0].label == "a\\\nb"

    def test_literal_backslash_before_n_is_not_a_line_break(self):
        dot = 'digraph G {\n0 [label="a\\\\nb\\nc"];\n}\n'  # a\\nb\nc in the file
        raw = parse_dot(dot)
        assert raw.nodes[0].label == "a\\nb\nc"
        assert emit_dot(clean(raw)) == dot

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_emit_parse_round_trip_property(self, seed):
        raw = make_random_dag_raw(random.Random(seed))
        awkward = 'say "hi" to a\\b\\n, \\\\l and \\\n'
        raw = RawGraph(
            name=raw.name,
            nodes=[NodeStatement(n.node_id, n.label + awkward) for n in raw.nodes],
            edges=[EdgeStatement(e.src, e.dst, awkward + e.label) for e in raw.edges],
        )
        again = parse_dot(emit_dot(raw))
        assert (again.nodes, again.edges) == (raw.nodes, raw.edges)


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

    def test_clean_preserves_semantics(self):
        base = parse_dot(DIAMOND)
        doubled = RawGraph(name=base.name, nodes=base.nodes * 2, edges=base.edges * 2)
        g1 = build(base)
        g2 = build(clean(doubled))
        assert g1.out_adj == g2.out_adj
        assert g1.edge_labels == g2.edge_labels
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
        assert g.edge_labels[(0, 1)] == ("a(x)",)
        assert g.edge_labels[(3, 4)] == ()
        assert_graph_laws(g)

    def test_stats_paper_vs_traversal(self):
        g = build(parse_dot(DIAMOND))
        # the paper counts neither the synthetic sink nor its edges
        assert (g.n_states - 1, g.edge_count() - len(g.finals)) == (4, 4)
        assert (g.n_states, g.edge_count()) == (5, 5)

    def test_parallel_edges_merged_sorted(self):
        raw = parse_dot(
            'digraph { 0 -> 1 [label="b(y)"]; 0 -> 1 [label="a(x)"]; 1 [label="final = TRUE"]; }'
        )
        g = build(raw)
        assert g.edge_labels[(0, 1)] == ("a(x)", "b(y)")
        assert g.least_label(0, 1) == "a(x)"
        assert g.edge_count() - len(g.finals) == 1

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

    def test_explicit_initial_resolves_ambiguity(self):
        raw = parse_dot('digraph { 0 -> 2; 1 -> 2; 2 [label="final = TRUE"]; }')
        with pytest.raises(GraphError, match="not both reachable"):
            build(raw, initial="0")
        g = build(raw, initial="0", prune=True)
        assert g.raw_ids == ["0", "2"]
        assert_graph_laws(g)

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
