from __future__ import annotations

import random

import pytest

from statecover.seqgen import (
    Call,
    CallSequence,
    coverage_report,
    insert_puts,
    parse_label,
    paths_from,
    paths_to,
    select_sequences,
    sequences_from_json,
    sequences_to_json,
    to_call_sequences,
)
from statecover.speckit import Operation
from statecover.ssg import build, parse_dot

from helpers import (
    bfs_distance_to_sink,
    brute_force_paths,
    build_random_dag,
    tournaments_raw,
    tournaments_resolver,
)


def diamond_graph():
    return build(
        parse_dot(
            """
            digraph G {
              0 [label="final = FALSE"]; 1 [label="final = FALSE"];
              2 [label="final = FALSE"]; 3 [label="final = TRUE"];
              0 -> 1 [label="a(x)"]; 0 -> 2 [label="b(x)"];
              1 -> 3 [label="c(x)"]; 2 -> 3 [label="d(x)"];
            }
            """
        )
    )


def cycle_graph():
    return build(
        parse_dot(
            """
            digraph G {
              0 [label="final = FALSE"]; 1 [label="final = FALSE"];
              2 [label="final = FALSE"]; 3 [label="final = TRUE"];
              0 -> 1; 1 -> 2; 2 -> 1; 2 -> 3;
            }
            """
        )
    )


class TestPathsTo:
    # Expected values below were traced by hand through the BFS rules.

    def test_diamond(self):
        sets = paths_to(diamond_graph())
        assert sets.complete == ((0, 1, 3, 4),)
        assert sets.incomplete == ((0, 2, 3),)

    def test_cycle(self):
        sets = paths_to(cycle_graph())
        assert sets.complete == ((0, 1, 2, 3, 4),)
        assert sets.incomplete == ((0, 1, 2, 1),)

    def test_tournaments(self):
        g = build(tournaments_raw())
        sets = paths_to(g)
        assert sets.complete == ((0, 1, 4, 6),)
        assert sets.incomplete == (
            (0, 2, 3),
            (0, 2, 4),
            (0, 1, 3, 1),
            (0, 1, 3, 2),
            (0, 1, 3, 5, 3),
        )

    def test_joint_edge_coverage(self):
        g = build(tournaments_raw())
        sets = paths_to(g)
        covered = set()
        for p in sets.complete + sets.incomplete:
            covered.update(zip(p, p[1:]))
        assert covered == set(g.edge_labels)

    def test_path_budget(self):
        g = build(tournaments_raw())
        sets = paths_to(g)
        assert len(sets.complete) + len(sets.incomplete) <= g.edge_count()


class TestPathsFrom:
    def test_diamond_routes(self):
        routes = paths_from(diamond_graph())
        assert routes[0] == (0, 1, 3, 4)
        assert routes[1] == (1, 3, 4)
        assert routes[2] == (2, 3, 4)
        assert routes[3] == (3, 4)
        assert routes[4] == (4,)

    def test_routes_are_shortest(self):
        for seed in range(40):
            g = build_random_dag(seed)
            dist = bfs_distance_to_sink(g)
            for state, route in enumerate(paths_from(g)):
                assert len(route) - 1 == dist[state]
                assert route[0] == state and route[-1] == g.super_final

    def test_tournaments_routes(self):
        g = build(tournaments_raw())
        routes = paths_from(g)
        assert routes[0] == (0, 1, 4, 6)
        assert routes[3] == (3, 1, 4, 6)
        assert routes[5] == (5, 3, 1, 4, 6)


class TestSelectSequences:
    def test_diamond(self):
        assert select_sequences(diamond_graph()) == [(0, 1, 3, 4), (0, 2, 3, 4)]

    def test_tournaments_frozen(self):
        g = build(tournaments_raw())
        assert select_sequences(g) == [
            (0, 1, 4, 6),
            (0, 2, 3, 1, 4, 6),
            (0, 2, 4, 6),
            (0, 1, 3, 1, 4, 6),
            (0, 1, 3, 2, 4, 6),
            (0, 1, 3, 5, 3, 1, 4, 6),
        ]

    def test_full_coverage_on_tournaments(self):
        g = build(tournaments_raw())
        report = coverage_report(g, select_sequences(g))
        assert report.state_pct == 100.0
        assert report.transition_pct == 100.0

    def test_selected_against_brute_force(self):
        for seed in range(40):
            g = build_random_dag(seed)
            valid = brute_force_paths(g)
            selected = select_sequences(g)
            for p in selected:
                assert p in valid
            report = coverage_report(g, selected)
            assert report.state_pct == 100.0
            assert report.transition_pct == 100.0


class TestCoverage:
    def test_parallel_edge_label_shortfall(self):
        g = build(
            parse_dot(
                'digraph { 0 -> 1 [label="a(x)"]; 0 -> 1 [label="b(x)"]; '
                '1 -> 2 [label="c(x)"]; 2 [label="final = TRUE"]; }'
            )
        )
        report = coverage_report(g, select_sequences(g))
        # the parallel a/b edges are one transition, covered by one call
        assert report.transitions_total == report.transitions_covered == 2
        assert report.transition_pct == 100.0

    def test_empty_paths(self):
        g = diamond_graph()
        report = coverage_report(g, [])
        assert report.states_covered == 0
        assert report.transitions_covered == 0


class TestParseLabel:
    def test_with_args(self):
        assert parse_label("postEnrolment(e1,p1,t1)") == ("postEnrolment", ("e1", "p1", "t1"))

    def test_spaces_tolerated(self):
        assert parse_label(" postPlayer( p1 ) ") == ("postPlayer", ("p1",))

    def test_bare_name(self):
        assert parse_label("reset") == ("reset", ())

    def test_garbage(self):
        assert parse_label("not a label!!") is None


class TestCallAttachment:
    def test_tournaments_longest_sequence(self):
        g = build(tournaments_raw())
        paths = select_sequences(g)
        seqs = to_call_sequences(g, paths, tournaments_resolver)
        longest = seqs[5]
        assert [c.op for c in longest.calls] == [
            "postPlayer",
            "postTournament",
            "postEnrolment",
            "deleteEnrolment",
            "deleteTournament",
            "deletePlayer",
        ]
        enrol = longest.calls[2]
        assert enrol.params == {"eid": "e1", "pid": "p1", "tid": "t1"}
        assert enrol.own_key == "eid"
        assert enrol.verb == "POST" and enrol.path == "/enrolments"

    def test_without_resolver_positional(self):
        g = build(tournaments_raw())
        seqs = to_call_sequences(g, select_sequences(g), None)
        call = seqs[0].calls[0]
        assert call.op == "postPlayer"
        assert call.params == {"arg0": "p1"}
        assert call.verb == ""

    def test_sink_edge_contributes_nothing(self):
        g = build(tournaments_raw())
        seqs = to_call_sequences(g, [(0, 1, 4, 6)], tournaments_resolver)
        assert [c.op for c in seqs[0].calls] == ["postPlayer", "deletePlayer"]

    def test_unlabeled_edges_skipped(self):
        g = build(parse_dot('digraph { 0 -> 1; 1 [label="final = TRUE"]; }'))
        seqs = to_call_sequences(g, select_sequences(g), None)
        assert seqs[0].calls == []

    def test_unreadable_label_fails_naming_the_edge(self):
        g = build(parse_dot(
            'digraph { "s0" -> "s1" [label="go now"]; "s1" [label="final = TRUE"]; }'))
        with pytest.raises(ValueError, match="^edge s0 -> s1: cannot read label 'go now'"):
            to_call_sequences(g, select_sequences(g), None)


PUT_CATALOG = {
    "pid": Operation(op_id="putPlayer", method="PUT", path="/players/{pid}", raw={}),
    "tid": Operation(op_id="putTournament", method="PUT", path="/tournaments/{tid}", raw={}),
}


def tournaments_sequences():
    g = build(tournaments_raw())
    return to_call_sequences(g, select_sequences(g), tournaments_resolver)


class TestInsertPuts:
    def test_zero_is_identity(self):
        seqs = tournaments_sequences()
        out = insert_puts(seqs, PUT_CATALOG, 0, seed=1)
        assert [[c.op for c in s.calls] for s in out] == [[c.op for c in s.calls] for s in seqs]

    def test_limit_enforced(self):
        with pytest.raises(ValueError, match="0..3"):
            insert_puts(tournaments_sequences(), PUT_CATALOG, 4, seed=1)
        with pytest.raises(ValueError):
            insert_puts(tournaments_sequences(), PUT_CATALOG, -1, seed=1)

    def test_placement_property(self):
        # Over many seeds, every PUT must sit after its POST and before its
        # DELETE, and resources without a PUT operation gain nothing.
        for seed in range(60):
            out = insert_puts(tournaments_sequences(), PUT_CATALOG, 3, seed=seed)
            for seq in out:
                for i, call in enumerate(seq.calls):
                    if call.verb != "PUT":
                        continue
                    assert call.own_key in PUT_CATALOG
                    tla = call.own_id()
                    post_idx = next(
                        j
                        for j, c in enumerate(seq.calls)
                        if c.verb == "POST" and c.own_id() == tla
                    )
                    delete_idxs = [
                        j
                        for j, c in enumerate(seq.calls)
                        if c.verb == "DELETE" and c.own_id() == tla
                    ]
                    assert i > post_idx
                    if delete_idxs:
                        assert i < delete_idxs[0]
                assert all(c.own_key != "eid" or c.verb != "PUT" for c in seq.calls)

    def test_put_count_bounded(self):
        for seed in range(30):
            out = insert_puts(tournaments_sequences(), PUT_CATALOG, 2, seed=seed)
            for seq in out:
                by_resource: dict[str, int] = {}
                for c in seq.calls:
                    if c.verb == "PUT":
                        by_resource[c.own_id()] = by_resource.get(c.own_id(), 0) + 1
                assert all(n <= 2 for n in by_resource.values())

    def test_deterministic_per_seed(self):
        a = insert_puts(tournaments_sequences(), PUT_CATALOG, 3, seed=99)
        b = insert_puts(tournaments_sequences(), PUT_CATALOG, 3, seed=99)
        assert [[c.op for c in s.calls] for s in a] == [[c.op for c in s.calls] for s in b]

    def test_some_seed_actually_inserts(self):
        out = insert_puts(tournaments_sequences(), PUT_CATALOG, 3, seed=7)
        total_puts = sum(1 for s in out for c in s.calls if c.verb == "PUT")
        assert total_puts > 0


class TestSequencesJson:
    def test_round_trip(self):
        seqs = tournaments_sequences()
        text = sequences_to_json(seqs, seed=42)
        seed, back = sequences_from_json(text)
        assert seed == 42
        assert [[c.to_json() for c in s.calls] for s in back] == [
            [c.to_json() for c in s.calls] for s in seqs
        ]

    def test_byte_determinism(self):
        a = sequences_to_json(tournaments_sequences(), seed=5)
        b = sequences_to_json(tournaments_sequences(), seed=5)
        assert a == b
