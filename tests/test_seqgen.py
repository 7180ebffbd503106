from __future__ import annotations

import functools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statecover.demo import tournaments_model_doc
from statecover.lifecycle import explore, load_model
from statecover.seqgen import (
    Call,
    coverage_report,
    insert_puts,
    paths_from,
    paths_to,
    select_sequences,
    sequences_from_json,
    sequences_to_json,
    to_call_sequences,
)
from statecover.speckit import Operation, load_oas
from statecover.ssg import (
    EdgeStatement,
    GraphError,
    RawGraph,
    StateSpaceGraph,
    build,
    parse_dot,
    parse_label,
)

from helpers import (
    assert_graph_laws,
    bfs_distance_to_sink,
    brute_force_paths,
    build_random_dag,
    make_random_dag_raw,
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
        assert covered == set(g.labels)

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

    def test_a_dead_end_is_named(self):
        # 0 -> 1 -> sink 3, and 0 -> 2, where 2 has no way out; build would
        # refuse such a graph, so it is made by hand
        g = StateSpaceGraph(n_states=4, out_adj=[[1, 2], [3], [], []],
                            in_adj=[[], [0], [0], [1]], labels={}, initial=0,
                            finals=(1,), super_final=3, raw_ids=["0", "1", "2"])
        with pytest.raises(ValueError, match=r"^states cannot reach the sink: \[2\]$"):
            paths_from(g)


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


def parallel_raw(seed: int, counts: list[int], repeats: list[int]) -> RawGraph:
    """A random DAG whose i-th pair carries counts[i % len(counts)] labels,
    with the edge statements that repeats index written again, shuffled.
    One label text names its source, so it recurs on the source's pairs."""
    rng = random.Random(seed)
    raw = make_random_dag_raw(rng)
    edges = []
    for i, e in enumerate(raw.edges):
        for name in rng.sample(("post", "put", "delete"), counts[i % len(counts)]):
            edges.append(EdgeStatement(e.src, e.dst, f"{name}({e.src}, x)"))
    edges += [edges[r % len(edges)] for r in repeats]
    rng.shuffle(edges)
    return RawGraph(raw.name, raw.nodes, edges)


def read_label(text: str) -> tuple[str, tuple[str, ...]]:
    """The name and arguments of a parallel_raw label, read without ssg."""
    name, _, rest = text.partition("(")
    return name, tuple(a.strip() for a in rest[:-1].split(","))


def sent_transitions(graph, paths, sequences) -> set:
    """(source, (name, args), target) of every call, matched to its hop."""
    sent = set()
    for path, calls in zip(paths, sequences):
        hops = [(u, v) for u, v in zip(path, path[1:]) if v != graph.super_final]
        assert len(hops) == len(calls)
        for (u, v), call in zip(hops, calls):
            sent.add((u, (call.op, tuple(call.params.values())), v))
    return sent


class TestParallelLabelsProperty:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 10_000),
           counts=st.lists(st.integers(1, 3), min_size=1, max_size=8),
           repeats=st.lists(st.integers(0, 200), max_size=6))
    def test_every_labelled_transition_is_sent(self, seed, counts, repeats):
        raw = parallel_raw(seed, counts, repeats)
        g = build(raw)
        assert_graph_laws(g)
        index = {rid: i for i, rid in enumerate(g.raw_ids)}
        transitions = {(index[e.src], read_label(e.label), index[e.dst]) for e in raw.edges}
        paths = select_sequences(g)
        for path in paths:
            assert path[0] == g.initial and path[-1] == g.super_final
            assert all(v in g.out_adj[u] for u, v in zip(path, path[1:]))
        sequences = to_call_sequences(g, paths)
        assert sent_transitions(g, paths, sequences) == transitions
        report = coverage_report(g, paths)
        assert (report.state_pct, report.transition_pct) == (100.0, 100.0)
        assert report.transitions_total == len(transitions)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), repeats=st.lists(st.integers(0, 200), max_size=6))
    def test_one_label_per_pair_is_the_least_label_reading(self, seed, repeats):
        raw = parallel_raw(seed, [1], repeats)
        g = build(raw)
        index = {rid: i for i, rid in enumerate(g.raw_ids)}
        least: dict = {}
        for e in raw.edges:
            pair = (index[e.src], index[e.dst])
            least[pair] = min(least.get(pair, e.label), e.label)
        paths = select_sequences(g)
        expected = [[read_label(least[hop]) for hop in zip(p, p[1:]) if hop in least]
                    for p in paths]
        got = [[(c.op, tuple(c.params.values())) for c in s] for s in to_call_sequences(g, paths)]
        assert got == expected


class TestCoverage:
    def test_parallel_labels_each_covered(self):
        g = build(
            parse_dot(
                'digraph { 0 -> 1 [label="b(x)"]; 0 -> 1 [label="a(x)"]; '
                '1 -> 2 [label="c(x)"]; 2 [label="final = TRUE"]; }'
            )
        )
        paths = select_sequences(g)
        # the parallel a/b edges are two transitions, each sent by a call
        assert [[c.op for c in s] for s in to_call_sequences(g, paths)] == [
            ["a", "c"], ["b", "c"]]
        report = coverage_report(g, paths)
        assert report.transitions_total == report.transitions_covered == 3
        assert report.transition_pct == 100.0

    def test_labels_that_parse_alike_are_one_transition(self):
        g = build(parse_dot('digraph { 0 -> 1 [label="a(x)"]; 0 -> 1 [label="a( x )"]; '
                            '0 -> 1 [label="deletePlayer"]; 0 -> 1 [label="deletePlayer()"]; '
                            '1 [label="final = TRUE"]; }'))
        paths = select_sequences(g)
        assert [[(c.op, tuple(c.params.values())) for c in s]
                for s in to_call_sequences(g, paths)] == [[("a", ("x",))], [("deletePlayer", ())]]
        report = coverage_report(g, paths)
        assert report.transitions_total == report.transitions_covered == 2

    def test_a_pair_traversed_once_covers_one_label(self):
        g = build(parse_dot('digraph { 0 -> 1 [label="a(x)"]; 0 -> 1 [label="b(x)"]; '
                            '1 [label="final = TRUE"]; }'))
        report = coverage_report(g, [(0, 1, 2)])
        assert (report.transitions_covered, report.transitions_total) == (1, 2)
        report = coverage_report(g, [(0, 1, 2)] * 3)
        assert (report.transitions_covered, report.transitions_total) == (2, 2)

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
        assert [c.op for c in longest] == [
            "postPlayer",
            "postTournament",
            "postEnrolment",
            "deleteEnrolment",
            "deleteTournament",
            "deletePlayer",
        ]
        enrol = longest[2]
        assert enrol.params == {"eid": "e1", "pid": "p1", "tid": "t1"}
        assert list(enrol.params)[0] == "eid"  # a POST binds its own key first
        assert enrol.verb == "POST" and enrol.path == "/enrolments"

    def test_without_resolver_positional(self):
        g = build(tournaments_raw())
        seqs = to_call_sequences(g, select_sequences(g), None)
        call = seqs[0][0]
        assert call.op == "postPlayer"
        assert call.params == {"arg0": "p1"}
        assert call.verb == ""

    def test_sink_edge_contributes_nothing(self):
        g = build(tournaments_raw())
        seqs = to_call_sequences(g, [(0, 1, 4, 6)], tournaments_resolver)
        assert [c.op for c in seqs[0]] == ["postPlayer", "deletePlayer"]

    def test_unlabeled_edges_skipped(self):
        g = build(parse_dot('digraph { 0 -> 1; 1 [label="final = TRUE"]; }'))
        seqs = to_call_sequences(g, select_sequences(g), None)
        assert seqs[0] == []

    def test_unreadable_label_fails_naming_the_edge(self):
        raw = parse_dot(
            'digraph { "s0" -> "s1" [label="go now"]; "s1" [label="final = TRUE"]; }')
        with pytest.raises(GraphError, match="^edge s0 -> s1: cannot read label 'go now'"):
            build(raw)

    def test_parallel_labels_sent_in_turn(self):
        # the k-th traversal of a pair sends its label min(k, n-1)
        g = build(parse_dot('digraph { 0 -> 1 [label="b(y)"]; 0 -> 1 [label="a(x)"]; '
                            '1 [label="final = TRUE"]; }'))
        seqs = to_call_sequences(g, [(0, 1, 2)] * 3)
        assert [(c.op, c.params) for s in seqs for c in s] == [
            ("a", {"arg0": "x"}), ("b", {"arg0": "y"}), ("b", {"arg0": "y"})]


def _put(op_id: str, collection: str, key: str) -> Operation:
    item = f"{collection}/{{{key}}}"
    return Operation(op_id=op_id, method="PUT", path=item, raw={}, own_key=key,
                     collection=collection, item_path=item)


PUT_CATALOG = {
    path: put
    for put in (_put("putPlayer", "/players", "pid"), _put("putTournament", "/tournaments", "tid"))
    for path in (put.collection, put.item_path)
}


# the key each catalog entry's collection and item paths address
PUT_KEYS = {path: put.own_key for path, put in PUT_CATALOG.items()}


def tournaments_sequences():
    g = build(tournaments_raw())
    return to_call_sequences(g, select_sequences(g), tournaments_resolver)


class TestInsertPuts:
    def test_zero_is_identity(self):
        seqs = tournaments_sequences()
        out = insert_puts(seqs, PUT_CATALOG, 0, seed=1)
        assert out == seqs

    def test_limit_enforced(self):
        with pytest.raises(ValueError, match="at least 0, got -1"):
            insert_puts(tournaments_sequences(), PUT_CATALOG, -1, seed=1)

    def test_placement_property(self):
        # Over many seeds, every PUT must sit after its POST and before its
        # DELETE, and resources without a PUT operation gain nothing.
        for seed in range(60):
            out = insert_puts(tournaments_sequences(), PUT_CATALOG, 3, seed=seed)
            for seq in out:
                for i, call in enumerate(seq):
                    if call.verb != "PUT":
                        continue
                    key = PUT_KEYS[call.path]
                    assert call.params.keys() == {key}
                    tla = call.params[key]
                    post_idx = next(
                        j
                        for j, c in enumerate(seq)
                        if c.verb == "POST" and c.params.get(PUT_KEYS.get(c.path)) == tla
                    )
                    delete_idxs = [
                        j
                        for j, c in enumerate(seq)
                        if c.verb == "DELETE" and c.params.get(PUT_KEYS.get(c.path)) == tla
                    ]
                    assert i > post_idx
                    if delete_idxs:
                        assert i < delete_idxs[0]
                assert all("eid" not in c.params or c.verb != "PUT" for c in seq)

    # 4 is past the command line's bound, which insert_puts does not apply
    @pytest.mark.parametrize("max_puts", [2, 4])
    def test_put_count_bounded(self, max_puts):
        counts = []
        for seed in range(30):
            for seq in insert_puts(tournaments_sequences(), PUT_CATALOG, max_puts, seed=seed):
                counts += Counter(c.params[PUT_KEYS[c.path]] for c in seq
                                  if c.verb == "PUT").values()
        assert max(counts) == max_puts

    def test_deterministic_per_seed(self):
        a = insert_puts(tournaments_sequences(), PUT_CATALOG, 3, seed=99)
        b = insert_puts(tournaments_sequences(), PUT_CATALOG, 3, seed=99)
        assert [[c.op for c in s] for s in a] == [[c.op for c in s] for s in b]

    def test_some_seed_actually_inserts(self):
        out = insert_puts(tournaments_sequences(), PUT_CATALOG, 3, seed=7)
        total_puts = sum(1 for s in out for c in s if c.verb == "PUT")
        assert total_puts > 0

    def test_resources_whose_item_paths_share_a_key_keep_their_own_puts(self):
        def resource(collection, name):
            ops = {verb: {"operationId": verb + name, "responses": {"200": {}}}
                   for verb in ("post", "put", "delete")}
            return {collection: {"post": ops.pop("post")}, collection + "/{pid}": ops}

        spec = load_oas({"openapi": "3.0.3", "paths": {
            **resource("/players", "Player"), **resource("/orgs/{org}/players", "OrgPlayer")}})
        catalog = spec.put_catalog()
        assert catalog["/players"] is spec.operation("putPlayer")
        assert catalog["/orgs/{org}/players/{pid}"] is spec.operation("putOrgPlayer")
        seq = [Call("postPlayer", "POST", "/players", {"pid": "p1"}),
               Call("deletePlayer", "DELETE", "/players/{pid}", {"pid": "p1"})]
        puts = [c for seed in range(20) for c in insert_puts([seq], catalog, 3, seed)[0][1:-1]]
        assert puts
        assert all(c == Call("putPlayer", "PUT", "/players/{pid}", {"pid": "p1"}) for c in puts)


# the hand-drawn graph and explored models over a few id domains and capacities
TOURNAMENT_MODELS = [
    None,
    (("p1",), ("t1",), ("e1",), (1, 2)),
    ((), ("t1", "t2"), (), (1,)),
    (("p1", "p2"), ("t1",), ("e1",), (1,)),
]


@functools.lru_cache(maxsize=None)
def tournaments_graph(domains):
    if domains is None:
        return build(tournaments_raw())
    x = explore(load_model(tournaments_model_doc(*domains)))
    return build(parse_dot("".join(x.dot_lines())), initial="0")


class TestSequencesJson:
    def test_round_trip(self):
        seqs = tournaments_sequences()
        text = sequences_to_json(seqs, seed=42)
        seed, back = sequences_from_json(text)
        assert seed == 42
        assert [[c.to_json() for c in s] for s in back] == [
            [c.to_json() for c in s] for s in seqs
        ]

    @settings(max_examples=80, deadline=None)
    @given(graph=st.one_of(st.integers(0, 10_000).map(build_random_dag),
                           st.sampled_from(TOURNAMENT_MODELS).map(tournaments_graph)),
           resolve=st.booleans(), puts=st.integers(0, 3), seed=st.integers(0, 2**32))
    def test_a_suite_reads_back_as_written(self, graph, resolve, puts, seed):
        paths = select_sequences(graph)
        calls = to_call_sequences(graph, paths, tournaments_resolver if resolve else None)
        suite = insert_puts(calls, PUT_CATALOG, puts, seed)
        assert sequences_from_json(sequences_to_json(suite, seed)) == (seed, suite)

    def test_a_document_nested_too_deeply(self):
        # deeper than any interpreter's recursion limit for the JSON decoder
        text = '{"sequences": ' + "[" * 20_000 + "]" * 20_000 + "}"
        with pytest.raises(ValueError, match="^top level: nested too deeply to read$"):
            sequences_from_json(text)

    def test_byte_determinism(self):
        a = sequences_to_json(tournaments_sequences(), seed=5)
        b = sequences_to_json(tournaments_sequences(), seed=5)
        assert a == b
