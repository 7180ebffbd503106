import collections
import hashlib
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import assert_graph_laws, fixture_doc, run_in_ascii_locale, type_error
from statecover import seqgen, ssg
from statecover.demo import tournaments_model_doc
from statecover.lifecycle import (
    InvariantViolation,
    Model,
    ModelError,
    canonical,
    empty_state,
    explore,
    load_model,
    successors,
)
from statecover.speckit import fixture_path, load_yaml


TOURNAMENT_LABELS = [
    "postPlayer(p1)",
    "postTournament(t1,1)",
    "deletePlayer(p1)",
    "postTournament(t1,1)",
    "deleteTournament(t1)",
    "postPlayer(p1)",
    "deletePlayer(p1)",
    "deleteTournament(t1)",
    "postEnrolment(e1,p1,t1)",
    "deleteEnrolment(e1)",
]


@pytest.fixture
def model():
    return load_model(fixture_doc("tournaments_p1t1e1.yaml"))


def texts(exploration):
    """Each explored state's canonical text, by state id."""
    return [canonical(exploration.model, state, i in exploration.finals)
            for i, state in enumerate(exploration.states)]


def built_graph(exploration):
    """The graph the command line builds from explore's DOT output."""
    return ssg.build(ssg.parse_dot("".join(exploration.dot_lines())), initial="0")


def toggler_doc():
    """One resource, one id: a 3-state on/off lifecycle."""
    return {
        "name": "toggler",
        "resources": [{"name": "things", "key": "kid", "ids": ["k1"], "record": {}}],
        "actions": [
            {
                "name": "makeThing",
                "params": {"kid": "things"},
                "guard": "kid not in things",
                "effect": ["put things[kid] = {}"],
            },
            {
                "name": "dropThing",
                "params": {"kid": "things"},
                "guard": "kid in things",
                "effect": ["del things[kid]"],
            },
        ],
    }


class TestLoadModel:
    def test_fixture(self, model):
        assert model.name == "tournaments_p1t1e1"
        assert [r.name for r in model.resources] == ["players", "tournaments", "enrolments"]
        assert model.capacities == (1,)
        assert len(model.actions) == 6
        assert [i.name for i in model.invariants] == ["backrefs_live", "capacity_respected"]
        players, tournaments, enrolments = model.resources
        assert players.record["ts"].kind == "set"
        assert tournaments.record["c"].kind == "capacity"
        assert enrolments.record["pid"].target == "players"

    def test_a_resource_key_is_optional_and_ignored(self):
        text = fixture_path("tournaments_p1t1e1.yaml").read_text(encoding="utf-8")
        with_keys, without = load_yaml(text), load_yaml(text)
        for resource in without["resources"]:
            del resource["key"]
        assert all("key" in resource for resource in with_keys["resources"])
        assert "".join(explore(load_model(without)).dot_lines()) == "".join(
            explore(load_model(with_keys)).dot_lines())

    def test_file_is_read_as_utf8_whatever_the_locale(self, tmp_path):
        text = fixture_path("tournaments_p1t1e1.yaml").read_text(encoding="utf-8")
        path = tmp_path / "model.yaml"
        # a player id, as a model's name must be a DOT identifier
        path.write_text("# Turniere für Spielerinnen\n" + text.replace(
            "ids: [p1]", "ids: [spielerin_für_alle]", 1), encoding="utf-8")
        dot = tmp_path / "graph.dot"
        run_in_ascii_locale("from statecover.cli import main\n"
                            f"assert main(['explore', {str(path)!r}, {str(dot)!r}]) == 0\n")
        assert "postPlayer(spielerin_für_alle)" in dot.read_text(encoding="utf-8")

    @pytest.mark.parametrize("source", [str, lambda path: path], ids=["str", "Path"])
    def test_a_path_is_not_read(self, source):
        with pytest.raises(ModelError, match="^model needs 'resources' and 'actions'$"):
            load_model(source(fixture_path("tournaments_p1t1e1.yaml")))

    def test_two_resources_of_one_name(self):
        doc = toggler_doc()
        doc["resources"].append(dict(doc["resources"][0], ids=["k2"]))
        with pytest.raises(ModelError) as exc:
            load_model(doc)
        assert str(exc.value) == "duplicate resource names"

    def test_unknown_field_target(self):
        doc = toggler_doc()
        doc["resources"][0]["record"] = {"x": {"set": "ghosts"}}
        with pytest.raises(ModelError, match="ghosts"):
            load_model(doc)

    def test_capacity_field_needs_capacities(self):
        doc = toggler_doc()
        doc["resources"][0]["record"] = {"c": "capacity"}
        with pytest.raises(ModelError, match="capacities"):
            load_model(doc)

    def test_bad_field_spec(self):
        doc = toggler_doc()
        doc["resources"][0]["record"] = {"x": {"weird": "things"}}
        with pytest.raises(ModelError, match="field spec"):
            load_model(doc)

    def test_duplicate_action_names(self):
        doc = toggler_doc()
        doc["actions"].append(dict(doc["actions"][0]))
        with pytest.raises(ModelError, match="duplicate action"):
            load_model(doc)

    def test_param_over_unknown_resource(self):
        doc = toggler_doc()
        doc["actions"][0]["params"] = {"kid": "ghosts"}
        with pytest.raises(ModelError, match="ghosts"):
            load_model(doc)

    def test_unknown_terminal(self):
        doc = toggler_doc()
        for terminal in ("whenever", "none"):
            doc["terminal"] = terminal
            with pytest.raises(ModelError, match="unsupported terminal condition"):
                load_model(doc)

    def test_invariant_forall_needs_in(self):
        doc = toggler_doc()
        doc["invariants"] = [{"name": "x", "forall": "k", "check": "k in things"}]
        with pytest.raises(ModelError, match="forall"):
            load_model(doc)

    def test_unreachable_malformed_conjunct_fails_the_load(self):
        doc = toggler_doc()
        # one id, so the first conjunct never holds and evaluation would
        # never reach the second
        doc["actions"][1]["guard"] = "size(things) > 5 and kid within things"
        with pytest.raises(ModelError, match="action dropThing: expected 'in', got 'within'"):
            load_model(doc)

    def test_trailing_tokens_after_an_effect_fail_the_load(self):
        doc = toggler_doc()
        doc["actions"][1]["effect"] = ["del things[kid] and then some"]
        with pytest.raises(ModelError, match="action dropThing: unexpected 'and' after effect"):
            load_model(doc)

    def test_malformed_invariant_fails_the_load(self):
        doc = toggler_doc()
        doc["invariants"] = [{"name": "bounded", "check": "size(things) <="}]
        with pytest.raises(ModelError, match="invariant bounded"):
            load_model(doc)

    # an atom nested deeper than the interpreter's stack can read is refused,
    # naming the action or invariant that holds it
    @pytest.mark.parametrize("place, where", [
        ("guard", "action dropThing"), ("effect", "action dropThing"),
        ("check", "invariant deep"),
    ])
    def test_an_expression_nested_too_deeply(self, place, where):
        doc = toggler_doc()
        deep = "things[" * 3000 + "kid" + "].x" * 3000
        if place == "guard":
            doc["actions"][1]["guard"] = f"kid in things and size({deep}) = 0"
        elif place == "effect":
            doc["actions"][1]["effect"] = [f"del things[{deep}]"]
        else:
            doc["invariants"] = [{"name": "deep", "forall": "kid", "in": "things",
                                  "check": f"{deep} in things"}]
        with pytest.raises(ModelError) as exc:
            load_model(doc)
        assert str(exc.value) == f"{where}: nested too deeply to read"



def malformed_model(case: str) -> dict:
    """toggler_doc with one part of the wrong shape."""
    doc = toggler_doc()
    if case == "resource without name":
        doc["resources"] = [{"key": "kid"}]
    elif case == "resources not a list":
        doc["resources"] = 3
    elif case == "action without name":
        del doc["actions"][0]["name"]
    elif case == "action not a mapping":
        doc["actions"][1] = "dropThing"
    elif case == "record not a mapping":
        doc["resources"][0]["record"] = ["x"]
    elif case == "invariant without check":
        doc["invariants"] = [{"name": "bounded"}]
    elif case == "check not a string":
        doc["invariants"] = [{"name": "bounded", "check": 5}]
    elif case == "ids not a list":
        doc["resources"][0]["ids"] = "k1"
    elif case == "capacities not a list":
        doc["capacities"] = 2
    elif case == "guard not a string":
        doc["actions"][0]["guard"] = 5
    elif case == "effect not a list":
        doc["actions"][1]["effect"] = "del things[kid]"
    elif case == "unchanged not a list":
        doc["actions"][1]["unchanged"] = "things"
    elif case == "unchanged names no resource":
        doc["actions"][1]["unchanged"] = ["ghosts"]
    elif case == "resource name not a string":
        doc["resources"][0]["name"] = ["things"]
    elif case == "action name not a string":
        doc["actions"][1]["name"] = ["dropThing"]
    elif case == "param resource not a string":
        doc["actions"][0]["params"] = {"kid": ["things"]}
    elif case == "field target not a string":
        doc["resources"][0]["record"] = {"peers": {"set": ["things"]}}
    elif case == "invariant domain not a string":
        doc["invariants"] = [{"name": "bounded", "forall": "k", "in": ["things"],
                              "check": "k in things"}]
    elif case == "invariant variable not a string":
        doc["invariants"] = [{"name": "bounded", "forall": ["k"], "in": "things",
                              "check": "k in things"}]
    elif case == "ids repeat an id":
        doc["resources"][0]["ids"] = ["k1", "k2", "k1"]
    # a step label writes its ids joined by ',' and read back stripped
    elif case == "an id with a comma":
        doc["resources"][0]["ids"] = ["k1", "k2,k3"]
    elif case == "an empty id":
        doc["resources"][0]["ids"] = [""]
    elif case == "an id with surrounding whitespace":
        doc["resources"][0]["ids"] = ["k1", "k2 "]
    elif case == "an id with a line break":
        doc["resources"][0]["ids"] = ["k1", "a\nb"]
    # a step label starts with its action's name, which ssg.parse_label reads as a word
    elif case == "an action name with a hyphen":
        doc["actions"][0]["name"] = "make-thing"
    elif case == "an action name with a parenthesis":
        doc["actions"][1]["name"] = "f(x"
    # each name below is checked at load, even where evaluation never reaches it
    elif case == "never-enabled effect names no resource":
        doc["actions"].append({"name": "never", "params": {"kid": "things"},
                               "guard": "size(things) > 5", "effect": ["del thingz[kid]"]})
    elif case == "reachable effect names no resource":
        doc["actions"][1]["effect"] = ["del thingz[kid]"]
    elif case == "unreachable conjunct names no resource":
        doc["actions"][1]["guard"] = "size(things) > 5 and kid in thingz"
    elif case == "unreachable conjunct names no param":
        doc["actions"][1]["guard"] = "size(things) > 5 and kidd in things"
    elif case == "unreachable conjunct names no field":
        doc["resources"][0]["record"] = {"xs": {"set": "things"}}
        doc["actions"][0]["effect"] = ["put things[kid] = {xs: {}}"]
        doc["actions"][1]["guard"] = "size(things) > 5 and size(things[kid].ys) = 0"
    elif case == "put names no field":
        doc["actions"][0]["effect"] = ["put things[kid] = {ys: {}}"]
    elif case == "add to a field that is not a set":
        doc["resources"][0]["record"] = {"c": "capacity"}
        doc["capacities"] = [1]
        doc["actions"][0]["effect"] = ["put things[kid] = {c: 1}", "add things[kid].c kid"]
    elif case == "unreachable conjunct's target is an id":
        doc["actions"][1]["guard"] = "size(things) > 5 and kid in kid"
    elif case == "unreachable size() compared against an id":
        doc["actions"][1]["guard"] = "size(things) > 5 and size(things) = kid"
    elif case == "param with a resource's name":
        doc["actions"][0].update(params={"things": "things"}, guard="things not in things",
                                 effect=["put things[things] = {}"])
    elif case == "forall variable with a resource's name":
        doc["invariants"] = [{"name": "live", "forall": "things", "in": "things",
                              "check": "things in things"}]
    elif case == "never-enabled effect on an unchanged resource":
        doc["actions"].append({"name": "never", "params": {"kid": "things"},
                               "guard": "size(things) > 5", "effect": ["del things[kid]"],
                               "unchanged": ["things"]})
    elif case == "invariant names no resource":
        doc["invariants"] = [{"name": "bounded", "check": "size(thingz) <= 1"}]
    elif case == "invariant names no variable":
        doc["invariants"] = [{"name": "bounded", "forall": "k", "in": "things",
                              "check": "j in things"}]
    elif case == "any of something other than capacity":
        doc["resources"][0]["record"] = {"c": "capacity"}
        doc["capacities"] = [1]
        doc["actions"][0]["effect"] = ["put things[kid] = {c: any number}"]
    elif case == "size() without a comparator":
        doc["actions"][1]["guard"] = "size(things) 5"
    elif case == "a character the tokenizer cannot read":
        doc["actions"][1]["guard"] = "kid in things; size(things) = 1"
    elif case == "a digit outside ASCII":
        doc["actions"][1]["guard"] = "size(things) = \u0660"
    elif case == "a guard that opens with a parenthesis":
        doc["actions"][1]["guard"] = "( in things"
    elif case == "an invariant name used twice":
        # the second check fails in the first state with an enrolment, where
        # the first holds
        doc = fixture_doc("tournaments_p1t1e1.yaml")
        doc["invariants"].append({"name": "backrefs_live", "check": "size(enrolments) = 0"})
    return doc


UNCARRIED = "(empty, with a ',' or a line break, or with surrounding whitespace)"
MALFORMED_MODELS = {
    "resource without name": "resources[0]: missing 'name'",
    "resources not a list": "resources: expected a list, got int",
    "action without name": "actions[0]: missing 'name'",
    "action not a mapping": "actions[1]: expected a mapping, got str",
    "record not a mapping": "resource things: record: expected a mapping, got list",
    "invariant without check": "invariants[0]: missing 'check'",
    "check not a string": "invariant bounded: check: expected a string, got 5",
    "ids not a list": "resource things: ids: expected a list of strings, got 'k1'",
    "capacities not a list": "capacities: expected a list of integers, got 2",
    "guard not a string": "action makeThing: guard: expected a string, got 5",
    "effect not a list":
        "action dropThing: effect: expected a list of strings, got 'del things[kid]'",
    "unchanged not a list":
        "action dropThing: unchanged: expected a list of strings, got 'things'",
    "unchanged names no resource": "action dropThing: unchanged: unknown resource 'ghosts'",
    "resource name not a string": "resources[0]: name: expected a string, got ['things']",
    "action name not a string": "actions[1]: name: expected a string, got ['dropThing']",
    "param resource not a string":
        "action makeThing: param kid over unknown resource ['things']",
    "field target not a string": "resource things.peers: field spec must be {set: R}, "
                                 "{ref: R}, or 'capacity', got {'set': ['things']}",
    "invariant domain not a string": "invariant bounded: unknown resource ['things']",
    "invariant variable not a string": "invariant bounded: forall: expected a string, got ['k']",
    "ids repeat an id": "resource things: ids: 'k1' is listed twice",
    "an id with a comma": "resource things: ids: 'k2,k3' cannot be carried by a step label "
                          f"{UNCARRIED}",
    "an empty id": f"resource things: ids: '' cannot be carried by a step label {UNCARRIED}",
    "an id with surrounding whitespace": "resource things: ids: 'k2 ' cannot be carried by a "
                                         f"step label {UNCARRIED}",
    "an id with a line break": "resource things: ids: 'a\\nb' cannot be carried by a step "
                               f"label {UNCARRIED}",
    "an action name with a hyphen": "actions[0]: name: expected a word (\\w+), got 'make-thing'",
    "an action name with a parenthesis": "actions[1]: name: expected a word (\\w+), got 'f(x'",
    "never-enabled effect names no resource": "action never: unknown resource 'thingz'",
    "reachable effect names no resource": "action dropThing: unknown resource 'thingz'",
    "unreachable conjunct names no resource": "action dropThing: unknown resource 'thingz'",
    "unreachable conjunct names no param": "action dropThing: unknown name 'kidd'",
    "unreachable conjunct names no field": "action dropThing: things records have no field 'ys'",
    "put names no field": "action makeThing: things records have no field 'ys'",
    "add to a field that is not a set":
        "action makeThing: add needs a set field, things.c is not one",
    "unreachable conjunct's target is an id":
        "action dropThing: kid has kind id things, not set R or map R",
    "unreachable size() compared against an id": "action dropThing: kid has kind id things, not int",
    "param with a resource's name": "action makeThing: variable 'things' has a resource's name",
    "forall variable with a resource's name":
        "invariant live: variable 'things' has a resource's name",
    "never-enabled effect on an unchanged resource":
        "action never: declares 'things' unchanged but a del changes it",
    "invariant names no resource": "invariant bounded: unknown resource 'thingz'",
    "invariant names no variable": "invariant bounded: unknown name 'j'",
    "any of something other than capacity":
        "action makeThing: only 'any capacity' is supported, got 'any number'",
    "size() without a comparator": "action dropThing: expected comparator after size(), got '5'",
    "a character the tokenizer cannot read":
        "action dropThing: cannot tokenize at '; size(things) = 1'",
    "a digit outside ASCII": "action dropThing: cannot tokenize at '\u0660'",
    "a guard that opens with a parenthesis": "action dropThing: expected a name, got '('",
    "an invariant name used twice": "duplicate invariant name 'backrefs_live'",
}


class TestMalformedModel:
    @pytest.mark.parametrize("case", sorted(MALFORMED_MODELS))
    def test_fails_the_load_with_a_location(self, case):
        with pytest.raises(ModelError) as exc:
            load_model(malformed_model(case))
        assert str(exc.value) == MALFORMED_MODELS[case]

    def test_an_id_with_parentheses_reads_back_from_its_label(self):
        doc = toggler_doc()
        doc["resources"][0]["ids"] = ["x(y", "k)"]
        x = explore(load_model(doc))
        assert {ssg.parse_label(label) for _, _, label in x.transitions} == {
            (action, (rid,)) for action in ("makeThing", "dropThing") for rid in ("x(y", "k)")}


class TestExploreToggler:
    def test_three_states(self):
        x = explore(load_model(toggler_doc()))
        assert x.state_count == 3
        assert x.transition_count == 2
        assert x.finals == [2]
        assert [lbl for _, _, lbl in x.transitions] == ["makeThing(k1)", "dropThing(k1)"]


class TestExploreTournaments:
    def test_state_and_transition_counts(self, model):
        x = explore(model)
        assert x.state_count == 6
        assert x.transition_count == 10
        assert len(x.finals) == 1

    def test_labels(self, model):
        x = explore(model)
        assert sorted(lbl for _, _, lbl in x.transitions) == sorted(TOURNAMENT_LABELS)

    def test_initial_state_is_empty_not_final(self, model):
        x = explore(model)
        assert texts(x)[0] == "players: {} /\\ tournaments: {} /\\ enrolments: {} /\\ final = FALSE"

    def test_final_state_is_empty_and_final(self, model):
        x = explore(model)
        (f,) = x.finals
        assert texts(x)[f] == "players: {} /\\ tournaments: {} /\\ enrolments: {} /\\ final = TRUE"

    def test_enrolled_state_rendering(self, model):
        x = explore(model)
        expected = (
            "players: {p1[ts={t1}]} /\\ tournaments: {t1[c=1, ps={p1}]} "
            "/\\ enrolments: {e1[pid=p1, tid=t1]} /\\ final = FALSE"
        )
        assert expected in texts(x)

    def test_deterministic(self, model):
        a = explore(model)
        b = explore(load_model(fixture_doc("tournaments_p1t1e1.yaml")))
        assert a.states == b.states
        assert a.transitions == b.transitions

    def test_built_graph_counts(self, model):
        g = built_graph(explore(model))
        assert (g.n_states - 1, g.edge_count() - len(g.finals)) == (6, 10)
        assert (g.n_states, g.edge_count()) == (7, 11)
        assert_graph_laws(g)

    def test_sequences_cover_everything(self, model):
        g = built_graph(explore(model))
        selected = seqgen.select_sequences(g)
        assert len(selected) == 6
        report = seqgen.coverage_report(g, selected)
        assert report.state_pct == 100.0
        assert report.transition_pct == 100.0

    def test_enrolment_sequence_orders_post_before_delete(self, model):
        g = built_graph(explore(model))
        selected = seqgen.select_sequences(g)
        seqs = seqgen.to_call_sequences(g, selected, None)
        with_enrol = [
            [c.op for c in s] for s in seqs if any(c.op == "postEnrolment" for c in s)
        ]
        assert len(with_enrol) == 1
        ops = with_enrol[0]
        assert ops.index("postEnrolment") < ops.index("deleteEnrolment")

    def test_dot_round_trip_isomorphic(self, model):
        x = explore(model)
        g = built_graph(x)
        nodes = [ssg.NodeStatement(str(i), label) for i, label in enumerate(texts(x))]
        edges = [ssg.EdgeStatement(str(u), str(v), label) for u, v, label in x.transitions]
        direct = ssg.build(ssg.RawGraph(x.model.name, nodes, edges), initial="0")
        assert (g.n_states, g.edge_count(), g.finals) == (
            direct.n_states, direct.edge_count(), direct.finals)
        assert g.labels == direct.labels
        assert [ssg._unquote(n.label) for n in ssg.parse_dot("".join(x.dot_lines())).nodes] == texts(x)

    def test_ids_with_quotes_and_backslashes_read_back(self):
        # ids reach the DOT inside state texts and step labels, both escaped
        x = explore(load_model(tournaments_model_doc(('p"1',), ("t\\l1",), ("e\\",), (1,))))
        raw = ssg.parse_dot("".join(x.dot_lines()))
        assert [ssg._unquote(n.label) for n in raw.nodes] == texts(x)
        assert [ssg._unquote(e.label) for e in raw.edges] == [t[2] for t in x.transitions]
        assert 'postPlayer(p"1)' in {t[2] for t in x.transitions}


class TestExploreDotIsPinned:
    @pytest.mark.parametrize("model, counts, sha256", [
        pytest.param(lambda: load_model(fixture_doc("tournaments_p1t1e1.yaml")), (6, 10, 985),
                     "d1d296ba460b163349d81d6ed7165f3a08327fa4d10283564befb3e925c435ca", id="p1t1e1"),
        pytest.param(lambda: load_model(tournaments_model_doc(
            players=(), tournaments=("t1", "t2"), enrolments=())), (5, 8, 803),
                     "385ea802da672e46ba6f39cd766da4e0c7ec9d1a97d94094982a9aa096956bfc", id="t1t2"),
        pytest.param(lambda: load_model(tournaments_model_doc(
            ("p1", "p2"), ("t1", "t2"), ("e1", "e2"), (1, 2))), (193, 872, 64429),
                     "b90b1e64a8005dc70dc1ddc1b447f785b5be43a07d29cde02a8c0b5663c8c73c", id="p2t2e2"),
        # the sizes of the benchmark's campaign and generate models
        pytest.param(lambda: load_model(tournaments_model_doc(
            ("p1",), ("t1",), ("e1",), (1, 2))), (9, 18, 1610),
                     "beba3f66d568626949171c26745690eaf9b4fced720f04c316645173484431f2", id="p1t1e1-caps12"),
        pytest.param(lambda: load_model(tournaments_model_doc(
            ("p1", "p2", "p3"), ("t1", "t2"), ("e1", "e2", "e3"), (1, 2))), (1657, 9696, 711899),
                     "e153f1848c021371e8a41979e402ea648ddaa9850382f216cabc469657a87104", id="p3t2e3"),
    ])
    def test_sha256(self, model, counts, sha256):
        x = explore(model())
        dot = "".join(x.dot_lines()).encode("utf-8")
        assert (x.state_count, x.transition_count, len(dot)) == counts
        assert hashlib.sha256(dot).hexdigest() == sha256

    def test_writing_holds_no_text_per_state(self):
        """Iterating dot_lines on the 1,657-state p3t2e3 model holds a few
        lines at a time: about 4 KB, where a cache of each state's id text
        would hold 150 KB."""
        x = explore(load_model(tournaments_model_doc(
            ("p1", "p2", "p3"), ("t1", "t2"), ("e1", "e2", "e3"), (1, 2))))
        collections.deque(x.dot_lines(), 0)  # the first calls allocate once
        tracemalloc.start()
        try:
            collections.deque(x.dot_lines(), 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32_000, peak


class TestTwoTournamentVariant:
    def doc(self):
        return {
            "name": "tournaments_t1t2",
            "resources": [
                {
                    "name": "tournaments",
                    "key": "tid",
                    "ids": ["t1", "t2"],
                    "record": {"ps": {"set": "tournaments"}, "c": "capacity"},
                }
            ],
            "capacities": [1],
            "actions": [
                {
                    "name": "postTournament",
                    "params": {"tid": "tournaments"},
                    "guard": "tid not in tournaments",
                    "effect": ["put tournaments[tid] = {ps: {}, c: any capacity}"],
                },
                {
                    "name": "deleteTournament",
                    "params": {"tid": "tournaments"},
                    "guard": "tid in tournaments and size(tournaments[tid].ps) = 0",
                    "effect": ["del tournaments[tid]"],
                },
            ],
        }

    def test_five_states_eight_edges(self):
        x = explore(load_model(self.doc()))
        assert x.state_count == 5
        assert x.transition_count == 8

    def test_capacity_branching_multiplies_states(self):
        doc = self.doc()
        doc["capacities"] = [1, 2]
        doc["resources"][0]["ids"] = ["t1"]
        x = explore(load_model(doc))
        # empty-F, t1 at capacity 1, t1 at capacity 2, empty-T
        assert x.state_count == 4


class TestSteps:
    def test_a_guard_runs_once_per_params_env_not_per_draw(self):
        model = load_model(tournaments_model_doc(("p1",), ("t1",), ("e1",), (1, 2)))
        calls = collections.Counter()

        def counted(action):
            def guard(env, state):
                calls[action.name] += 1
                return action.guard(env, state)
            return action._replace(guard=guard)
        x = explore(model._replace(actions=tuple(map(counted, model.actions))))
        # once in each state that is not final, for its one tournament id
        assert x.state_count - len(x.finals) == 8
        assert calls["postTournament"] == 8

    def test_two_draws_in_one_put(self):
        doc = {
            "name": "pairs",
            "resources": [{"name": "slots", "ids": ["s1"],
                           "record": {"a": "capacity", "b": "capacity"}}],
            "capacities": [1, 2],
            "actions": [
                {"name": "mk", "params": {"sid": "slots"}, "guard": "sid not in slots",
                 "effect": ["put slots[sid] = {a: any capacity, b: any capacity}"]},
                {"name": "rm", "params": {"sid": "slots"}, "guard": "sid in slots",
                 "effect": ["del slots[sid]"]},
            ],
        }
        x = explore(load_model(doc))
        assert (x.state_count, x.transition_count) == (6, 8)
        # the draws vary fastest, the last one fastest of all
        assert [lbl for _, _, lbl in x.transitions] == [
            "mk(s1,1,1)", "mk(s1,1,2)", "mk(s1,2,1)", "mk(s1,2,2)", *["rm(s1)"] * 4]
        assert texts(x)[1:5] == [f"slots: {{s1[a={a}, b={b}]}} /\\ final = FALSE"
                                 for a in (1, 2) for b in (1, 2)]


def two_resource_doc(record: dict, effects: list) -> dict:
    """things (id k1) with the given record, and others (id o1); one action,
    make, with a things and an others param and the given effects."""
    return {
        "name": "typed",
        "resources": [{"name": "things", "ids": ["k1"], "record": record},
                      {"name": "others", "ids": ["o1"], "record": {}}],
        "capacities": [1, 2],
        "actions": [{"name": "make", "params": {"kid": "things", "o": "others"},
                     "guard": "kid not in things", "effect": effects}],
    }


class TestModelChecks:
    def test_capacity_invariant_violation_carries_trace(self):
        doc = {
            "name": "overfill",
            "resources": [
                {"name": "slots", "key": "sid", "ids": ["s1"], "record": {"xs": {"set": "users"}, "c": "capacity"}},
                {"name": "users", "key": "uid", "ids": ["u1", "u2"], "record": {}},
            ],
            "capacities": [1],
            "actions": [
                {"name": "mkSlot", "params": {"sid": "slots"}, "guard": "sid not in slots",
                 "effect": ["put slots[sid] = {xs: {}, c: any capacity}"]},
                {"name": "mkUser", "params": {"uid": "users"}, "guard": "uid not in users",
                 "effect": ["put users[uid] = {}"]},
                # no size() guard, so the slot overfills
                {"name": "join", "params": {"uid": "users", "sid": "slots"},
                 "guard": "uid in users and sid in slots and uid not in slots[sid].xs",
                 "effect": ["add slots[sid].xs uid"]},
            ],
            "invariants": [
                {"name": "fits", "forall": "s", "in": "slots", "check": "size(slots[s].xs) <= slots[s].c"}
            ],
        }
        with pytest.raises(InvariantViolation) as exc:
            explore(load_model(doc))
        assert exc.value.name == "fits"
        assert len(exc.value.trace) >= 4
        assert exc.value.trace[-1].startswith("join(")

    @pytest.mark.parametrize("first", [0, 1])
    def test_the_first_invariant_declared_is_the_one_named(self, first):
        # both break in the state that postTournament(t1,1) reaches first
        broken = [{"name": "no_tournaments", "check": "size(tournaments) = 0"},
                  {"name": "no_open_seats", "forall": "t", "in": "tournaments",
                   "check": "size(tournaments[t].ps) < 0"}]
        doc = fixture_doc("tournaments_p1t1e1.yaml")
        doc["invariants"] += broken[first:] + broken[:first]
        with pytest.raises(InvariantViolation) as exc:
            explore(load_model(doc))
        assert exc.value.name == broken[first]["name"]
        assert exc.value.trace == ("postTournament(t1,1)",)
        assert exc.value.state == ("players: {} /\\ tournaments: {t1[c=1, ps={}]} "
                                   "/\\ enrolments: {} /\\ final = FALSE")

    def test_type_check_rejects_wrong_record_shape(self):
        doc = toggler_doc()
        doc["resources"][0]["record"] = {"xs": {"set": "things"}}
        doc["actions"][0]["effect"] = ["put things[kid] = {}"]  # missing xs
        with pytest.raises(ModelError) as exc:
            load_model(doc)
        assert str(exc.value) == (
            "action makeThing: put things[kid] gives the fields [], not each of ['xs'] once")

    def test_frame_violation(self):
        doc = toggler_doc()
        doc["actions"][0]["unchanged"] = ["things"]
        with pytest.raises(ModelError) as exc:
            load_model(doc)
        assert str(exc.value) == "action makeThing: declares 'things' unchanged but a put changes it"

    def test_duplicate_add_rejected(self):
        doc = toggler_doc()
        doc["resources"][0]["record"] = {"xs": {"set": "things"}}
        doc["actions"][0]["effect"] = ["put things[kid] = {xs: {}}", "add things[kid].xs kid", "add things[kid].xs kid"]
        with pytest.raises(ModelError, match="already"):
            explore(load_model(doc))

    @pytest.mark.parametrize("effects, message", [
        (["add things[kid].xs kid"], "action makeThing: add on absent things[k1]"),
        (["put things[kid] = {xs: {}}", "remove things[kid].xs kid"],
         "action makeThing: remove of element missing from things[k1].xs"),
    ])
    def test_a_set_effect_the_state_does_not_allow(self, effects, message):
        doc = toggler_doc()
        doc["resources"][0]["record"] = {"xs": {"set": "things"}}
        doc["actions"][0]["effect"] = effects
        model = load_model(doc)
        with pytest.raises(ModelError) as exc:
            explore(model)
        assert str(exc.value) == message

    def test_guard_deref_of_absent_id(self):
        doc = toggler_doc()
        doc["resources"][0]["record"] = {"xs": {"set": "things"}}
        doc["actions"][0]["effect"] = ["put things[kid] = {xs: {}}"]
        # forgot the membership conjunct in front of the deref
        doc["actions"][1]["guard"] = "size(things[kid].xs) = 0"
        with pytest.raises(ModelError, match="membership"):
            explore(load_model(doc))

    def test_an_id_outside_its_domain_is_type_checked(self):
        doc = two_resource_doc({}, ["put things[o] = {}"])
        with pytest.raises(ModelError) as exc:
            load_model(doc)
        assert str(exc.value) == "action make: o has kind id others, not id things"

    @pytest.mark.parametrize("record, effects, problem", [
        pytest.param({"xs": {"set": "things"}}, ["put things[kid] = {xs: kid}"],
                     "things.xs = kid has kind id things, not set things", id="set-given-an-id"),
        pytest.param({"xs": {"set": "things"}},
                     ["put things[kid] = {xs: {}}", "add things[kid].xs o"],
                     "o has kind id others, not id things", id="foreign-id-in-a-set"),
        pytest.param({"r": {"ref": "others"}}, ["put things[kid] = {r: kid}"],
                     "things.r = kid has kind id things, not id others",
                     id="ref-to-another-resource"),
        pytest.param({"c": "capacity"}, ["put things[kid] = {c: 5}"],
                     "things.c = 5 is not one of the capacities [1, 2]", id="undeclared-capacity"),
        pytest.param({"xs": {"set": "things"}}, ["put things[kid] = {xs: 1}"],
                     "things.xs = 1 has kind int, not set things", id="int-for-a-set"),
        pytest.param({"c": "capacity"}, ["put things[kid] = {c: kid}"],
                     "things.c = kid has kind id things, not int", id="id-for-a-capacity"),
        pytest.param({"xs": {"set": "things"}},
                     ["put things[kid] = {xs: {}}", "remove things[kid].xs o"],
                     "o has kind id others, not id things", id="foreign-id-removed-from-a-set"),
    ])
    def test_type_check_of_a_field(self, record, effects, problem):
        with pytest.raises(ModelError) as exc:
            load_model(two_resource_doc(record, effects))
        assert str(exc.value) == f"action make: {problem}"

    # each guard below never lets evaluation reach its ill-typed part
    @pytest.mark.parametrize("record, guard, effects, problem", [
        pytest.param({}, "kid not in things and o in things", ["put things[kid] = {}"],
                     "o has kind id others, not id things", id="element-of-another-resource"),
        pytest.param({"c": "capacity"}, "size(things) > 5", ["put things[kid] = {c: 5}"],
                     "things.c = 5 is not one of the capacities [1, 2]",
                     id="undeclared-capacity"),
        pytest.param({"c": "capacity"}, "size(things) > 5", ["put things[kid] = {c: {}}"],
                     "things.c = {} has kind set, not int", id="empty-set-for-a-capacity"),
        pytest.param({"xs": {"set": "things"}}, "size(things) > 5",
                     ["put things[kid] = {xs: any capacity}"],
                     "things.xs = any capacity has kind int, not set things",
                     id="capacity-for-a-set"),
        pytest.param({"xs": {"set": "things"}}, "size(things) > 5",
                     ["put things[kid] = {xs: {}, xs: {}}"],
                     "put things[kid] gives the fields ['xs', 'xs'], not each of ['xs'] once",
                     id="field-given-twice"),
        pytest.param({"c": "capacity"}, "size(things) > 5 and kid in things[kid].c",
                     ["put things[kid] = {c: 1}"],
                     "things[kid].c has kind int, not set R or map R", id="capacity-as-an-in-target"),
        pytest.param({"c": "capacity"}, "size(things) > 5 and size(things[kid].c) = 0",
                     ["put things[kid] = {c: 1}"],
                     "things[kid].c has kind int, not set R or map R", id="capacity-as-a-size-target"),
    ])
    def test_an_unreachable_kind_error_fails_the_load(self, record, guard, effects, problem):
        doc = two_resource_doc(record, effects)
        doc["actions"][0]["guard"] = guard
        with pytest.raises(ModelError) as exc:
            load_model(doc)
        assert str(exc.value) == f"action make: {problem}"

    def test_state_cap(self, model):
        with pytest.raises(ModelError, match="exceeds"):
            explore(model, max_states=3)

    def test_effect_typo_fails_fast(self):
        doc = toggler_doc()
        doc["actions"][0]["effect"] = ["pvt things[kid] = {}"]
        with pytest.raises(ModelError, match="effect verb"):
            explore(load_model(doc))


def some_ids(prefix: str):
    return st.integers(0, 2).map(lambda n: [f"{prefix}{i}" for i in range(1, n + 1)])


class TestReachableStatesAreWellTyped:
    @settings(max_examples=150, deadline=None)
    @given(some_ids("p"), some_ids("t"), some_ids("e"),
           st.sets(st.sampled_from([1, 2, 3]), min_size=1).map(sorted), st.booleans())
    def test_on_the_tournaments_model(self, players, tournaments, enrolments, capacities,
                                      reordered):
        doc = tournaments_model_doc(players, tournaments, enrolments, capacities)
        if reordered:
            # postTournament's records, with their fields written in the other order
            doc["actions"].append({
                "name": "postTournamentCFirst", "params": {"tid": "tournaments"},
                "guard": "tid not in tournaments",
                "effect": ["put tournaments[tid] = {c: any capacity, ps: {}}"]})
        model = load_model(doc)
        x = explore(model)
        # walk successors to the same states, final ones unexpanded, and
        # check the tuple behind each text and each state that explore keeps
        initial = empty_state(model)
        found, queue, targets = {canonical(model, initial, False): initial}, [initial], {}
        for state in queue:
            here = canonical(model, state, False)
            for label, nxt in successors(model, state):
                final = nxt == initial
                text = canonical(model, nxt, final)
                targets.setdefault((here, label), set()).add(text)
                if text not in found:
                    found[text] = nxt
                    if not final:
                        queue.append(nxt)
            assert canonical(model, state, False) == here, "successors changed its state"
        assert sorted(found) == sorted(texts(x))
        # a label names every choice of its step
        assert {k: v for k, v in targets.items() if len(v) > 1} == {}
        for text, state in found.items():
            assert type_error(model, state) is None, text
        for state in x.states:
            assert type_error(model, state) is None, state


def violation_trace(check):
    """The action trace to the first state of the fixture model that breaks
    the extra model invariant check, or None."""
    doc = fixture_doc("tournaments_p1t1e1.yaml")
    doc["invariants"].append({"name": "under_test", "check": check})
    try:
        explore(load_model(doc))
    except InvariantViolation as violation:
        assert violation.name == "under_test"
        return violation.trace
    return None


class TestCheckInvariant:
    def test_holds(self):
        assert violation_trace("size(players) <= 1") is None

    def test_counterexample_trace(self):
        trace = violation_trace("size(enrolments) = 0")
        assert trace is not None
        assert trace[-1] == "postEnrolment(e1,p1,t1)"
        assert trace[0] in ("postPlayer(p1)", "postTournament(t1,1)")
        assert trace == ("postPlayer(p1)", "postTournament(t1,1)", "postEnrolment(e1,p1,t1)")

    def test_trace_replays_to_violation(self, model):
        """The returned trace is a genuine path: replaying it step by step
        through the explored graph ends in a state that breaks the check."""
        x = explore(model)
        trace = violation_trace("size(enrolments) = 0")
        here = 0
        for label in trace:
            nxt = [v for u, v, lbl in x.transitions if u == here and lbl == label]
            assert len(nxt) == 1
            here = nxt[0]
        assert "enrolments: {e1" in texts(x)[here]
