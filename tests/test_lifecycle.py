import pytest

from helpers import assert_graph_laws, run_in_ascii_locale
from statecover import seqgen, ssg
from statecover.lifecycle import (
    InvariantViolation,
    Model,
    ModelError,
    explore,
    load_model,
)
from statecover.speckit import fixture_path


TOURNAMENT_LABELS = [
    "postPlayer(p1)",
    "postTournament(t1)",
    "deletePlayer(p1)",
    "postTournament(t1)",
    "deleteTournament(t1)",
    "postPlayer(p1)",
    "deletePlayer(p1)",
    "deleteTournament(t1)",
    "postEnrolment(e1,p1,t1)",
    "deleteEnrolment(e1)",
]


@pytest.fixture
def model():
    return load_model(fixture_path("tournaments_p1t1e1.yaml"))


def built_graph(exploration):
    """The graph the command line builds from explore's DOT output."""
    return ssg.build(ssg.parse_dot(exploration.to_dot()), initial="0")


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
        assert model.resource("players").record["ts"].kind == "set"
        assert model.resource("tournaments").record["c"].kind == "capacity"
        assert model.resource("enrolments").record["pid"].target == "players"

    def test_file_is_read_as_utf8_whatever_the_locale(self, tmp_path):
        text = fixture_path("tournaments_p1t1e1.yaml").read_text(encoding="utf-8")
        path = tmp_path / "model.yaml"
        path.write_text("# Turniere für Spielerinnen\n" + text.replace(
            "name: tournaments_p1t1e1", "name: turniere_für_alle", 1), encoding="utf-8")
        out = run_in_ascii_locale(
            "from statecover.lifecycle import load_model\n"
            f"print(ascii(load_model({str(path)!r}).name))\n")
        assert out.strip() == ascii("turniere_für_alle")

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
    return doc


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
}


class TestMalformedModel:
    @pytest.mark.parametrize("case", sorted(MALFORMED_MODELS))
    def test_fails_the_load_with_a_location(self, case):
        with pytest.raises(ModelError) as exc:
            load_model(malformed_model(case))
        assert str(exc.value) == MALFORMED_MODELS[case]


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
        assert x.states[0] == "players: {} /\\ tournaments: {} /\\ enrolments: {} /\\ final = FALSE"

    def test_final_state_is_empty_and_final(self, model):
        x = explore(model)
        (f,) = x.finals
        assert x.states[f] == "players: {} /\\ tournaments: {} /\\ enrolments: {} /\\ final = TRUE"

    def test_enrolled_state_rendering(self, model):
        x = explore(model)
        expected = (
            "players: {p1[ts={t1}]} /\\ tournaments: {t1[c=1, ps={p1}]} "
            "/\\ enrolments: {e1[pid=p1, tid=t1]} /\\ final = FALSE"
        )
        assert expected in x.states

    def test_deterministic(self, model):
        a = explore(model)
        b = explore(load_model(fixture_path("tournaments_p1t1e1.yaml")))
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
            [c.op for c in s.calls] for s in seqs if any(c.op == "postEnrolment" for c in s.calls)
        ]
        assert len(with_enrol) == 1
        ops = with_enrol[0]
        assert ops.index("postEnrolment") < ops.index("deleteEnrolment")

    def test_dot_round_trip_isomorphic(self, model):
        x = explore(model)
        g = built_graph(x)
        direct = ssg.build(x.to_raw(), initial="0")
        assert (g.n_states, g.edge_count(), g.finals) == (
            direct.n_states, direct.edge_count(), direct.finals)
        assert g.edge_labels == direct.edge_labels
        assert [n.label for n in ssg.parse_dot(x.to_dot()).nodes] == x.states


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

    def test_type_check_rejects_wrong_record_shape(self):
        doc = toggler_doc()
        doc["resources"][0]["record"] = {"xs": {"set": "things"}}
        doc["actions"][0]["effect"] = ["put things[kid] = {}"]  # missing xs
        with pytest.raises(InvariantViolation, match="type"):
            explore(load_model(doc))

    def test_frame_violation(self):
        doc = toggler_doc()
        doc["actions"][0]["unchanged"] = ["things"]
        with pytest.raises(ModelError, match="unchanged"):
            explore(load_model(doc))

    def test_duplicate_add_rejected(self):
        doc = toggler_doc()
        doc["resources"][0]["record"] = {"xs": {"set": "things"}}
        doc["actions"][0]["effect"] = ["put things[kid] = {xs: {}}", "add things[kid].xs kid", "add things[kid].xs kid"]
        with pytest.raises(ModelError, match="already"):
            explore(load_model(doc))

    def test_guard_deref_of_absent_id(self):
        doc = toggler_doc()
        doc["resources"][0]["record"] = {"xs": {"set": "things"}}
        doc["actions"][0]["effect"] = ["put things[kid] = {xs: {}}"]
        # forgot the membership conjunct in front of the deref
        doc["actions"][1]["guard"] = "size(things[kid].xs) = 0"
        with pytest.raises(ModelError, match="membership"):
            explore(load_model(doc))

    def test_state_cap(self, model):
        with pytest.raises(ModelError, match="exceeds"):
            explore(model, max_states=3)

    def test_effect_typo_fails_fast(self):
        doc = toggler_doc()
        doc["actions"][0]["effect"] = ["pvt things[kid] = {}"]
        with pytest.raises(ModelError, match="effect verb"):
            explore(load_model(doc))


def violation_trace(model, predicate):
    """The action trace to the first state breaking predicate, or None."""
    try:
        explore(model, predicate=predicate)
    except InvariantViolation as violation:
        return violation.trace
    return None


class TestCheckInvariant:
    def test_holds(self, model):
        assert violation_trace(model, lambda maps: len(maps["players"]) <= 1) is None

    def test_counterexample_trace(self, model):
        trace = violation_trace(model, lambda maps: not maps["enrolments"])
        assert trace is not None
        assert trace[-1] == "postEnrolment(e1,p1,t1)"
        assert trace[0] in ("postPlayer(p1)", "postTournament(t1)")

    def test_trace_replays_to_violation(self, model):
        """The returned trace is a genuine path: replaying it step by step
        through the explored graph ends in a predicate-violating state."""
        x = explore(model)
        trace = violation_trace(model, lambda maps: not maps["enrolments"])
        here = 0
        for label in trace:
            nxt = [v for u, v, lbl in x.transitions if u == here and lbl == label]
            assert len(nxt) == 1
            here = nxt[0]
        assert "enrolments: {e1" in x.states[here]
