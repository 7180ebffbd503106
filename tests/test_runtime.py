import pytest
from hypothesis import given, strategies as st

from helpers import AppSession
from statecover.demo import demo_spec
from statecover.executor import NOT_TESTED, OK, SequenceRunner
from statecover.runtime import GenerationError, InputGenerator
from statecover.seqgen import Call
from statecover.speckit import fixture_path, load_oas


class TestNextId:
    def test_base_from_seed(self):
        assert InputGenerator(0).next_id("pid") == "pid10000"
        assert InputGenerator(123).next_id("pid") == "pid10123"
        assert InputGenerator(80000).next_id("pid") == "pid10000"

    def test_counters_independent_and_monotonic(self):
        gen = InputGenerator(0)
        assert gen.next_id("pid") == "pid10000"
        assert gen.next_id("pid") == "pid10001"
        assert gen.next_id("tid") == "tid10000"
        assert gen.next_id("pid") == "pid10002"

    @given(st.integers(min_value=0, max_value=10**9))
    def test_ids_unique_within_run(self, seed):
        gen = InputGenerator(seed)
        ids = [gen.next_id("pid") for _ in range(20)] + [gen.next_id("tid") for _ in range(20)]
        assert len(set(ids)) == len(ids)


class TestGenerate:
    def test_deterministic_per_seed(self):
        schema = {
            "type": "object",
            "properties": {"a": {"type": "string"}, "b": {"type": "integer"}},
        }
        a = [InputGenerator(7).generate(schema) for _ in range(3)]
        b = [InputGenerator(7).generate(schema) for _ in range(3)]
        assert a == b

    def test_integer_bounds(self):
        schema = {"type": "integer", "minimum": 1, "maximum": 3}
        for seed in range(50):
            v = InputGenerator(seed).generate(schema)
            assert isinstance(v, int) and 1 <= v <= 3

    def test_number_bounds(self):
        schema = {"type": "number", "minimum": 0.5, "maximum": 2.5}
        v = InputGenerator(3).generate(schema)
        assert isinstance(v, float) and 0.5 <= v <= 2.5

    def test_string_lengths(self):
        schema = {"type": "string", "minLength": 4, "maxLength": 6}
        for seed in range(20):
            v = InputGenerator(seed).generate(schema)
            assert isinstance(v, str) and 4 <= len(v) <= 6

    def test_enum(self):
        assert InputGenerator(1).generate({"enum": ["x", "y"]}) in ("x", "y")

    def test_boolean(self):
        assert InputGenerator(1).generate({"type": "boolean"}) in (True, False)

    def test_array_lengths(self):
        schema = {"type": "array", "items": {"type": "integer"}, "minItems": 1, "maxItems": 2}
        v = InputGenerator(5).generate(schema)
        assert 1 <= len(v) <= 2
        assert all(isinstance(x, int) for x in v)

    def test_nested_object(self):
        schema = {
            "type": "object",
            "properties": {
                "inner": {"type": "object", "properties": {"k": {"type": "string"}}}
            },
        }
        v = InputGenerator(2).generate(schema)
        assert isinstance(v["inner"]["k"], str)

    def test_tournament_schema_from_fixture(self):
        spec = load_oas(fixture_path("tournaments_oas.yaml"))
        schema = spec.operation("postTournament").request_schema
        body = InputGenerator(11).generate(schema)
        assert set(body) == {"tid", "name", "capacity"}
        assert 1 <= body["capacity"] <= 3

    @pytest.mark.parametrize("construct", ["oneOf", "anyOf", "allOf", "not", "$ref"])
    def test_combinators_rejected_by_name(self, construct):
        with pytest.raises(GenerationError, match=construct.replace("$", "\\$")):
            InputGenerator(0).generate({construct: []})

    def test_unknown_type_rejected(self):
        with pytest.raises(GenerationError, match="null"):
            InputGenerator(0).generate({"type": "null"})

    def test_missing_type_rejected(self):
        with pytest.raises(GenerationError, match="type"):
            InputGenerator(0).generate({})

    def test_required_without_schema_rejected(self):
        schema = {"type": "object", "required": ["ghost"], "properties": {}}
        with pytest.raises(GenerationError, match="ghost"):
            InputGenerator(0).generate(schema)

    def test_array_without_items_rejected(self):
        with pytest.raises(GenerationError, match="items"):
            InputGenerator(0).generate({"type": "array"})


def run_calls(*calls):
    """Run (operation id, params) pairs as one sequence on an in-process demo
    service; returns the outcomes and the emulated state they leave."""
    runner = SequenceRunner(demo_spec(), "http://demo", InputGenerator(0),
                            session=AppSession())
    return runner.run_sequence(
        [Call(op=op, verb="", path="", params=params) for op, params in calls], 0)


P1 = {"pid": "p1"}


class TestEmulatedState:
    """The emulated state is a plain dict, abstract id -> Entry, that a
    sequence's 2xx answers update."""

    def test_add_recycle_delete(self):
        outcomes, state = run_calls(("postPlayer", P1))
        assert state["p1"].concrete_id == "pid10000"
        assert state["p1"].resource == "/players"
        assert state["p1"].data == outcomes[0].request["body"]
        outcomes, state = run_calls(
            ("postPlayer", P1), ("putPlayer", P1), ("deletePlayer", P1))
        assert [o.classification for o in outcomes] == [OK] * 3
        # the PUT read the entry without consuming it
        assert outcomes[2].request["url"] == "/players/pid10000"
        assert state == {}

    def test_duplicate_add_rejected(self):
        outcomes, state = run_calls(("postPlayer", P1), ("postPlayer", P1))
        assert outcomes[1].classification == NOT_TESTED
        assert "already created" in outcomes[1].reason
        assert state["p1"].concrete_id == "pid10000"

    def test_delete_untracked_rejected(self):
        (outcome,), state = run_calls(("deletePlayer", P1))
        assert outcome.classification == NOT_TESTED
        assert "never created" in outcome.reason
        assert state == {}

    def test_update_replaces_data_keeps_position(self):
        outcomes, state = run_calls(
            ("postPlayer", P1), ("postTournament", {"tid": "t1"}), ("putPlayer", P1))
        assert [o.classification for o in outcomes] == [OK] * 3
        assert list(state) == ["p1", "t1"]
        assert state["p1"].data == outcomes[2].request["body"]
        assert state["p1"].data != outcomes[0].request["body"]

    def test_update_untracked_rejected(self):
        (outcome,), state = run_calls(("putPlayer", P1))
        assert outcome.classification == NOT_TESTED
        assert "never created" in outcome.reason

    def test_creation_order(self):
        _, state = run_calls(
            ("postPlayer", P1), ("postTournament", {"tid": "t1"}),
            ("postEnrolment", {"eid": "e1", "pid": "p1", "tid": "t1"}))
        assert list(state) == ["p1", "t1", "e1"]
        assert [e.resource for e in state.values()] == [
            "/players", "/tournaments", "/enrolments"]

    def test_concrete_lookup(self):
        _, state = run_calls(("postTournament", {"tid": "t1"}))
        assert state["t1"].concrete_id == "tid10000"
        assert "t2" not in state
