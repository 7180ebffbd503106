import pytest
from hypothesis import given, strategies as st

from statecover.runtime import (
    EmulatedState,
    GenerationError,
    InputGenerator,
    StateError,
)
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


class TestEmulatedState:
    def test_add_recycle_delete(self):
        s = EmulatedState()
        s.add("p1", "/players", {"pid": "pid10000"}, "pid10000")
        entry = s.recycle("p1")
        assert entry.concrete_id == "pid10000"
        assert s.recycle("p1") is entry  # recycling does not consume
        removed = s.delete("p1")
        assert removed.data == {"pid": "pid10000"}
        assert s.recycle("p1") is None

    def test_duplicate_add_rejected(self):
        s = EmulatedState()
        s.add("p1", "/players", {}, "x")
        with pytest.raises(StateError, match="already"):
            s.add("p1", "/players", {}, "y")

    def test_delete_untracked_rejected(self):
        with pytest.raises(StateError):
            EmulatedState().delete("p1")

    def test_update_replaces_data_keeps_position(self):
        s = EmulatedState()
        s.add("p1", "/players", {"v": 1}, "a")
        s.add("t1", "/tournaments", {"v": 2}, "b")
        s.update("p1", {"v": 9})
        assert [e.tla_id for e in s.entries()] == ["p1", "t1"]
        assert s.recycle("p1").data == {"v": 9}

    def test_update_untracked_rejected(self):
        with pytest.raises(StateError):
            EmulatedState().update("p1", {})

    def test_creation_order(self):
        s = EmulatedState()
        for i, tla in enumerate(["p1", "t1", "e1"]):
            s.add(tla, "r", {}, f"c{i}")
        assert [e.tla_id for e in s.entries()] == ["p1", "t1", "e1"]

    def test_concrete_lookup(self):
        s = EmulatedState()
        s.add("t1", "/tournaments", {}, "tid10000")
        assert s.recycle("t1").concrete_id == "tid10000"
        assert s.recycle("t2") is None

