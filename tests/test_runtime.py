import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import AppSession, fixture_doc
from statecover.demo import demo_spec
from statecover.executor import NOT_TESTED, OK, SequenceRunner
from statecover.runtime import GenerationError, InputGenerator
from statecover.seqgen import Call
from statecover.speckit import load_oas


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
        spec = load_oas(fixture_doc("tournaments_oas.yaml"))
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

    @pytest.mark.parametrize("schema, fits", [
        ({"type": "integer", "minimum": 200}, lambda v: v >= 200),
        ({"type": "integer", "maximum": -5}, lambda v: v <= -5),
        ({"type": "number", "minimum": 200}, lambda v: v >= 200),
        ({"type": "number", "maximum": -5}, lambda v: v <= -5),
        ({"type": "string", "maxLength": 0}, lambda v: v == ""),
        ({"type": "string", "maxLength": 2}, lambda v: 1 <= len(v) <= 2),
        ({"type": "integer", "minimum": 1, "maximum": 0}, None),
        ({"type": "number", "minimum": 1.5, "maximum": 1}, None),
        ({"type": "string", "minLength": 5, "maxLength": 2}, None),
        ({"type": "array", "items": {"type": "boolean"}, "minItems": 3, "maxItems": 2}, None),
        ({"enum": []}, None),
    ])
    def test_draws_stay_in_bounds_or_raise(self, schema, fits):
        """A missing bound follows the one present; a range with no value
        raises GenerationError instead of escaping as ValueError or
        IndexError."""
        for seed in range(20):
            if fits is None:
                with pytest.raises(GenerationError, match="no value fits"):
                    InputGenerator(seed).generate(schema)
            else:
                assert fits(InputGenerator(seed).generate(schema))


class TestNumericBounds:
    @pytest.mark.parametrize("schema, values", [
        # fractional integer bounds are rounded inwards
        ({"type": "integer", "minimum": 0.5, "maximum": 3}, {1, 2, 3}),
        ({"type": "integer", "minimum": -2.5, "maximum": -0.5}, {-2, -1}),
        # OAS 3.0: a boolean makes its bound exclusive
        ({"type": "integer", "minimum": 0, "maximum": 2, "exclusiveMinimum": True}, {1, 2}),
        ({"type": "integer", "minimum": 0, "maximum": 2, "exclusiveMaximum": True}, {0, 1}),
        ({"type": "integer", "minimum": 0, "maximum": 2, "exclusiveMinimum": False}, {0, 1, 2}),
        # OAS 3.1: a number is an exclusive bound of its own
        ({"type": "integer", "exclusiveMinimum": 0, "maximum": 2}, {1, 2}),
        ({"type": "integer", "minimum": 0, "exclusiveMaximum": 1.5}, {0, 1}),
        ({"type": "integer", "minimum": 1, "exclusiveMinimum": 0}, set(range(1, 101))),
    ])
    def test_integer_draws(self, schema, values):
        drawn = {InputGenerator(seed).generate(schema) for seed in range(200)}
        assert drawn <= values and len(drawn) >= min(len(values), 20)

    @pytest.mark.parametrize("schema, fits", [
        ({"type": "number", "minimum": 0.001, "maximum": 0.004},
         lambda v: 0.001 <= v <= 0.004),
        ({"type": "number", "minimum": 0, "maximum": 1, "exclusiveMinimum": True},
         lambda v: 0 < v <= 1),
        ({"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 0.004},
         lambda v: 0 < v < 0.004),
        ({"type": "number", "minimum": 5, "maximum": 5}, lambda v: v == 5),
    ])
    def test_number_draws(self, schema, fits):
        assert all(fits(InputGenerator(seed).generate(schema)) for seed in range(50))

    def test_a_range_the_rounding_keeps_is_drawn_as_before(self):
        """One draw per value, rounded to two decimals when that stays in
        range: existing suites draw what they drew."""
        schema = {"type": "number", "minimum": 0.5, "maximum": 2.5}
        for seed in range(20):
            expected = round(random.Random(seed).uniform(0.5, 2.5), 2)
            assert InputGenerator(seed).generate(schema) == expected

    @pytest.mark.parametrize("schema", [
        {"type": "integer", "minimum": 0.2, "maximum": 0.8},
        {"type": "integer", "minimum": 1, "maximum": 1, "exclusiveMaximum": True},
        {"type": "integer", "exclusiveMinimum": 1, "exclusiveMaximum": 2},
        {"type": "number", "exclusiveMinimum": 1.0, "exclusiveMaximum": 1.0},
        {"type": "number", "minimum": 2, "exclusiveMaximum": 2},
    ])
    def test_an_empty_range_raises_generation_error(self, schema):
        with pytest.raises(GenerationError, match="no value fits"):
            InputGenerator(0).generate(schema)


_BOUND = st.one_of(st.integers(-3, 3), st.floats(-3, 3), st.sampled_from([0.001, 0.004, 2.5]))


@st.composite
def numeric_schemas(draw):
    """Integer and number schemas with fractional, exclusive (in the OAS 3.0
    and the OAS 3.1 form), one-sided and empty ranges."""
    schema = {"type": draw(st.sampled_from(["integer", "number"]))}
    for inclusive, exclusive in (("minimum", "exclusiveMinimum"),
                                 ("maximum", "exclusiveMaximum")):
        form = draw(st.sampled_from(["none", "inclusive", "oas30", "oas31", "both"]))
        if form in ("inclusive", "oas30", "both"):
            schema[inclusive] = draw(_BOUND)
        if form == "oas30":
            schema[exclusive] = draw(st.booleans())
        if form in ("oas31", "both"):
            schema[exclusive] = draw(_BOUND)
    return schema


def admits(schema, value) -> bool:
    """Whether a numeric schema's type and bounds admit value."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    if schema["type"] == "integer" and not isinstance(value, int):
        return False
    low, high = schema.get("minimum"), schema.get("maximum")
    below, above = schema.get("exclusiveMinimum"), schema.get("exclusiveMaximum")
    if low is not None and (value < low or below is True and value == low):
        return False
    if high is not None and (value > high or above is True and value == high):
        return False
    if below is not None and not isinstance(below, bool) and value <= below:
        return False
    return above is None or isinstance(above, bool) or value < above


def candidates(schema):
    """Values that some admitted value is among if there is one: every
    integer near the bounds, and each bound, its neighbours and midpoints."""
    if schema["type"] == "integer":
        return range(-110, 111)
    bounds = [b for b in schema.values() if not isinstance(b, (bool, str))]
    near = [n for b in bounds for n in (b, math.nextafter(b, -math.inf),
                                       math.nextafter(b, math.inf))]
    return near + [(a + b) / 2 for a in bounds for b in bounds] + [0, 100]


class TestNumericBoundsProperty:
    @settings(max_examples=300, deadline=None)
    @given(numeric_schemas(), st.integers(0, 2**16))
    def test_every_draw_lies_within_its_bounds_or_raises(self, schema, seed):
        try:
            value = InputGenerator(seed).generate(schema)
        except GenerationError:
            assert not any(admits(schema, v) for v in candidates(schema)), schema
        else:
            assert admits(schema, value), (schema, value)


def run_calls(*calls):
    """Run (operation id, params) pairs as one sequence on an in-process demo
    service; returns the outcomes and the emulated state they leave."""
    runner = SequenceRunner(demo_spec(), InputGenerator(0), AppSession())
    return runner.run_sequence(
        [Call(op=op, verb="", path="", params=params) for op, params in calls], 0)


P1 = {"pid": "p1"}


class TestEmulatedState:
    """The emulated state is a plain dict, abstract id -> Entry, that a
    sequence's 2xx answers update."""

    def test_add_recycle_delete(self):
        outcomes, state = run_calls(("postPlayer", P1))
        assert state["p1"].concrete_id == "pid10000"
        assert state["p1"].path == "/players/pid10000"
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
        assert [e.path for e in state.values()] == [
            "/players/pid10000", "/tournaments/tid10000", "/enrolments/eid10000"]

    def test_concrete_lookup(self):
        _, state = run_calls(("postTournament", {"tid": "t1"}))
        assert state["t1"].concrete_id == "tid10000"
        assert "t2" not in state
