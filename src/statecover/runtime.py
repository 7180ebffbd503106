"""Runtime support for driving a live service: seeded payload generation,
and the entry type of the tester's own copy of what the service should
contain (a plain dict per sequence, kept by the executor). An entry is a
value: a PUT replaces its entry, so a copy of the dict is a snapshot.
"""

from __future__ import annotations

import math
import random
import string
from typing import Any, NamedTuple


class GenerationError(ValueError):
    """A schema uses a construct the generator does not support, or admits
    no value."""


_UNSUPPORTED_COMBINATORS = ("oneOf", "anyOf", "allOf", "not", "$ref")


class InputGenerator:
    """Seeded JSON-schema value generator.

    Key-style ids come from next_id(): per-key-name counters on top of a
    seed-derived base, unique for the whole run and never reset, so retries
    and later sequences cannot collide with ids that already reached the
    service.
    """

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self._base = 10000 + (seed % 80000)
        self._counters: dict[str, int] = {}

    def next_id(self, key: str) -> str:
        n = self._counters.get(key, 0)
        self._counters[key] = n + 1
        return f"{key}{self._base + n}"

    def generate(self, schema: dict) -> Any:
        if not isinstance(schema, dict):
            raise GenerationError(f"schema must be an object, got {type(schema).__name__}")
        for combinator in _UNSUPPORTED_COMBINATORS:
            if combinator in schema:
                raise GenerationError(f"unsupported schema construct {combinator!r}")
        if "enum" in schema:
            if not schema["enum"]:
                raise GenerationError("enum is empty: no value fits")
            return self.rng.choice(schema["enum"])
        stype = schema.get("type")
        if stype is None:
            raise GenerationError("schema has neither 'type' nor 'enum'")
        if stype == "object":
            return self._gen_object(schema)
        if stype == "array":
            return self._gen_array(schema)
        if stype == "string":
            return self._gen_string(schema)
        if stype == "integer":
            return self.rng.randint(*_numeric_range(schema, True))
        if stype == "number":
            lo, hi = _numeric_range(schema, False)
            value = min(max(self.rng.uniform(lo, hi), lo), hi)  # uniform may round past
            rounded = round(value, 2)
            return rounded if lo <= rounded <= hi else value
        if stype == "boolean":
            return self.rng.choice([True, False])
        raise GenerationError(f"unsupported schema type {stype!r}")

    def _gen_object(self, schema: dict) -> dict:
        props = schema.get("properties", {})
        for name in schema.get("required", []):
            if name not in props:
                raise GenerationError(f"required property {name!r} has no schema")
        return {name: self.generate(sub) for name, sub in props.items()}

    def _gen_array(self, schema: dict) -> list:
        items = schema.get("items")
        if items is None:
            raise GenerationError("array schema without 'items'")
        lo, hi = _range(schema, "minItems", "maxItems", 0, schema.get("minItems", 0) + 2)
        return [self.generate(items) for _ in range(self.rng.randint(lo, hi))]

    def _gen_string(self, schema: dict) -> str:
        lo, hi = _range(schema, "minLength", "maxLength", 3, 10)
        length = self.rng.randint(max(lo, min(hi, 1)), hi)  # not empty unless it must be
        return "".join(self.rng.choice(string.ascii_lowercase) for _ in range(length))


def _range(schema: dict, low: str, high: str, default_low, default_high):
    """The closed range between a schema's low and high keywords. A missing
    bound takes its default, moved up to the low or down to the high bound
    that is present; a range with no value raises GenerationError."""
    lo, hi = schema.get(low), schema.get(high)
    if lo is None:
        lo = default_low if hi is None else min(default_low, hi)
    if hi is None:
        hi = max(default_high, lo)
    if lo > hi:
        raise GenerationError(f"{low} {lo} is above {high} {hi}: no value fits")
    return lo, hi


def _numeric_range(schema: dict, integer: bool):
    """The closed range of integers, or of floats, that a numeric schema
    admits, its defaults taken as _range takes them. minimum and maximum
    are inclusive unless exclusiveMinimum or exclusiveMaximum is true (OAS
    3.0); a number there is an exclusive bound of its own (OAS 3.1)."""
    bounds = {
        "minimum": _tightest(schema, "minimum", "exclusiveMinimum", integer, up=True),
        "maximum": _tightest(schema, "maximum", "exclusiveMaximum", integer, up=False),
    }
    return _range(bounds, "minimum", "maximum", 0, 100)


def _tightest(schema: dict, inclusive: str, exclusive: str, integer: bool, up: bool):
    """The least (up) or the greatest admitted value that a schema's bounds
    on one side allow; None when it sets none there."""
    flag = schema.get(exclusive)
    limits = []
    if schema.get(inclusive) is not None:
        limits.append(_inside(schema[inclusive], flag is True, integer, up))
    if flag is not None and not isinstance(flag, bool):
        limits.append(_inside(flag, True, integer, up))
    if not limits:
        return None
    return max(limits) if up else min(limits)


def _inside(bound, strict: bool, integer: bool, up: bool):
    """The admitted value nearest to bound, on its up or down side: the
    bound itself unless strict, rounded inwards to an integer if integer."""
    if integer:
        if up:
            return math.floor(bound) + 1 if strict else math.ceil(bound)
        return math.ceil(bound) - 1 if strict else math.floor(bound)
    return math.nextafter(bound, math.inf if up else -math.inf) if strict else bound


class Entry(NamedTuple):
    """One instance the service should contain: the item path it lives at,
    the body it was last written with, and the concrete id it was sent as.
    A sequence's emulated state maps abstract ids ('p1') to these."""

    path: str
    data: dict
    concrete_id: str
