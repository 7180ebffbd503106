"""Runtime support for driving a live service: seeded payload generation,
and the entry type of the tester's own copy of what the service should
contain (a plain dict per sequence, kept by the executor).
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass
from typing import Any


class GenerationError(ValueError):
    """A schema uses a construct the generator does not support."""


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
            lo = schema.get("minimum", 0)
            hi = schema.get("maximum", 100)
            return self.rng.randint(lo, hi)
        if stype == "number":
            lo = schema.get("minimum", 0)
            hi = schema.get("maximum", 100)
            return round(self.rng.uniform(lo, hi), 2)
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
        lo = schema.get("minItems", 0)
        hi = schema.get("maxItems", lo + 2)
        return [self.generate(items) for _ in range(self.rng.randint(lo, hi))]

    def _gen_string(self, schema: dict) -> str:
        lo = max(schema.get("minLength", 3), 1)
        hi = max(schema.get("maxLength", 10), lo)
        length = self.rng.randint(lo, hi)
        return "".join(self.rng.choice(string.ascii_lowercase) for _ in range(length))


@dataclass
class Entry:
    """One instance the service should contain: the collection it lives in,
    the body it was last written with, and the concrete id it was sent as.
    A sequence's emulated state maps abstract ids ('p1') to these."""

    resource: str
    data: dict
    concrete_id: str
