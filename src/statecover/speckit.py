"""OpenAPI ingestion, lint diagnostics, and CRUD contract inference.

Loads an OpenAPI 3 document, checks it for the structural problems that
break request generation (undeclared path parameters, missing response
codes, bodyless POSTs), discovers collection/item resource pairs, and
attaches inferred pre/postconditions to the mutating operations:

    POST /r        requires the keyed item to be absent, ensures it is
                   readable afterwards (and echoed when the response
                   schema matches the request schema)
    DELETE /r/{k}  requires the item to exist, ensures it is gone
    PUT /r/{k}     requires the item to exist, ensures the stored value
                   equals the request body (tagged as an extra clause)

Contracts serialize as x-requires / x-ensures on the operation objects and
x-invariants at the document root; loading an emitted document and emitting
it again is byte-identical.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional, Union

import yaml

from .glacier import (
    ApiCall,
    BodyFieldPart,
    Comparison,
    Formula,
    LitPart,
    Literal,
    ParamPart,
    Prev,
    UrlTemplate,
    parse as parse_formula,
    print_formula,
)


HTTP_METHODS = ("get", "put", "post", "delete", "patch", "head", "options")
_PLACEHOLDER_RE = re.compile(r"\{(\w+)\}")


class SpecError(ValueError):
    pass


@dataclass(frozen=True)
class Diagnostic:
    code: str
    message: str
    where: str = ""

    def __str__(self):
        loc = f" [{self.where}]" if self.where else ""
        return f"{self.code}: {self.message}{loc}"


@dataclass(frozen=True)
class Clause:
    """One contract formula plus its canonical source text."""

    text: str
    extra: bool = False
    formula: Optional[Formula] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.formula is None:
            object.__setattr__(self, "formula", parse_formula(self.text))


@dataclass
class Operation:
    op_id: str
    method: str  # uppercase
    path: str
    raw: dict
    path_params: tuple[str, ...] = ()
    requires: tuple[Clause, ...] = ()
    ensures: tuple[Clause, ...] = ()


@dataclass(frozen=True)
class Resource:
    collection: str
    item: str
    key: str


@dataclass(frozen=True)
class OpProfile:
    """Everything the test driver needs to issue one operation."""

    op_id: str
    method: str
    path: str
    own_key: Optional[str]
    collection: Optional[str]
    item_path: Optional[str]
    request_schema: Optional[dict]
    foreign_keys: tuple[tuple[str, str], ...]  # (field name, owning collection)


@dataclass
class ApiSpec:
    """A loaded API description. Resources and operation profiles depend
    only on the paths and schemas, which never change after loading, so
    each is computed once; contract inference changes only the clauses."""

    doc: dict
    operations: list[Operation]
    diagnostics: list[Diagnostic]
    invariants: tuple[Clause, ...] = ()
    _resources: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)
    _profiles: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def operation(self, op_id: str) -> Operation:
        for op in self.operations:
            if op.op_id == op_id:
                return op
        raise KeyError(op_id)

    def has_operation(self, op_id: str) -> bool:
        return any(op.op_id == op_id for op in self.operations)

    # -- resource discovery ----------------------------------------------

    def resources(self) -> list[Resource]:
        """Collection paths paired with their /{key} item siblings."""
        if self._resources is None:
            paths = self.doc.get("paths", {})
            out = []
            for p in paths:
                if p.endswith("}"):
                    continue
                for q in paths:
                    m = re.fullmatch(re.escape(p) + r"/\{(\w+)\}", q)
                    if m:
                        out.append(Resource(collection=p, item=q, key=m.group(1)))
                        break
            self._resources = tuple(out)
        return list(self._resources)

    def resource_keys(self) -> dict[str, str]:
        return {r.collection: r.key for r in self.resources()}

    def key_owners(self) -> dict[str, str]:
        """Key parameter name -> collection path that owns it."""
        return {r.key: r.collection for r in self.resources()}

    # -- schemas -----------------------------------------------------------

    def resolve_schema(self, schema: Optional[dict]) -> Optional[dict]:
        return _resolve_schema(self.doc, schema)

    def request_schema(self, op: Operation) -> Optional[dict]:
        body = op.raw.get("requestBody") or {}
        content = body.get("content") or {}
        for ctype, spec in content.items():
            if "json" in ctype:
                return spec.get("schema")
        return None

    def success_response_schema(self, op: Operation) -> Optional[dict]:
        for code, resp in sorted((op.raw.get("responses") or {}).items()):
            if str(code).startswith("2"):
                content = (resp or {}).get("content") or {}
                for ctype, spec in content.items():
                    if "json" in ctype:
                        return spec.get("schema")
        return None

    # -- executor metadata -------------------------------------------------

    def op_profile(self, op_id: str) -> OpProfile:
        profile = self._profiles.get(op_id)
        if profile is None:
            profile = self._profiles[op_id] = self._make_profile(self.operation(op_id))
        return profile

    def _make_profile(self, op: Operation) -> OpProfile:
        keys = self.resource_keys()
        owners = self.key_owners()
        own_key = None
        collection = None
        item_path = None
        if op.path in keys:
            collection = op.path
            own_key = keys[op.path]
            item_path = f"{op.path}/{{{own_key}}}"
        else:
            for r in self.resources():
                if op.path == r.item:
                    collection, own_key, item_path = r.collection, r.key, r.item
                    break
        schema = self.resolve_schema(self.request_schema(op))
        foreign: list[tuple[str, str]] = []
        if schema is not None:
            for prop in schema.get("properties", {}):
                if prop in owners and prop != own_key:
                    foreign.append((prop, owners[prop]))
        return OpProfile(
            op_id=op.op_id,
            method=op.method,
            path=op.path,
            own_key=own_key,
            collection=collection,
            item_path=item_path,
            request_schema=schema,
            foreign_keys=tuple(foreign),
        )

    def call_metadata(self) -> dict[str, dict]:
        """Resolver table keyed by operation id, for labeling sequences."""
        out = {}
        for op in self.operations:
            profile = self.op_profile(op.op_id)
            if op.method == "POST" and profile.own_key is not None:
                names = [profile.own_key] + [f for f, _ in profile.foreign_keys]
            else:
                names = list(op.path_params)
            out[op.op_id] = {
                "op": op.op_id,
                "verb": op.method,
                "path": op.path,
                "param_names": names,
                "own_key": profile.own_key,
            }
        return out

    def resolver(self):
        table = self.call_metadata()
        return table.get

    def put_catalog(self) -> dict[str, dict]:
        out = {}
        for op in self.operations:
            if op.method != "PUT":
                continue
            profile = self.op_profile(op.op_id)
            if profile.own_key and op.path == profile.item_path:
                out[profile.own_key] = {
                    "op": op.op_id,
                    "verb": "PUT",
                    "path": op.path,
                }
        return out


def _resolve_schema(doc: dict, schema: Optional[dict], _depth: int = 0) -> Optional[dict]:
    if schema is None:
        return None
    if _depth > 32:
        raise SpecError("schema $ref nesting too deep (cycle?)")
    if "$ref" in schema:
        ref = schema["$ref"]
        if not ref.startswith("#/"):
            raise SpecError(f"only local $refs are supported, got {ref!r}")
        node: Any = doc
        for part in ref[2:].split("/"):
            if not isinstance(node, dict) or part not in node:
                raise SpecError(f"dangling $ref {ref!r}")
            node = node[part]
        return _resolve_schema(doc, node, _depth + 1)
    out = dict(schema)
    if "items" in out and isinstance(out["items"], dict):
        out["items"] = _resolve_schema(doc, out["items"], _depth + 1)
    if "properties" in out and isinstance(out["properties"], dict):
        out["properties"] = {
            k: _resolve_schema(doc, v, _depth + 1)
            for k, v in out["properties"].items()
        }
    return out


# --- loading -----------------------------------------------------------------

def load_oas(source: Union[str, Path, dict]) -> ApiSpec:
    """Load an OpenAPI document from a path or an already-parsed dict."""
    if isinstance(source, dict):
        doc = source
    else:
        text = Path(source).read_text()
        doc = yaml.safe_load(text)
    if not isinstance(doc, dict) or "paths" not in doc:
        raise SpecError("document has no 'paths' object")
    diagnostics: list[Diagnostic] = []
    operations: list[Operation] = []
    seen_ids: set[str] = set()

    for path, item in (doc.get("paths") or {}).items():
        item = item or {}
        placeholders = _PLACEHOLDER_RE.findall(path)
        shared_params = [p for p in item.get("parameters", []) if p.get("in") == "path"]
        for method in HTTP_METHODS:
            if method not in item:
                continue
            raw = item[method] or {}
            op_id = raw.get("operationId") or raw.get("operationID")
            where = f"{method.upper()} {path}"
            if not op_id:
                op_id = where
                diagnostics.append(
                    Diagnostic("op-id-missing", "operation has no operationId", where)
                )
            if op_id in seen_ids:
                diagnostics.append(
                    Diagnostic("op-id-duplicate", f"operationId {op_id!r} reused", where)
                )
            seen_ids.add(op_id)

            own_params = [p for p in raw.get("parameters", []) if p.get("in") == "path"]
            declared = shared_params + own_params
            names = [p.get("name") for p in declared]
            for name in names:
                if names.count(name) > 1:
                    diagnostics.append(
                        Diagnostic("param-duplicate", f"path parameter {name!r} declared twice", where)
                    )
                    break
            for ph in placeholders:
                if ph not in names:
                    diagnostics.append(
                        Diagnostic("param-missing", f"path placeholder {{{ph}}} has no parameter declaration", where)
                    )
            for p in declared:
                if p.get("name") not in placeholders:
                    diagnostics.append(
                        Diagnostic("param-undefined", f"path parameter {p.get('name')!r} does not appear in the path", where)
                    )
                elif not p.get("required", False):
                    diagnostics.append(
                        Diagnostic("param-optional", f"path parameter {p.get('name')!r} must be required", where)
                    )
            if not raw.get("responses"):
                diagnostics.append(
                    Diagnostic("no-responses", "operation declares no response codes", where)
                )
            if method in ("post", "put") and "requestBody" not in raw:
                diagnostics.append(
                    Diagnostic("no-request-body", f"{method.upper()} without a request body", where)
                )
            operations.append(
                Operation(
                    op_id=op_id,
                    method=method.upper(),
                    path=path,
                    raw=raw,
                    path_params=tuple(placeholders),
                    requires=_load_clauses(raw, "requires"),
                    ensures=_load_clauses(raw, "ensures"),
                )
            )

    referenced = set()
    _collect_refs(doc, referenced)
    for name in doc.get("components", {}).get("schemas", {}):
        if f"#/components/schemas/{name}" not in referenced:
            diagnostics.append(
                Diagnostic("schema-unused", f"schema {name!r} is never referenced", f"components.schemas.{name}")
            )

    invariants = _load_clause_list(doc.get("x-invariants", doc.get("invariants", [])))
    return ApiSpec(doc=doc, operations=operations, diagnostics=diagnostics, invariants=invariants)


def _collect_refs(node: Any, out: set[str]) -> None:
    if isinstance(node, dict):
        for k, v in node.items():
            if k == "$ref" and isinstance(v, str):
                out.add(v)
            else:
                _collect_refs(v, out)
    elif isinstance(node, list):
        for v in node:
            _collect_refs(v, out)


def _load_clause_list(entries) -> tuple[Clause, ...]:
    out = []
    for entry in entries or []:
        if isinstance(entry, str):
            out.append(Clause(text=entry))
        elif isinstance(entry, dict) and "clause" in entry:
            out.append(Clause(text=entry["clause"], extra=bool(entry.get("x-inferred-extra"))))
        else:
            raise SpecError(f"malformed contract clause entry: {entry!r}")
    return tuple(out)


def _load_clauses(raw: dict, kind: str) -> tuple[Clause, ...]:
    entries = raw.get(f"x-{kind}", raw.get(kind, []))
    return _load_clause_list(entries)


# --- inference ---------------------------------------------------------------

def _seg(path_text: str) -> tuple:
    """URL template segments for a literal path, {k} params kept symbolic."""
    segments = []
    for seg in path_text.strip("/").split("/"):
        m = re.fullmatch(r"\{(\w+)\}", seg)
        if m:
            segments.append((ParamPart(m.group(1)),))
        else:
            segments.append((LitPart(seg),))
    return tuple(segments)


def _get_item_by_body(collection: str, key: str) -> ApiCall:
    segs = _seg(collection) + ((BodyFieldPart(key),),)
    return ApiCall(func="res_code", method="GET", url=UrlTemplate(segments=segs))


def _get_item(item_path: str, func: str = "res_code") -> ApiCall:
    return ApiCall(func=func, method="GET", url=UrlTemplate(segments=_seg(item_path)))


def _clause(formula: Formula, extra: bool = False) -> Clause:
    return Clause(text=print_formula(formula), extra=extra, formula=formula)


@dataclass
class InferenceReport:
    added: dict[str, int]
    skipped: list[tuple[str, str]]


def infer_contracts(spec: ApiSpec) -> InferenceReport:
    """Attach CRUD contracts to every POST/PUT/DELETE that fits the
    collection/item shape; GETs are left alone. Returns what was added
    and which operations were skipped, with reasons."""
    added: dict[str, int] = {}
    skipped: list[tuple[str, str]] = []
    resources = spec.resources()
    by_collection = {r.collection: r for r in resources}
    by_item = {r.item: r for r in resources}

    for op in spec.operations:
        if op.method == "GET":
            continue
        requires: list[Clause] = []
        ensures: list[Clause] = []

        if op.method == "POST":
            r = by_collection.get(op.path)
            if r is None:
                skipped.append((op.op_id, f"POST path {op.path} has no /{{key}} item sibling"))
                continue
            probe_missing = Comparison(_get_item_by_body(r.collection, r.key), "=", Literal(404))
            probe_there = Comparison(_get_item_by_body(r.collection, r.key), "=", Literal(200))
            requires.append(_clause(probe_missing))
            ensures.append(_clause(probe_there))
            req_schema = spec.request_schema(op)
            res_schema = spec.success_response_schema(op)
            if req_schema is not None and req_schema == res_schema:
                echo = Comparison(ApiCall(func="req_body"), "=", ApiCall(func="res_body"))
                ensures.append(_clause(echo))
        elif op.method == "DELETE":
            r = by_item.get(op.path)
            if r is None:
                skipped.append((op.op_id, f"DELETE path {op.path} is not a keyed item path"))
                continue
            requires.append(_clause(Comparison(_get_item(r.item), "=", Literal(200))))
            ensures.append(_clause(Comparison(_get_item(r.item), "=", Literal(404))))
            if spec.success_response_schema(op) is not None:
                echo = Comparison(
                    ApiCall(func="req_body"),
                    "=",
                    Prev(call=_get_item(r.item, func="res_body")),
                )
                ensures.append(_clause(echo))
        elif op.method == "PUT":
            r = by_item.get(op.path)
            if r is None:
                skipped.append((op.op_id, f"PUT path {op.path} is not a keyed item path"))
                continue
            requires.append(_clause(Comparison(_get_item(r.item), "=", Literal(200))))
            stored = Comparison(
                ApiCall(func="req_body"), "=", _get_item(r.item, func="res_body")
            )
            ensures.append(_clause(stored, extra=True))
        else:
            skipped.append((op.op_id, f"no inference rule for {op.method}"))
            continue

        op.requires = op.requires + tuple(requires)
        op.ensures = op.ensures + tuple(ensures)
        added[op.op_id] = len(requires) + len(ensures)
    return InferenceReport(added=added, skipped=skipped)


# --- emission ----------------------------------------------------------------

def _dump_clause(c: Clause):
    if c.extra:
        return {"clause": c.text, "x-inferred-extra": True}
    return c.text


def emit_extended(spec: ApiSpec) -> str:
    """Serialize the document with contracts written back as x- extensions.

    Emitting, loading the result, and emitting again produces identical
    bytes, so extended specs can be kept under version control.
    """
    for op in spec.operations:
        for bare in ("requires", "ensures"):
            op.raw.pop(bare, None)
        if op.requires:
            op.raw["x-requires"] = [_dump_clause(c) for c in op.requires]
        else:
            op.raw.pop("x-requires", None)
        if op.ensures:
            op.raw["x-ensures"] = [_dump_clause(c) for c in op.ensures]
        else:
            op.raw.pop("x-ensures", None)
    spec.doc.pop("invariants", None)
    if spec.invariants:
        spec.doc["x-invariants"] = [_dump_clause(c) for c in spec.invariants]
    else:
        spec.doc.pop("x-invariants", None)
    return yaml.safe_dump(spec.doc, sort_keys=False, width=10000, allow_unicode=True)


def fixture_path(name: str) -> Path:
    """Path of a data file shipped with the package."""
    return Path(__file__).parent / "fixtures" / name
