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

Each operation becomes one record at load time. The record holds what a
call to it needs: the resource key its path addresses, the collection and
item paths, the request schema with every $ref resolved, the foreign keys in
that schema and the names an edge label's arguments bind. Records are looked
up by operation id; where an id is declared twice, the first operation wins
for every lookup. A dangling or cyclic $ref in a request body fails the
load with a SpecError naming the operation's METHOD and path. So does a
contract clause that does not parse or that uses a construct its kind may
not (glacier.check_clause: a probe that is not a GET, prev outside
x-ensures, '@' in an invariant, ...), and so does a bare {param} the
operation never binds, being neither its own key nor one of its foreign
keys; the error also names the clause, as in "POST /players:
x-requires[0]: ...", or "x-invariants[1]: ..." for an invariant. A path
item, operation or parameter list of the wrong shape fails the load with
its place, as in "GET /players: parameters[0]: expected a mapping".

Contracts serialize as x-requires / x-ensures on the operation objects and
x-invariants at the document root; loading an emitted document and emitting
it again is byte-identical.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional, Union

import yaml

from .glacier import (
    ApiCall,
    BodyFieldPart,
    Comparison,
    Formula,
    FormulaError,
    LitPart,
    Literal,
    ParamPart,
    Prev,
    UrlTemplate,
    _print_call,
    _walk_calls,
    check_clause,
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
    """One API operation, resolved once at load: how a call to it is issued
    (key bindings, request schema with no $refs left) and its contract
    clauses, which contract inference may extend."""

    op_id: str
    method: str  # uppercase
    path: str
    raw: dict
    requires: tuple[Clause, ...] = ()
    ensures: tuple[Clause, ...] = ()
    own_key: Optional[str] = None  # key of the resource the path addresses
    collection: Optional[str] = None
    item_path: Optional[str] = None
    request_schema: Optional[dict] = None
    foreign_keys: tuple[str, ...] = ()  # body fields holding another resource's key
    param_names: tuple[str, ...] = ()  # what an edge label's arguments bind, in order


@dataclass
class ApiSpec:
    """A loaded API description. Where several operations share an id, the
    first one declared is the one every lookup returns."""

    doc: dict
    operations: list[Operation]
    diagnostics: list[Diagnostic]
    invariants: tuple[Clause, ...] = ()
    _by_id: dict[str, Operation] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._by_id = {}
        for op in self.operations:
            self._by_id.setdefault(op.op_id, op)

    def operation(self, op_id: str) -> Operation:
        return self._by_id[op_id]

    def op_profile(self, op_id: str) -> Optional[Operation]:
        """The operation a call to op_id is issued from; None if there is none."""
        return self._by_id.get(op_id)

    def resolver(self) -> Callable[[str], Optional[Operation]]:
        """Edge-label operation name -> operation, for labelling sequences."""
        return self._by_id.get

    def put_catalog(self) -> dict[str, Operation]:
        """Key parameter name -> the PUT on that resource's item path."""
        return {
            op.own_key: op
            for op in self._by_id.values()
            if op.method == "PUT" and op.own_key and op.path == op.item_path
        }


def _json_media(node, where: str) -> Optional[dict]:
    """The entry of node's first JSON media type, or None without one."""
    content = _mapping(_mapping(node, where).get("content"), f"{where}: content")
    for ctype, media in content.items():
        if "json" in ctype:
            return _mapping(media, f"{where}: content: {ctype}")
    return None


def _body_schema(raw: dict, where: str) -> Optional[dict]:
    media = _json_media(raw.get("requestBody"), f"{where}: requestBody")
    return None if media is None else media.get("schema")


def _success_schema(raw: dict, where: str) -> Optional[dict]:
    where += ": responses"
    responses = _mapping(raw.get("responses"), where)
    # YAML reads an unquoted 200 as an int and 'default' as a string
    for code, resp in sorted(responses.items(), key=lambda kv: str(kv[0])):
        if str(code).startswith("2"):
            media = _json_media(resp, f"{where}: {code}")
            if media is not None:
                return media.get("schema")
    return None


_ITEM_RE = re.compile(r"(.*)/\{(\w+)\}")


def _resources(paths: dict) -> list[tuple[str, str, str]]:
    """(collection, item, key) for each collection path with a /{key} item
    sibling, in collection order; the first such item in document order
    wins."""
    items: dict[str, tuple[str, str]] = {}
    for q in paths:
        m = _ITEM_RE.fullmatch(q)
        if m:
            items.setdefault(m.group(1), (q, m.group(2)))
    return [
        (p, *items[p]) for p in paths if not p.endswith("}") and p in items
    ]


def _resolve_schema(doc: dict, schema: Optional[dict], _depth: int = 0) -> Optional[dict]:
    if schema is None:
        return None
    if not isinstance(schema, dict):
        raise SpecError(f"schema: expected a mapping, got {type(schema).__name__}")
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

# libyaml's parser where pyyaml was built with it; the same safe constructor
# and resolver either way
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_yaml(text: str):
    """yaml.safe_load, through libyaml's C parser where pyyaml has it."""
    return yaml.load(text, Loader=_YAML_LOADER)


def load_oas(source: Union[str, Path, dict]) -> ApiSpec:
    """Load an OpenAPI document from a path (read as UTF-8) or an
    already-parsed dict."""
    if isinstance(source, dict):
        doc = source
    else:
        doc = load_yaml(Path(source).read_text(encoding="utf-8"))
    if not isinstance(doc, dict) or "paths" not in doc:
        raise SpecError("document has no 'paths' object")
    diagnostics: list[Diagnostic] = []
    operations: list[Operation] = []
    seen_ids: set[str] = set()
    paths = _paths(doc)
    by_path: dict[str, tuple[str, str, str]] = {}
    keys = set()  # key parameter names of the collection/item resources
    for collection, item_path, key in _resources(paths):
        by_path[collection] = by_path[item_path] = (collection, item_path, key)
        keys.add(key)

    for path, item in paths.items():
        placeholders = _PLACEHOLDER_RE.findall(path)
        shared_params = _path_params(item, path)
        for method in HTTP_METHODS:
            if method not in item:
                continue
            where = f"{method.upper()} {path}"
            raw = _mapping(item[method], where)
            op_id = raw.get("operationId") or raw.get("operationID")
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

            own_params = _path_params(raw, where)
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
            collection, item_path, own_key = by_path.get(path, (None, None, None))
            _success_schema(raw, where)  # a malformed response fails here, not in inference
            body_schema = _body_schema(raw, where)
            try:
                schema = _resolve_schema(doc, body_schema)
            except SpecError as exc:
                raise SpecError(f"{where}: request body: {exc}") from None
            foreign = tuple(
                field_name
                for field_name in (schema or {}).get("properties", {})
                if field_name in keys and field_name != own_key
            )
            if method == "post" and own_key is not None:
                param_names = (own_key,) + foreign
            else:
                param_names = tuple(placeholders)
            # the names a call binds: its own key and the foreign keys it sends
            bound = frozenset({own_key, *foreign} - {None})
            operations.append(
                Operation(
                    op_id=op_id,
                    method=method.upper(),
                    path=path,
                    raw=raw,
                    requires=_load_clauses(raw, "requires", f"{where}: ", bound),
                    ensures=_load_clauses(raw, "ensures", f"{where}: ", bound),
                    own_key=own_key,
                    collection=collection,
                    item_path=item_path,
                    request_schema=schema,
                    foreign_keys=foreign,
                    param_names=param_names,
                )
            )

    referenced = set()
    _collect_refs(doc, referenced)
    for name in doc.get("components", {}).get("schemas", {}):
        if f"#/components/schemas/{name}" not in referenced:
            diagnostics.append(
                Diagnostic("schema-unused", f"schema {name!r} is never referenced", f"components.schemas.{name}")
            )

    invariants = _load_clauses(doc, "invariants")
    return ApiSpec(doc=doc, operations=operations, diagnostics=diagnostics, invariants=invariants)


def _mapping(node, where: str) -> dict:
    """node, or {} for an empty YAML value; anything but a mapping fails."""
    if node is None:
        return {}
    if not isinstance(node, dict):
        raise SpecError(f"{where}: expected a mapping, got {type(node).__name__}")
    return node


def _paths(doc: dict) -> dict:
    """The document's path items by path; an empty item reads as {}."""
    paths = _mapping(doc.get("paths"), "paths")
    for path in paths:
        if not isinstance(path, str):
            raise SpecError(f"paths: key {path!r} is not a string")
    return {path: _mapping(item, path) for path, item in paths.items()}


def _path_params(node: dict, where: str) -> list[dict]:
    """The 'in: path' entries of a path item's or operation's parameters."""
    params = node.get("parameters") or []
    if not isinstance(params, list):
        raise SpecError(f"{where}: parameters: expected a list")
    for i, p in enumerate(params):
        if not isinstance(p, dict):
            raise SpecError(f"{where}: parameters[{i}]: expected a mapping")
    return [p for p in params if p.get("in") == "path"]


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


def _load_clauses(
    node: dict, kind: str, where: str = "", bound: frozenset[str] = frozenset()
) -> tuple[Clause, ...]:
    """The x-<kind> (or bare <kind>) clauses of an operation or document.
    A clause must parse, pass check_clause for its kind and name no bare
    {param} outside bound, the names a call of the operation binds."""
    key = f"x-{kind}" if f"x-{kind}" in node else kind
    entries = node.get(key) or []
    if not isinstance(entries, list):
        raise SpecError(f"{where}{key}: expected a list of clauses")
    out = []
    for i, entry in enumerate(entries):
        at = f"{where}{key}[{i}]"
        if isinstance(entry, str):
            text, extra = entry, False
        elif isinstance(entry, dict) and "clause" in entry:
            text, extra = entry["clause"], bool(entry.get("x-inferred-extra"))
        else:
            raise SpecError(f"{at}: malformed contract clause entry: {entry!r}")
        try:
            formula = parse_formula(text)
            check_clause(formula, kind)
        except FormulaError as exc:
            raise SpecError(f"{at}: {exc}") from None
        for call, _ in _walk_calls(formula):
            for part in (p for seg in call.url.segments for p in seg) if call.url else ():
                if isinstance(part, ParamPart) and not part.is_dotted() and part.name not in bound:
                    raise SpecError(
                        f"{at}: {_print_call(call)}: the operation never binds {{{part.name}}}"
                    )
        out.append(Clause(text=text, extra=extra, formula=formula))
    return tuple(out)


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
    for op in spec.operations:
        if op.method == "GET":
            continue
        where = f"{op.method} {op.path}"
        requires: list[Clause] = []
        ensures: list[Clause] = []

        if op.method == "POST":
            if op.path != op.collection:
                skipped.append((op.op_id, f"POST path {op.path} has no /{{key}} item sibling"))
                continue
            probe_missing = Comparison(_get_item_by_body(op.path, op.own_key), "=", Literal(404))
            probe_there = Comparison(_get_item_by_body(op.path, op.own_key), "=", Literal(200))
            requires.append(_clause(probe_missing))
            ensures.append(_clause(probe_there))
            req_schema = _body_schema(op.raw, where)
            if req_schema is not None and req_schema == _success_schema(op.raw, where):
                echo = Comparison(ApiCall(func="req_body"), "=", ApiCall(func="res_body"))
                ensures.append(_clause(echo))
        elif op.method == "DELETE":
            if op.path != op.item_path:
                skipped.append((op.op_id, f"DELETE path {op.path} is not a keyed item path"))
                continue
            requires.append(_clause(Comparison(_get_item(op.path), "=", Literal(200))))
            ensures.append(_clause(Comparison(_get_item(op.path), "=", Literal(404))))
            if _success_schema(op.raw, where) is not None:
                echo = Comparison(
                    ApiCall(func="req_body"),
                    "=",
                    Prev(call=_get_item(op.path, func="res_body")),
                )
                ensures.append(_clause(echo))
        elif op.method == "PUT":
            if op.path != op.item_path:
                skipped.append((op.op_id, f"PUT path {op.path} is not a keyed item path"))
                continue
            requires.append(_clause(Comparison(_get_item(op.path), "=", Literal(200))))
            stored = Comparison(
                ApiCall(func="req_body"), "=", _get_item(op.path, func="res_body")
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
