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

Inferred clauses are GLACIER text and pass the load-time checks below, as
authored ones do: a failing clause skips its operation with the reason, and
a clause already present is not added again, so inference is idempotent.

Each operation becomes one record at load time. The record holds what a
call to it needs: the resource key its path addresses, the collection and
item paths, the request schema with every $ref resolved, the foreign keys in
that schema and the names an edge label's arguments bind. Records are looked
up by operation id; where an id is declared twice, the first operation wins
for every lookup. A dangling or cyclic $ref in a request body fails the
load with a SpecError naming the operation's METHOD and path, and so does
a keyword there of the wrong kind, such as a minLength that is not a
non-negative integer or a required that is not a list. So does a
contract clause entry that is neither a string nor a mapping whose
'clause' is a string, and a clause that does not parse or that breaks a
rule of glacier.check_clause for its kind: a probe that is not a GET, prev
outside x-ensures, '@' in an invariant, a bare {param} the operation never
binds (neither its own key nor one of its foreign keys), ... The error
names the clause, as in "POST /players: x-requires[0]: ...", or
"x-invariants[1]: ..." for an invariant. Every Clause is made by clause(),
the one checker that loading, inference and hand-added clauses share. A
path item, operation, parameter list, 'components' or 'components.schemas'
of the wrong shape fails the load with its place, as in "GET /players:
parameters[0]: expected a mapping"; an empty one reads as none.

Contracts serialize as x-requires / x-ensures on the operation objects and
x-invariants at the document root; loading an emitted document and emitting
it again is byte-identical.
"""

from __future__ import annotations

import math
import re
from pathlib import Path
from typing import Any, Callable, NamedTuple, Optional

import yaml

from .glacier import Formula, FormulaError, check_clause, parse as parse_formula


HTTP_METHODS = ("get", "put", "post", "delete", "patch", "head", "options")
_PLACEHOLDER_RE = re.compile(r"\{(\w+)\}")


class SpecError(ValueError):
    pass


class Diagnostic(NamedTuple):
    code: str
    message: str
    where: str = ""


class Clause(NamedTuple):
    """One contract formula and its source text; made only by clause()."""

    text: str
    extra: bool
    formula: Formula


class Operation:
    """One API operation, resolved once at load: how a call to it is issued
    (key bindings, request schema with no $refs left) and its contract
    clauses (requires, ensures), which contract inference may extend."""

    __slots__ = ("op_id", "method", "path", "raw", "requires", "ensures", "own_key",
                 "collection", "item_path", "request_schema", "foreign_keys", "param_names")

    def __init__(
        self,
        op_id: str,
        method: str,  # uppercase
        path: str,
        raw: dict,
        requires: tuple[Clause, ...] = (),
        ensures: tuple[Clause, ...] = (),
        own_key: Optional[str] = None,  # key of the resource the path addresses
        collection: Optional[str] = None,
        item_path: Optional[str] = None,
        request_schema: Optional[dict] = None,
        foreign_keys: tuple[str, ...] = (),  # body fields holding another resource's key
        param_names: tuple[str, ...] = (),  # what an edge label's arguments bind, in order
    ):
        self.op_id = op_id
        self.method = method
        self.path = path
        self.raw = raw
        self.requires = requires
        self.ensures = ensures
        self.own_key = own_key
        self.collection = collection
        self.item_path = item_path
        self.request_schema = request_schema
        self.foreign_keys = foreign_keys
        self.param_names = param_names

    @property
    def bound(self) -> frozenset[str]:
        """The names a call binds: its own key and the foreign keys it sends."""
        return frozenset({self.own_key, *self.foreign_keys} - {None})


class ApiSpec:
    """A loaded API description: its document, operations, diagnostics and
    invariant clauses. Where several operations share an id, the first one
    declared is the one every lookup returns."""

    __slots__ = ("doc", "operations", "diagnostics", "invariants", "_by_id")

    def __init__(self, doc: dict, operations: list[Operation], diagnostics: list[Diagnostic],
                 invariants: tuple[Clause, ...] = ()):
        self.doc = doc
        self.operations = operations
        self.diagnostics = diagnostics
        self.invariants = invariants
        self._by_id: dict[str, Operation] = {}
        for op in operations:
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
        """Collection and item path of each resource -> the PUT on its item
        path: the PUT that updates what a call on either path addresses."""
        return {
            path: op
            for op in self._by_id.values()
            if op.method == "PUT" and op.own_key and op.path == op.item_path
            for path in (op.collection, op.item_path)
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


def _resolve_schema(doc: dict, schema: Optional[dict], _depth: int = 0,
                    _where: str = "") -> Optional[dict]:
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
        for part in ref[2:].split("/"):  # an RFC 6901 pointer: ~1 is "/", then ~0 is "~"
            part = part.replace("~1", "/").replace("~0", "~")
            if not isinstance(node, dict) or part not in node:
                raise SpecError(f"dangling $ref {ref!r}")
            node = node[part]
        return _resolve_schema(doc, node, _depth + 1, _where)
    _check_keywords(schema, _where)
    out = dict(schema)
    if "items" in out and isinstance(out["items"], dict):
        out["items"] = _resolve_schema(doc, out["items"], _depth + 1, f"{_where}items.")
    if "properties" in out:
        out["properties"] = {
            k: _resolve_schema(doc, v, _depth + 1, f"{_where}properties.{k}.")
            for k, v in out["properties"].items()
        }
    return out


def _check_keywords(schema: dict, where: str) -> None:
    """Refuse a keyword the input generator reads whose value is of the
    wrong kind, naming its place, as in "properties.name.minLength". A
    boolean is never a number, and a bound must be finite."""
    for word, value in schema.items():
        number = not isinstance(value, bool) and (
            isinstance(value, int) or isinstance(value, float) and math.isfinite(value))
        if word in ("minLength", "maxLength", "minItems", "maxItems"):
            fits, what = number and isinstance(value, int) and value >= 0, "a non-negative integer"
        elif word in ("minimum", "maximum"):
            fits, what = number, "a finite number"
        elif word in ("exclusiveMinimum", "exclusiveMaximum"):
            fits, what = number or isinstance(value, bool), "a boolean or a finite number"
        elif word == "properties":
            fits, what = isinstance(value, dict), "a mapping"
        elif word in ("required", "enum"):
            fits, what = isinstance(value, list), "a list"
        else:
            continue
        if not fits:
            raise SpecError(f"{where}{word}: expected {what}, got {value!r}")


# --- loading -----------------------------------------------------------------

# libyaml's parser and emitter where pyyaml was built with them; the same
# safe constructor, representer and resolver either way
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_YAML_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)
# libyaml builds nested collections on the C stack and kills the process
# somewhere past 20,000 levels (with an 8 MiB stack). Each level needs one of
# "[{-:?", so a text with no more of them than this cannot get there.
_C_PARSER_MARKS = 10_000


def load_yaml(text: str):
    """yaml.safe_load, through libyaml's C parser where pyyaml has it and
    the text cannot nest deep enough to crash it; otherwise through pyyaml's
    own parser, which raises RecursionError where it nests too deeply."""
    shallow = sum(map(text.count, "[{-:?")) <= _C_PARSER_MARKS
    return yaml.load(text, Loader=_YAML_LOADER if shallow else yaml.SafeLoader)


def _represent_str(dumper, value: str):
    """The safe str representer, but a string that holds U+0085 is
    double-quoted, as libyaml writes it: pyyaml's own emitter would quote
    it singly, where U+0085 reads back as a space."""
    return dumper.represent_scalar("tag:yaml.org,2002:str", value,
                                   style='"' if "\x85" in value else None)


def dump_yaml(doc) -> str:
    """yaml.safe_dump in document order, without line wrapping and with
    allow_unicode, through libyaml's C emitter where pyyaml has it."""
    dumper = type("Dumper", (_YAML_DUMPER,), {})  # leaves pyyaml's own class as it is
    dumper.add_representer(str, _represent_str)
    return yaml.dump(doc, Dumper=dumper, sort_keys=False, width=10000, allow_unicode=True)


def load_oas(doc: dict) -> ApiSpec:
    """The API description of a parsed OpenAPI document. One that is not a
    mapping, a file's path among them, is refused as a mapping without
    'paths' is."""
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
            op = Operation(
                op_id=op_id,
                method=method.upper(),
                path=path,
                raw=raw,
                own_key=own_key,
                collection=collection,
                item_path=item_path,
                request_schema=schema,
                foreign_keys=foreign,
                param_names=param_names,
            )
            op.requires = _load_clauses(raw, "requires", f"{where}: ", op.bound)
            op.ensures = _load_clauses(raw, "ensures", f"{where}: ", op.bound)
            operations.append(op)

    referenced = set()
    _collect_refs(doc, referenced)
    components = _mapping(doc.get("components"), "components")
    for name in _mapping(components.get("schemas"), "components.schemas"):
        if "#/components/schemas/" + str(name).replace("~", "~0").replace("/", "~1") not in referenced:
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
    """Add to out every $ref under node and each pointer it passes through:
    `#/components/schemas/a/b` points into schema `a` as well."""
    if isinstance(node, dict):
        for k, v in node.items():
            if k == "$ref" and isinstance(v, str):
                parts = v.split("/")
                out.update("/".join(parts[:i]) for i in range(1, len(parts) + 1))
            else:
                _collect_refs(v, out)
    elif isinstance(node, list):
        for v in node:
            _collect_refs(v, out)


def _load_clauses(
    node: dict, kind: str, where: str = "", bound: frozenset[str] = frozenset()
) -> tuple[Clause, ...]:
    """The x-<kind> (or bare <kind>) clauses of an operation or document,
    each checked by clause()."""
    key = f"x-{kind}" if f"x-{kind}" in node else kind
    entries = node.get(key) or []
    if not isinstance(entries, list):
        raise SpecError(f"{where}{key}: expected a list of clauses")
    out = []
    for i, entry in enumerate(entries):
        at = f"{where}{key}[{i}]"
        if isinstance(entry, str):
            text, extra = entry, False
        elif isinstance(entry, dict) and isinstance(entry.get("clause"), str):
            text, extra = entry["clause"], bool(entry.get("x-inferred-extra"))
        else:
            raise SpecError(f"{at}: malformed contract clause entry: {entry!r}")
        out.append(clause(text, kind, at, bound, extra))
    return tuple(out)


def clause(text: str, kind: str, at: str, bound: frozenset[str], extra: bool = False) -> Clause:
    """The one way a clause is made, authored, inferred or added by hand: it
    must parse and pass check_clause for its kind, with bound the names a
    call of the operation binds. A SpecError prefixed with at says which
    check failed."""
    try:
        formula = parse_formula(text)
        check_clause(formula, kind, bound)
    except FormulaError as exc:
        raise SpecError(f"{at}: {exc}") from None
    except RecursionError:
        raise SpecError(f"{at}: nested too deeply to read") from None
    return Clause(text, extra, formula)


# --- inference ---------------------------------------------------------------

class InferenceReport(NamedTuple):
    added: dict[str, int]
    skipped: list[tuple[str, str]]


def _crud_clauses(op: Operation, where: str) -> list[tuple[str, str, bool]]:
    """The CRUD rule's (kind, text, extra) clauses for op; SpecError if none fits."""
    if op.method == "POST":
        if op.path != op.collection:
            raise SpecError(f"POST path {op.path} has no /{{key}} item sibling")
        probe = f"res_code(GET {op.path}/req_body(@){{{op.own_key}}})"
        out = [("requires", f"{probe} = 404", False), ("ensures", f"{probe} = 200", False)]
        req_schema = _body_schema(op.raw, where)
        if req_schema is not None and req_schema == _success_schema(op.raw, where):
            out.append(("ensures", "req_body(@) = res_body(@)", False))
        return out
    if op.method not in ("PUT", "DELETE"):
        raise SpecError(f"no inference rule for {op.method}")
    if op.path != op.item_path:
        raise SpecError(f"{op.method} path {op.path} is not a keyed item path")
    get = f"GET {op.path}"
    if op.method == "PUT":
        return [("requires", f"res_code({get}) = 200", False),
                ("ensures", f"req_body(@) = res_body({get})", True)]
    out = [("requires", f"res_code({get}) = 200", False),
           ("ensures", f"res_code({get}) = 404", False)]
    if _success_schema(op.raw, where) is not None:
        out.append(("ensures", f"req_body(@) = prev(res_body({get}))", False))
    return out


def infer_contracts(spec: ApiSpec) -> InferenceReport:
    """Attach CRUD contracts to every POST/PUT/DELETE that fits the
    collection/item shape; GETs are left alone. Each clause enters through
    clause(), as an authored one does: one that fails skips its operation
    with the checker's message, and one the operation already carries is
    not added again. Returns the clauses added per operation (operations
    that gained none are left out) and the skipped operations, with reasons."""
    added: dict[str, int] = {}
    skipped: list[tuple[str, str]] = []
    for op in spec.operations:
        if op.method == "GET":
            continue
        where = f"{op.method} {op.path}"
        new: dict[str, list[Clause]] = {"requires": [], "ensures": []}
        try:
            for kind, text, extra in _crud_clauses(op, where):
                have = getattr(op, kind) + tuple(new[kind])
                if all(c.text != text for c in have):
                    at = f"{where}: x-{kind}[{len(have)}]"
                    new[kind].append(clause(text, kind, at, op.bound, extra))
        except SpecError as exc:
            skipped.append((op.op_id, str(exc)))
            continue
        op.requires += tuple(new["requires"])
        op.ensures += tuple(new["ensures"])
        if new["requires"] or new["ensures"]:
            added[op.op_id] = len(new["requires"]) + len(new["ensures"])
    return InferenceReport(added=added, skipped=skipped)


# --- emission ----------------------------------------------------------------

def _dump_clauses(node: dict, kind: str, clauses: tuple[Clause, ...]) -> None:
    """Write clauses to node as x-<kind>, dropping the bare <kind> spelling."""
    node.pop(kind, None)
    if clauses:
        node[f"x-{kind}"] = [
            {"clause": c.text, "x-inferred-extra": True} if c.extra else c.text
            for c in clauses
        ]
    else:
        node.pop(f"x-{kind}", None)


def emit_extended(spec: ApiSpec) -> str:
    """Serialize the document with contracts written back as x- extensions.

    Emitting, loading the result, and emitting again produces identical
    bytes, so extended specs can be kept under version control.
    """
    for op in spec.operations:
        _dump_clauses(op.raw, "requires", op.requires)
        _dump_clauses(op.raw, "ensures", op.ensures)
    _dump_clauses(spec.doc, "invariants", spec.invariants)
    return dump_yaml(spec.doc)


def fixture_path(name: str) -> Path:
    """Path of a data file shipped with the package."""
    return Path(__file__).parent / "fixtures" / name
