"""Resource lifecycle models and exhaustive state-space exploration.

A model declares resources (keyed maps with record fields), actions with
guards and effects over those maps, and invariants. successors is the
model's one step: from the map contents of a state it yields each labeled
next state. explore enumerates every reachable state by breadth-first search
over successors, checks the invariants in each state, and produces the
labeled transition graph that sequence generation consumes.

Guards and effects use a small expression language:

    guard   ::= cond ('and' cond)*
    cond    ::= atom 'in' target | atom 'not' 'in' target
              | 'size' '(' target ')' cmp (INT | atom)
    target  ::= RESOURCE | RESOURCE '[' atom ']' '.' FIELD
    atom    ::= PARAM | RESOURCE '[' atom ']' '.' FIELD

    effect  ::= 'put' RESOURCE '[' atom ']' '=' '{' (FIELD ':' init),* '}'
              | 'del' RESOURCE '[' atom ']'
              | 'add' RESOURCE '[' atom ']' '.' FIELD atom
              | 'remove' RESOURCE '[' atom ']' '.' FIELD atom
    init    ::= '{' '}' | 'any' 'capacity' | INT | atom

'any capacity' branches the successor state over every declared capacity
value. A state becomes final when every map is empty again (the one
terminal condition, 'all_empty'); final states are sinks and are not
expanded further.

Guards, effects and invariant checks are parsed once, by load_model, which
also infers a kind for every atom: 'id R' for a param or 'forall' variable
over resource R or a ref field to R, 'set R' for a set field over R, 'map R'
for a bare resource name (only as an 'in' or size() target) and 'int' for a
capacity field. It refuses, naming the action or invariant, an undeclared
name; an 'in' whose element is not an id of its target's resource; a size()
whose target is not a set or map, or whose right side is not an INT or int;
a key R[k] whose k is not 'id R'; a put that does not give each record field
once, with a value of its kind: '{}' only for a set, 'any capacity' or an
INT of 'capacities' only for a capacity; an add or remove of another
resource's id; a variable with a resource's name; and an effect on a
resource that its action declares unchanged. So every reachable state is
well-typed, and a fault fails the load even where evaluation never reaches
it, as in "action drop: o has kind id others, not id things". Exploration
only evaluates; its errors depend on the state, as a del of an absent id
does. A section of the wrong shape fails the load too, named by its place,
as in "resources[0]: missing 'name'", "actions[1]: name: expected a string,
got ['drop']" or "action drop: unchanged: expected a list of strings, got
'tournaments'", and so does an unchanged entry, a param, a set or ref field
or an invariant's 'in' that names no declared resource, and an id listed
twice in a resource's ids. A resource's 'key', which older models name, is
accepted and not read: the request field that carries an id is the API
description's business.
"""

from __future__ import annotations

import itertools
import operator
import re
from pathlib import Path
from typing import NamedTuple, Optional, Union

from . import ssg
from .speckit import load_yaml
from .ssg import EdgeStatement, NodeStatement, RawGraph


class ModelError(ValueError):
    pass


class InvariantViolation(AssertionError):
    def __init__(self, name: str, state: str, trace: tuple[str, ...]):
        path = " -> ".join(trace) if trace else "(initial state)"
        super().__init__(f"invariant {name!r} violated in state [{state}] after {path}")
        self.name = name
        self.state = state
        self.trace = trace


class FieldSpec(NamedTuple):
    kind: str  # 'set' | 'ref' | 'capacity'
    target: Optional[str] = None


class ResourceDef(NamedTuple):
    name: str
    ids: tuple[str, ...]
    record: dict[str, FieldSpec]


class ActionDef(NamedTuple):
    name: str
    params: tuple[tuple[str, str], ...]  # (param name, resource name)
    guard: tuple  # parsed conditions, see _parse_conds; () always holds
    effects: tuple  # parsed effects, see _parse_effect
    unchanged: tuple[str, ...] = ()


class InvariantDef(NamedTuple):
    name: str
    check: tuple  # parsed conditions, see _parse_conds
    var: Optional[str] = None
    domain: Optional[str] = None  # resource whose live ids bind var


class Model(NamedTuple):
    name: str
    resources: tuple[ResourceDef, ...]
    capacities: tuple[int, ...]
    actions: tuple[ActionDef, ...]
    invariants: tuple[InvariantDef, ...] = ()

    def resource(self, name: str) -> ResourceDef:
        for r in self.resources:
            if r.name == name:
                return r
        raise ModelError(f"unknown resource {name!r}")


# --- model loading -----------------------------------------------------------

def _field_spec(raw, where: str) -> FieldSpec:
    if raw == "capacity":
        return FieldSpec(kind="capacity")
    if isinstance(raw, dict) and len(raw) == 1:
        kind, target = next(iter(raw.items()))
        if kind in ("set", "ref") and isinstance(target, str):
            return FieldSpec(kind=kind, target=target)
    raise ModelError(f"{where}: field spec must be {{set: R}}, {{ref: R}}, or 'capacity', got {raw!r}")


def _entries(doc: dict, section: str, required: tuple[str, ...]) -> list[dict]:
    """doc[section] as a list of mappings that each carry the required keys."""
    entries = doc.get(section) or []
    if not isinstance(entries, list):
        raise ModelError(f"{section}: expected a list, got {type(entries).__name__}")
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ModelError(f"{section}[{i}]: expected a mapping, got {type(entry).__name__}")
        for key in required:
            if key not in entry:
                raise ModelError(f"{section}[{i}]: missing {key!r}")
    return entries


def _mapping(node, where: str) -> dict:
    if node is None:
        return {}
    if not isinstance(node, dict):
        raise ModelError(f"{where}: expected a mapping, got {type(node).__name__}")
    return node


def _list_of(node, kind: type, where: str) -> tuple:
    """node as a tuple of kind (str or int); an empty YAML value reads as ()."""
    if node is None:
        return ()
    if not isinstance(node, list) or not all(
        isinstance(x, kind) and not isinstance(x, bool) for x in node
    ):
        noun = "strings" if kind is str else "integers"
        raise ModelError(f"{where}: expected a list of {noun}, got {node!r}")
    return tuple(node)


def _text(node, where: str) -> str:
    if not isinstance(node, str):
        raise ModelError(f"{where}: expected a string, got {node!r}")
    return node


# A model's name: the only graph name that ssg.parse_dot reads back.
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def load_model(source: Union[dict, str, Path]) -> Model:
    if isinstance(source, dict):
        doc = source
    else:
        doc = load_yaml(Path(source).read_text(encoding="utf-8"))
    if not isinstance(doc, dict) or "resources" not in doc or "actions" not in doc:
        raise ModelError("model needs 'resources' and 'actions'")
    name = doc.get("name", "model")
    if not (isinstance(name, str) and _NAME_RE.fullmatch(name)):
        raise ModelError(f"name: expected a DOT graph name ({_NAME_RE.pattern}), got {name!r}")

    resources = []
    for i, r in enumerate(_entries(doc, "resources", ("name",))):
        rname = _text(r["name"], f"resources[{i}]: name")
        record = {
            fname: _field_spec(spec, f"resource {rname}.{fname}")
            for fname, spec in _mapping(r.get("record"), f"resource {rname}: record").items()
        }
        ids = _list_of(r.get("ids"), str, f"resource {rname}: ids")
        for rid in ids:
            if ids.count(rid) > 1:
                raise ModelError(f"resource {rname}: ids: {rid!r} is listed twice")
        resources.append(ResourceDef(name=rname, ids=ids, record=record))
    names = [r.name for r in resources]
    if len(set(names)) != len(names):
        raise ModelError("duplicate resource names")
    by_name = {r.name: r for r in resources}

    capacities = _list_of(doc.get("capacities"), int, "capacities")
    for r in resources:
        for fname, spec in r.record.items():
            if spec.kind in ("set", "ref") and spec.target not in by_name:
                raise ModelError(f"field {r.name}.{fname} targets unknown resource {spec.target!r}")
            if spec.kind == "capacity" and not capacities:
                raise ModelError(f"field {r.name}.{fname} needs a nonempty 'capacities' list")

    actions = []
    for i, a in enumerate(_entries(doc, "actions", ("name",))):
        where = f"action {_text(a['name'], f'actions[{i}]: name')}"
        params = tuple(_mapping(a.get("params"), f"{where}: params").items())
        for p, res in params:
            if not (isinstance(res, str) and res in by_name):
                raise ModelError(f"{where}: param {p} over unknown resource {res!r}")
        effects = tuple(
            _parse_effect(e, where) for e in _list_of(a.get("effect"), str, f"{where}: effect")
        )
        unchanged = _list_of(a.get("unchanged"), str, f"{where}: unchanged")
        for res in unchanged:
            if res not in by_name:
                raise ModelError(f"{where}: unchanged: unknown resource {res!r}")
        guard = a.get("guard")
        guard = () if guard in (None, "") else _parse_conds(_text(guard, f"{where}: guard"), where)
        _check_kinds(by_name, capacities, dict(params), where, guard, effects, unchanged)
        actions.append(ActionDef(
            name=a["name"], params=params, guard=guard, effects=effects, unchanged=unchanged,
        ))
    action_names = [a.name for a in actions]
    if len(set(action_names)) != len(action_names):
        raise ModelError("duplicate action names")

    invariants = tuple(
        InvariantDef(
            name=i["name"],
            check=_parse_conds(
                _text(i["check"], f"invariant {i['name']}: check"), f"invariant {i['name']}"
            ),
            var=i.get("forall"),
            domain=i.get("in"),
        )
        for i in _entries(doc, "invariants", ("name", "check"))
    )
    for inv in invariants:
        if (inv.var is None) != (inv.domain is None):
            raise ModelError(f"invariant {inv.name}: 'forall' and 'in' go together")
        if inv.var is not None:
            _text(inv.var, f"invariant {inv.name}: forall")
        if inv.domain is not None and not (isinstance(inv.domain, str) and inv.domain in by_name):
            raise ModelError(f"invariant {inv.name}: unknown resource {inv.domain!r}")
        bound = {} if inv.var is None else {inv.var: inv.domain}
        _check_kinds(by_name, capacities, bound, f"invariant {inv.name}", inv.check)

    terminal = doc.get("terminal", "all_empty")
    if terminal != "all_empty":
        raise ModelError(f"unsupported terminal condition {terminal!r}")
    return Model(
        name=name,
        resources=tuple(resources),
        capacities=capacities,
        actions=tuple(actions),
        invariants=invariants,
    )


# --- expression language -----------------------------------------------------

_TOK_RE = re.compile(r"\s*(?:(<=|>=|!=|=|<|>|\[|\]|\{|\}|\(|\)|\.|,|:|[A-Za-z_]\w*|\d+)|(\S))")
_CMP = {
    "=": operator.eq, "!=": operator.ne,
    "<": operator.lt, "<=": operator.le,
    ">": operator.gt, ">=": operator.ge,
}

Maps = dict  # resource name -> {id -> {field -> value}}


def _tokenize(text: str, where: str) -> list[str]:
    out = []
    for m in _TOK_RE.finditer(text):
        if m.group(2):
            raise ModelError(f"{where}: cannot tokenize at {text[m.start(2):]!r}")
        out.append(m.group(1))
    return out


class _Toks:
    def __init__(self, tokens: list[str], where: str):
        self.toks = tokens
        self.i = 0
        self.where = where

    def peek(self) -> Optional[str]:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self) -> str:
        if self.i >= len(self.toks):
            raise ModelError(f"{self.where}: unexpected end of expression")
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.next()
        if got != tok:
            raise ModelError(f"{self.where}: expected {tok!r}, got {got!r}")


# atom := ('var', name) | ('deref', resource, atom, field)
def _parse_atom(t: _Toks):
    name = t.next()
    if not re.fullmatch(r"[A-Za-z_]\w*", name):
        raise ModelError(f"{t.where}: expected a name, got {name!r}")
    if t.peek() == "[":
        t.expect("[")
        inner = _parse_atom(t)
        t.expect("]")
        t.expect(".")
        fname = t.next()
        return ("deref", name, inner, fname)
    return ("var", name)


def _eval_atom(atom, env: dict, maps: Maps, where: str):
    if atom[0] == "var":
        return env[atom[1]]
    _, res, inner, fname = atom
    key = _eval_atom(inner, env, maps, where)
    rec = maps[res].get(key)
    if rec is None:
        raise ModelError(f"{where}: {res}[{key}] does not exist (guard should test membership first)")
    return rec[fname]


def _eval_target_collection(atom, env: dict, maps: Maps, where: str):
    """A membership/size target: a resource map or a set-valued field."""
    return maps[atom[1]] if atom[0] == "var" else _eval_atom(atom, env, maps, where)


def _parse_conds(text: str, where: str) -> tuple:
    """Parse a conjunction into ('size', target, comparator, int or atom)
    and ('in', atom, target, negate) conditions."""
    t = _Toks(_tokenize(text, where), where)
    conds = [_parse_cond(t)]
    while t.peek() is not None:
        t.expect("and")
        conds.append(_parse_cond(t))
    return tuple(conds)


def _parse_cond(t: _Toks):
    if t.peek() == "size":
        t.next()
        t.expect("(")
        target = _parse_atom(t)
        t.expect(")")
        op = t.next()
        if op not in _CMP:
            raise ModelError(f"{t.where}: expected comparator after size(), got {op!r}")
        rhs_tok = t.peek()
        rhs = int(t.next()) if rhs_tok is not None and rhs_tok.isdigit() else _parse_atom(t)
        return ("size", target, _CMP[op], rhs)
    lhs = _parse_atom(t)
    negate = t.peek() == "not"
    if negate:
        t.next()
    t.expect("in")
    return ("in", lhs, _parse_atom(t), negate)


def _holds(conds: tuple, env: dict, maps: Maps, where: str) -> bool:
    """Evaluate parsed conditions as a conjunction; short-circuits."""
    for cond in conds:
        if cond[0] == "size":
            _, target, compare, rhs = cond
            if not isinstance(rhs, int):
                rhs = _eval_atom(rhs, env, maps, where)
            if not compare(len(_eval_target_collection(target, env, maps, where)), rhs):
                return False
        else:
            _, lhs, target, negate = cond
            value = _eval_atom(lhs, env, maps, where)
            if (value in _eval_target_collection(target, env, maps, where)) == negate:
                return False
    return True


# --- effects -----------------------------------------------------------------

# parsed effect forms:
#   ('put', res, keyatom, [(field, init), ...])
#   ('del', res, keyatom)
#   ('add'|'remove', res, keyatom, field, atom)
# init forms: ('empty',) | ('any',) | ('int', n) | ('atom', atom)

def _parse_effect(text: str, where: str):
    t = _Toks(_tokenize(text, where), where)
    effect = _parse_effect_body(t, where)
    if t.peek() is not None:
        raise ModelError(f"{where}: unexpected {t.peek()!r} after effect {text!r}")
    return effect


def _parse_effect_body(t: _Toks, where: str):
    verb = t.next()
    if verb not in ("put", "del", "add", "remove"):
        raise ModelError(f"{where}: unknown effect verb {verb!r}")
    res = t.next()
    t.expect("[")
    key = _parse_atom(t)
    t.expect("]")
    if verb == "del":
        return ("del", res, key)
    if verb == "put":
        t.expect("=")
        t.expect("{")
        fields = []
        if t.peek() != "}":
            while True:
                fname = t.next()
                t.expect(":")
                fields.append((fname, _parse_init(t, where)))
                if t.peek() == ",":
                    t.next()
                    continue
                break
        t.expect("}")
        return ("put", res, key, tuple(fields))
    t.expect(".")
    fname = t.next()
    return (verb, res, key, fname, _parse_atom(t))


def _parse_init(t: _Toks, where: str):
    if t.peek() == "{":
        t.next()
        t.expect("}")
        return ("empty",)
    if t.peek() == "any":
        t.next()
        domain = t.next()
        if domain != "capacity":
            raise ModelError(f"{where}: only 'any capacity' is supported, got 'any {domain}'")
        return ("any",)
    tok = t.peek()
    if tok is not None and tok.isdigit():
        return ("int", int(t.next()))
    return ("atom", _parse_atom(t))


def _count_any(effects) -> int:
    return sum(
        1
        for eff in effects
        if eff[0] == "put"
        for _, init in eff[3]
        if init == ("any",)
    )


def _show(atom) -> str:
    """An atom as the model writes it."""
    return atom[1] if atom[0] == "var" else f"{atom[1]}[{_show(atom[2])}].{atom[3]}"


def _check_kinds(by_name: dict, capacities: tuple, bound: dict, where: str, conds: tuple,
                 effects: tuple = (), unchanged: tuple = ()) -> None:
    """Infer the kind of every atom, where bound maps each param or 'forall'
    variable to its resource, and refuse what the module docstring lists.
    Then every reachable state holds only ids of each resource's domain and
    records with each declared field once, holding a value of its kind."""

    def resource(res: str) -> ResourceDef:
        if res not in by_name:
            raise ModelError(f"{where}: unknown resource {res!r}")
        return by_name[res]

    def field(res: str, fname: str) -> FieldSpec:
        spec = resource(res).record.get(fname)
        if spec is None:
            raise ModelError(f"{where}: {res} records have no field {fname!r}")
        return spec

    def refuse(text: str, got: str, want: str):
        raise ModelError(f"{where}: {text} has kind {got}, not {want}")

    def kind(a, target: bool = False) -> str:
        if a[0] == "deref":
            spec = field(a[1], a[3])
            expect(a[2], f"id {a[1]}")
            return {"capacity": "int", "ref": f"id {spec.target}", "set": f"set {spec.target}"}[spec.kind]
        if a[1] in bound:
            return f"id {bound[a[1]]}"
        if target and a[1] in by_name:
            return f"map {a[1]}"
        raise ModelError(f"{where}: unknown {'resource' if target else 'name'} {a[1]!r}")

    def expect(a, want: str, text: str = "") -> None:
        got = kind(a)
        if got != want:
            refuse(text + _show(a), got, want)

    def collection(a) -> str:
        """The resource whose ids an 'in' or size() target holds."""
        got = kind(a, target=True)
        sort, _, res = got.partition(" ")
        if sort not in ("map", "set"):
            refuse(_show(a), got, "set R or map R")
        return res

    for name in bound:
        if name in by_name:
            raise ModelError(f"{where}: variable {name!r} has a resource's name")
    for cond in conds:
        if cond[0] == "size":
            collection(cond[1])
            if not isinstance(cond[3], int):
                expect(cond[3], "int")
        else:
            expect(cond[1], f"id {collection(cond[2])}")
    for verb, res, key, *rest in effects:
        resource(res)
        if res in unchanged:
            raise ModelError(f"{where}: declares {res!r} unchanged but a {verb} changes it")
        expect(key, f"id {res}")
        if verb == "put":
            for fname, init in rest[0]:
                want, text = kind(("deref", res, key, fname)), f"{res}.{fname} = "
                if init[0] == "atom":
                    expect(init[1], want, text)
                    continue
                text += {"empty": "{}", "any": "any capacity"}.get(init[0], str(init[-1]))
                got = "set" if init[0] == "empty" else "int"  # {} fits any set field
                if want.partition(" ")[0] != got:
                    refuse(text, got, want)
                if init[0] == "int" and init[1] not in capacities:
                    raise ModelError(f"{where}: {text} is not one of the capacities {list(capacities)}")
            given, record = [fname for fname, _ in rest[0]], list(by_name[res].record)
            if sorted(given) != sorted(record):
                raise ModelError(f"{where}: put {res}[{_show(key)}] gives the fields {given}, "
                                 f"not each of {record} once")
        elif verb != "del":
            fname, elem = rest
            spec = field(res, fname)
            if spec.kind != "set":
                raise ModelError(f"{where}: {verb} needs a set field, {res}.{fname} is not one")
            expect(elem, f"id {spec.target}")


def _apply_effects(maps: Maps, effects, env: dict, choices: tuple[int, ...], where: str) -> Maps:
    out = {res: {k: dict(rec) for k, rec in m.items()} for res, m in maps.items()}
    pick = iter(choices)
    for eff in effects:
        kind = eff[0]
        if kind == "put":
            _, res, keyatom, fields = eff
            key = _eval_atom(keyatom, env, out, where)
            rec = {}
            for fname, init in fields:
                if init == ("empty",):
                    rec[fname] = frozenset()
                elif init == ("any",):
                    rec[fname] = next(pick)
                elif init[0] == "int":
                    rec[fname] = init[1]
                else:
                    rec[fname] = _eval_atom(init[1], env, out, where)
            out[res][key] = rec
        elif kind == "del":
            _, res, keyatom = eff
            key = _eval_atom(keyatom, env, out, where)
            if key not in out[res]:
                raise ModelError(f"{where}: del of absent {res}[{key}]")
            del out[res][key]
        else:
            _, res, keyatom, fname, elematom = eff
            key = _eval_atom(keyatom, env, out, where)
            rec = out[res].get(key)
            if rec is None:
                raise ModelError(f"{where}: {kind} on absent {res}[{key}]")
            current = rec[fname]
            elem = _eval_atom(elematom, env, out, where)
            if kind == "add":
                if elem in current:
                    raise ModelError(f"{where}: add of element already in {res}[{key}].{fname}")
                rec[fname] = current | {elem}
            else:
                if elem not in current:
                    raise ModelError(f"{where}: remove of element missing from {res}[{key}].{fname}")
                rec[fname] = current - {elem}
    return out


# --- states ------------------------------------------------------------------

def empty_maps(model: Model) -> Maps:
    return {r.name: {} for r in model.resources}


def _fmt_value(v) -> str:
    if isinstance(v, frozenset):
        return "{" + ", ".join(sorted(v)) + "}"
    return str(v)


def canonical(model: Model, maps: Maps, final_flag: bool) -> str:
    """Stable single-line rendering: resources in declaration order, ids in
    domain order, record fields alphabetical. Used for dedup and DOT labels."""
    parts = []
    for r in model.resources:
        held = maps[r.name]
        rids = [rid for rid in r.ids if rid in held]
        entries = []
        for rid in rids:
            rec = held[rid]
            if rec:
                fields = ", ".join(f"{f}={_fmt_value(rec[f])}" for f in sorted(rec))
                entries.append(f"{rid}[{fields}]")
            else:
                entries.append(f"{rid}")
        parts.append(f"{r.name}: {{{', '.join(entries)}}}")
    parts.append("final = " + ("TRUE" if final_flag else "FALSE"))
    return " /\\ ".join(parts)


def _check_invariants(model: Model, maps: Maps) -> Optional[str]:
    for inv in model.invariants:
        where = f"invariant {inv.name}"
        if inv.var is None:
            if not _holds(inv.check, {}, maps, where):
                return inv.name
        else:
            for rid in maps[inv.domain]:
                if not _holds(inv.check, {inv.var: rid}, maps, where):
                    return inv.name
    return None


# --- exploration -------------------------------------------------------------

class Exploration(NamedTuple):
    model: Model
    states: list[str]                      # canonical labels, index = state id
    finals: list[int]
    transitions: list[tuple[int, int, str]]

    @property
    def state_count(self) -> int:
        return len(self.states)

    @property
    def transition_count(self) -> int:
        return len(self.transitions)

    def to_raw(self) -> RawGraph:
        nodes = tuple(
            NodeStatement(node_id=str(i), label=label)
            for i, label in enumerate(self.states)
        )
        edges = tuple(
            EdgeStatement(src=str(u), dst=str(v), label=label)
            for u, v, label in self.transitions
        )
        return RawGraph(name=self.model.name, nodes=nodes, edges=edges)

    def to_dot(self) -> str:
        return ssg.emit_dot(self.to_raw())


def successors(model: Model, maps: Maps):
    """The model's one step: yield (label, next maps) for every enabled
    action instance and every 'any capacity' choice, actions in declaration
    order and ids in domain order."""
    for action in model.actions:
        domains = [model.resource(res).ids for _, res in action.params]
        where = f"action {action.name}"
        n_any = _count_any(action.effects)
        for combo in itertools.product(*domains):
            env = {p: v for (p, _), v in zip(action.params, combo)}
            if not _holds(action.guard, env, maps, where):
                continue
            label = f"{action.name}({','.join(combo)})"
            for choices in itertools.product(model.capacities, repeat=n_any):
                yield label, _apply_effects(maps, action.effects, env, choices, where)


def explore(model: Model, *, max_states: int = 10000) -> Exploration:
    """Enumerate every reachable state, breadth first over successors.
    Raises InvariantViolation (with a shortest action trace) if any state
    breaks the model's invariants."""
    states: list[str] = []
    state_maps: list[Maps] = []  # also the BFS queue: states expand in the order found
    parents: list[Optional[tuple[int, str]]] = []
    index: dict[str, int] = {}
    edges: dict[tuple[int, int, str], None] = {}  # an insertion-ordered set
    finals: list[int] = []

    def arrivals():  # (parent, maps): the initial state, then each state's successors
        yield None, empty_maps(model)
        for i, maps in enumerate(state_maps):
            if i not in finals:  # final states are sinks
                for label, nxt in successors(model, maps):
                    yield (i, label), nxt

    for parent, maps in arrivals():
        final = parent is not None and not any(maps.values())  # every map empty again
        c = canonical(model, maps, final)
        j = index.get(c)
        if j is None:
            j = len(states)
            if j >= max_states:
                raise ModelError(f"state space exceeds {max_states} states")
            index[c] = j
            states.append(c)
            state_maps.append(maps)
            parents.append(parent)
            if final:
                finals.append(j)
            broken = _check_invariants(model, maps)
            if broken is not None:
                trace, k = [], j
                while parents[k] is not None:
                    k, label = parents[k]
                    trace.append(label)
                raise InvariantViolation(broken, c, tuple(reversed(trace)))
        if parent is not None:
            edges[(parent[0], j, parent[1])] = None
    return Exploration(model=model, states=states, finals=finals, transitions=list(edges))
