"""Resource lifecycle models and exhaustive state-space exploration.

A model declares resources (keyed maps with record fields), actions with
guards and effects over those maps, and invariants. successors is the
model's one step: from a state it yields each labeled next state. explore
enumerates every reachable state by breadth-first search over successors,
checks the invariants in each state, and produces the labeled transition
graph that sequence generation consumes.

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

An INT is written in ASCII digits; another digit is a character that
cannot be tokenized.

Each 'any capacity' of an action's effects is a draw: a step of the action
binds it to one declared capacity, so the action has a successor for each.
A step's label is the action's name over its params' ids and then its
draws, as in postTournament(t1,2), so it names every choice of the step: a
state and a label fix the next state.

A state is one tuple and its own key. load_model gives each declared
(resource, id) a slot, resources in declaration order and ids in domain
order. A slot holds None where the id is absent, else the record as a
tuple of its field values in field-name order. It is final when every
slot is empty again (the one terminal condition, 'all_empty'); final
states are sinks, not expanded. A step puts new records in a list copy of
the state, so states share the records they hold. explore keeps each
state once, as its value; labels are made as the DOT is written.

load_model reads each guard, effect and invariant check in one pass: every
construct is parsed, its kind inferred and checked, and turned into the
function that evaluates it. A guard or check becomes holds(env, state),
true when each conjunct holds (it stops at the first false one), where env
maps each param or 'forall' variable to an id; an effect becomes
apply(state list, env), which sets or clears one slot of a list copy of
the state, and reads each draw's capacity from env, as it reads each
param's id. The kinds are 'id R' for a param or 'forall' variable over
resource R or a ref field to R, 'set R' for a set field over R, 'map R' for
a bare resource name (only as an 'in' or size() target) and 'int' for a
capacity field. The load refuses, naming the action or invariant, an
undeclared name; an 'in' whose element is not an id of its target's
resource; a size() whose target is not a set or map, or whose right side
is not an INT or int; a key R[k] whose k is not 'id R'; a put that does not
give each record field once, with a value of its kind: '{}' only for a
set, 'any capacity' or an INT of 'capacities' only for a capacity; an add
or remove of another resource's id; a variable with a resource's name; and
an effect on a resource that its action declares unchanged. So every
reachable state is well-typed, and a fault fails the load even where
evaluation never reaches it, as in "action drop: o has kind id others, not
id things".
The load also lists each action's instances: a params env for each
combination of its params' ids, which the guard reads once (no guard can
name a draw), with an env and label for each choice of one capacity per
draw, the draws varying fastest; and it puts each invariant's 'forall'
loop into its holds(state), so that a step only calls functions.
Exploration only evaluates, and its errors depend on the state: R[k] read
where k is absent ("R[k] does not exist (guard should test membership
first)"), a del of an absent id, an add or remove on an absent record or of
an element already in or missing from its set, a broken invariant
(InvariantViolation), and more than max_states states.

A section of the wrong shape fails the load too, named by its place, as in
"resources[0]: missing 'name'", "actions[1]: name: expected a string, got
['drop']" or "action drop: unchanged: expected a list of strings, got
'tournaments'", and so does an unchanged entry, a param, a set or ref field
or an invariant's 'in' that names no declared resource, an action name
that is not a word of letters, digits and '_' (the name ssg.parse_label
reads from a label), and an id listed twice in a resource's ids or that a
step label cannot carry: an empty id, or one with a ',', a line break, or
leading or trailing whitespace. A resource's 'key', which older models
name, is accepted and not read: the request field that carries an id is
the API description's business.

A model with several faults reports the first met in this order: its name;
its resources, capacities and field targets; each action in turn, with its
name (a string, then a word) and params, a param with a resource's name,
its unchanged list, its guard and then each effect; duplicate action names;
each invariant in turn, with a name that an earlier invariant has, its
'forall' and 'in', a variable with a resource's name and its check; and the
terminal condition. Within one guard, effect or check, a character that
cannot be tokenized comes first, and then the faults in reading order, each
where the text that shows it ends: a name where it is read, a kind once the
construct that fixes it is read (so 'x in S' checks x at the end of S), and
a put's fields at its '}'.
"""

from __future__ import annotations

import itertools
import operator
import re
from typing import Callable, Iterator, NamedTuple, Optional

from . import ssg


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
    slots: dict[str, int]  # id -> its slot in a state


class ActionDef(NamedTuple):
    name: str
    instances: tuple[tuple[dict, tuple], ...]  # (params env, ((env, label) per choice of draws))
    guard: Callable[[dict, State], bool]  # holds(params env, state)
    effects: tuple[Callable[[list, dict], None], ...]  # apply(state list, env)


class InvariantDef(NamedTuple):
    name: str
    holds: Callable[[State], bool]  # holds(state), with any 'forall' loop inside


class Model(NamedTuple):
    name: str
    resources: tuple[ResourceDef, ...]
    capacities: tuple[int, ...]
    actions: tuple[ActionDef, ...]
    invariants: tuple[InvariantDef, ...] = ()


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
# An action's name: the only one that ssg.parse_label reads back from a step label.
_WORD_RE = re.compile(r"\w+")


def load_model(doc: dict) -> Model:
    """The model of a parsed document. One that is not a mapping, a file's
    path among them, is refused as a mapping without 'resources' is."""
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
            if not rid or "," in rid or "\n" in rid or rid != rid.strip():
                raise ModelError(f"resource {rname}: ids: {rid!r} cannot be carried by a step "
                                 "label (empty, with a ',' or a line break, or with "
                                 "surrounding whitespace)")
            if ids.count(rid) > 1:
                raise ModelError(f"resource {rname}: ids: {rid!r} is listed twice")
        slots = dict(zip(ids, itertools.count(sum(len(r.ids) for r in resources))))
        resources.append(ResourceDef(name=rname, ids=ids, record=record, slots=slots))
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
        if not _WORD_RE.fullmatch(_text(a["name"], f"actions[{i}]: name")):
            raise ModelError(f"actions[{i}]: name: expected a word ({_WORD_RE.pattern}), "
                             f"got {a['name']!r}")
        where = f"action {a['name']}"
        params = _mapping(a.get("params"), f"{where}: params")
        for p, res in params.items():
            if not (isinstance(res, str) and res in by_name):
                raise ModelError(f"{where}: param {p} over unknown resource {res!r}")
        read = _Reader(where, by_name, capacities, params)
        unchanged = _list_of(a.get("unchanged"), str, f"{where}: unchanged")
        for res in unchanged:
            if res not in by_name:
                raise ModelError(f"{where}: unchanged: unknown resource {res!r}")
        guard = a.get("guard")
        try:
            guard = [] if guard in (None, "") else read.conds(_text(guard, f"{where}: guard"))
            effects = tuple(read.effect(e, unchanged)
                            for e in _list_of(a.get("effect"), str, f"{where}: effect"))
        except RecursionError:
            raise ModelError(f"{where}: nested too deeply to read") from None
        # the draws vary fastest, so an instance's successors stay together
        choices = list(itertools.product(capacities, repeat=len(read.draws)))
        instances = tuple(
            (dict(zip(params, ids)), tuple(
                (dict(zip([*params, *read.draws], ids + caps)),
                 f"{a['name']}({','.join(map(str, ids + caps))})") for caps in choices))
            for ids in itertools.product(*[by_name[res].ids for res in params.values()])
        )
        actions.append(ActionDef(
            name=a["name"], instances=instances, guard=_all_of(guard), effects=effects))
    action_names = [a.name for a in actions]
    if len(set(action_names)) != len(action_names):
        raise ModelError("duplicate action names")

    invariants = []
    for i in _entries(doc, "invariants", ("name", "check")):
        if i["name"] in [inv.name for inv in invariants]:
            raise ModelError(f"duplicate invariant name {i['name']!r}")
        where, var, domain = f"invariant {i['name']}", i.get("forall"), i.get("in")
        if (var is None) != (domain is None):
            raise ModelError(f"{where}: 'forall' and 'in' go together")
        if var is not None:
            _text(var, f"{where}: forall")
        if domain is not None and not (isinstance(domain, str) and domain in by_name):
            raise ModelError(f"{where}: unknown resource {domain!r}")
        read = _Reader(where, by_name, capacities, {} if var is None else {var: domain})
        try:
            check = _all_of(read.conds(_text(i["check"], f"{where}: check")))
        except RecursionError:
            raise ModelError(f"{where}: nested too deeply to read") from None
        slots = {} if var is None else by_name[domain].slots
        invariants.append(InvariantDef(name=i["name"], holds=_for_all(var, slots, check)))

    terminal = doc.get("terminal", "all_empty")
    if terminal != "all_empty":
        raise ModelError(f"unsupported terminal condition {terminal!r}")
    return Model(name, tuple(resources), capacities, tuple(actions), tuple(invariants))


# --- expression language -----------------------------------------------------

_TOK_RE = re.compile(r"\s*(?:(<=|>=|!=|=|<|>|\[|\]|\{|\}|\(|\)|\.|,|:|[A-Za-z_]\w*|[0-9]+)|(\S))")
_CMP = {
    "=": operator.eq, "!=": operator.ne,
    "<": operator.lt, "<=": operator.le,
    ">": operator.gt, ">=": operator.ge,
}

State = tuple  # per slot: None, or the record's field values in field-name order


class _Atom(NamedTuple):
    get: Callable[[dict, State], object]
    kind: str  # 'id R', 'set R', 'map R' or 'int'
    text: str  # as the model writes it


def _all_of(conds: list) -> Callable[[dict, State], bool]:
    """A conjunction as holds(env, state); stops at the first false conjunct."""
    def holds(env: dict, state: State) -> bool:
        for cond in conds:
            if not cond(env, state):
                return False
        return True
    return holds


def _for_all(var: Optional[str], slots: dict[str, int],
             check: Callable[[dict, State], bool]) -> Callable[[State], bool]:
    """An invariant as holds(state): its check for each live id of the domain's slots."""
    def holds(state: State) -> bool:
        for rid, slot in slots.items():
            if state[slot] is not None and not check({var: rid}, state):
                return False
        return True
    return holds if var is not None else lambda state: check({}, state)


class _Reader:
    """Reads the texts of one action or invariant, where bound maps each
    param or 'forall' variable to its resource: each construct is parsed,
    its kind inferred and checked, and returned as the function that
    evaluates it. draws names the 'any capacity' values of the effects
    read so far, in reading order: the env of a step binds each name to
    one capacity."""

    def __init__(self, where: str, by_name: dict, capacities: tuple, bound: dict):
        for name in bound:
            if name in by_name:
                raise ModelError(f"{where}: variable {name!r} has a resource's name")
        self.where, self.by_name, self.capacities, self.bound = where, by_name, capacities, bound
        self.draws: list[str] = []

    def fail(self, message: str):
        raise ModelError(f"{self.where}: {message}")

    def start(self, text: str) -> None:
        self.toks, self.i = [], 0
        for m in _TOK_RE.finditer(text):
            if m.group(2):
                self.fail(f"cannot tokenize at {text[m.start(2):]!r}")
            self.toks.append(m.group(1))

    def peek(self) -> Optional[str]:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self) -> str:
        if self.i >= len(self.toks):
            self.fail("unexpected end of expression")
        self.i += 1
        return self.toks[self.i - 1]

    def expect(self, tok: str) -> None:
        got = self.next()
        if got != tok:
            self.fail(f"expected {tok!r}, got {got!r}")

    def resource(self, res: str) -> ResourceDef:
        if res not in self.by_name:
            self.fail(f"unknown resource {res!r}")
        return self.by_name[res]

    def field(self, res: str, fname: str) -> str:
        """The kind of the values of a field of res's records."""
        spec = self.resource(res).record.get(fname)
        if spec is None:
            self.fail(f"{res} records have no field {fname!r}")
        return {"capacity": "int", "ref": f"id {spec.target}", "set": f"set {spec.target}"}[spec.kind]

    def refuse(self, text: str, got: str, want: str):
        self.fail(f"{text} has kind {got}, not {want}")

    def want(self, atom: _Atom, want: str, text: str = "") -> None:
        if atom.kind != want:
            self.refuse(text + atom.text, atom.kind, want)

    def atom(self, target: bool = False) -> _Atom:
        """PARAM or RESOURCE '[' atom ']' '.' FIELD; where target, also a
        bare RESOURCE, whose map the atom reads as the resource's slots."""
        name, where = self.next(), self.where
        if not re.fullmatch(r"[A-Za-z_]\w*", name):
            self.fail(f"expected a name, got {name!r}")
        if self.peek() != "[":
            if name in self.bound:
                return _Atom(lambda env, state: env[name], f"id {self.bound[name]}", name)
            if target and name in self.by_name:
                slots = self.by_name[name].slots
                lo = min(slots.values(), default=0)
                return _Atom(lambda env, state: state[lo:lo + len(slots)], f"map {name}", name)
            self.fail(f"unknown {'resource' if target else 'name'} {name!r}")
        self.next()
        slots = self.resource(name).slots
        key = self.atom()
        self.want(key, f"id {name}")
        self.expect("]")
        self.expect(".")
        fname = self.next()
        kind, get_key = self.field(name, fname), key.get
        at = sorted(self.by_name[name].record).index(fname)

        def get(env: dict, state: State):
            k = get_key(env, state)
            rec = state[slots[k]]
            if rec is None:
                raise ModelError(f"{where}: {name}[{k}] does not exist "
                                 "(guard should test membership first)")
            return rec[at]
        return _Atom(get, kind, f"{name}[{key.text}].{fname}")

    def collection(self) -> tuple[_Atom, Optional[dict]]:
        """An 'in' or size() target, a map or a set field, and a map's slots (None for a set)."""
        atom = self.atom(target=True)
        sort = atom.kind.partition(" ")[0]
        if sort not in ("map", "set"):
            self.refuse(atom.text, atom.kind, "set R or map R")
        return atom, self.by_name[atom.text].slots if sort == "map" else None

    def conds(self, text: str) -> list:
        """The conjuncts of a guard or check, each as cond(env, state)."""
        self.start(text)
        conds = [self.cond()]
        while self.peek() is not None:
            self.expect("and")
            conds.append(self.cond())
        return conds

    def cond(self) -> Callable[[dict, State], bool]:
        if self.peek() == "size":
            self.next()
            self.expect("(")
            target, slots = self.collection()
            count = target.get
            # a map's size is the number of its slots that hold a record
            measure = len if slots is None else lambda held: len(held) - held.count(None)
            self.expect(")")
            op = self.next()
            if op not in _CMP:
                self.fail(f"expected comparator after size(), got {op!r}")
            compare, tok = _CMP[op], self.peek()
            if tok is not None and tok.isdigit():
                n = int(self.next())
                return lambda env, state: compare(measure(count(env, state)), n)
            rhs = self.atom()
            self.want(rhs, "int")
            get_rhs = rhs.get

            def size(env: dict, state: State) -> bool:
                n = get_rhs(env, state)  # the right side is read first
                return compare(measure(count(env, state)), n)
            return size
        lhs = self.atom()
        negate = self.peek() == "not"
        if negate:
            self.next()
        self.expect("in")
        target, slots = self.collection()
        self.want(lhs, "id " + target.kind.partition(" ")[2])
        get_lhs, get_target = lhs.get, target.get
        if slots is not None:  # an id is in a map where its slot holds a record
            return lambda env, state: (state[slots[get_lhs(env, state)]] is None) == negate
        return lambda env, state: (get_lhs(env, state) in get_target(env, state)) != negate

    def effect(self, text: str, unchanged: tuple) -> Callable[[list, dict], None]:
        """An effect as apply(state list, env), which sets or clears one slot
        of the list and never changes a record in place."""
        self.start(text)
        verb, where = self.next(), self.where
        if verb not in ("put", "del", "add", "remove"):
            self.fail(f"unknown effect verb {verb!r}")
        res = self.next()
        slots = self.resource(res).slots
        if res in unchanged:
            self.fail(f"declares {res!r} unchanged but a {verb} changes it")
        self.expect("[")
        key = self.atom()
        self.want(key, f"id {res}")
        self.expect("]")
        get_key = key.get
        if verb == "del":
            def apply(state: list, env: dict) -> None:
                k = get_key(env, state)
                if state[slots[k]] is None:
                    raise ModelError(f"{where}: del of absent {res}[{k}]")
                state[slots[k]] = None
        elif verb == "put":
            self.expect("=")
            self.expect("{")
            fields = []
            if self.peek() != "}":
                while True:
                    fname = self.next()
                    kind = self.field(res, fname)
                    self.expect(":")
                    fields.append((fname, self.init(f"{res}.{fname} = ", kind)))
                    if self.peek() != ",":
                        break
                    self.next()
            self.expect("}")
            given, record = [fname for fname, _ in fields], list(self.by_name[res].record)
            if sorted(given) != sorted(record):
                self.fail(f"put {res}[{key.text}] gives the fields {given}, "
                          f"not each of {record} once")
            fields.sort()  # a record holds its values in field-name order

            def apply(state: list, env: dict) -> None:
                k = get_key(env, state)
                state[slots[k]] = tuple([value(env, state) for _, value in fields])
        else:
            self.expect(".")
            fname = self.next()
            sort, _, of = self.field(res, fname).partition(" ")
            if sort != "set":
                self.fail(f"{verb} needs a set field, {res}.{fname} is not one")
            elem = self.atom()
            self.want(elem, f"id {of}")
            get_elem, at = elem.get, sorted(self.by_name[res].record).index(fname)

            def apply(state: list, env: dict) -> None:
                k = get_key(env, state)
                rec = state[slots[k]]
                if rec is None:
                    raise ModelError(f"{where}: {verb} on absent {res}[{k}]")
                current, e = rec[at], get_elem(env, state)
                if verb == "add" and e in current:
                    raise ModelError(f"{where}: add of element already in {res}[{k}].{fname}")
                if verb == "remove" and e not in current:
                    raise ModelError(f"{where}: remove of element missing from {res}[{k}].{fname}")
                current = current | {e} if verb == "add" else current - {e}
                state[slots[k]] = (*rec[:at], current, *rec[at + 1:])
        if self.peek() is not None:
            self.fail(f"unexpected {self.peek()!r} after effect {text!r}")
        return apply

    def init(self, text: str, want: str) -> Callable[[dict, State], object]:
        """A put's value for a field of kind want, as value(env, state)."""
        tok = self.peek()
        if tok == "{":
            self.next()
            self.expect("}")
            self.sort(text + "{}", "set", want)
            return lambda env, state: frozenset()
        if tok == "any":
            self.next()
            domain = self.next()
            if domain != "capacity":
                self.fail(f"only 'any capacity' is supported, got 'any {domain}'")
            self.sort(text + "any capacity", "int", want)
            draw = f"any capacity {len(self.draws) + 1}"  # no expression can name it
            self.draws.append(draw)
            return lambda env, state: env[draw]
        if tok is not None and tok.isdigit():
            n = int(self.next())
            self.sort(f"{text}{n}", "int", want)
            if n not in self.capacities:
                self.fail(f"{text}{n} is not one of the capacities {list(self.capacities)}")
            return lambda env, state: n
        atom = self.atom()
        self.want(atom, want, text)
        return atom.get

    def sort(self, text: str, got: str, want: str) -> None:
        if want.partition(" ")[0] != got:  # {} fits any set field
            self.refuse(text, got, want)


# --- states ------------------------------------------------------------------

def empty_state(model: Model) -> State:
    return (None,) * sum(len(r.ids) for r in model.resources)


def _fmt_value(v) -> str:
    if isinstance(v, frozenset):
        return "{" + ", ".join(sorted(v)) + "}"
    return str(v)


def canonical(model: Model, state: State, final_flag: bool) -> str:
    """Stable single-line rendering: resources in declaration order, ids in
    domain order, record fields alphabetical. A state's DOT label, which
    Exploration.dot_lines makes as it writes the state's node line."""
    parts = []
    for r in model.resources:
        entries, fields = [], sorted(r.record)
        for rid, slot in r.slots.items():
            rec = state[slot]
            if rec:
                values = ", ".join(f"{f}={_fmt_value(v)}" for f, v in zip(fields, rec))
                entries.append(f"{rid}[{values}]")
            elif rec is not None:
                entries.append(rid)
        parts.append(f"{r.name}: {{{', '.join(entries)}}}")
    parts.append("final = " + ("TRUE" if final_flag else "FALSE"))
    return " /\\ ".join(parts)


# --- exploration -------------------------------------------------------------

class Exploration(NamedTuple):
    model: Model
    states: list[State]                    # index = state id
    finals: list[int]
    transitions: list[tuple[int, int, str]]

    @property
    def state_count(self) -> int:
        return len(self.states)

    @property
    def transition_count(self) -> int:
        return len(self.transitions)

    def dot_lines(self) -> Iterator[str]:
        """The DOT text a line at a time; each state's text is made and escaped for its node line."""
        nodes = ((str(i), ssg._escape_label(canonical(self.model, state, i in self.finals)))
                 for i, state in enumerate(self.states))
        edges = ((str(u), str(v), ssg._escape_label(label)) for u, v, label in self.transitions)
        return ssg.dot_lines(self.model.name, nodes, edges)


def successors(model: Model, state: State):
    """The model's one step: yield (label, next state) for every enabled
    action instance, actions in declaration order, ids in domain order and
    then capacities in declared order. An action's guard is evaluated once
    per params env, for all its draws. A next state is a new tuple that
    shares every record the step does not replace with state."""
    for action in model.actions:
        for params, choices in action.instances:
            if action.guard(params, state):
                for env, label in choices:
                    out = list(state)
                    for apply in action.effects:
                        apply(out, env)
                    yield label, tuple(out)


def explore(model: Model, *, max_states: int = 10000) -> Exploration:
    """Enumerate every reachable state, breadth first over successors.
    Raises InvariantViolation (with a shortest action trace) at the first
    state found that breaks an invariant, naming the first one declared."""
    states: list[State] = []  # also the BFS queue: states expand in the order found
    parents: list[Optional[tuple[int, str]]] = []
    index: dict[tuple[bool, State], int] = {}
    transitions: list[tuple[int, int, str]] = []  # a state and a label fix the next state
    finals: list[int] = []
    empty = empty_state(model)

    def arrivals():  # (parent, state): the initial state, then each state's successors
        yield None, empty
        for i, state in enumerate(states):
            if i not in finals:  # final states are sinks
                for label, nxt in successors(model, state):
                    yield (i, label), nxt

    for parent, state in arrivals():
        final = parent is not None and state == empty  # every slot empty again
        j = index.get((final, state))
        if j is None:
            j = len(states)
            if j >= max_states:
                raise ModelError(f"state space exceeds {max_states} states")
            index[final, state] = j
            states.append(state)
            parents.append(parent)
            if final:
                finals.append(j)
            broken = next((inv.name for inv in model.invariants if not inv.holds(state)), None)
            if broken is not None:
                trace, k = [], j
                while parents[k] is not None:
                    k, label = parents[k]
                    trace.append(label)
                raise InvariantViolation(broken, canonical(model, state, final),
                                         tuple(reversed(trace)))
        if parent is not None:
            transitions.append((parent[0], j, parent[1]))
    return Exploration(model=model, states=states, finals=finals, transitions=transitions)
