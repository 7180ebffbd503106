"""The GLACIER contract formula language.

Formulas describe pre/postconditions and invariants over live HTTP
observations. The grammar, loosest binding first:

    formula    ::= ('for' | 'exists') binding (',' binding)* (':-' | ':') formula
                 | implies
    binding    ::= name 'in' call
    implies    ::= disjunct ('=>' disjunct)*      a => b => c is a => (b => c)
    disjunct   ::= conjunct ('or' conjunct)*
    conjunct   ::= comparison ('and' comparison)*
    comparison ::= expr (comparator expr)?
    comparator ::= '<=' | '>=' | '!=' | '=' | '<' | '>' | '≤' | '≥'
    expr       ::= call | 'prev' '(' call ')' | number | string
    call       ::= ('res_code' | 'res_body' | 'req_body') '(' ('@' | METHOD url) ')' suffix?
    suffix     ::= '{' field '}' | '.' 'len'
    url        ::= '/' then literal text, '{param}', '{binder.field}' and
                   'req_body(@){field}' splices, up to a space or the ')'
                   that closes the call

Spaces may separate tokens, and a space ends a URL. '≤' and '≥' are
spellings of the comparators '<=' and '>=' and nothing else: inside a string
or a URL they are plain characters. A binder placeholder {t.f} names one
field of one binder. Parsing rejects binder shadowing, unbound binder
placeholders, unknown suffix functions, and numbers out of range: a float
that overflows, or an integer longer than int() reads. The printer emits the
canonical spelling and parse(print(f)) reproduces the AST exactly.

A formula that parses may still use a construct its clause kind cannot
evaluate; check_clause refuses it when a spec is loaded:

    construct                            requires  ensures  invariants
    res_code/res_body(GET url)           yes       yes      yes
    a probe with any other method        no        no       no
    req_body(@), req_body(@){f} in a URL yes       yes      no
    req_body(METHOD url)                 no        no       no
    res_code(@), res_body(@)             no        yes      no
    prev(res_code/res_body(GET url))     no        yes      no
    a bare {param} in a URL              yes       yes      no
    a bare {param} the call never binds  no        no       no
    a binder {t.f} in a URL              yes       yes      yes

prev never wraps '@' or a binder {t.f}: the pre-state is captured before
the call is sent, when '@' has no response yet, and outside any quantifier.
A call binds its operation's own key and foreign keys; an invariant binds
nothing. The bound-name rule is checked last, so a clause that also breaks
another rule gets that rule's message.
"""

from __future__ import annotations

import re
from typing import NamedTuple, Union


BOOL_OPS = ("=>", "or", "and")  # loosest first
CALL_FUNCS = ("req_body", "res_body", "res_code")
KNOWN_SUFFIX_FUNCS = ("len",)
KEYWORDS = {"for", "exists", "in", "prev", "and", "or"} | set(CALL_FUNCS)


class FormulaError(ValueError):
    """Parse or validation failure; carries the character offset when the
    failure has one (a check_clause failure has none)."""

    def __init__(self, message: str, pos: int | None = None):
        super().__init__(message if pos is None else f"at offset {pos}: {message}")
        self.pos = pos


# --- AST nodes ---------------------------------------------------------------

def _same_node(node, other) -> bool:
    return type(node) is type(other) and tuple.__eq__(node, other)


def _other_node(node, other) -> bool:
    return not _same_node(node, other)


def _node(cls):
    """Make a NamedTuple class a formula node: equal only to a node of its
    own type with equal fields, so that LitPart("a") != ParamPart("a") and
    neither equals the tuple ("a",). Equal nodes hash alike."""
    cls.__eq__ = _same_node
    cls.__ne__ = _other_node
    cls.__hash__ = tuple.__hash__
    return cls


# --- URL templates -----------------------------------------------------------

@_node
class LitPart(NamedTuple):
    text: str


@_node
class ParamPart(NamedTuple):
    """A {name} placeholder, or {binder.field}: one field of a bound variable."""

    name: str

    def is_dotted(self) -> bool:
        return "." in self.name


@_node
class BodyFieldPart(NamedTuple):
    """A req_body(@){field} splice of the current request body into the URL."""

    field: str


UrlPart = Union[LitPart, ParamPart, BodyFieldPart]


@_node
class UrlTemplate(NamedTuple):
    segments: tuple[tuple[UrlPart, ...], ...]

    def text(self) -> str:
        out = []
        for seg in self.segments:
            parts = []
            for p in seg:
                if isinstance(p, LitPart):
                    parts.append(p.text)
                elif isinstance(p, ParamPart):
                    parts.append("{%s}" % p.name)
                else:
                    parts.append("req_body(@){%s}" % p.field)
            out.append("".join(parts))
        return "/" + "/".join(out)


# --- Expressions and formulas ------------------------------------------------

@_node
class Literal(NamedTuple):
    value: int | float | str


@_node
class FieldSuffix(NamedTuple):
    name: str


@_node
class FuncSuffix(NamedTuple):
    name: str


Suffix = Union[FieldSuffix, FuncSuffix]


@_node
class ApiCall(NamedTuple):
    """req_body/res_body/res_code over @ (the operation under test) or an
    explicit METHOD plus URL template, with an optional field/function suffix."""

    func: str
    method: str | None = None
    url: UrlTemplate | None = None
    suffix: Suffix | None = None

    def is_self(self) -> bool:
        return self.method is None


@_node
class Prev(NamedTuple):
    call: ApiCall


Expr = Union[ApiCall, Prev, Literal]


@_node
class Comparison(NamedTuple):
    lhs: Expr
    op: str
    rhs: Expr


@_node
class BoolOp(NamedTuple):
    """Two or more items joined by one of BOOL_OPS; an item binds tighter
    than op. A chain of '=>' is one node: a => b => c is a => (b => c)."""

    op: str
    items: tuple["Formula", ...]


@_node
class Quantified(NamedTuple):
    kind: str  # 'for' | 'exists'
    bindings: tuple[tuple[str, ApiCall], ...]
    body: "Formula"


Formula = Union[Quantified, BoolOp, Comparison, Expr]


# --- Parser ------------------------------------------------------------------

_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_SPACE = re.compile(r"\s*")
_IDENT = re.compile(_NAME)
_NUMBER = re.compile(r"-?[0-9]+(\.[0-9]+)?")
_STRING = re.compile(r"""(["'])((?:\\.|(?!\1)[^\\])*)(\1)?""", re.S)
_ESCAPE = re.compile(r"\\(.)", re.S)
_COMPARATOR = re.compile("<=|>=|!=|=(?!>)|<|>|≤|≥")
_UNICODE_COMPARATORS = {"≤": "<=", "≥": ">="}
_NECK = re.compile(":-?")
# A URL ends at a space or at the ')' that closes its call; the parentheses
# a URL holds itself, as in a req_body(@){k} splice, balance.
_URL_END = re.compile(r"[()\s]")
_URL_PART = re.compile(
    r"(?P<slash>/)|(?P<splice>req_body\(@\)(?:\{(?P<field>" + _NAME + r")\})?)"
    r"|\{(?:(?P<param>" + _NAME + r"(?:\." + _NAME + r")?)\})?"
    r"|(?P<literal>(?:(?!req_body\(@\))[^/{])+)"
)
_INF = float("inf")


class _Parser:
    """Recursive descent over text; every read skips the spaces before it."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str, pos: int | None = None) -> FormulaError:
        return FormulaError(message, self.pos if pos is None else pos)

    def skip(self) -> int:
        self.pos = _SPACE.match(self.text, self.pos).end()
        return self.pos

    def read(self, pattern: re.Pattern) -> re.Match | None:
        m = pattern.match(self.text, self.skip())
        if m:
            self.pos = m.end()
        return m

    def take(self, token: str) -> bool:
        if self.text.startswith(token, self.skip()):
            self.pos += len(token)
            return True
        return False

    def expect(self, token: str, what: str) -> None:
        if not self.take(token):
            raise self.error(f"expected {token!r} {what}")

    def keyword(self, word: str) -> bool:
        """Step over word if it is the next identifier; else stay put."""
        save = self.pos
        m = self.read(_IDENT)
        if m and m[0] == word:
            return True
        self.pos = save
        return False

    def formula(self, env: frozenset[str]) -> Formula:
        for kind in ("for", "exists"):
            if self.keyword(kind):
                return self.quantified(kind, env)
        return self.bool_op(0, env)

    def quantified(self, kind: str, env: frozenset[str]) -> Quantified:
        bindings: list[tuple[str, ApiCall]] = []
        while True:
            var = self.read(_IDENT)
            if not var:
                raise self.error("expected binder variable name")
            if var[0] in KEYWORDS:
                raise self.error(f"keyword {var[0]!r} cannot be a binder name", var.start())
            if var[0] in env:
                raise self.error(f"binder {var[0]!r} shadows an enclosing binder", var.start())
            if not self.keyword("in"):
                raise self.error(f"expected 'in' after binder {var[0]!r}")
            bindings.append((var[0], self.call(env)))
            env = env | {var[0]}
            if not self.take(","):
                break
        if not self.read(_NECK):
            raise self.error("expected ':-' or ':' before quantifier body")
        return Quantified(kind=kind, bindings=tuple(bindings), body=self.formula(env))

    def bool_op(self, level: int, env: frozenset[str]) -> Formula:
        """The items BOOL_OPS[level] joins, each bound tighter than it."""
        if level == len(BOOL_OPS):
            return self.comparison(env)
        op = BOOL_OPS[level]
        items = [self.bool_op(level + 1, env)]
        while self.take(op) if op == "=>" else self.keyword(op):
            items.append(self.bool_op(level + 1, env))
        return items[0] if len(items) == 1 else BoolOp(op=op, items=tuple(items))

    def comparison(self, env: frozenset[str]) -> Union[Comparison, Expr]:
        lhs = self.expr(env)
        op = self.read(_COMPARATOR)
        if not op:
            return lhs
        rhs = self.expr(env)
        again = self.read(_COMPARATOR)
        if again:
            raise self.error("chained comparisons are not supported", again.start())
        return Comparison(lhs=lhs, op=_UNICODE_COMPARATORS.get(op[0], op[0]), rhs=rhs)

    def expr(self, env: frozenset[str]) -> Expr:
        at = self.skip()
        number = self.read(_NUMBER)
        if number:
            try:
                value = float(number[0]) if number[1] else int(number[0])
            except ValueError:  # more digits than int() converts
                value = _INF
            if abs(value) == _INF:
                raise self.error("number out of range", at)
            return Literal(value)
        string = self.read(_STRING)
        if string:
            if not string[3]:
                raise self.error("unterminated string literal" if self.pos == len(self.text)
                                 else "dangling escape")
            return Literal(_ESCAPE.sub(r"\1", string[2]))
        word = _IDENT.match(self.text, at)
        if word and word[0] == "prev":
            self.pos = word.end()
            self.expect("(", "after prev")
            inner = self.call(env)
            self.expect(")", "closing prev")
            return Prev(call=inner)
        if word and word[0] in CALL_FUNCS:
            return self.call(env)
        raise self.error("expected an expression (api call, prev, or literal)", at)

    def call(self, env: frozenset[str]) -> ApiCall:
        at = self.skip()
        func = self.read(_IDENT)
        if not func or func[0] not in CALL_FUNCS:
            raise self.error("expected req_body, res_body, or res_code", at)
        func = func[0]
        self.expect("(", f"after {func}")
        if self.take("@"):
            method, url = None, None
        else:
            method = self.read(_IDENT)
            if not method:
                raise self.error("expected '@' or an HTTP method")
            if not method[0].isupper():
                raise self.error(f"HTTP method must be uppercase, got {method[0]!r}",
                                 method.start())
            method, url = method[0], self.url(env)
        self.expect(")", f"closing {func}")
        return ApiCall(func=func, method=method, url=url, suffix=self.suffix(func))

    def url(self, env: frozenset[str]) -> UrlTemplate:
        start = self.skip()
        if not self.text.startswith("/", start):
            raise self.error("URL must start with '/'")
        self.pos, depth = len(self.text), 0
        for stop in _URL_END.finditer(self.text, start):
            if stop[0] == "(":
                depth += 1
            elif stop[0] == ")" and depth:
                depth -= 1
            else:
                self.pos = stop.start()
                break
        if self.pos == start + 1:
            raise self.error("empty URL", start)
        segments: list[list[UrlPart]] = [[]]
        for part in _URL_PART.finditer(self.text, start + 1, self.pos):
            if part["slash"]:
                segments.append([])
            elif part["splice"]:
                if not part["field"]:
                    raise self.error("req_body(@) in a URL requires a {field} selector",
                                     part.start())
                segments[-1].append(BodyFieldPart(part["field"]))
            elif part["literal"]:
                segments[-1].append(LitPart(part["literal"]))
            elif not part["param"]:
                raise self.error("malformed {placeholder} in URL", part.start())
            else:
                binder, dot, _ = part["param"].partition(".")
                if dot and binder not in env:
                    raise self.error(f"unbound variable {binder!r} in URL placeholder",
                                     part.start())
                segments[-1].append(ParamPart(part["param"]))
        return UrlTemplate(segments=tuple(map(tuple, segments)))

    def suffix(self, func: str) -> Suffix | None:
        start = self.pos
        if self.take("{"):
            at = self.pos
            name = self.read(_IDENT)
            if not name:
                raise self.error("expected field name in suffix", at)
            self.expect("}", "closing field suffix")
            if func == "res_code":
                raise self.error("res_code does not admit a {field} suffix", start)
            return FieldSuffix(name[0])
        if self.take("."):
            at = self.pos
            name = self.read(_IDENT)
            if not name:
                raise self.error("expected function name after '.'", at)
            if name[0] not in KNOWN_SUFFIX_FUNCS:
                raise self.error(f"unknown suffix function {name[0]!r}", at)
            return FuncSuffix(name[0])
        return None


def parse(text: str) -> Formula:
    """Parse one formula; raises FormulaError with the failing offset."""
    p = _Parser(text)
    formula = p.formula(frozenset())
    if p.skip() < len(text):
        raise p.error("trailing content after formula")
    return formula


# --- Printer -----------------------------------------------------------------

def _print_number(value: int | float) -> str:
    """repr, with a float's exponent written out, since parse reads none:
    1e+20 prints as 100000000000000000000.0 and 1e-05 as 0.00001."""
    mantissa, _, exponent = repr(value).partition("e")
    if not exponent:
        return mantissa
    sign = "-" if mantissa.startswith("-") else ""
    whole, _, fraction = mantissa.lstrip("-").partition(".")
    digits, point = whole + fraction, len(whole) + int(exponent)
    if point <= 0:
        return f"{sign}0.{'0' * -point}{digits}"
    return f"{sign}{digits[:point].ljust(point, '0')}.{digits[point:] or '0'}"


def _print_literal(lit: Literal) -> str:
    if isinstance(lit.value, str):
        escaped = lit.value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    return _print_number(lit.value)


def _print_suffix(suffix: Suffix | None) -> str:
    if suffix is None:
        return ""
    if isinstance(suffix, FieldSuffix):
        return "{%s}" % suffix.name
    return f".{suffix.name}"


def _print_call(call: ApiCall) -> str:
    if call.is_self():
        target = "@"
    else:
        target = f"{call.method} {call.url.text()}"
    return f"{call.func}({target}){_print_suffix(call.suffix)}"


def _print_expr(expr: Expr) -> str:
    if isinstance(expr, ApiCall):
        return _print_call(expr)
    if isinstance(expr, Prev):
        return f"prev({_print_call(expr.call)})"
    return _print_literal(expr)


def print_formula(formula: Formula) -> str:
    """Canonical single-line spelling; the inverse of parse on valid ASTs."""
    if isinstance(formula, Quantified):
        binders = ", ".join(f"{var} in {_print_call(call)}" for var, call in formula.bindings)
        return f"{formula.kind} {binders} :- {print_formula(formula.body)}"
    if isinstance(formula, BoolOp):
        return f" {formula.op} ".join(map(print_formula, formula.items))
    if isinstance(formula, Comparison):
        return f"{_print_expr(formula.lhs)} {formula.op} {_print_expr(formula.rhs)}"
    return _print_expr(formula)


# --- Analysis ----------------------------------------------------------------

def _walk_calls(formula: Formula):
    """Yield (call, inside_prev) for every ApiCall in the formula."""
    if isinstance(formula, Quantified):
        for _, call in formula.bindings:
            yield call, False
        yield from _walk_calls(formula.body)
    elif isinstance(formula, BoolOp):
        for item in formula.items:
            yield from _walk_calls(item)
    elif isinstance(formula, Comparison):
        yield from _walk_calls(formula.lhs)
        yield from _walk_calls(formula.rhs)
    elif isinstance(formula, Prev):
        yield formula.call, True
    elif isinstance(formula, ApiCall):
        yield formula, False


def check_clause(formula: Formula, kind: str, bound: frozenset[str]) -> None:
    """Raise FormulaError unless every construct in formula may appear in a
    clause of this kind ('requires', 'ensures' or 'invariants') and every
    bare {param} is one of bound, the names a call of the operation binds;
    see the table in the module docstring."""
    for call, inside_prev in _walk_calls(formula):
        text = _print_call(call)
        parts = [p for seg in call.url.segments for p in seg] if call.url else []
        if call.method not in (None, "GET"):
            raise FormulaError(f"probe {text} is not a GET")
        if call.func == "req_body" and not call.is_self():
            raise FormulaError(f"{text}: req_body reads only the request of '@'")
        if kind == "invariants":
            if call.is_self() or any(isinstance(p, BodyFieldPart) for p in parts):
                raise FormulaError(f"{text}: an invariant has no operation for '@'")
            for p in parts:
                if isinstance(p, ParamPart) and not p.is_dotted():
                    raise FormulaError(
                        f"{text}: an invariant has no path parameter {{{p.name}}}"
                    )
        if inside_prev:
            if kind != "ensures":
                raise FormulaError(f"prev({text}) is only allowed in ensures")
            if call.is_self():
                raise FormulaError(f"prev({text}): prev over '@' is not defined")
            for p in parts:
                if isinstance(p, ParamPart) and p.is_dotted():
                    raise FormulaError(
                        f"prev({text}): prev over the binder placeholder "
                        f"{{{p.name}}} is not supported"
                    )
        elif call.is_self() and call.func != "req_body" and kind != "ensures":
            raise FormulaError(f"{text} is only allowed in ensures")
    for call, _ in _walk_calls(formula):
        for part in (p for seg in call.url.segments for p in seg) if call.url else ():
            if isinstance(part, ParamPart) and not part.is_dotted() and part.name not in bound:
                raise FormulaError(
                    f"{_print_call(call)}: the operation never binds {{{part.name}}}"
                )
