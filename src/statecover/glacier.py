"""The GLACIER contract formula language.

Formulas describe pre/postconditions and invariants over live HTTP
observations:

    formula ::= ('for' | 'exists') vars (':-' | ':') formula
              | expr (boolOp expr)*
    vars    ::= varID 'in' call (',' vars)?
    expr    ::= ('res_code' | 'res_body' | 'req_body') '(' ('@' | METHOD url) ')' suffix?
              | 'prev' '(' call ')'
              | literal
              | expr comparator expr
    suffix  ::= '{' field '}' | '.' func

Parsing is whitespace-insensitive and rejects binder shadowing, unbound
dotted variable references and unknown suffix functions. The printer emits
the canonical spelling and parse(print(f)) reproduces the AST exactly.

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
    a binder {t.f} in a URL              yes       yes      yes

prev never wraps '@' or a binder {t.f}: the pre-state is captured before
the call is sent, when '@' has no response yet, and outside any quantifier.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union


COMPARATORS = ("<=", ">=", "!=", "=", "<", ">")
BOOL_OPS = ("and", "or", "=>")
CALL_FUNCS = ("req_body", "res_body", "res_code")
KNOWN_SUFFIX_FUNCS = ("len",)
KEYWORDS = {"for", "exists", "in", "prev", "and", "or"} | set(CALL_FUNCS)


class FormulaError(ValueError):
    """Parse or validation failure; carries the character offset when the
    failure has one (a check_clause failure has none)."""

    def __init__(self, message: str, pos: int | None = None):
        super().__init__(message if pos is None else f"at offset {pos}: {message}")
        self.pos = pos


# --- URL templates -----------------------------------------------------------

@dataclass(frozen=True)
class LitPart:
    text: str


@dataclass(frozen=True)
class ParamPart:
    """A {name} placeholder; dotted names reference bound variables."""

    name: str

    def root(self) -> str:
        return self.name.split(".", 1)[0]

    def is_dotted(self) -> bool:
        return "." in self.name


@dataclass(frozen=True)
class BodyFieldPart:
    """A req_body(@){field} splice of the current request body into the URL."""

    field: str


UrlPart = Union[LitPart, ParamPart, BodyFieldPart]


@dataclass(frozen=True)
class UrlTemplate:
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

@dataclass(frozen=True)
class Literal:
    value: int | float | str


@dataclass(frozen=True)
class FieldSuffix:
    name: str


@dataclass(frozen=True)
class FuncSuffix:
    name: str


Suffix = Union[FieldSuffix, FuncSuffix]


@dataclass(frozen=True)
class ApiCall:
    """req_body/res_body/res_code over @ (the operation under test) or an
    explicit METHOD plus URL template, with an optional field/function suffix."""

    func: str
    method: str | None = None
    url: UrlTemplate | None = None
    suffix: Suffix | None = None

    def is_self(self) -> bool:
        return self.method is None


@dataclass(frozen=True)
class Prev:
    call: ApiCall


Expr = Union[ApiCall, Prev, Literal]


@dataclass(frozen=True)
class Comparison:
    lhs: Expr
    op: str
    rhs: Expr


@dataclass(frozen=True)
class BoolChain:
    """Flat chain of atoms joined by and/or/=>; len(ops) == len(items) - 1.

    Precedence is applied at evaluation time: 'and' over 'or' over '=>',
    with '=>' right-associative.
    """

    items: tuple[Union[Comparison, Expr], ...]
    ops: tuple[str, ...]


@dataclass(frozen=True)
class Quantified:
    kind: str  # 'for' | 'exists'
    bindings: tuple[tuple[str, ApiCall], ...]
    body: "Formula"


Formula = Union[Quantified, BoolChain, Comparison, Expr]


# --- Parser ------------------------------------------------------------------

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_NUMBER_RE = re.compile(r"-?\d+(\.\d+)?")
_PARAM_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*")
_BODY_SPLICE = "req_body(@)"


class _Cursor:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str, pos: int | None = None) -> FormulaError:
        return FormulaError(message, self.pos if pos is None else pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def eof(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def peek(self, s: str) -> bool:
        self.skip_ws()
        return self.text.startswith(s, self.pos)

    def take(self, s: str) -> bool:
        if self.peek(s):
            self.pos += len(s)
            return True
        return False

    def expect(self, s: str, what: str | None = None) -> None:
        if not self.take(s):
            raise self.error(f"expected {what or s!r}")

    def peek_ident(self) -> str | None:
        self.skip_ws()
        m = _IDENT_RE.match(self.text, self.pos)
        return m.group(0) if m else None

    def take_ident(self) -> str | None:
        self.skip_ws()
        m = _IDENT_RE.match(self.text, self.pos)
        if not m:
            return None
        self.pos = m.end()
        return m.group(0)

    def take_keyword(self, kw: str) -> bool:
        save = self.pos
        ident = self.take_ident()
        if ident == kw:
            return True
        self.pos = save
        return False


def _normalize(text: str) -> str:
    return text.replace("≤", "<=").replace("≥", ">=")


class _Parser:
    def __init__(self, text: str):
        self.cur = _Cursor(_normalize(text))

    # formula := quantified | chain
    def parse_formula(self, env: frozenset[str]) -> Formula:
        c = self.cur
        for kind in ("for", "exists"):
            save = c.pos
            if c.take_keyword(kind):
                return self.parse_quantified(kind, env)
            c.pos = save
        return self.parse_chain(env)

    def parse_quantified(self, kind: str, env: frozenset[str]) -> Quantified:
        c = self.cur
        bindings: list[tuple[str, ApiCall]] = []
        inner_env = env
        while True:
            c.skip_ws()
            at = c.pos
            var = c.take_ident()
            if var is None:
                raise c.error("expected binder variable name")
            if var in KEYWORDS:
                raise c.error(f"keyword {var!r} cannot be a binder name", at)
            if var in inner_env:
                raise c.error(f"binder {var!r} shadows an enclosing binder", at)
            if not c.take_keyword("in"):
                raise c.error(f"expected 'in' after binder {var!r}")
            call = self.parse_call(inner_env)
            bindings.append((var, call))
            inner_env = inner_env | {var}
            if not c.take(","):
                break
        if not (c.take(":-") or c.take(":")):
            raise c.error("expected ':-' or ':' before quantifier body")
        body = self.parse_formula(inner_env)
        return Quantified(kind=kind, bindings=tuple(bindings), body=body)

    # chain := item (boolOp item)*
    def parse_chain(self, env: frozenset[str]) -> Formula:
        c = self.cur
        items: list[Union[Comparison, Expr]] = [self.parse_item(env)]
        ops: list[str] = []
        while True:
            took = None
            if c.take("=>"):
                took = "=>"
            else:
                for kw in ("and", "or"):
                    if c.take_keyword(kw):
                        took = kw
                        break
            if took is None:
                break
            ops.append(took)
            items.append(self.parse_item(env))
        if not ops:
            return items[0]
        return BoolChain(items=tuple(items), ops=tuple(ops))

    # item := expr (comparator expr)?
    def parse_item(self, env: frozenset[str]) -> Union[Comparison, Expr]:
        c = self.cur
        lhs = self.parse_expr(env)
        c.skip_ws()
        op = None
        for cand in COMPARATORS:
            if c.peek(cand):
                # '=>' is a bool op, not the '=' comparator
                if cand == "=" and c.text.startswith("=>", c.pos):
                    continue
                c.take(cand)
                op = cand
                break
        if op is None:
            return lhs
        rhs = self.parse_expr(env)
        c.skip_ws()
        for cand in COMPARATORS:
            if cand == "=" and c.text.startswith("=>", c.pos):
                continue
            if c.peek(cand):
                raise c.error("chained comparisons are not supported")
        return Comparison(lhs=lhs, op=op, rhs=rhs)

    def parse_expr(self, env: frozenset[str]) -> Expr:
        c = self.cur
        c.skip_ws()
        at = c.pos
        if c.pos < len(c.text) and (c.text[c.pos].isdigit() or c.text[c.pos] == "-"):
            m = _NUMBER_RE.match(c.text, c.pos)
            if m:
                c.pos = m.end()
                raw = m.group(0)
                return Literal(float(raw) if "." in raw else int(raw))
        if c.pos < len(c.text) and c.text[c.pos] in "\"'":
            return Literal(self.parse_string())
        ident = c.peek_ident()
        if ident == "prev":
            c.take_ident()
            c.expect("(", "'(' after prev")
            inner = self.parse_call(env)
            c.expect(")", "')' closing prev")
            return Prev(call=inner)
        if ident in CALL_FUNCS:
            return self.parse_call(env)
        raise c.error("expected an expression (api call, prev, or literal)", at)

    def parse_string(self) -> str:
        c = self.cur
        quote = c.text[c.pos]
        c.pos += 1
        out = []
        while True:
            if c.pos >= len(c.text):
                raise c.error("unterminated string literal")
            ch = c.text[c.pos]
            if ch == "\\":
                if c.pos + 1 >= len(c.text):
                    raise c.error("dangling escape")
                out.append(c.text[c.pos + 1])
                c.pos += 2
            elif ch == quote:
                c.pos += 1
                return "".join(out)
            else:
                out.append(ch)
                c.pos += 1

    def parse_call(self, env: frozenset[str]) -> ApiCall:
        c = self.cur
        c.skip_ws()
        at = c.pos
        func = c.take_ident()
        if func not in CALL_FUNCS:
            raise c.error("expected req_body, res_body, or res_code", at)
        c.expect("(", f"'(' after {func}")
        c.skip_ws()
        if c.take("@"):
            method, url = None, None
        else:
            m_at = c.pos
            method = c.take_ident()
            if method is None:
                raise c.error("expected '@' or an HTTP method", m_at)
            if not method.isupper():
                raise c.error(f"HTTP method must be uppercase, got {method!r}", m_at)
            c.skip_ws()
            url = self.parse_url(env)
        c.expect(")", f"')' closing {func}")
        suffix = self.parse_suffix(func)
        return ApiCall(func=func, method=method, url=url, suffix=suffix)

    def parse_url(self, env: frozenset[str]) -> UrlTemplate:
        c = self.cur
        c.skip_ws()
        start = c.pos
        if c.pos >= len(c.text) or c.text[c.pos] != "/":
            raise c.error("URL must start with '/'")
        # Scan to the parenthesis that closes the enclosing call, balancing
        # any parentheses the template itself contains (req_body(@){k}).
        depth = 0
        end = c.pos
        while end < len(c.text):
            ch = c.text[end]
            if ch == "(":
                depth += 1
            elif ch == ")":
                if depth == 0:
                    break
                depth -= 1
            elif ch.isspace():
                break
            end += 1
        raw = c.text[start:end]
        c.pos = end
        return self._parse_url_template(raw, start, env)

    def _parse_url_template(self, raw: str, base: int, env: frozenset[str]) -> UrlTemplate:
        c = self.cur
        segments: list[tuple[UrlPart, ...]] = []
        offset = 1  # past the leading '/'
        for seg in raw[1:].split("/"):
            parts: list[UrlPart] = []
            i = 0
            while i < len(seg):
                if seg.startswith(_BODY_SPLICE, i):
                    after = i + len(_BODY_SPLICE)
                    m = re.match(r"\{(\w+)\}", seg[after:])
                    if not m:
                        raise c.error(
                            "req_body(@) in a URL requires a {field} selector",
                            base + offset + i,
                        )
                    parts.append(BodyFieldPart(m.group(1)))
                    i = after + m.end()
                elif seg[i] == "{":
                    m = _PARAM_NAME_RE.match(seg, i + 1)
                    if not m or not seg.startswith("}", m.end()):
                        raise c.error("malformed {placeholder} in URL", base + offset + i)
                    name = m.group(0)
                    if "." in name and name.split(".", 1)[0] not in env:
                        raise c.error(
                            f"unbound variable {name.split('.', 1)[0]!r} in URL placeholder",
                            base + offset + i,
                        )
                    parts.append(ParamPart(name))
                    i = m.end() + 1
                else:
                    j = i
                    while j < len(seg) and seg[j] != "{" and not seg.startswith(_BODY_SPLICE, j):
                        j += 1
                    parts.append(LitPart(seg[i:j]))
                    i = j
            segments.append(tuple(parts))
            offset += len(seg) + 1
        if not segments or all(len(s) == 0 for s in segments) and raw == "/":
            raise c.error("empty URL", base)
        return UrlTemplate(segments=tuple(segments))

    def parse_suffix(self, func: str) -> Suffix | None:
        c = self.cur
        save = c.pos
        if c.take("{"):
            at = c.pos
            name = c.take_ident()
            if name is None:
                raise c.error("expected field name in suffix", at)
            c.expect("}", "'}' closing field suffix")
            if func == "res_code":
                raise c.error("res_code does not admit a {field} suffix", save)
            return FieldSuffix(name)
        if c.take("."):
            at = c.pos
            name = c.take_ident()
            if name is None:
                raise c.error("expected function name after '.'", at)
            if name not in KNOWN_SUFFIX_FUNCS:
                raise c.error(f"unknown suffix function {name!r}", at)
            return FuncSuffix(name)
        c.pos = save
        return None


def parse(text: str) -> Formula:
    """Parse one formula; raises FormulaError with the failing offset."""
    p = _Parser(text)
    formula = p.parse_formula(frozenset())
    if not p.cur.eof():
        raise p.cur.error("trailing content after formula")
    return formula


# --- Printer -----------------------------------------------------------------

def _print_literal(lit: Literal) -> str:
    if isinstance(lit.value, str):
        escaped = lit.value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    return repr(lit.value)


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
    if isinstance(formula, BoolChain):
        out = [print_formula(formula.items[0])]
        for op, item in zip(formula.ops, formula.items[1:]):
            out.append(op)
            out.append(print_formula(item))
        return " ".join(out)
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
    elif isinstance(formula, BoolChain):
        for item in formula.items:
            yield from _walk_calls(item)
    elif isinstance(formula, Comparison):
        yield from _walk_calls(formula.lhs)
        yield from _walk_calls(formula.rhs)
    elif isinstance(formula, Prev):
        yield formula.call, True
    elif isinstance(formula, ApiCall):
        yield formula, False


def check_clause(formula: Formula, kind: str) -> None:
    """Raise FormulaError unless every construct in formula may appear in a
    clause of this kind ('requires', 'ensures' or 'invariants'); see the
    table in the module docstring."""
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
