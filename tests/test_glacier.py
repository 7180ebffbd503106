import random
import re
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statecover.glacier import (
    BOOL_OPS,
    ApiCall,
    BodyFieldPart,
    BoolOp,
    Comparison,
    FieldSuffix,
    FormulaError,
    FuncSuffix,
    LitPart,
    Literal,
    ParamPart,
    Prev,
    Quantified,
    UrlTemplate,
    check_clause,
    parse,
    print_formula,
)


def url(*segments):
    return UrlTemplate(segments=tuple(tuple(seg) for seg in segments))


GOLDEN = [
    "res_code(GET /players/req_body(@){pid}) = 404",
    "res_code(GET /players/req_body(@){pid}) = 200",
    "req_body(@) = res_body(@)",
    "res_code(GET /players/{pid}) = 200",
    "res_code(GET /players/{pid}) = 404",
    "req_body(@) = prev(res_body(GET /players/{pid}))",
    "for t in res_body(GET /tournaments) :- "
    "res_body(GET /tournaments/{t.tid}/players).len <= res_body(GET /tournaments/{t.tid}/capacity)",
]


class TestGoldenClauses:
    @pytest.mark.parametrize("text", GOLDEN)
    def test_round_trip_exact(self, text):
        assert print_formula(parse(text)) == text

    def test_body_splice_ast(self):
        f = parse("res_code(GET /players/req_body(@){pid}) = 404")
        assert f == Comparison(
            lhs=ApiCall(
                func="res_code",
                method="GET",
                url=url([LitPart("players")], [BodyFieldPart("pid")]),
            ),
            op="=",
            rhs=Literal(404),
        )

    def test_echo_clause_ast(self):
        f = parse("req_body(@) = res_body(@)")
        assert f == Comparison(
            lhs=ApiCall(func="req_body"), op="=", rhs=ApiCall(func="res_body")
        )

    def test_prev_clause_ast(self):
        f = parse("req_body(@) = prev(res_body(GET /players/{pid}))")
        assert isinstance(f.rhs, Prev)
        assert f.rhs.call.method == "GET"
        assert f.rhs.call.url == url([LitPart("players")], [ParamPart("pid")])

    def test_capacity_invariant_ast(self):
        f = parse(GOLDEN[6])
        assert isinstance(f, Quantified)
        assert f.kind == "for"
        assert f.bindings[0][0] == "t"
        body = f.body
        assert isinstance(body, Comparison)
        assert body.op == "<="
        assert body.lhs.suffix == FuncSuffix("len")
        # dotted placeholder referencing the binder
        assert ParamPart("t.tid") in body.lhs.url.segments[1]

    def test_referential_decrease_clause(self):
        # suffix inside prev attaches to the inner call
        text = (
            "res_body(GET /tournaments/req_body(@){tid}/players).len < "
            "prev(res_body(GET /tournaments/req_body(@){tid}/players).len)"
        )
        f = parse(text)
        assert print_formula(f) == text
        assert isinstance(f.rhs, Prev)
        assert f.rhs.call.suffix == FuncSuffix("len")


class TestParsing:
    def test_whitespace_insensitive(self):
        a = parse("res_code(GET /players/{pid})=200")
        b = parse("  res_code( GET /players/{pid} )   =   200 ")
        assert a == b

    def test_colon_accepted_for_binder_separator(self):
        a = parse("for t in res_body(GET /ts) : res_code(@) = 200")
        b = parse("for t in res_body(GET /ts) :- res_code(@) = 200")
        assert a == b

    def test_unicode_comparators_normalized(self):
        assert parse("1 ≤ 2") == parse("1 <= 2")
        assert parse("1 ≥ 2") == parse("1 >= 2")

    def test_unicode_comparators_are_only_comparators(self):
        assert parse('req_body(@){name} = "x≤y"').rhs == Literal("x≤y")
        assert parse("res_code(GET /a≥b) = 1").lhs.url == url([LitPart("a≥b")])
        with pytest.raises(FormulaError, match="^at offset 16: trailing"):
            parse("res_code(@) ≤ 1 junk")

    def test_multiple_binders(self):
        f = parse("exists a in res_body(GET /xs), b in res_body(GET /ys/{a.k}) :- 1 = 1")
        assert f.kind == "exists"
        assert [v for v, _ in f.bindings] == ["a", "b"]

    def test_bool_ops_nest_by_precedence(self):
        one, two, three, four = (parse(f"{n} = {n}") for n in range(1, 5))
        assert parse("1 = 1 and 2 = 2 or 3 = 3 => 4 = 4") == BoolOp("=>", (
            BoolOp("or", (BoolOp("and", (one, two)), three)), four))
        assert parse("1 = 1 => 2 = 2 or 3 = 3 => 4 = 4") == BoolOp("=>", (
            one, BoolOp("or", (two, three)), four))

    def test_implication_not_eaten_by_equals(self):
        f = parse("res_code(@) = 200 => res_code(@) = 201")
        assert isinstance(f, BoolOp)
        assert f.op == "=>" and len(f.items) == 2

    def test_string_literal_escapes(self):
        f = parse('req_body(@){name} = "a\\"b"')
        assert f.rhs == Literal('a"b')
        assert print_formula(f) == 'req_body(@){name} = "a\\"b"'

    def test_negative_and_float_literals(self):
        assert parse("-3 < 0").lhs == Literal(-3)
        assert parse("1.5 < 2").lhs == Literal(1.5)

    @pytest.mark.parametrize("number", [
        "100000000000000000000.0", "0.00001", "-0.00000012345", "15000000000000000.0",
    ])
    def test_a_float_prints_without_an_exponent(self, number):
        text = f"res_code(@) = {number}"
        assert print_formula(parse(text)) == text

    def test_bare_expression_formula(self):
        f = parse("res_code(GET /ping)")
        assert isinstance(f, ApiCall)

    def test_trailing_slash_url(self):
        f = parse("res_code(GET /players/) = 200")
        assert print_formula(f) == "res_code(GET /players/) = 200"

    def test_adjacent_url_parts(self):
        f = parse("res_code(GET /v1/players-{pid}x) = 200")
        seg = f.lhs.url.segments[1]
        assert seg == (LitPart("players-"), ParamPart("pid"), LitPart("x"))


class TestNodes:
    """AST nodes are NamedTuples that compare by type as well as fields, so
    the == checks above tell a literal from a placeholder."""

    @pytest.mark.parametrize("a, b", [
        (LitPart("a"), ParamPart("a")),
        (ParamPart("a"), BodyFieldPart("a")),
        (FieldSuffix("len"), FuncSuffix("len")),
        (url([LitPart("a")]), url([ParamPart("a")])),
        (Prev(ApiCall("res_code")), ApiCall("res_code")),
        (LitPart("a"), ("a",)),
    ])
    def test_nodes_of_other_types_never_compare_equal(self, a, b):
        assert a != b and b != a
        assert not (a == b or b == a)

    def test_equal_nodes_hash_alike(self):
        text = "for t in res_body(GET /ts) :- res_body(GET /ts/{t.k}/m/{pid}){n} = 1"
        first, second = parse(text), parse(text)
        assert first == second and first is not second
        assert hash(first) == hash(second)
        assert len({first, second}) == 1
        assert len({LitPart("a"), ParamPart("a"), BodyFieldPart("a"), LitPart("a")}) == 3

    def test_nodes_are_immutable(self):
        f = parse("res_code(GET /players/{pid}) = 200")
        with pytest.raises(AttributeError):
            f.op = "!="
        with pytest.raises(AttributeError):
            f.lhs.url.segments[1][0].name = "tid"
        assert print_formula(f) == "res_code(GET /players/{pid}) = 200"


class TestValidation:
    def test_binder_shadowing_rejected(self):
        with pytest.raises(FormulaError, match="shadows"):
            parse("for t in res_body(GET /a) :- for t in res_body(GET /b) :- 1 = 1")

    def test_duplicate_binder_in_one_quantifier(self):
        with pytest.raises(FormulaError, match="shadows"):
            parse("for t in res_body(GET /a), t in res_body(GET /b) :- 1 = 1")

    def test_unbound_dotted_placeholder(self):
        with pytest.raises(FormulaError, match="unbound"):
            parse("res_body(GET /xs/{a.b}) = 1")

    def test_dotted_placeholder_bound_is_fine(self):
        parse("for a in res_body(GET /xs) :- res_body(GET /ys/{a.b}) = 1")

    def test_res_code_field_suffix_rejected(self):
        with pytest.raises(FormulaError, match="res_code"):
            parse("res_code(@){status} = 200")

    def test_unknown_suffix_function_rejected(self):
        with pytest.raises(FormulaError, match="at offset 12: .*'count'"):
            parse("res_body(@).count = 1")

    @pytest.mark.parametrize("text, message", [
        ("res_body(GET /a){}", "expected field name in suffix"),
        ("res_body(GET /a).", "expected function name after '.'"),
    ])
    def test_a_suffix_without_its_name(self, text, message):
        with pytest.raises(FormulaError, match=re.escape(f"at offset 17: {message}")):
            parse(text)

    def test_len_suffix_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            parse("res_body(@).len = 1")

    def test_chained_comparison_rejected(self):
        with pytest.raises(FormulaError, match="chained"):
            parse("1 = 2 = 3")

    def test_lowercase_method_rejected(self):
        with pytest.raises(FormulaError, match="uppercase"):
            parse("res_code(get /x) = 1")

    def test_keyword_binder_rejected(self):
        with pytest.raises(FormulaError, match="keyword"):
            parse("for in in res_body(GET /a) :- 1 = 1")

    def test_empty_input(self):
        with pytest.raises(FormulaError):
            parse("")

    def test_trailing_garbage(self):
        with pytest.raises(FormulaError, match="trailing"):
            parse("1 = 1 junk")

    def test_splice_without_field(self):
        with pytest.raises(FormulaError, match="field"):
            parse("res_code(GET /players/req_body(@)) = 404")

    def test_splice_field_is_a_name_as_a_field_suffix_is(self):
        with pytest.raises(FormulaError, match="^at offset 15: expected '}'"):
            parse("req_body(@){café} = 1")
        with pytest.raises(FormulaError,
                           match=r"^at offset 16: req_body\(@\) in a URL requires a \{field\}"):
            parse("res_code(GET /x/req_body(@){café}) = 1")

    def test_a_number_has_ascii_digits_only(self):
        with pytest.raises(FormulaError, match="^at offset 14: expected an expression"):
            parse("res_code(@) = ٤٠٤")

    def test_unterminated_call(self):
        with pytest.raises(FormulaError):
            parse("res_code(GET /players")

    @pytest.mark.parametrize("text, message", [
        ("res_code(GET /x", "at offset 15: expected ')' closing res_code"),
        ("prev res_code(@) = 1", "at offset 5: expected '(' after prev"),
        ("res_body(@){name = 1", "at offset 17: expected '}' closing field suffix"),
        ("for t of res_body(GET /a) :- 1 = 1", "at offset 5: expected 'in' after binder 't'"),
        ("res_code(/x) = 1", "at offset 9: expected '@' or an HTTP method"),
        ("res_code(GET x) = 1", "at offset 13: URL must start with '/'"),
    ])
    def test_expected_names_the_token(self, text, message):
        with pytest.raises(FormulaError) as err:
            parse(text)
        assert str(err.value) == message

    def test_a_binder_placeholder_has_one_field(self):
        text = "for t in res_body(GET /ts) :- res_code(GET /ps/{t.owner.pid}) = 200"
        with pytest.raises(FormulaError, match="malformed {placeholder}") as err:
            parse(text)
        assert err.value.pos == text.index("{")

    @pytest.mark.parametrize("number", ["9" * 400 + ".0", "-" + "9" * 400 + ".5", "1" * 5000],
                             ids=["float", "negative-float", "int-past-int-digit-limit"])
    def test_a_number_out_of_range_is_refused(self, number):
        with pytest.raises(FormulaError, match="^at offset 14: number out of range$"):
            parse(f"res_code(@) = {number} and 1 = 1")

    def test_error_carries_offset(self):
        try:
            parse("1 = 2 = 3")
        except FormulaError as e:
            assert isinstance(e.pos, int)
            assert e.pos >= 0
        else:
            pytest.fail("expected FormulaError")


# The bare names these tests' calls bind, so that only the kind rules refuse.
BOUND = frozenset({"pid", "k", "zone", "slot"})


def refused(text, kind, bound=BOUND):
    """The message check_clause refuses text with as a clause of kind."""
    with pytest.raises(FormulaError) as err:
        check_clause(parse(text), kind, bound)
    assert err.value.pos is None
    return str(err.value)


def accepted(text, *kinds):
    for kind in kinds:
        check_clause(parse(text), kind, BOUND)


class TestFreeParams:
    """A bare {param} is free: only the call under test binds it, so an
    invariant cannot use one. A binder {t.f} is bound wherever it parses."""

    def test_bare_placeholder_is_free(self):
        text = "res_code(GET /players/{pid}) = 200"
        accepted(text, "requires", "ensures")
        assert refused(text, "invariants") == (
            "res_code(GET /players/{pid}): an invariant has no path parameter {pid}")

    def test_self_calls_have_none(self):
        accepted("req_body(@) = res_body(@)", "ensures")

    def test_dotted_bound_not_free(self):
        accepted(GOLDEN[6], "requires", "ensures", "invariants")

    def test_free_inside_prev(self):
        text = "prev(res_body(GET /players/{pid})) = 1"
        accepted(text, "ensures")
        assert refused(text, "invariants").endswith("no path parameter {pid}")

    def test_mixed(self):
        text = "for t in res_body(GET /ts/{zone}) :- res_code(GET /ts/{t.id}/{slot}) = 200"
        accepted(text, "requires")
        assert refused(text, "invariants").endswith("{zone}")
        text = "for t in res_body(GET /ts) :- res_code(GET /ts/{t.id}/{slot}) = 200"
        assert refused(text, "invariants").endswith("{slot}")

    def test_bare_binder_name_is_still_a_path_parameter(self):
        text = "for t in res_body(GET /ts) :- res_code(GET /ts/{t}) = 200"
        assert refused(text, "invariants").endswith("no path parameter {t}")


class TestAnalysis:
    def test_contains_prev(self):
        text = "req_body(@) = prev(res_body(GET /xs/{k}))"
        accepted(text, "ensures")
        assert refused(text, "requires") == (
            "prev(res_body(GET /xs/{k})) is only allowed in ensures")
        assert refused("prev(res_code(GET /xs)) = 200", "invariants") == (
            "prev(res_code(GET /xs)) is only allowed in ensures")

    def test_contains_self(self):
        for text in ("req_body(@) = res_body(@)", "res_code(GET /ps/req_body(@){pid}) = 404"):
            assert refused(text, "invariants").endswith(
                ": an invariant has no operation for '@'")
        accepted("res_code(GET /ps/req_body(@){pid}) = 404", "requires", "ensures")


class TestClauseKinds:
    """One test per rule of check_clause; TestFreeParams and TestAnalysis
    cover the invariant and prev-placement rules."""

    @pytest.mark.parametrize("text", [
        "res_code(DELETE /xs/1) = 200",
        "prev(res_body(PUT /xs/1)) = 1",
        "for x in res_body(POST /xs) :- res_code(GET /xs/{x.id}) = 200",
    ])
    def test_every_probe_is_a_get(self, text):
        assert refused(text, "ensures").endswith("is not a GET")

    def test_req_body_reads_only_self(self):
        for text in ("req_body(GET /xs) = 1", "prev(req_body(GET /xs)) = 1"):
            assert refused(text, "ensures") == (
                "req_body(GET /xs): req_body reads only the request of '@'")

    def test_response_of_self_only_in_ensures(self):
        for func in ("res_code", "res_body"):
            text = f"{func}(@) = 1"
            accepted(text, "ensures")
            assert refused(text, "requires") == f"{func}(@) is only allowed in ensures"
        accepted("req_body(@){k} = 1", "requires")

    def test_prev_never_wraps_self(self):
        for func in ("res_code", "res_body", "req_body"):
            assert refused(f"prev({func}(@)) = 1", "ensures") == (
                f"prev({func}(@)): prev over '@' is not defined")

    def test_prev_never_wraps_a_binder_placeholder(self):
        text = "for t in res_body(GET /ts) :- prev(res_body(GET /ts/{t.id})) = 1"
        assert refused(text, "ensures") == (
            "prev(res_body(GET /ts/{t.id})): prev over the binder placeholder "
            "{t.id} is not supported")
        accepted("for t in res_body(GET /ts) :- prev(res_body(GET /ts/{k})) = 1", "ensures")


class TestBoundNames:
    """A bare {param} must be a name the call binds; this rule runs after
    every kind rule, so a clause breaking both gets the kind rule's message."""

    def test_an_unbound_name_is_refused(self):
        text = "res_code(GET /players/{pid}) = 200"
        check_clause(parse(text), "requires", frozenset({"pid"}))
        assert refused(text, "requires", frozenset({"tid"})) == (
            "res_code(GET /players/{pid}): the operation never binds {pid}")

    def test_binders_and_body_splices_need_no_binding(self):
        check_clause(parse(GOLDEN[6]), "invariants", frozenset())
        check_clause(parse(GOLDEN[0]), "requires", frozenset())

    def test_prev_placement_wins_over_the_bound_name(self):
        assert refused(GOLDEN[5], "requires", frozenset()) == (
            "prev(res_body(GET /players/{pid})) is only allowed in ensures")

    def test_a_later_kind_rule_wins_over_an_earlier_unbound_name(self):
        text = "res_code(GET /xs/{k}) = 200 and res_code(DELETE /xs) = 200"
        assert refused(text, "requires", frozenset()) == "probe res_code(DELETE /xs) is not a GET"

    def test_the_invariant_rule_wins_over_the_bound_name(self):
        assert refused(GOLDEN[3], "invariants", frozenset()) == (
            "res_code(GET /players/{pid}): an invariant has no path parameter {pid}")


# --- randomized round-trip ----------------------------------------------------

class _AstGen:
    """Generates ASTs inside the parser's image so parse(print(f)) == f."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.names = ["pid", "tid", "eid", "name", "cap", "k", "slot"]

    def ident(self):
        return self.rng.choice(self.names)

    def literal(self):
        pick = self.rng.randrange(4)
        if pick == 0:
            return Literal(self.rng.randrange(-50, 500))
        if pick == 1:
            return Literal(self.rng.randrange(0, 40) / 4.0)
        if pick == 2:
            return Literal(self.rng.choice(["alice", "t-1", 'say "hi"', "a/b"]))
        return Literal(self.rng.choice([200, 404, 409, 422]))

    def url_segment(self, env):
        kind = self.rng.randrange(5)
        if kind == 0:
            return (LitPart(self.ident()),)
        if kind == 1:
            return (ParamPart(self.ident()),)
        if kind == 2 and env:
            return (ParamPart(f"{self.rng.choice(sorted(env))}.{self.ident()}"),)
        if kind == 3:
            return (BodyFieldPart(self.ident()),)
        return (LitPart(self.ident()), ParamPart(self.ident()))

    def url(self, env):
        n = self.rng.randrange(1, 4)
        return UrlTemplate(segments=tuple(self.url_segment(env) for _ in range(n)))

    def call(self, env, allow_suffix=True):
        func = self.rng.choice(["req_body", "res_body", "res_code"])
        if self.rng.random() < 0.3:
            method, u = None, None
        else:
            method = self.rng.choice(["GET", "POST", "DELETE", "PUT"])
            u = self.url(env)
        suffix = None
        if allow_suffix and self.rng.random() < 0.4:
            if func != "res_code" and self.rng.random() < 0.5:
                suffix = FieldSuffix(self.ident())
            else:
                suffix = FuncSuffix("len")
        return ApiCall(func=func, method=method, url=u, suffix=suffix)

    def expr(self, env):
        pick = self.rng.random()
        if pick < 0.4:
            return self.literal()
        if pick < 0.8:
            return self.call(env)
        return Prev(call=self.call(env))

    def item(self, env):
        if self.rng.random() < 0.8:
            return Comparison(
                lhs=self.expr(env),
                op=self.rng.choice(["=", "!=", "<", "<=", ">", ">="]),
                rhs=self.expr(env),
            )
        return self.expr(env)

    def formula(self, env, depth):
        if depth > 0 and self.rng.random() < 0.35:
            kind = self.rng.choice(["for", "exists"])
            fresh = [v for v in ("t", "p", "e", "x") if v not in env]
            count = self.rng.randrange(1, min(2, len(fresh)) + 1)
            bindings = []
            inner = set(env)
            for _ in range(count):
                var = fresh.pop(0)
                bindings.append((var, self.call(inner, allow_suffix=False)))
                inner.add(var)
            return Quantified(
                kind=kind,
                bindings=tuple(bindings),
                body=self.formula(inner, depth - 1),
            )
        return self.bool_op(env)

    def bool_op(self, env, level=0):
        """An item, or a BoolOp of BOOL_OPS[level] or a tighter op."""
        if level == len(BOOL_OPS):
            return self.item(env)
        if self.rng.random() < 0.5:
            return self.bool_op(env, level + 1)
        n = self.rng.randrange(2, 4)
        return BoolOp(op=BOOL_OPS[level],
                      items=tuple(self.bool_op(env, level + 1) for _ in range(n)))


def test_fuzz_round_trip_1000():
    rng = random.Random(20240517)
    gen = _AstGen(rng)
    for i in range(1000):
        f = gen.formula(set(), depth=2)
        text = print_formula(f)
        again = parse(text)
        assert again == f, f"case {i}: {text!r}"
        assert print_formula(again) == text


# Texts joined from GLACIER's tokens: operands (numbers, strings, calls with
# URL templates) alternate with operators, after an optional quantifier head,
# and any slot may hold a stray token instead.
_DIGITS = st.text("0159", min_size=1, max_size=400)
_STRAY = st.sampled_from([
    "for", "exists", "in", "prev", "and", "or", "=>", "res_code", "(", ")", "@", "{", "}",
    ".len", ".", ",", ":-", "/", '"', "'", "\\", "≤", "≥", "-", "1e5", "{t.a.b}", "t", "GET",
])
_OPERANDS = st.one_of(
    _DIGITS, st.builds("{}.{}".format, _DIGITS, _DIGITS), st.just("-3"), st.just("1e5"),
    st.sampled_from(['"a≤b"', "'it''s'", '"q\\"x"', '"\\\\"', "'\\'"]),
    st.sampled_from(["res_code(@)", "req_body(@){name}", "res_body(@).len",
                     "res_body(GET /ts/{t.tid}/ps)", "res_code(GET /a≥b/{pid})",
                     "res_code(GET /ps/{t.owner.pid})", "res_code(GET /ps/req_body(@){pid})",
                     "prev(res_body(GET /ps/{pid}){n})", "res_code(GET /)"]),
    _STRAY,
)
_OPERATORS = st.one_of(
    st.sampled_from(["=", "!=", "<", "<=", ">", ">=", "≤", "≥", "and", "or", "=>"]), _STRAY)


@st.composite
def _token_texts(draw):
    head = draw(st.sampled_from(["", "for t in res_body(GET /ts) :- ", "exists t in "]))
    words = [draw(_OPERANDS)]
    for _ in range(draw(st.integers(0, 4))):
        words += [draw(_OPERATORS), draw(_OPERANDS)]
    return head + draw(st.sampled_from([" ", ""])).join(words)


@settings(max_examples=400, deadline=None)
@given(_token_texts())
def test_a_token_text_parses_back_or_fails_at_an_offset(text):
    try:
        f = parse(text)
    except FormulaError as err:
        assert 0 <= err.pos <= len(text)
        return
    assert parse(print_formula(f)) == f
