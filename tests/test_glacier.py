import random
import warnings

import pytest

from statecover.glacier import (
    ApiCall,
    BodyFieldPart,
    BoolChain,
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

    def test_multiple_binders(self):
        f = parse("exists a in res_body(GET /xs), b in res_body(GET /ys/{a.k}) :- 1 = 1")
        assert f.kind == "exists"
        assert [v for v, _ in f.bindings] == ["a", "b"]

    def test_bool_chain_flat(self):
        f = parse("1 = 1 and 2 = 2 or 3 = 3 => 4 = 4")
        assert isinstance(f, BoolChain)
        assert f.ops == ("and", "or", "=>")
        assert len(f.items) == 4

    def test_implication_not_eaten_by_equals(self):
        f = parse("res_code(@) = 200 => res_code(@) = 201")
        assert isinstance(f, BoolChain)
        assert f.ops == ("=>",)

    def test_string_literal_escapes(self):
        f = parse('req_body(@){name} = "a\\"b"')
        assert f.rhs == Literal('a"b')
        assert print_formula(f) == 'req_body(@){name} = "a\\"b"'

    def test_negative_and_float_literals(self):
        assert parse("-3 < 0").lhs == Literal(-3)
        assert parse("1.5 < 2").lhs == Literal(1.5)

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

    def test_unterminated_call(self):
        with pytest.raises(FormulaError):
            parse("res_code(GET /players")

    def test_error_carries_offset(self):
        try:
            parse("1 = 2 = 3")
        except FormulaError as e:
            assert isinstance(e.pos, int)
            assert e.pos >= 0
        else:
            pytest.fail("expected FormulaError")


def refused(text, kind):
    """The message check_clause refuses text with as a clause of kind."""
    with pytest.raises(FormulaError) as err:
        check_clause(parse(text), kind)
    assert err.value.pos is None
    return str(err.value)


def accepted(text, *kinds):
    for kind in kinds:
        check_clause(parse(text), kind)


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
        n = self.rng.randrange(1, 4)
        items = tuple(self.item(env) for _ in range(n))
        if n == 1:
            return items[0]
        ops = tuple(self.rng.choice(["and", "or", "=>"]) for _ in range(n - 1))
        return BoolChain(items=items, ops=ops)


def test_fuzz_round_trip_1000():
    rng = random.Random(20240517)
    gen = _AstGen(rng)
    for i in range(1000):
        f = gen.formula(set(), depth=2)
        text = print_formula(f)
        again = parse(text)
        assert again == f, f"case {i}: {text!r}"
        assert print_formula(again) == text
