import re
import time

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from statecover.speckit import (
    Clause,
    SpecError,
    _resources,
    emit_extended,
    fixture_path,
    infer_contracts,
    load_oas,
)

from helpers import (
    MISUSED_CLAUSES,
    TOURNAMENTS_RESOLVER_TABLE,
    add_clause,
    run_in_ascii_locale,
)


@pytest.fixture
def spec():
    return load_oas(fixture_path("tournaments_oas.yaml"))


def minimal_doc(**paths):
    return {
        "openapi": "3.0.3",
        "info": {"title": "t", "version": "1"},
        "paths": paths,
    }


ITEM_SCHEMA = {
    "type": "object",
    "required": ["wid"],
    "properties": {"wid": {"type": "string"}},
}


def widget_doc():
    """Tiny one-resource service used by the diagnostics tests."""
    return minimal_doc(**{
        "/widgets": {
            "post": {
                "operationId": "postWidget",
                "requestBody": {"content": {"application/json": {"schema": ITEM_SCHEMA}}},
                "responses": {"200": {"description": "ok", "content": {"application/json": {"schema": ITEM_SCHEMA}}}},
            },
        },
        "/widgets/{wid}": {
            "parameters": [{"name": "wid", "in": "path", "required": True, "schema": {"type": "string"}}],
            "get": {"operationId": "getWidget", "responses": {"200": {"description": "ok"}, "404": {"description": "no"}}},
            "delete": {"operationId": "deleteWidget", "responses": {"200": {"description": "ok"}, "404": {"description": "no"}}},
        },
    })


class TestLoad:
    def test_fixture_loads_clean(self, spec):
        assert spec.diagnostics == []
        assert len(spec.operations) == 19
        assert len(spec.doc["paths"]) == 11

    def test_resources(self, spec):
        found = {
            op.collection: (op.item_path, op.own_key)
            for op in spec.operations
            if op.collection is not None
        }
        assert found == {
            "/players": ("/players/{pid}", "pid"),
            "/tournaments": ("/tournaments/{tid}", "tid"),
            "/enrolments": ("/enrolments/{eid}", "eid"),
        }
        assert spec.operation("postPlayer").own_key == "pid"
        assert "tid" in spec.operation("postEnrolment").foreign_keys

    def test_operation_lookup(self, spec):
        op = spec.operation("deleteTournament")
        assert op.method == "DELETE"
        assert op.path == "/tournaments/{tid}"
        with pytest.raises(KeyError):
            spec.operation("nope")

    def test_operation_id_alt_spelling(self):
        doc = minimal_doc(**{
            "/a": {"get": {"operationID": "getA", "responses": {"200": {"description": "ok"}}}}
        })
        s = load_oas(doc)
        assert s.operation("getA").path == "/a"
        assert not any(d.code == "op-id-missing" for d in s.diagnostics)

    @pytest.mark.parametrize("schema, message", [
        ({"$ref": "#/components/schemas/Ghost"}, "dangling \\$ref"),
        ({"$ref": "#/components/schemas/Node"}, "schema \\$ref nesting too deep"),
        (["x"], "schema: expected a mapping, got list"),
    ])
    def test_bad_request_body_ref_fails_the_load(self, schema, message):
        doc = widget_doc()
        doc["components"] = {"schemas": {"Node": {
            "type": "object",
            "properties": {"next": {"$ref": "#/components/schemas/Node"}},
        }}}
        body = doc["paths"]["/widgets"]["post"]["requestBody"]
        body["content"]["application/json"]["schema"] = schema
        with pytest.raises(SpecError, match=f"^POST /widgets: request body: {message}"):
            load_oas(doc)

    def test_no_paths_rejected(self):
        with pytest.raises(SpecError):
            load_oas({"openapi": "3.0.3"})


def pairwise_resources(paths):
    """The collection/item rule written out pair by pair: for each
    collection path in document order, the first path in document order
    that is the collection plus one /{key} segment."""
    out = []
    for p in paths:
        if p.endswith("}"):
            continue
        for q in paths:
            m = re.fullmatch(re.escape(p) + r"/\{(\w+)\}", q)
            if m:
                out.append((p, q, m.group(1)))
                break
    return out


# collections, their items (several keys each), and near misses
_collection = st.sampled_from(["/a", "/b", "/a/b", "/a/{k}", "", "/"])
_item = st.builds("{}/{{{}}}".format, _collection, st.sampled_from(["k", "id", "x_1"]))
_near_miss = st.sampled_from(["/a/{", "/b/x}", "/a/{k}x", "/a{k}", "/a/{k-1}"])
_path = st.one_of(_collection, _item, _item, _near_miss)


class TestResources:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_path, max_size=12, unique=True))
    def test_matches_the_pairwise_rule(self, paths):
        paths = dict.fromkeys(paths, {})
        assert _resources(paths) == pairwise_resources(paths)

    def test_first_item_wins_and_order_is_the_collections(self):
        paths = dict.fromkeys(
            ["/b/{x}", "/a/{y}", "/a", "/b", "/a/{z}", "/a/{y}/c"], {})
        assert _resources(paths) == [("/a", "/a/{y}", "y"), ("/b", "/b/{x}", "x")]

    def test_linear_on_many_resources(self):
        paths = {}
        for i in range(4000):
            paths[f"/r{i}"] = {}
            paths[f"/r{i}/{{k{i}}}"] = {}
        started = time.perf_counter()
        found = _resources(paths)
        assert len(found) == 4000
        assert found[-1] == ("/r3999", "/r3999/{k3999}", "k3999")
        assert time.perf_counter() - started < 1.0


class TestMalformedShapes:
    @pytest.mark.parametrize("paths, message", [
        pytest.param({"/a": [{"get": {}}]}, "/a: expected a mapping, got list",
                     id="path-item"),
        pytest.param({"/a": {"parameters": ["wid"]}},
                     "/a: parameters[0]: expected a mapping", id="shared-parameter"),
        pytest.param({"/a": {"parameters": {"name": "wid"}}},
                     "/a: parameters: expected a list", id="parameters"),
        pytest.param({"/a": {"get": {"parameters": [3]}}},
                     "GET /a: parameters[0]: expected a mapping",
                     id="operation-parameter"),
        pytest.param({"/a": {"get": ["responses"]}},
                     "GET /a: expected a mapping, got list", id="operation"),
        pytest.param({7: {}}, "paths: key 7 is not a string", id="path-key"),
        pytest.param({"/players": {"post": {"requestBody": ["x"]}}},
                     "POST /players: requestBody: expected a mapping, got list",
                     id="request-body"),
        pytest.param({"/players": {"post": {"requestBody": {"content": ["x"]}}}},
                     "POST /players: requestBody: content: expected a mapping, got list",
                     id="request-body-content"),
        pytest.param({"/a": {"put": {"requestBody": {"content": {"application/json": ["x"]}}}}},
                     "PUT /a: requestBody: content: application/json: expected a mapping",
                     id="request-body-media"),
        pytest.param({"/players": {"post": {"responses": ["x"]}}},
                     "POST /players: responses: expected a mapping, got list",
                     id="responses"),
        pytest.param({"/a": {"get": {"responses": {"200": ["x"]}}}},
                     "GET /a: responses: 200: expected a mapping, got list",
                     id="response"),
    ])
    def test_fails_with_a_location(self, paths, message):
        with pytest.raises(SpecError, match=re.escape(message)):
            load_oas(minimal_doc() | {"paths": paths})

    def test_paths_must_be_a_mapping(self):
        with pytest.raises(SpecError, match="paths: expected a mapping"):
            load_oas(minimal_doc() | {"paths": ["/a"]})


class TestDiagnostics:
    def codes(self, doc):
        return [d.code for d in load_oas(doc).diagnostics]

    def test_param_missing(self):
        doc = minimal_doc(**{
            "/xs/{xid}": {"get": {"operationId": "getX", "responses": {"200": {"description": "ok"}}}}
        })
        assert "param-missing" in self.codes(doc)

    def test_param_optional(self):
        doc = minimal_doc(**{
            "/xs/{xid}": {
                "parameters": [{"name": "xid", "in": "path", "schema": {"type": "string"}}],
                "get": {"operationId": "getX", "responses": {"200": {"description": "ok"}}},
            }
        })
        assert "param-optional" in self.codes(doc)

    def test_param_duplicate(self):
        doc = minimal_doc(**{
            "/xs/{xid}": {
                "parameters": [{"name": "xid", "in": "path", "required": True}],
                "get": {
                    "operationId": "getX",
                    "parameters": [{"name": "xid", "in": "path", "required": True}],
                    "responses": {"200": {"description": "ok"}},
                },
            }
        })
        assert "param-duplicate" in self.codes(doc)

    def test_param_undefined(self):
        doc = minimal_doc(**{
            "/xs": {
                "get": {
                    "operationId": "getXs",
                    "parameters": [{"name": "ghost", "in": "path", "required": True}],
                    "responses": {"200": {"description": "ok"}},
                }
            }
        })
        assert "param-undefined" in self.codes(doc)

    def test_schema_unused(self):
        doc = minimal_doc(**{
            "/xs": {"get": {"operationId": "getXs", "responses": {"200": {"description": "ok"}}}}
        })
        doc["components"] = {"schemas": {"Orphan": {"type": "object"}}}
        assert "schema-unused" in self.codes(doc)

    def test_no_responses(self):
        doc = minimal_doc(**{"/xs": {"get": {"operationId": "getXs"}}})
        assert "no-responses" in self.codes(doc)

    def test_post_without_body(self):
        doc = minimal_doc(**{
            "/xs": {"post": {"operationId": "postX", "responses": {"200": {"description": "ok"}}}}
        })
        assert "no-request-body" in self.codes(doc)

    def test_duplicate_operation_id(self):
        doc = minimal_doc(**{
            "/a": {"get": {"operationId": "same", "responses": {"200": {"description": "ok"}}}},
            "/b": {"get": {"operationId": "same", "responses": {"200": {"description": "ok"}}}},
        })
        assert "op-id-duplicate" in self.codes(doc)

    def test_duplicate_operation_id_first_wins(self):
        doc = widget_doc()
        doc["paths"]["/widgets/{wid}"]["put"] = {
            "operationId": "postWidget",
            "requestBody": {"content": {"application/json": {"schema": ITEM_SCHEMA}}},
            "responses": {"200": {"description": "ok"}},
        }
        s = load_oas(doc)
        first = s.operations[0]
        assert (first.method, first.path) == ("POST", "/widgets")
        assert s.operation("postWidget") is first
        assert s.op_profile("postWidget") is first
        assert s.resolver()("postWidget") is first
        assert s.put_catalog() == {}

    def test_missing_operation_id(self):
        doc = minimal_doc(**{"/a": {"get": {"responses": {"200": {"description": "ok"}}}}})
        s = load_oas(doc)
        assert any(d.code == "op-id-missing" for d in s.diagnostics)
        assert s.operation("GET /a").method == "GET"

    def test_diagnostic_str_mentions_location(self):
        doc = minimal_doc(**{"/a": {"get": {"responses": {"200": {"description": "ok"}}}}})
        d = load_oas(doc).diagnostics[0]
        assert "GET /a" in str(d)


class TestInference:
    def test_post_player_clauses(self, spec):
        infer_contracts(spec)
        op = spec.operation("postPlayer")
        assert [c.text for c in op.requires] == [
            "res_code(GET /players/req_body(@){pid}) = 404"
        ]
        assert [c.text for c in op.ensures] == [
            "res_code(GET /players/req_body(@){pid}) = 200",
            "req_body(@) = res_body(@)",
        ]

    def test_delete_player_clauses(self, spec):
        infer_contracts(spec)
        op = spec.operation("deletePlayer")
        assert [c.text for c in op.requires] == ["res_code(GET /players/{pid}) = 200"]
        assert [c.text for c in op.ensures] == [
            "res_code(GET /players/{pid}) = 404",
            "req_body(@) = prev(res_body(GET /players/{pid}))",
        ]

    def test_put_clause_tagged_extra(self, spec):
        infer_contracts(spec)
        op = spec.operation("putTournament")
        assert [c.text for c in op.requires] == ["res_code(GET /tournaments/{tid}) = 200"]
        assert [(c.text, c.extra) for c in op.ensures] == [
            ("req_body(@) = res_body(GET /tournaments/{tid})", True)
        ]

    def test_enrolment_clauses_use_eid(self, spec):
        infer_contracts(spec)
        post = spec.operation("postEnrolment")
        assert post.requires[0].text == "res_code(GET /enrolments/req_body(@){eid}) = 404"
        delete = spec.operation("deleteEnrolment")
        assert delete.ensures[0].text == "res_code(GET /enrolments/{eid}) = 404"

    def test_gets_left_alone(self, spec):
        report = infer_contracts(spec)
        for op in spec.operations:
            if op.method == "GET":
                assert op.requires == () and op.ensures == ()
                assert op.op_id not in report.added
        assert set(report.added) == {
            "postPlayer", "putPlayer", "deletePlayer",
            "postTournament", "putTournament", "deleteTournament",
            "postEnrolment", "deleteEnrolment",
        }

    def test_post_without_item_sibling_skipped(self):
        doc = minimal_doc(**{
            "/jobs": {
                "post": {
                    "operationId": "startJob",
                    "requestBody": {"content": {"application/json": {"schema": {"type": "object"}}}},
                    "responses": {"200": {"description": "ok"}},
                }
            }
        })
        s = load_oas(doc)
        report = infer_contracts(s)
        assert report.added == {}
        assert report.skipped == [("startJob", "POST path /jobs has no /{key} item sibling")]

    def test_echo_only_when_schemas_match(self):
        doc = widget_doc()
        doc["paths"]["/widgets"]["post"]["responses"]["200"]["content"][
            "application/json"
        ]["schema"] = {"type": "object", "properties": {"ok": {"type": "boolean"}}}
        s = load_oas(doc)
        infer_contracts(s)
        texts = [c.text for c in s.operation("postWidget").ensures]
        assert "req_body(@) = res_body(@)" not in texts

    def test_unquoted_and_named_response_codes(self):
        doc = widget_doc()
        responses = doc["paths"]["/widgets"]["post"]["responses"]
        responses[200] = responses.pop("200")
        responses["default"] = {"description": "error"}
        s = load_oas(doc)
        infer_contracts(s)
        assert "req_body(@) = res_body(@)" in [c.text for c in s.operation("postWidget").ensures]

    def test_delete_prev_clause_needs_response_schema(self):
        s = load_oas(widget_doc())
        infer_contracts(s)
        texts = [c.text for c in s.operation("deleteWidget").ensures]
        # deleteWidget declares a bodyless 200, so no echo-of-previous clause
        assert texts == ["res_code(GET /widgets/{wid}) = 404"]

    def test_all_inferred_clauses_reparse(self, spec):
        infer_contracts(spec)
        from statecover.glacier import parse, print_formula

        for op in spec.operations:
            for c in op.requires + op.ensures:
                assert print_formula(parse(c.text)) == c.text


class TestEmitLoad:
    def test_round_trip_byte_identical(self, spec):
        infer_contracts(spec)
        spec.invariants = (
            Clause("for t in res_body(GET /tournaments) :- res_body(GET /tournaments/{t.tid}/players).len <= res_body(GET /tournaments/{t.tid}/capacity)"),
        )
        first = emit_extended(spec)
        again = load_oas(yaml.safe_load(first))
        second = emit_extended(again)
        assert first == second

    def test_clauses_survive_reload(self, spec, tmp_path):
        infer_contracts(spec)
        out = tmp_path / "extended.yaml"
        out.write_text(emit_extended(spec))
        again = load_oas(out)
        for op_id in ("postPlayer", "deletePlayer", "putPlayer"):
            a = spec.operation(op_id)
            b = again.operation(op_id)
            assert [c.text for c in a.requires] == [c.text for c in b.requires]
            assert [(c.text, c.extra) for c in a.ensures] == [
                (c.text, c.extra) for c in b.ensures
            ]

    def test_extra_tag_round_trips(self, spec):
        infer_contracts(spec)
        text = emit_extended(spec)
        again = load_oas(yaml.safe_load(text))
        put = again.operation("putPlayer")
        assert put.ensures[0].extra is True

    def test_bare_clause_keys_accepted(self):
        doc = widget_doc()
        doc["paths"]["/widgets"]["post"]["requires"] = ["res_code(GET /widgets/req_body(@){wid}) = 404"]
        doc["paths"]["/widgets"]["post"]["ensures"] = [
            {"clause": "req_body(@) = res_body(@)", "x-inferred-extra": True}
        ]
        doc["invariants"] = ["res_code(GET /widgets) = 200"]
        s = load_oas(doc)
        op = s.operation("postWidget")
        assert op.requires[0].text == "res_code(GET /widgets/req_body(@){wid}) = 404"
        assert op.ensures[0].extra is True
        assert s.invariants[0].text == "res_code(GET /widgets) = 200"
        # emission normalizes to the x- spelling
        emitted = emit_extended(s)
        assert "x-requires" in emitted and "\nrequires" not in emitted
        assert "x-invariants" in emitted

    def test_malformed_clause_entry_rejected(self):
        doc = widget_doc()
        doc["paths"]["/widgets"]["post"]["x-requires"] = [{"oops": 1}]
        with pytest.raises(SpecError, match="clause"):
            load_oas(doc)

    def test_invalid_clause_formula_rejected(self):
        doc = widget_doc()
        doc["paths"]["/widgets"]["post"]["x-requires"] = ["1 = 2 = 3"]
        with pytest.raises(SpecError, match="^POST /widgets: x-requires\\[0\\]: at offset 6: "):
            load_oas(doc)

    @pytest.mark.parametrize("clause, message", [
        ("res_code(GET /widgets/{wid}) = = 200", "at offset 31: "),
        ("res_body(GET /widgets).count = 1", "at offset 23: unknown suffix function 'count'"),
        ("res_code(DELETE /widgets/{wid}) = 200",
         "probe res_code(DELETE /widgets/{wid}) is not a GET"),
        ("prev(res_body(PUT /widgets/{wid})) = req_body(@)",
         "probe res_body(PUT /widgets/{wid}) is not a GET"),
        ("for w in res_body(POST /widgets) :- res_code(GET /widgets/{w.wid}) = 200",
         "probe res_body(POST /widgets) is not a GET"),
    ])
    def test_clause_error_names_its_place(self, clause, message):
        doc = widget_doc()
        doc["paths"]["/widgets/{wid}"]["delete"]["x-ensures"] = [
            "res_code(GET /widgets/{wid}) = 404", clause]
        with pytest.raises(SpecError) as err:
            load_oas(doc)
        assert str(err.value).startswith(f"DELETE /widgets/{{wid}}: x-ensures[1]: {message}")

    @pytest.mark.parametrize("kind, clause, message", MISUSED_CLAUSES)
    def test_misused_clause_fails_the_load(self, kind, clause, message):
        doc = _fixture_doc()
        where = add_clause(doc, kind, clause)
        with pytest.raises(SpecError) as err:
            load_oas(doc)
        assert str(err.value) == where + message

    @pytest.mark.parametrize("clause, call, param", [
        ("res_code(GET /tournaments/{tid}) = 200", "res_code(GET /tournaments/{tid})", "tid"),
        ("prev(res_body(GET /enrolments/{eid})) = req_body(@)",
         "res_body(GET /enrolments/{eid})", "eid"),
        ("for t in res_body(GET /tournaments) :- res_code(GET /tournaments/{t.tid}/{pids}) = 404",
         "res_code(GET /tournaments/{t.tid}/{pids})", "pids"),
    ])
    def test_unbound_path_parameter_fails_the_load(self, clause, call, param):
        doc = _fixture_doc()
        where = add_clause(doc, "ensures", clause)
        with pytest.raises(SpecError) as err:
            load_oas(doc)
        assert str(err.value) == f"{where}{call}: the operation never binds {{{param}}}"

    def test_own_and_foreign_keys_are_bound(self):
        doc = _fixture_doc()
        enrol = doc["paths"]["/enrolments"]["post"]
        enrol["x-requires"] = ["res_code(GET /players/{pid}) = 200",
                               "res_code(GET /tournaments/{tid}/players) = 200"]
        add_clause(doc, "requires", "res_code(GET /players/{pid}) = 200")
        spec = load_oas(doc)
        assert len(spec.operation("postEnrolment").requires) == 2
        assert len(spec.operation("deletePlayer").requires) == 1

    def test_file_is_read_as_utf8_whatever_the_locale(self, tmp_path):
        doc = _fixture_doc()
        doc["info"]["description"] = "Turniere für Spielerinnen"
        add_clause(doc, "requires", "res_body(GET /players/{pid}){name} != 'Zoë'")
        path = tmp_path / "oas.yaml"
        path.write_text(yaml.safe_dump(doc, allow_unicode=True), encoding="utf-8")
        out = run_in_ascii_locale(
            "from statecover.speckit import load_oas\n"
            f"spec = load_oas({str(path)!r})\n"
            "print(ascii(spec.doc['info']['description']))\n"
            "print(ascii(spec.operation('deletePlayer').requires[-1].text))\n")
        assert out.splitlines() == [ascii("Turniere für Spielerinnen"),
                                    ascii("res_body(GET /players/{pid}){name} != 'Zoë'")]

    @pytest.mark.parametrize("key", ["x-invariants", "invariants"])
    def test_invariant_error_names_its_place(self, key):
        doc = widget_doc()
        doc[key] = ["res_code(GET /widgets) = 200", "res_code(GET /widgets) <"]
        with pytest.raises(SpecError, match=f"^{key}\\[1\\]: at offset 24: "):
            load_oas(doc)

    def test_clause_list_must_be_a_list(self):
        doc = widget_doc()
        doc["paths"]["/widgets"]["post"]["x-requires"] = "res_code(GET /widgets) = 200"
        with pytest.raises(SpecError, match="^POST /widgets: x-requires: expected a list"):
            load_oas(doc)

    def test_bare_key_error_names_the_bare_key(self):
        doc = widget_doc()
        doc["paths"]["/widgets"]["post"]["requires"] = ["res_code(POST /widgets) = 200"]
        with pytest.raises(SpecError, match="^POST /widgets: requires\\[0\\]: probe"):
            load_oas(doc)


class TestExecutorMetadata:
    def test_records_match_reference_table(self, spec):
        for name, expect in TOURNAMENTS_RESOLVER_TABLE.items():
            op = spec.operation(name)
            assert {
                "op": op.op_id,
                "verb": op.method,
                "path": op.path,
                "param_names": list(op.param_names),
                "own_key": op.own_key,
            } == expect

    def test_resolver_callable(self, spec):
        resolve = spec.resolver()
        assert resolve("postEnrolment").param_names == ("eid", "pid", "tid")
        assert resolve("unknownOp") is None

    def test_put_catalog(self, spec):
        catalog = spec.put_catalog()
        assert {key: (op.op_id, op.method, op.path) for key, op in catalog.items()} == {
            "pid": ("putPlayer", "PUT", "/players/{pid}"),
            "tid": ("putTournament", "PUT", "/tournaments/{tid}"),
        }
        assert catalog["pid"] is spec.operation("putPlayer")

    def test_op_profile_post_enrolment(self, spec):
        p = spec.op_profile("postEnrolment")
        assert p.own_key == "eid"
        assert p.collection == "/enrolments"
        assert p.item_path == "/enrolments/{eid}"
        assert p.foreign_keys == ("pid", "tid")
        assert p.request_schema["properties"]["eid"] == {"type": "string"}

    def test_op_profile_item_op(self, spec):
        p = spec.op_profile("deletePlayer")
        assert p.own_key == "pid"
        assert p.collection == "/players"
        assert p.request_schema is None
        assert p.foreign_keys == ()

    def test_op_profile_is_computed_once(self, spec):
        assert spec.op_profile("postEnrolment") is spec.operation("postEnrolment")
        assert spec.op_profile("unknownOp") is None
        infer_contracts(spec)  # changes only the clauses, never a profile
        assert spec.op_profile("postEnrolment").foreign_keys == ("pid", "tid")

    def test_op_profile_plain_get(self, spec):
        p = spec.op_profile("getTournamentCapacity")
        assert p.own_key is None
        assert p.collection is None

    def test_resolved_schema_has_no_refs(self):
        # getPlayers' array of Player $refs, sent as postPlayer's body
        doc = _fixture_doc()
        listing = doc["paths"]["/players"]["get"]["responses"]["200"]
        _set_body_schema(doc, listing["content"]["application/json"]["schema"])
        resolved = load_oas(doc).operation("postPlayer").request_schema
        assert resolved["type"] == "array"
        assert resolved["items"]["properties"]["pid"] == {"type": "string"}
        assert "$ref" not in str(resolved)

    def test_dangling_ref_rejected(self):
        doc = _fixture_doc()
        _set_body_schema(doc, {"$ref": "#/components/schemas/Missing"})
        with pytest.raises(SpecError, match="dangling"):
            load_oas(doc)


def _fixture_doc() -> dict:
    return yaml.safe_load(fixture_path("tournaments_oas.yaml").read_text())


def _set_body_schema(doc: dict, schema: dict) -> None:
    body = doc["paths"]["/players"]["post"]["requestBody"]
    body["content"]["application/json"]["schema"] = schema


def test_fixture_path_exists():
    assert fixture_path("tournaments_oas.yaml").exists()
