import json

import pytest
import requests

from statecover import glacier
from statecover.demo import CAPACITY_INVARIANT, ENROLMENT_DETACH_CLAUSE, DemoServer
from statecover.evaluator import (
    BudgetExceeded,
    Connection,
    EvaluationError,
    Evaluator,
    OpContext,
    TransportFailure,
    json_equal,
    make_session,
)
from statecover.speckit import SpecError, load_oas


@pytest.fixture(scope="module")
def server():
    with DemoServer(seed=7) as srv:
        yield srv


@pytest.fixture
def live(server):
    requests.post(server.base_url + "/_reset", timeout=5)
    return server


def seed_world(base):
    """One player, one tournament (capacity 1), one enrolment."""
    bodies = {
        "player": {"pid": "p1", "name": "alice"},
        "tournament": {"tid": "t1", "name": "open", "capacity": 1},
        "enrolment": {"eid": "e1", "pid": "p1", "tid": "t1"},
    }
    for path, body in [
        ("/players", bodies["player"]),
        ("/tournaments", bodies["tournament"]),
        ("/enrolments", bodies["enrolment"]),
    ]:
        r = requests.post(base + path, json=body, timeout=5)
        assert r.status_code == 200, r.text
    return bodies


class FakeResponse:
    def __init__(self, status, payload):
        self.status_code = status
        if isinstance(payload, str):
            self.text = payload
            self._payload = None
        else:
            self._payload = payload
            self.text = json.dumps(payload)

    def json(self):
        if self._payload is None:
            raise ValueError("body is not JSON")
        return self._payload


class FakeSession:
    """Maps path -> (status, payload); payload str means a non-JSON body,
    an exception instance is raised instead of answering."""

    def __init__(self, routes):
        self.routes = dict(routes)
        self.log = []

    def get(self, url, timeout=None):
        path = url.split("http://fake", 1)[1]
        self.log.append(path)
        hit = self.routes.get(path)
        if hit is None:
            return FakeResponse(404, {"error": "not found"})
        if isinstance(hit, Exception):
            raise hit
        return FakeResponse(*hit)


def fake_eval(routes, **kwargs):
    session = FakeSession(routes)
    return Evaluator("http://fake", session=session, **kwargs), session


def check(evaluator, text, ctx=None):
    return evaluator.evaluate(glacier.parse(text), ctx)


class TestJsonEqual:
    def test_dict_order_insensitive(self):
        assert json_equal({"a": 1, "b": [1, 2]}, {"b": [1, 2], "a": 1})

    def test_lists_are_ordered(self):
        assert not json_equal([1, 2], [2, 1])

    def test_int_float_coercion(self):
        assert json_equal(1, 1.0)
        assert json_equal({"x": 2}, {"x": 2.0})

    def test_bool_is_not_a_number(self):
        assert not json_equal(True, 1)
        assert not json_equal(0, False)
        assert json_equal(True, True)

    def test_none_and_mismatched_shapes(self):
        assert json_equal(None, None)
        assert not json_equal({"a": 1}, {"a": 1, "b": 2})
        assert not json_equal([1], {"0": 1})


class TestLiveBasics:
    def test_absent_resource_is_404(self, live):
        ev = Evaluator(live.base_url)
        result = check(ev, "res_code(GET /players/{pid}) = 404",
                       OpContext(path_args={"pid": "ghost"}))
        assert result.value and result.witness == ""

    def test_existing_resource_is_200(self, live):
        seed_world(live.base_url)
        ev = Evaluator(live.base_url)
        result = check(ev, "res_code(GET /players/{pid}) = 200",
                       OpContext(path_args={"pid": "p1"}))
        assert result.value

    def test_false_comparison_carries_witness(self, live):
        ev = Evaluator(live.base_url)
        result = check(ev, "res_code(GET /players/{pid}) = 200",
                       OpContext(path_args={"pid": "ghost"}))
        assert not result.value
        assert "404" in result.witness

    def test_echo_contract_on_real_response(self, live):
        body = {"pid": "p9", "name": "zoe"}
        r = requests.post(live.base_url + "/players", json=body, timeout=5)
        ctx = OpContext(req_body=body,
                        res_code=r.status_code, res_body=r.json())
        ev = Evaluator(live.base_url)
        assert check(ev, "req_body(@) = res_body(@)", ctx).value

    def test_body_splice_in_url(self, live):
        bodies = seed_world(live.base_url)
        ctx = OpContext(req_body=bodies["player"])
        ev = Evaluator(live.base_url)
        assert check(ev, "res_code(GET /players/req_body(@){pid}) = 200", ctx).value

    def test_field_suffix_reads_into_body(self, live):
        seed_world(live.base_url)
        ev = Evaluator(live.base_url)
        result = check(ev, "res_body(GET /players/{pid}){name} = 'alice'",
                       OpContext(path_args={"pid": "p1"}))
        assert result.value

    def test_len_suffix_on_member_list(self, live):
        seed_world(live.base_url)
        ev = Evaluator(live.base_url)
        result = check(ev, "res_body(GET /tournaments/{tid}/players).len = 1",
                       OpContext(path_args={"tid": "t1"}))
        assert result.value

    def test_capacity_invariant_holds_on_live_service(self, live):
        seed_world(live.base_url)
        ev = Evaluator(live.base_url)
        result = check(ev, CAPACITY_INVARIANT, ctx=None)
        assert result.value

    def test_evaluation_only_issues_gets(self, live):
        seed_world(live.base_url)
        requests.post(live.base_url + "/_reset", timeout=5)
        seed_world(live.base_url)
        start = len(requests.get(live.base_url + "/_requests", timeout=5).json())
        ev = Evaluator(live.base_url)
        check(ev, CAPACITY_INVARIANT, ctx=None)
        check(ev, "res_code(GET /players/{pid}) = 200",
              OpContext(path_args={"pid": "p1"}))
        log = requests.get(live.base_url + "/_requests", timeout=5).json()
        evaluation_traffic = log[start:]
        assert evaluation_traffic  # something was actually fetched
        assert all(line.startswith("GET ") for line in evaluation_traffic)

    def test_repeated_url_fetched_once_per_evaluation(self, live):
        seed_world(live.base_url)
        start = len(requests.get(live.base_url + "/_requests", timeout=5).json())
        ev = Evaluator(live.base_url)
        ctx = OpContext(path_args={"pid": "p1"})
        check(ev, "res_code(GET /players/{pid}) = 200 and res_body(GET /players/{pid}){pid} = 'p1'", ctx)
        log = requests.get(live.base_url + "/_requests", timeout=5).json()
        assert log[start:] == ["GET /players/p1"]


class TestQuantifiers:
    TOURNAMENTS = [{"tid": "t1", "capacity": 2}, {"tid": "t2", "capacity": 1}]

    def routes(self, members):
        routes = {"/tournaments": (200, self.TOURNAMENTS)}
        for tid, names in members.items():
            routes[f"/tournaments/{tid}/players"] = (200, names)
            cap = next(t["capacity"] for t in self.TOURNAMENTS if t["tid"] == tid)
            routes[f"/tournaments/{tid}/capacity"] = (200, cap)
        return routes

    def test_forall_true_across_elements(self):
        ev, _ = fake_eval(self.routes({"t1": ["a", "b"], "t2": ["c"]}))
        assert check(ev, CAPACITY_INVARIANT).value

    def test_forall_reports_violating_element(self):
        ev, _ = fake_eval(self.routes({"t1": ["a"], "t2": ["b", "c"]}))
        result = check(ev, CAPACITY_INVARIANT)
        assert not result.value
        assert "t[1]" in result.witness and "t2" in result.witness

    def test_forall_vacuously_true_on_empty_domain(self):
        ev, _ = fake_eval({"/tournaments": (200, [])})
        assert check(ev, CAPACITY_INVARIANT).value

    def test_exists_vacuously_false_on_empty_domain(self):
        ev, _ = fake_eval({"/tournaments": (200, [])})
        result = check(
            ev,
            "exists t in res_body(GET /tournaments) :- res_code(GET /tournaments/{t.tid}/capacity) = 200",
        )
        assert not result.value
        assert "no element" in result.witness

    def test_exists_stops_at_first_hit(self):
        ev, session = fake_eval(self.routes({"t1": ["a"], "t2": []}))
        result = check(
            ev,
            "exists t in res_body(GET /tournaments) :- res_body(GET /tournaments/{t.tid}/players).len = 1",
        )
        assert result.value
        assert "/tournaments/t2/players" not in session.log

    def test_non_array_domain_is_false_not_an_error(self):
        ev, _ = fake_eval({"/tournaments": (200, {"oops": True})})
        result = check(ev, CAPACITY_INVARIANT)
        assert not result.value
        assert "not an array" in result.witness

    def test_nested_binders_share_environment(self):
        routes = self.routes({"t1": ["a"], "t2": ["b"]})
        routes["/zones"] = (200, [{"zid": "z1"}])
        formula = (
            "for z in res_body(GET /zones) :- for t in res_body(GET /tournaments) :- "
            "res_body(GET /tournaments/{t.tid}/players).len <= res_body(GET /tournaments/{t.tid}/capacity)"
        )
        ev, _ = fake_eval(routes)
        assert check(ev, formula).value

    def test_binder_element_without_field_is_false(self):
        ev, _ = fake_eval({"/tournaments": (200, [{"name": "anonymous"}]),})
        result = check(ev, CAPACITY_INVARIANT)
        assert not result.value
        assert "t.tid" in result.witness


class TestComparisons:
    def test_numeric_coercion_across_types(self):
        ev, _ = fake_eval({})
        assert check(ev, "1 = 1.0").value
        assert check(ev, "0.5 < 1").value

    def test_bool_field_does_not_equal_number(self):
        ev, _ = fake_eval({"/flags": (200, {"on": True})})
        assert check(ev, "res_body(GET /flags){on} != 1").value

    def test_string_ordering(self):
        ev, _ = fake_eval({})
        assert check(ev, "'apple' < 'banana'").value

    def test_mixed_type_ordering_is_false_with_witness(self):
        ev, _ = fake_eval({"/x": (200, {"v": "abc"})})
        result = check(ev, "res_body(GET /x){v} < 3")
        assert not result.value
        assert "cannot order" in result.witness

    def test_structural_equality_between_fetched_bodies(self):
        ev, _ = fake_eval({
            "/a": (200, {"k": 1, "m": [1, 2]}),
            "/b": (200, {"m": [1, 2], "k": 1.0}),
        })
        assert check(ev, "res_body(GET /a) = res_body(GET /b)").value

    def test_missing_field_is_false_with_witness(self):
        ev, _ = fake_eval({"/x": (200, {"v": 1})})
        result = check(ev, "res_body(GET /x){ghost} = 1")
        assert not result.value
        assert "ghost" in result.witness

    def test_non_json_body_is_false_with_witness(self):
        ev, _ = fake_eval({"/x": (200, "<html>boom</html>")})
        result = check(ev, "res_body(GET /x) = 1")
        assert not result.value
        assert "not JSON" in result.witness

    def test_len_of_unsized_value_is_false(self):
        ev, _ = fake_eval({"/x": (200, 7)})
        result = check(ev, "res_body(GET /x).len = 1")
        assert not result.value
        assert ".len" in result.witness


class TestChains:
    def evaluator(self):
        ev, _ = fake_eval({})
        return ev

    def test_implication_with_false_antecedent(self):
        assert check(self.evaluator(), "1 = 2 => 3 = 4").value

    def test_implication_with_true_antecedent(self):
        assert not check(self.evaluator(), "1 = 1 => 1 = 2").value

    def test_and_binds_tighter_than_implication(self):
        # (1=1 and 2=2) => 1=2, not 1=1 and (2=2 => 1=2)
        assert not check(self.evaluator(), "1 = 1 and 2 = 2 => 1 = 2").value

    def test_and_binds_tighter_than_or(self):
        assert check(self.evaluator(), "1 = 2 and 1 = 1 or 2 = 2").value
        assert check(self.evaluator(), "1 = 1 or 1 = 2 and 1 = 3").value

    def test_implication_is_right_associative(self):
        # 1=1 => (1=2 => 1=3) is true because the inner antecedent fails
        assert check(self.evaluator(), "1 = 1 => 1 = 2 => 1 = 3").value

    def test_and_short_circuits_before_fetching(self):
        ev, session = fake_eval({"/boom": requests.ConnectionError("refused")})
        assert not check(ev, "1 = 2 and res_code(GET /boom) = 1").value
        assert session.log == []

    def test_or_collects_witnesses(self):
        result = check(self.evaluator(), "1 = 2 or 3 = 4")
        assert not result.value
        assert "1 = 2" in result.witness and "3 = 4" in result.witness


def load_refuses(text, kind):
    """The error load_oas refuses text with as the only clause of its kind."""
    doc = {"paths": {"/players/{pid}": {"delete": {"operationId": "deletePlayer"}}}}
    node = doc if kind == "invariants" else doc["paths"]["/players/{pid}"]["delete"]
    node[f"x-{kind}"] = [text]
    with pytest.raises(SpecError) as err:
        load_oas(doc)
    return str(err.value)


class TestMisuseErrors:
    """A clause its kind cannot evaluate is refused when the spec loads, so
    the evaluator never sees one; what remains depends on the data."""

    def test_self_without_context(self):
        assert load_refuses("res_code(@) = 200", "invariants") == (
            "x-invariants[0]: res_code(@): an invariant has no operation for '@'")

    def test_response_not_observable_in_precondition(self):
        assert load_refuses("res_code(@) = 200", "requires") == (
            "DELETE /players/{pid}: x-requires[0]: res_code(@) is only allowed in ensures")

    def test_request_body_is_fine_in_precondition(self):
        ev, _ = fake_eval({"/players/p1": (200, {"pid": "p1"})})
        ctx = OpContext(req_body={"pid": "p1"})
        assert check(ev, "res_code(GET /players/req_body(@){pid}) = 200", ctx).value

    def test_prev_rejected_outside_postconditions(self):
        assert load_refuses(
            "req_body(@) = prev(res_body(GET /players/{pid}))", "requires"
        ).endswith("prev(res_body(GET /players/{pid})) is only allowed in ensures")

    def test_prev_without_context(self):
        assert load_refuses("1 = prev(res_body(GET /x))", "invariants") == (
            "x-invariants[0]: prev(res_body(GET /x)) is only allowed in ensures")

    def test_req_body_of_probe_call_rejected(self):
        assert load_refuses("req_body(GET /players/{pid}) = 1", "ensures").endswith(
            "req_body(GET /players/{pid}): req_body reads only the request of '@'")

    def test_unbound_path_parameter(self):
        ev, _ = fake_eval({})
        with pytest.raises(EvaluationError, match="pid"):
            check(ev, "res_code(GET /players/{pid}) = 200",
                  OpContext(path_args={}))

    @pytest.mark.parametrize("text", [
        "res_code(DELETE /players/p1) = 200",
        "for p in res_body(POST /players) :- res_code(GET /players/{p.pid}) = 200",
    ])
    def test_non_get_probe_is_refused(self, text):
        assert "is not a GET" in load_refuses(text, "requires")

    def test_non_get_prev_probe_is_refused(self):
        assert load_refuses("prev(res_code(PUT /players/p1)) = 200", "ensures").endswith(
            "probe res_code(PUT /players/p1) is not a GET")

    def test_bare_non_boolean_formula_raises(self):
        ev, _ = fake_eval({"/x": (200, {"v": 3})})
        with pytest.raises(EvaluationError, match="non-boolean"):
            check(ev, "res_body(GET /x){v}")

    def test_bare_boolean_field_is_a_formula(self):
        ev, _ = fake_eval({"/x": (200, {"ready": True})})
        assert check(ev, "res_body(GET /x){ready}").value


class TestObservation:
    def test_bare_evaluations_each_fetch_afresh(self):
        ev, session = fake_eval({"/x": (200, {"v": 1})})
        check(ev, "res_body(GET /x){v} = 1")
        check(ev, "res_body(GET /x){v} = 1")
        assert session.log == ["/x", "/x"]

    def test_one_observation_fetches_each_url_once(self):
        ev, session = fake_eval({"/x": (200, {"v": 1}), "/y": (200, 2)})
        ctx = OpContext(path_args={})
        with ev.observation():
            assert check(ev, "res_body(GET /x){v} = 1").value
            assert check(ev, "res_body(GET /x){v} < res_body(GET /y)").value
            ev.capture_previous(
                [glacier.parse("prev(res_body(GET /x)) = res_body(GET /y)")], ctx)
        assert session.log == ["/x", "/y"]
        assert ev.sent == 2
        check(ev, "res_body(GET /x){v} = 1")  # the observation is over
        assert session.log == ["/x", "/y", "/x"]

    def test_budget_stays_per_evaluation_and_hits_are_free(self):
        ev, session = fake_eval({"/x": (200, 1), "/y": (200, 1)}, budget=1)
        with ev.observation():
            assert check(ev, "res_body(GET /x) = 1").value
            assert check(ev, "res_body(GET /y) = res_body(GET /x)").value
        assert session.log == ["/x", "/y"]


class TestUrlEncoding:
    def test_path_argument_is_one_segment(self):
        ev, session = fake_eval({})
        check(ev, "res_code(GET /players/{pid}) = 404",
              OpContext(path_args={"pid": "a/b c"}))
        assert session.log == ["/players/a%2Fb%20c"]

    def test_body_field_and_binder_values_are_one_segment(self):
        ev, session = fake_eval({"/ts": (200, [{"tid": "x/y"}])})
        check(ev, "res_code(GET /players/req_body(@){pid}) = 404",
              OpContext(req_body={"pid": "a/b c"}))
        check(ev, "for t in res_body(GET /ts) :- res_code(GET /ts/{t.tid}) = 404")
        assert session.log == ["/players/a%2Fb%20c", "/ts", "/ts/x%2Fy"]


class TestDefaultSession:
    @pytest.fixture(autouse=True)
    def no_proxy_variables(self, monkeypatch):
        for name in ("HTTP_PROXY", "http_proxy", "NO_PROXY", "no_proxy",
                     "ALL_PROXY", "all_proxy"):
            monkeypatch.delenv(name, raising=False)

    def test_environment_proxy_is_resolved_for_the_host(self, monkeypatch):
        monkeypatch.setenv("HTTP_PROXY", "http://proxy.invalid:3128")
        session = make_session("http://api.example:8080")
        assert session.proxies["http"] == "http://proxy.invalid:3128"
        assert isinstance(session, Connection)  # never reads the environment again
        assert Evaluator("http://api.example:8080").session.proxies["http"] == (
            "http://proxy.invalid:3128")

    def test_no_proxy_covering_the_host_means_no_proxy(self, monkeypatch):
        monkeypatch.setenv("HTTP_PROXY", "http://proxy.invalid:3128")
        monkeypatch.setenv("NO_PROXY", "api.example")
        assert make_session("http://api.example:8080").proxies == {}

    def test_ca_bundle_and_netrc_are_resolved_for_the_host(self, monkeypatch, tmp_path):
        netrc = tmp_path / "netrc"
        netrc.write_text("machine api.example login ann password secret\n")
        netrc.chmod(0o600)
        monkeypatch.setenv("NETRC", str(netrc))
        monkeypatch.setenv("REQUESTS_CA_BUNDLE", str(tmp_path / "ca.pem"))
        session = make_session("http://api.example:8080")
        assert session.verify == str(tmp_path / "ca.pem")
        assert session.auth == ("ann", "secret")


class TestTransportAndBudget:
    def test_unreachable_service_raises_transport_failure(self):
        ev = Evaluator("http://127.0.0.1:9", timeout=0.3)
        with pytest.raises(TransportFailure):
            check(ev, "res_code(GET /anything) = 200",
                  OpContext(path_args={}))

    def test_budget_caps_quantifier_fanout(self):
        tournaments = [{"tid": f"t{i}", "capacity": 3} for i in range(10)]
        routes = {"/tournaments": (200, tournaments)}
        for t in tournaments:
            routes[f"/tournaments/{t['tid']}/players"] = (200, [])
            routes[f"/tournaments/{t['tid']}/capacity"] = (200, 3)
        ev, _ = fake_eval(routes, budget=4)
        with pytest.raises(BudgetExceeded):
            check(ev, CAPACITY_INVARIANT)

    def test_cache_hits_do_not_consume_budget(self):
        ev, _ = fake_eval({"/x": (200, {"v": 1})}, budget=1)
        assert check(ev, "res_body(GET /x){v} = 1 and res_body(GET /x){v} < 2").value


class TestSnapshots:
    def test_capture_then_compare_after_delete(self, live):
        bodies = seed_world(live.base_url)
        requests.delete(live.base_url + "/enrolments/e1", timeout=5)
        ev = Evaluator(live.base_url)
        formula = glacier.parse("req_body(@) = prev(res_body(GET /players/{pid}))")
        pre_ctx = OpContext(req_body=bodies["player"],
                            path_args={"pid": "p1"})
        ev.capture_previous([formula], pre_ctx)
        r = requests.delete(live.base_url + "/players/p1", timeout=5)
        assert r.status_code == 200
        post_ctx = OpContext(req_body=bodies["player"],
                             res_code=r.status_code, res_body=r.json(),
                             path_args={"pid": "p1"})
        assert ev.evaluate(formula, post_ctx).value

    def test_member_count_decrease_clause(self, live):
        bodies = seed_world(live.base_url)
        ev = Evaluator(live.base_url)
        formula = glacier.parse(ENROLMENT_DETACH_CLAUSE)
        pre_ctx = OpContext(req_body=bodies["enrolment"],
                            path_args={"eid": "e1"})
        ev.capture_previous([formula], pre_ctx)
        r = requests.delete(live.base_url + "/enrolments/e1", timeout=5)
        assert r.status_code == 200
        post_ctx = OpContext(req_body=bodies["enrolment"],
                             res_code=r.status_code, res_body=r.json(),
                             path_args={"eid": "e1"})
        assert ev.evaluate(formula, post_ctx).value

    def test_capture_is_idempotent_per_key(self, live):
        seed_world(live.base_url)
        ev = Evaluator(live.base_url)
        formula = glacier.parse("req_body(@) = prev(res_body(GET /players/{pid}))")
        ctx = OpContext(req_body={}, path_args={"pid": "p1"})
        ev.capture_previous([formula], ctx)
        ev.capture_previous([formula], ctx)

    def test_missing_snapshot_is_an_error(self, live):
        ev = Evaluator(live.base_url)
        formula = glacier.parse("req_body(@) = prev(res_body(GET /players/{pid}))")
        ctx = OpContext(req_body={}, res_code=200, res_body={},
                        path_args={"pid": "p1"})
        with pytest.raises(EvaluationError, match="no snapshot"):
            ev.evaluate(formula, ctx)

    def test_capture_failure_surfaces_only_when_read(self):
        session = FakeSession({"/players/p1": requests.ConnectionError("down")})
        ev = Evaluator("http://fake", session=session)
        formula = glacier.parse("req_body(@) = prev(res_body(GET /players/{pid}))")
        pre_ctx = OpContext(req_body={}, path_args={"pid": "p1"})
        ev.capture_previous([formula], pre_ctx)  # failure recorded, not raised
        post_ctx = OpContext(req_body={}, res_code=200,
                             res_body={}, path_args={"pid": "p1"})
        with pytest.raises(EvaluationError, match="snapshot unavailable"):
            ev.evaluate(formula, post_ctx)

    def test_prev_over_self_or_request_body_rejected(self):
        assert load_refuses("1 = prev(res_body(@))", "ensures").endswith(
            "prev(res_body(@)): prev over '@' is not defined")
        assert load_refuses("1 = prev(req_body(GET /players/{pid}))", "ensures").endswith(
            "req_body(GET /players/{pid}): req_body reads only the request of '@'")

    def test_prev_under_quantifier_binder_rejected(self):
        assert load_refuses(
            "for t in res_body(GET /tournaments) :- "
            "1 = prev(res_body(GET /tournaments/{t.tid}/players))", "ensures",
        ).endswith("prev over the binder placeholder {t.tid} is not supported")

    def test_res_code_snapshots_store_the_status(self, live):
        seed_world(live.base_url)
        ev = Evaluator(live.base_url)
        formula = glacier.parse("prev(res_code(GET /players/{pid})) = 200")
        pre_ctx = OpContext(req_body={}, path_args={"pid": "p1"})
        ev.capture_previous([formula], pre_ctx)
        requests.delete(live.base_url + "/players/p1", timeout=5)
        post_ctx = OpContext(req_body={}, res_code=200,
                             res_body={}, path_args={"pid": "p1"})
        assert ev.evaluate(formula, post_ctx).value


class TestPreState:
    """prev(...) reads one entry per URL from the latest capture."""

    def test_code_and_body_of_one_url_cost_one_get(self):
        ev, session = fake_eval({"/x": (200, {"v": 1})})
        ensures = [
            glacier.parse("prev(res_code(GET /x)) = 200"),
            glacier.parse("prev(res_body(GET /x){v}) = 1"),
        ]
        ev.capture_previous(ensures, OpContext())
        assert session.log == ["/x"]
        session.routes["/x"] = (404, {"error": "gone"})
        post = OpContext(res_code=200, res_body={})
        assert [ev.evaluate(f, post).value for f in ensures] == [True, True]
        assert session.log == ["/x"]

    def test_a_capture_replaces_the_previous_one(self):
        ev, session = fake_eval({"/x": (200, {"v": 1}), "/y": (200, {"v": 2})})
        read_x = glacier.parse("prev(res_body(GET /x){v}) = 1")
        read_y = glacier.parse("prev(res_body(GET /y){v}) = 2")
        post = OpContext(res_code=200, res_body={})
        ev.capture_previous([read_x], OpContext())
        assert ev.evaluate(read_x, post).value
        session.routes["/x"] = (200, {"v": 5})
        ev.capture_previous([read_y], OpContext())
        assert ev.evaluate(read_y, post).value
        with pytest.raises(EvaluationError, match="no snapshot"):
            ev.evaluate(read_x, post)
        ev.capture_previous([read_x], OpContext())
        result = ev.evaluate(read_x, post)
        assert not result.value and "5" in result.witness
