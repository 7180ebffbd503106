"""The campaign's HTTP transport, transport.Connection, against tiny servers
on port 0: one connection per campaign, reopening a connection the server
dropped, failures, the request line and Host field, bodies and their
codings, TLS and the CA bundle, a 3xx as the answer, and an environment
whose proxy variables and netrc file are not read."""

import gzip
import json
import socket
import socketserver
import ssl
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qs, unquote, urlsplit

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statecover import glacier, lifecycle, seqgen, ssg
from statecover.demo import DemoServer, add_manual_clauses, demo_spec, make_tournaments_model
from statecover.evaluator import Evaluator, TransportFailure, path_segment
from statecover.executor import classify, run_campaign
from statecover.seqgen import Call
from statecover.speckit import infer_contracts
from statecover.transport import Connection, NonJsonBody, ProtocolError


def json_answer(payload, status=200, **headers):
    return status, {"Content-Type": "application/json", **headers}, json.dumps(payload).encode()


def redirect(status, location):
    return lambda request: json_answer({"see": location}, status, Location=location)


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def log_message(self, *args):
        pass

    def _answer(self):
        length = int(self.headers.get("Content-Length") or 0)
        body = self.rfile.read(length) if length else b""
        self.server.seen.append((self.command, self.path, self.headers, body))
        route = self.server.routes.get(urlsplit(self.path).path)
        answer = route(self) if route else json_answer({"error": "not found"}, 404)
        if answer is None:  # drop the connection without answering
            self.close_connection = True
            return
        status, headers, data = answer
        self.send_response(status)
        for name, value in headers.items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    do_GET = do_POST = do_PUT = do_DELETE = _answer


class Recorder(ThreadingHTTPServer):
    """Answers from routes (path -> request -> (status, headers, body), or
    None to drop the connection) and records every request it saw as
    (method, request target, headers, body)."""

    daemon_threads = True

    def __init__(self, routes):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.routes = routes
        self.seen = []
        self.closing = set()  # sockets to close after their answer
        self.closed = threading.Event()  # set once one of them is closed
        self._thread = threading.Thread(
            target=self.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True)

    @property
    def base_url(self):
        return f"http://127.0.0.1:{self.server_address[1]}"

    def shutdown_request(self, request):
        super().shutdown_request(request)
        if request in self.closing:
            self.closed.set()

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self.shutdown()
        self.server_close()
        self._thread.join(timeout=5)
        assert not self._thread.is_alive()


def close_after_answer(request):
    """Answer, then close the connection without saying so in a header."""
    request.close_connection = True
    request.server.closing.add(request.connection)
    return json_answer({"v": 1})


ROUTES = {
    "/x": lambda request: json_answer({"v": 1}),
    "/target": lambda request: json_answer({"ok": True}),
    "/once": close_after_answer,
    "/drop": lambda request: None,
    "/latin": lambda request: (200, {"Content-Type": "text/plain; charset=latin-1"},
                               "café".encode("latin-1")),
    "/raw": lambda request: (200, {"Content-Type": "text/plain"}, b"\xff ok"),
    "/unknown-charset": lambda request: (
        200, {"Content-Type": "text/plain; charset=no-such-charset"}, "café".encode()),
    "/gzip": lambda request: (200, {"Content-Encoding": "gzip"},
                              gzip.compress(b'{"v": 1}')),
    # a JSON body labelled with the content coding named by the query's c
    "/coded": lambda request: json_answer({"v": 1}, **{"Content-Encoding": parse_qs(
        urlsplit(request.path).query, keep_blank_values=True)["c"][0]}),
    **{f"/r{status}": redirect(status, "/target") for status in (301, 302, 303, 307, 308)},
}


@pytest.fixture(scope="module")
def recorder():
    with Recorder(ROUTES) as server:
        yield server


@pytest.fixture
def server(recorder):
    recorder.seen.clear()
    return recorder


@pytest.fixture
def session(server):
    session = Connection(server.base_url, 5)
    yield session
    session.close()


def check(evaluator, text):
    return evaluator.evaluate(glacier.parse(text))


def counted_connects(monkeypatch):
    connects = []
    real = socket.create_connection

    def counted(address, *args, **kwargs):
        connects.append(address)
        return real(address, *args, **kwargs)

    monkeypatch.setattr(socket, "create_connection", counted)
    return connects


class TestOneConnection:
    def test_a_clean_campaign_opens_one_tcp_connection(self, monkeypatch):
        spec = demo_spec()
        infer_contracts(spec)
        add_manual_clauses(spec)
        exploration = lifecycle.explore(make_tournaments_model(("p1",), ("t1",), ("e1",), (1,)))
        graph = ssg.build(ssg.parse_dot("".join(exploration.dot_lines())), initial="0")
        sequences = seqgen.to_call_sequences(
            graph, seqgen.select_sequences(graph), resolver=spec.resolver())
        with DemoServer(seed=0) as demo:
            connects = counted_connects(monkeypatch)
            traffic = {}
            report = run_campaign(spec, sequences, demo.base_url, seed=0, traffic=traffic)
        assert report["summary"]["ok"] == report["summary"]["calls"] > 0
        assert traffic["sends"] > 0 and traffic["probes"] > 0 and len(sequences) > 1
        assert connects == [("127.0.0.1", demo.port)]

    def test_an_idle_connection_the_server_closed_is_reopened(self, server, session,
                                                              monkeypatch):
        connects = counted_connects(monkeypatch)
        server.closed.clear()
        assert session.request("GET", "/once") == (200, {"v": 1})
        assert server.closed.wait(5)
        time.sleep(0.05)  # let the close reach the client's socket
        assert session.request("GET", "/x") == (200, {"v": 1})
        assert len(connects) == 2
        assert [path for _, path, _, _ in server.seen] == ["/once", "/x"]

    def test_a_request_the_server_drops_is_not_retried(self, server, session):
        with pytest.raises(TransportFailure, match="GET /drop"):
            check(Evaluator(session), "res_code(GET /drop) = 200")
        assert [path for _, path, _, _ in server.seen] == ["/drop"]
        assert session.request("GET", "/x")[0] == 200


class TestFraming:
    @pytest.mark.parametrize("answer", [
        b'HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\r\n{"v": 1}',
        b"HTTP/1.1 200 OK\r\nConnection: close\r\nTransfer-Encoding: chunked\r\n\r\n"
        b'8\r\n{"v": 1}\r\n0\r\n\r\n',
        b'HTTP/1.0 200 OK\r\nContent-Length: 8\r\n\r\n{"v": 1}',
    ])
    def test_an_answer_that_ends_the_connection_is_read_whole(self, answer, monkeypatch):
        def serve(listener):
            for _ in range(2):
                conn, _ = listener.accept()
                with conn:
                    data = b""
                    while b"\r\n\r\n" not in data:
                        data += conn.recv(4096)
                    conn.sendall(answer)

        connects = counted_connects(monkeypatch)
        with socket.socket() as listener:
            listener.bind(("127.0.0.1", 0))
            listener.listen(2)
            thread = threading.Thread(target=serve, args=(listener,), daemon=True)
            thread.start()
            session = Connection(f"http://127.0.0.1:{listener.getsockname()[1]}", 5)
            try:
                assert session.request("GET", "/a") == (200, {"v": 1})
                assert session.request("GET", "/b") == (200, {"v": 1})
            finally:
                session.close()
            thread.join(timeout=5)
        assert not thread.is_alive() and len(connects) == 2

    def test_bytes_past_an_answer_are_not_read_as_the_next(self):
        class Overlong(socketserver.StreamRequestHandler):
            """Says the body is two bytes long, then sends three."""

            def handle(self):
                while self.rfile.readline():
                    while self.rfile.readline() not in (b"\r\n", b""):
                        pass
                    self.wfile.write(b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                                     b"Content-Length: 2\r\n\r\n{}\n")

        server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), Overlong)
        server.daemon_threads = True
        thread = threading.Thread(target=server.serve_forever,
                                  kwargs={"poll_interval": 0.05}, daemon=True)
        thread.start()
        session = Connection(f"http://127.0.0.1:{server.server_address[1]}", 5)
        try:
            assert [session.request("GET", f"/{i}") for i in range(4)] == [(200, {})] * 4
        finally:
            session.close()
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
        assert not thread.is_alive()


class TestFailures:
    def test_refused_connection(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        with pytest.raises(TransportFailure, match="service probe failed: .*refused"):
            run_campaign(demo_spec(), [], f"http://127.0.0.1:{port}", timeout=5)

    def test_timeout(self):
        with socket.socket() as silent:  # accepts connections, never answers
            silent.bind(("127.0.0.1", 0))
            silent.listen(1)
            evaluator = Evaluator(Connection(f"http://127.0.0.1:{silent.getsockname()[1]}", 0.2))
            with pytest.raises(TransportFailure, match="GET /x: timed out"):
                check(evaluator, "res_code(GET /x) = 200")

    @pytest.mark.parametrize("url", ["ftp://127.0.0.1/x", "http:///x", "https:///x",
                                     "file:///x", "ws://127.0.0.1/x"])
    def test_a_url_no_connection_can_serve(self, url):
        with pytest.raises(ProtocolError):
            Connection(url.removesuffix("/x"), 5).request("GET", "/x")

    def test_it_fails_the_request_not_the_connection(self):
        session = Connection("ftp://example.org", 5)
        with pytest.raises(ProtocolError, match="cannot send a request to 'ftp://example.org/'"):
            session.request("GET", "/")
        assert session.sock is None and session.requests == 1


class TestRequestLine:
    """The request target is sent as built: characters a target cannot
    carry are quoted, and %XX escapes (or a stray %) are not touched."""

    @pytest.mark.parametrize("target, on_the_wire", [
        ("/players/a b", "/players/a%20b"),
        ("/x?q=a b&r=1", "/x?q=a%20b&r=1"),
        ("/%zz", "/%zz"),
        ("/50%", "/50%"),
        ("/%4", "/%4"),
        ("/%41%7e%2F%2f%20", "/%41%7e%2F%2f%20"),
        ("/a%2Fb/%7E", "/a%2Fb/%7E"),
        ("/!$&'()*+,;=:@/[]?#", "/!$&'()*+,;=:@/[]"),  # an empty query and fragment go
        ("/café/%C3%A9", "/caf%C3%A9/%C3%A9"),
        ("/<>\"{}|\\^`", "/%3C%3E%22%7B%7D%7C%5C%5E%60"),
        ("/%é1", "/%%C3%A91"),
        ("/%%", "/%%"),
        ("/a%20b%zz", "/a%20b%zz"),
        ("/~user/._-", "/~user/._-"),
    ])
    def test_a_target_is_quoted_once(self, server, session, target, on_the_wire):
        session.request("GET", target)
        assert [seen for _, seen, _, _ in server.seen] == [on_the_wire]

    @given(st.text(max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_a_path_segment_goes_over_the_wire_byte_for_byte(self, recorder, text):
        recorder.seen.clear()
        path = "/players/" + path_segment(text)
        session = Connection(recorder.base_url, 5)
        try:
            session.request("GET", path)
        finally:
            session.close()
        ((_, target, _, _),) = recorder.seen
        assert target == path
        assert unquote(target.removeprefix("/players/")) == text

    @pytest.mark.parametrize("method, length", [
        ("GET", None), ("POST", "0"), ("PUT", "0"), ("DELETE", "0"),
    ])
    def test_every_method_but_get_says_its_length(self, server, session, method, length):
        assert session.request(method, "/x") == (200, {"v": 1})
        ((seen, _, headers, body),) = server.seen
        assert (seen, headers["Content-Length"], headers["Content-Type"], body) == (
            method, length, None, b"")

    @pytest.mark.parametrize("base_url, connect, host, target", [
        ("http://service.test", ("service.test", 80), "service.test", "/x"),
        ("http://service.test:80", ("service.test", 80), "service.test", "/x"),
        ("http://service.test:8080/", ("service.test", 8080), "service.test:8080", "/x"),
        ("HTTP://Service.Test:8080", ("service.test", 8080), "service.test:8080", "/x"),
        ("http://[::1]:8080", ("::1", 8080), "[::1]:8080", "/x"),
        ("http://[::1]", ("::1", 80), "[::1]", "/x"),
        ("http://bücher.example", ("bücher.example", 80), "xn--bcher-kva.example", "/x"),
        ("http://service.test/api/v1", ("service.test", 80), "service.test", "/api/v1/x"),
    ])
    def test_the_origin_and_host_field_come_from_the_base_url(
            self, server, monkeypatch, base_url, connect, host, target):
        connects = []
        real = socket.create_connection

        def to_the_recorder(address, *args, **kwargs):
            connects.append(address)
            return real(server.server_address, *args, **kwargs)

        monkeypatch.setattr(socket, "create_connection", to_the_recorder)
        session = Connection(base_url, 5)
        try:
            session.request("GET", "/x")
            session.request("GET", "/x")
        finally:
            session.close()
        assert connects == [connect]
        assert [(seen, headers["Host"]) for _, seen, headers, _ in server.seen] == [
            (target, host)] * 2


class TestBodies:
    def test_non_json_body_is_the_witness_in_its_charset(self, server, session):
        evaluator = Evaluator(session)
        result = check(evaluator, "res_body(GET /latin){v} = 1")
        assert (result.value, result.witness) == (False, "response body is not JSON: 'café'")
        result = check(evaluator, "res_body(GET /raw){v} = 1")
        assert result.witness == "response body is not JSON: '� ok'"
        assert session.request("GET", "/latin") == (200, NonJsonBody("café"))

    def test_a_charset_python_does_not_know_reads_as_utf8(self, server, session):
        assert session.request("GET", "/unknown-charset") == (200, NonJsonBody("café"))

    def test_undecodable_body_is_a_transport_failure(self, server, session):
        evaluator = Evaluator(session)
        with pytest.raises(TransportFailure, match="GET /gzip: got a body in the 'gzip' "
                                                   "content coding, but the request asked for "
                                                   "identity"):
            check(evaluator, "res_code(GET /gzip) = 200")
        ((_, _, headers, _),) = server.seen
        assert headers["Accept-Encoding"] == "identity"
        assert session.request("GET", "/x") == (200, {"v": 1})  # on the same connection

    @pytest.mark.parametrize("coding", ["gzip", "deflate", "br", "x-gzip", "GZIP"])
    def test_a_coded_body_is_a_protocol_error_that_names_the_coding(self, server, session,
                                                                   coding):
        with pytest.raises(ProtocolError, match=f"got a body in the {coding!r} content coding"):
            session.request("GET", f"/coded?c={coding}")
        assert len(server.seen) == 1

    @pytest.mark.parametrize("coding", ["identity", "Identity", ""])
    def test_identity_is_no_coding(self, server, session, coding):
        assert session.request("GET", f"/coded?c={coding}") == (200, {"v": 1})

    def test_json_body_is_sent_as_json(self, server, session):
        session.request("POST", "/x", json={"name": "Zoë", "n": 1})
        ((method, _, headers, body),) = server.seen
        assert method == "POST" and headers["Content-Type"] == "application/json"
        assert json.loads(body) == {"name": "Zoë", "n": 1}
        with pytest.raises(ValueError):
            session.request("POST", "/x", json={"n": float("nan")})


# A self-signed certificate for localhost and 127.0.0.1 with its key
# (localhost.pem), and another one that did not sign it (other-ca.pem),
# each made once with
#   openssl req -x509 -newkey rsa:2048 -nodes -days 36500 -subj /CN=localhost \
#     -addext subjectAltName=DNS:localhost,IP:127.0.0.1 \
#     -addext basicConstraints=critical,CA:TRUE ...
# localhost.pem also has keyUsage=critical,digitalSignature,keyCertSign and
# extendedKeyUsage=serverAuth, which strict X.509 checking asks for.
TLS = Path(__file__).resolve().parent / "tls"


@pytest.fixture(scope="module")
def tls_server():
    server = Recorder(ROUTES)
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(TLS / "localhost.pem")
    server.socket = context.wrap_socket(server.socket, server_side=True)
    with server:
        yield server


class TestTLS:
    def test_a_trusted_server_answers_over_one_connection(self, tls_server, monkeypatch):
        monkeypatch.setenv("REQUESTS_CA_BUNDLE", str(TLS / "localhost.pem"))
        tls_server.seen.clear()
        connects = counted_connects(monkeypatch)
        port = tls_server.server_address[1]
        session = Connection(f"https://localhost:{port}", 5)
        try:
            assert session.request("GET", "/x") == (200, {"v": 1})
            assert session.request("GET", "/target") == (200, {"ok": True})
        finally:
            session.close()
        assert connects == [("localhost", port)]
        assert [(method, target, headers["Host"]) for method, target, headers, _ in
                tls_server.seen] == [("GET", "/x", f"localhost:{port}"),
                                     ("GET", "/target", f"localhost:{port}")]

    def test_a_server_the_ca_bundle_does_not_trust_is_a_transport_failure(
            self, tls_server, monkeypatch):
        monkeypatch.setenv("REQUESTS_CA_BUNDLE", str(TLS / "other-ca.pem"))
        evaluator = Evaluator(Connection(f"https://localhost:{tls_server.server_address[1]}", 5))
        with pytest.raises(TransportFailure, match="GET /x: .*certificate verify failed"):
            check(evaluator, "res_code(GET /x) = 200")


class TestCABundle:
    @pytest.mark.parametrize("environment, verify", [
        ({}, True),
        ({"REQUESTS_CA_BUNDLE": "a.pem"}, "a.pem"),
        ({"CURL_CA_BUNDLE": "c.pem"}, "c.pem"),
        ({"REQUESTS_CA_BUNDLE": "a.pem", "CURL_CA_BUNDLE": "c.pem"}, "a.pem"),
        ({"REQUESTS_CA_BUNDLE": "", "CURL_CA_BUNDLE": "c.pem"}, "c.pem"),
    ])
    def test_requests_ca_bundle_then_curl_ca_bundle(self, monkeypatch, environment, verify):
        for name in ("REQUESTS_CA_BUNDLE", "CURL_CA_BUNDLE"):
            monkeypatch.delenv(name, raising=False)
        for name, value in environment.items():
            monkeypatch.setenv(name, value)
        assert Connection("https://service.test", 5).verify == verify

    def test_it_is_read_once_when_the_connection_is_made(self, monkeypatch):
        monkeypatch.setenv("REQUESTS_CA_BUNDLE", "a.pem")
        session = Connection("https://service.test", 5)
        monkeypatch.setenv("REQUESTS_CA_BUNDLE", "b.pem")
        assert session.verify == "a.pem"

    def test_curl_ca_bundle_trusts_a_server(self, tls_server, monkeypatch):
        monkeypatch.delenv("REQUESTS_CA_BUNDLE", raising=False)
        monkeypatch.setenv("CURL_CA_BUNDLE", str(TLS / "localhost.pem"))
        session = Connection(f"https://localhost:{tls_server.server_address[1]}", 5)
        try:
            assert session.request("GET", "/x") == (200, {"v": 1})
        finally:
            session.close()


class TestRedirects:
    """A 3xx is the service's answer to the request it was given: nothing
    is sent again, and Location is not read."""

    @pytest.mark.parametrize("status", [301, 302, 303, 307, 308])
    @pytest.mark.parametrize("method", ["GET", "POST", "PUT", "DELETE"])
    def test_a_3xx_is_the_answer(self, server, session, method, status):
        body = {"a": 1} if method in ("POST", "PUT") else None
        answer = session.request(method, f"/r{status}", json=body)
        assert answer == (status, {"see": "/target"})
        assert [(seen, target) for seen, target, _, _ in server.seen] == [(method, f"/r{status}")]

    @pytest.mark.parametrize("status", [301, 302, 303, 307, 308])
    def test_a_probe_get_is_not_redirected_either(self, server, session, status):
        assert check(Evaluator(session), f"res_code(GET /r{status}) = {status}").value is True
        assert [target for _, target, _, _ in server.seen] == [f"/r{status}"]

    def test_a_campaign_judges_a_post_on_its_303(self, server):
        server.routes["/players"] = redirect(303, "/target")
        spec = demo_spec()
        infer_contracts(spec)
        call = Call(op="postPlayer", verb="POST", path="/players", params={"pid": "p1"})
        try:
            report = run_campaign(spec, [[call]], server.base_url, seed=0)
        finally:
            del server.routes["/players"]
        (outcome,) = report["outcomes"]
        assert outcome["response"]["status"] == 303
        verdicts = outcome["pre"], outcome["post"], outcome["inv"]
        assert all(isinstance(verdict, bool) for verdict in verdicts)
        assert outcome["classification"] == classify(*verdicts, 303)
        assert [target for method, target, _, _ in server.seen if method != "GET"] == ["/players"]
        assert "/target" not in [target for _, target, _, _ in server.seen]


class TestEnvironment:
    def test_proxy_variables_and_netrc_are_not_read(self, server, monkeypatch, tmp_path):
        with socket.socket() as closed:
            closed.bind(("127.0.0.1", 0))
            proxy = f"http://127.0.0.1:{closed.getsockname()[1]}"
        for name in ("http_proxy", "https_proxy", "all_proxy", "NO_PROXY", "no_proxy"):
            monkeypatch.delenv(name, raising=False)
        for name in ("HTTP_PROXY", "HTTPS_PROXY", "ALL_PROXY"):
            monkeypatch.setenv(name, proxy)
        netrc = tmp_path / "netrc"
        netrc.write_text("machine 127.0.0.1 login ann password secret\n")
        netrc.chmod(0o600)
        monkeypatch.setenv("NETRC", str(netrc))
        session = Connection(server.base_url, 5)
        try:
            assert session.request("GET", "/x") == (200, {"v": 1})
        finally:
            session.close()
        ((method, target, headers, _),) = server.seen
        assert (method, target) == ("GET", "/x")
        assert headers["Authorization"] is None

    @staticmethod
    def closed_port_proxy():
        with socket.socket() as closed:
            closed.bind(("127.0.0.1", 0))
            return f"http://127.0.0.1:{closed.getsockname()[1]}"

    @pytest.mark.parametrize("name", ["HTTP_PROXY", "http_proxy", "ALL_PROXY", "all_proxy"])
    def test_each_proxy_variable_is_ignored(self, server, monkeypatch, name):
        for other in ("HTTP_PROXY", "http_proxy", "ALL_PROXY", "all_proxy", "REQUEST_METHOD"):
            monkeypatch.delenv(other, raising=False)
        monkeypatch.setenv(name, self.closed_port_proxy())
        session = Connection(server.base_url, 5)
        try:
            assert session.request("GET", "/x") == (200, {"v": 1})
        finally:
            session.close()
        assert [target for _, target, _, _ in server.seen] == ["/x"]

    @pytest.mark.parametrize("place", ["NETRC", ".netrc", "_netrc"])
    def test_no_netrc_file_is_read(self, server, monkeypatch, tmp_path, place):
        netrc = tmp_path / ("netrc" if place == "NETRC" else place)
        netrc.write_text("machine 127.0.0.1 login ann password secret\n")
        netrc.chmod(0o600)
        if place == "NETRC":
            monkeypatch.setenv("NETRC", str(netrc))
        else:
            monkeypatch.delenv("NETRC", raising=False)
            monkeypatch.setenv("HOME", str(tmp_path))
        session = Connection(server.base_url, 5)
        try:
            assert session.request("GET", "/x") == (200, {"v": 1})
        finally:
            session.close()
        ((_, _, headers, _),) = server.seen
        assert headers["Authorization"] is None
