"""transport.read_response, the campaign's HTTP/1.1 response reader, fed the
same bytes as http.client.HTTPResponse: both must see the same status,
Location, Content-Type, Content-Encoding and body, or both must fail, ours
with a transport.ProtocolError. A Connection reads a socket through its own
buffer, which must read as a buffered file does however the bytes arrive."""

import http.client
import io

import pytest

from statecover.transport import ProtocolError, _Reader, read_fields, read_response

CASES = {
    "content-length": (
        "GET",
        b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
        b"Content-Length: 8\r\n\r\n{\"v\": 1}"),
    "chunked with extensions and trailers": (
        "GET",
        b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
        b"Transfer-Encoding: chunked\r\n\r\n"
        b"4;name=value\r\n{\"v\"\r\n4 ; last\r\n: 1}\r\n0\r\nX-Trailer: yes\r\n\r\n"),
    "close-delimited": (
        "GET", b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n\r\nup to the close"),
    "a transfer coding other than chunked": (
        "GET", b"HTTP/1.1 200 OK\r\nTransfer-Encoding: gzip\r\n\r\nup to the close"),
    "HEAD": ("HEAD", b"HTTP/1.1 200 OK\r\nContent-Length: 8\r\n\r\n"),
    "204": ("DELETE", b"HTTP/1.1 204 No Content\r\n\r\n"),
    "304": ("GET", b"HTTP/1.1 304 Not Modified\r\nContent-Length: 8\r\n\r\n"),
    "100 before the final answer": (
        "POST",
        b"HTTP/1.1 100 Continue\r\n\r\n"
        b"HTTP/1.1 201 Created\r\nContent-Length: 2\r\n\r\n{}"),
    "repeated and mixed-case headers": (
        "GET",
        b"HTTP/1.1 302 Found\r\nlOcAtIoN: /first\r\nLocation: /second\r\n"
        b"content-TYPE: text/plain; charset=latin-1\r\nCONTENT-ENCODING: gzip\r\n"
        b"Content-Encoding: deflate\r\ncontent-length: 0\r\n\r\n"),
    "a status line without a reason": ("GET", b"HTTP/1.1 200\r\nContent-Length: 2\r\n\r\n{}"),
    "HTTP/1.0": ("GET", b"HTTP/1.0 404 Not Found\r\nContent-Length: 2\r\n\r\n{}"),
    "a truncated body": ("GET", b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort"),
    "a truncated chunk": (
        "GET", b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n10\r\nshort"),
    "a chunk size that is not hex": (
        "GET", b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\nshort\r\n0\r\n\r\n"),
    "no answer at all": ("GET", b""),
    "not HTTP": ("GET", b"SSH-2.0-OpenSSH_9.6\r\n"),
}

FAILING = {"a truncated body", "a truncated chunk", "a chunk size that is not hex",
           "no answer at all", "not HTTP"}


def stream(data):
    return io.BufferedReader(io.BytesIO(data))


class _Socket:
    """What HTTPResponse reads from: a socket whose file holds data."""

    def __init__(self, data):
        self.data = data

    def makefile(self, mode):
        return stream(self.data)


def standard(data, method):
    response = http.client.HTTPResponse(_Socket(data), method=method)
    response.begin()
    headers = response.headers
    body = response.read()
    return (response.status, headers.get("Location"), headers.get("Content-Type"),
            headers.get("Content-Encoding"), body)


def ours(data, method):
    status, fields, body, _ = read_response(stream(data), method)
    return (status, fields.get("location"), fields.get("content-type"),
            fields.get("content-encoding"), body)


@pytest.mark.parametrize("case", CASES)
def test_read_response_agrees_with_http_client(case):
    method, data = CASES[case]
    if case in FAILING:
        with pytest.raises(http.client.HTTPException):
            standard(data, method)
        with pytest.raises(ProtocolError):
            ours(data, method)
    else:
        assert ours(data, method) == standard(data, method)


@pytest.mark.parametrize("head, keep", [
    (b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n", True),
    (b"HTTP/1.1 200 OK\r\nConnection: Close\r\nContent-Length: 0\r\n\r\n", False),
    (b"HTTP/1.0 200 OK\r\nContent-Length: 0\r\n\r\n", False),
    (b"HTTP/1.0 200 OK\r\nConnection: keep-alive\r\nContent-Length: 0\r\n\r\n", True),
    (b"HTTP/1.1 200 OK\r\n\r\n", False),  # the body runs to the close
    (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: gzip\r\n\r\n", False),  # and so here
    (b"HTTP/1.1 204 No Content\r\n\r\n", True),
])
def test_whether_the_connection_stays_open(head, keep):
    assert read_response(stream(head), "GET")[3] is keep


def test_answers_on_one_connection_are_read_one_after_another():
    wire = stream(CASES["content-length"][1] + CASES["100 before the final answer"][1]
                  + CASES["a status line without a reason"][1])
    assert [read_response(wire, "GET")[0] for _ in range(3)] == [200, 201, 200]
    assert wire.read() == b""


MALFORMED = [
    (b"HTTP/1.1 200 OK\r\nContent-Length: ten\r\n\r\n", "invalid Content-Length"),
    (b"HTTP/1.1 200 OK\r\n" + b"X: y\r\n" * 101 + b"\r\n", "more than 100 headers"),
    (b"HTTP/1.1 200 OK\r\nX: " + b"y" * 65536 + b"\r\n\r\n", "header line"),
    (b"HTTP/1.1 2000 OK\r\n\r\n", "HTTP/1.1 2000 OK"),
    (b"HTTP/2 200\r\n\r\n", "HTTP/2 200"),
]


@pytest.mark.parametrize("data, error", MALFORMED)
def test_malformed_answers_raise_a_protocol_error(data, error):
    with pytest.raises(ProtocolError, match=error):
        read_response(stream(data), "GET")


class _Pieces:
    """A socket whose recv hands out data at most size bytes at a time."""

    def __init__(self, data, size):
        self.data, self.size = data, size

    def recv(self, limit):
        piece, self.data = self.data[:min(limit, self.size)], self.data[self.size:]
        return piece


def _answers(reader, method, count):
    """What count read_response calls on reader give, up to the first error."""
    out = []
    try:
        while len(out) < count:
            out.append(read_response(reader, method))
    except ProtocolError as exc:
        out.append(("error", str(exc)))
    return out, reader.read()


@pytest.mark.parametrize("size", [1, 2, 5, 64, 65536])
@pytest.mark.parametrize("method, data", [
    *CASES.values(),
    *(("GET", data) for data, _ in MALFORMED),
    ("GET", b"HTTP/1.1 200 OK\r\nContent-Length: 70000\r\n\r\n" + b"x" * 70005),
    ("POST", CASES["content-length"][1] + CASES["100 before the final answer"][1]
     + CASES["chunked with extensions and trailers"][1] + b"left over"),
])
def test_a_socket_read_in_pieces_reads_as_a_buffered_file(method, data, size):
    assert _answers(_Reader(_Pieces(data, size)), method, 3) == _answers(stream(data), method, 3)


def test_read_fields_keeps_the_first_value_of_a_name():
    fields = read_fields(stream(b"A: 1\r\nno colon here\r\na:  2 \r\nB:\tx y\r\n\r\nrest"))
    assert fields == {"a": "1", "b": "x y"}
