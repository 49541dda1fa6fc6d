"""The service's own HTTP/1.1 framing: the request reader, the one-write
response, the read deadline, and the reader against the stdlib's.

``BaseHTTPRequestHandler.parse_request`` stays here as the reference:
for a request both parsers accept, the method, path, keep-alive
decision, ``Content-Length`` and 100-continue must agree, and where the
stdlib refuses, the status must.  The reader is stricter on purpose in
the cases DESIGN §7 lists; those tests assert its own status, and the
live tests send them to a running service.
"""

from __future__ import annotations

import email.utils
import http.client
import io
import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.serving.http as serving_http
from repro.serving import ScoringService
from repro.serving.http import FramingError, _http_date, read_request

HEALTHZ = b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n"


# -- the reference -------------------------------------------------------------
class _Reference(BaseHTTPRequestHandler):
    """The stdlib's request parser over a byte string, with no socket."""

    protocol_version = "HTTP/1.1"

    def __init__(self, data: bytes):  # no socketserver set-up
        self.rfile = io.BytesIO(data)
        self.wfile = io.BytesIO()
        self.error_status: int | None = None

    def send_error(self, code, message=None, explain=None) -> None:
        # Recorded here: an error found before the version is known
        # goes out as HTTP/0.9, with no status line to read back.
        self.error_status = code
        super().send_error(code, message, explain)

    def log_message(self, *args) -> None:
        pass


def _stdlib(data: bytes) -> tuple:
    """``("accepted", method, path, keep_alive, content_length,
    expect_continue)`` or ``("refused", status or None)``, as the stdlib
    frames ``data`` (``handle_one_request`` then ``parse_request``)."""
    ref = _Reference(data)
    ref.raw_requestline = ref.rfile.readline(65537)
    if len(ref.raw_requestline) > 65536:
        return ("refused", 414)
    if not ref.raw_requestline:
        return ("refused", None)
    if not ref.parse_request():
        return ("refused", ref.error_status)
    length = ref.headers.get("Content-Length")
    return (
        "accepted",
        ref.command,
        ref.path,
        not ref.close_connection,
        None if length is None else length.rstrip(" \t"),
        ref.wfile.getvalue().startswith(b"HTTP/1.1 100 "),
    )


def _ours(data: bytes) -> tuple:
    try:
        head = read_request(io.BytesIO(data))
    except FramingError as exc:
        return ("refused", exc.status)
    if head is None:
        return ("refused", None)
    return (
        "accepted",
        head.method,
        head.target,
        head.keep_alive,
        head.headers.get("content-length"),
        head.expect_continue,
    )


# -- strategies ----------------------------------------------------------------
_TCHARS = (
    "!#$%&'*+-.^_`|~0123456789"
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
)
_VERSIONS = (
    "HTTP/1.1", "HTTP/1.0", "HTTP/2.0", "HTTP/3.0", "HTTP/2.15", "HTTP/0.9",
    "HTTP/1.2", "HTTP/01.1", "HTTP/1.01", "HTTP/1", "HTTP/1.", "HTTP/x.y",
    "http/1.1", "HTTP/1.1.1", "HTTP/12345678901.0", "HTTP/².0", "HTP/1.1",
)
_targets = st.one_of(
    st.sampled_from(
        ["/", "/healthz", "//x//y", "///", "/v1/score?x=1&y=2", "*", "http://h/p"]
    ),
    st.text(
        st.characters(min_codepoint=0x21, max_codepoint=0xFF), max_size=20
    ).map(lambda s: "/" + s),
)
_request_lines = st.builds(
    lambda words, sep: sep.join(words),
    st.one_of(
        st.tuples(
            st.sampled_from(["GET", "POST", "PUT", "HEAD", "get"]),
            _targets,
            st.sampled_from(_VERSIONS),
        ),
        st.tuples(st.sampled_from(["GET", "POST"]), _targets),
        st.tuples(st.sampled_from(["GET", "POST"])),
        st.tuples(
            st.sampled_from(["GET", "POST"]),
            _targets,
            st.just("extra"),
            st.sampled_from(_VERSIONS),
        ),
    ),
    st.sampled_from([" ", "  ", "\t"]),
)
_values = st.text(
    st.characters(min_codepoint=0x20, max_codepoint=0x7E), max_size=30
).map(str.strip)
_fields = st.one_of(
    st.tuples(
        st.sampled_from(["Connection", "connection", "CONNECTION"]),
        st.sampled_from(["close", "Close", "keep-alive", "Keep-Alive", "upgrade", ""]),
    ),
    st.tuples(
        st.sampled_from(["Expect", "expect"]),
        st.sampled_from(["100-continue", "100-Continue", "nothing"]),
    ),
    st.tuples(st.sampled_from(["Host", "Content-Type", "Accept"]), _values),
    st.tuples(st.text(_TCHARS, min_size=1, max_size=10).map("X-".__add__), _values),
)
_ows = st.sampled_from(["", " ", "  ", "\t"])


@st.composite
def _heads(draw) -> bytes:
    """A request line (valid or not) and valid header fields: at most one
    ``Content-Length``, no ``Transfer-Encoding``, and now and then a
    line or a field count past the stdlib's own caps."""
    line = draw(_request_lines)
    size = draw(st.sampled_from(["plain"] * 8 + ["long_line", "long_field", "many"]))
    if size == "long_line":
        line = f"GET /{'a' * 65540} HTTP/1.1"
    fields = draw(st.lists(st.tuples(_fields, _ows), max_size=8))
    text = [f"{name}:{ows}{value}" for (name, value), ows in fields]
    length = draw(st.one_of(st.none(), st.integers(0, 10**6).map(str)))
    if length is not None:
        trailing = draw(_ows)
        at = draw(st.integers(0, len(text)))
        text.insert(at, f"Content-Length: {length}{trailing}")
    if size == "long_field":
        text.append("X-Big: " + "b" * 65540)
    elif size == "many":
        text += [f"X-{i}: {i}" for i in range(100)]
    eol = draw(st.sampled_from(["\r\n", "\n"]))
    return (eol.join([line, *text, "", ""])).encode("iso-8859-1")


def _deliberately_stricter(line: bytes) -> bool:
    """An HTTP/0.9 two-word line, or a version other than HTTP/1.0 and
    HTTP/1.1 (the stdlib serves 0.x, 1.2 and leading zeros too)."""
    words = line.decode("iso-8859-1").split()
    return len(words) == 2 or (
        len(words) == 3 and words[2] not in ("HTTP/1.0", "HTTP/1.1")
    )


# -- the differential tests ----------------------------------------------------
class TestAgainstTheStdlib:
    @settings(
        max_examples=400,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(_heads())
    def test_same_framing_as_the_stdlib(self, data):
        line = data.split(b"\n", 1)[0]
        alone = line + b"\n\n"
        if _stdlib(alone)[0] == "accepted" and _ours(alone)[0] == "refused":
            assert _deliberately_stricter(line)
            assert _ours(data) == ("refused", 400)
        else:
            assert _ours(data) == _stdlib(data)

    @settings(max_examples=200, deadline=None)
    @given(
        st.builds(
            "{} {} HTTP/1.1".format,
            st.sampled_from(["GET", "POST"]),
            _targets.filter(lambda target: len(target.split()) == 1),
        ),
        st.lists(st.tuples(_fields, _ows), max_size=6),
        st.sampled_from([
            ("no_colon", "Bogus line", 400),
            ("space_before_colon", "Content-Length : 5", 400),
            ("empty_name", ": value", 400),
            ("obs_fold", " folded onto the line before", 400),
            ("bare_cr", "X-A: a\rContent-Length: 5", 400),
            ("nul", "X-A: a\0b", 400),
            ("transfer_encoding", "Transfer-Encoding: chunked", 501),
            ("differing_lengths", "Content-Length: 5\r\nContent-Length: 6", 400),
            ("long_line", None, 414),
            ("long_field", "X-Big: " + "b" * 20000, 431),
            ("many_bytes", "\r\n".join(f"X-{i}: {'c' * 900}" for i in range(20)), 431),
        ]),
        st.data(),
    )
    def test_stricter_where_the_stdlib_misframes(
        self, line, fields, fault, data
    ):
        """Each case the stdlib accepts (and then reads the wrong body, or
        none) is refused here with its own status."""
        name, field, status = fault
        text = [f"{n}:{ows}{v}" for (n, v), ows in fields]
        if name == "long_line":
            line = f"GET /{'a' * 9000} HTTP/1.1"
        else:
            text.insert(data.draw(st.integers(0, len(text))), field)
        request = "\r\n".join([line, *text, "", ""]).encode("iso-8859-1")
        assert _stdlib(request)[0] == "accepted"
        assert _ours(request) == ("refused", status)

    def test_trailing_whitespace_is_not_part_of_a_value(self):
        """RFC 9112 §5 strips OWS on both sides of a field value; the
        stdlib strips only the left, so it keeps ``close `` alive."""
        data = b"GET / HTTP/1.1\r\nConnection: close \r\n\r\n"
        assert _stdlib(data)[3] is True
        assert _ours(data)[3] is False


class TestReader:
    def test_a_head_as_the_engine_sees_it(self):
        head = read_request(
            io.BytesIO(
                b"POST //v1//score HTTP/1.1\r\nHost: a\r\nCONTENT-length: 7\r\n"
                b"Expect: 100-continue\r\nHost: b\r\n\r\n{\"a\":1}"
            )
        )
        assert head == (
            "POST",
            "/v1//score",
            {"host": "a", "content-length": "7", "expect": "100-continue"},
            True,
            True,
        )

    def test_identical_duplicate_lengths_are_one_length(self):
        head = read_request(
            io.BytesIO(
                b"POST / HTTP/1.1\r\nContent-Length: 2\r\n"
                b"Content-Length: 2\r\n\r\n{}"
            )
        )
        assert head.headers["content-length"] == "2"

    @pytest.mark.parametrize(
        "data",
        [b"", b"GET / HTTP/1.1", b"GET / HTTP/1.1\r\nHost: a", b"\r\n"],
        ids=["eof", "line-without-lf", "field-without-lf", "blank-line"],
    )
    def test_an_incomplete_head_ends_the_connection(self, data):
        """What a closed connection or a read past the deadline leaves:
        no request and nothing to answer."""
        assert read_request(io.BytesIO(data)) is None

    def test_caps_are_exact(self):
        longest = b"GET /" + b"a" * (serving_http.MAX_LINE - 16) + b" HTTP/1.1\r\n"
        assert len(longest) == serving_http.MAX_LINE
        assert read_request(io.BytesIO(longest + b"\r\n")) is not None
        with pytest.raises(FramingError) as excinfo:
            read_request(io.BytesIO(longest[:-2] + b"a\r\n\r\n"))
        assert excinfo.value.status == 414
        most = b"".join(b"X-%02d: 1\r\n" % i for i in range(99))
        assert read_request(io.BytesIO(b"GET / HTTP/1.1\r\n" + most + b"\r\n"))
        with pytest.raises(FramingError) as excinfo:
            read_request(
                io.BytesIO(b"GET / HTTP/1.1\r\n" + most + b"X-99: 1\r\n\r\n")
            )
        assert excinfo.value.status == 431

    @pytest.mark.parametrize(
        "second", [0, 951_782_400, 1_709_164_800, 1_793_000_000, 4_102_444_799]
    )
    def test_date_is_the_stdlib_format(self, second):
        assert _http_date(second) == email.utils.formatdate(second, usegmt=True)


# -- a live service ------------------------------------------------------------
@pytest.fixture()
def service(model_dir):
    with ScoringService(model_dir, port=0, max_body_bytes=2048).start() as svc:
        yield svc


class _Replay(io.BytesIO):
    """Bytes read off a socket, replayed to ``http.client`` as a socket
    and still readable after it closes the response."""

    def makefile(self, mode: str) -> io.BytesIO:
        return self

    def close(self) -> None:
        pass


def _until_eof(port: int, data: bytes) -> bytes:
    """Send ``data`` on one connection; everything the server sends
    back until it closes (a socket timeout fails the test)."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(data)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


def _only_response(data: bytes) -> tuple[int, http.client.HTTPResponse, dict]:
    """The one response in ``data``; fails if any byte follows it."""
    replay = _Replay(data)
    response = http.client.HTTPResponse(replay)
    response.begin()
    body = json.loads(response.read())
    assert replay.read() == b"", "more than one response"
    return response.status, response, body


class TestNoDesync:
    """Each request leaves body bytes the stdlib parsed as the next
    request.  Here it gets one answer, then the connection closes, and
    the ``GET /healthz`` behind it is never read."""

    @pytest.mark.parametrize(
        "request_bytes, status",
        [
            (
                b"POST /v1/score/batch HTTP/1.1\r\nHost: test\r\n"
                b"Transfer-Encoding: chunked\r\n\r\n"
                b"c\r\n{\"rows\": []}\r\n0\r\n\r\n",
                501,
            ),
            (
                b"POST /v1/score/batch HTTP/1.1\r\nHost: test\r\nNo colon here\r\n"
                b"Content-Length: 12\r\n\r\n{\"rows\": []}",
                400,
            ),
            (
                b"POST /v1/score/batch HTTP/1.1\r\nHost: test\r\n"
                b"Content-Length: 0\r\nContent-Length: 12\r\n\r\n{\"rows\": []}",
                400,
            ),
        ],
        ids=["chunked", "no-colon", "differing-lengths"],
    )
    def test_one_response_then_eof(self, service, request_bytes, status):
        got, response, body = _only_response(
            _until_eof(service.port, request_bytes + HEALTHZ)
        )
        assert got == status
        assert response.getheader("Connection") == "close"
        assert set(body) == {"error"}
        assert "GET /healthz" not in service.metrics.summary()

    def test_a_get_body_is_read_not_parsed(self, service):
        """A GET's ``Content-Length`` body is read (and ignored), so the
        request behind it on the connection is answered."""
        replay = _Replay(
            _until_eof(
                service.port,
                b"GET /healthz HTTP/1.1\r\nContent-Length: 5\r\n\r\nabcde"
                + HEALTHZ[:-2]
                + b"Connection: close\r\n\r\n",
            )
        )
        for _ in range(2):
            response = http.client.HTTPResponse(replay)
            response.begin()
            assert response.status == 200
            assert json.loads(response.read())["status"] == "ok"
        assert replay.read() == b""


class TestLiveFraming:
    @pytest.mark.parametrize(
        "request_bytes, status",
        [
            (b"GET /healthz HTTP/1.1\r\nHost: test\r\n folded\r\n\r\n", 400),
            (b"GET /healthz\r\n\r\n", 400),
            (b"GET /healthz HTTP/2.0\r\n\r\n", 505),
            (b"GET /" + b"a" * 9000 + b" HTTP/1.1\r\n\r\n", 414),
            (b"GET /healthz HTTP/1.1\r\nX: " + b"a" * 20000 + b"\r\n\r\n", 431),
            (b"PUT /healthz HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc", 501),
        ],
        ids=["obs-fold", "http-0.9", "http-2", "long-line", "long-field", "put"],
    )
    def test_framing_errors_answer_once_and_close(
        self, service, request_bytes, status
    ):
        got, response, body = _only_response(
            _until_eof(service.port, request_bytes + HEALTHZ)
        )
        assert got == status
        assert response.getheader("Connection") == "close"
        assert set(body) == {"error"}

    def test_a_response_carries_date_type_and_length(self, service):
        """No ``Server`` field; ``Date`` is required on 2xx-4xx answers
        (RFC 9110 §6.6.1); ``Connection: close`` only when closing."""
        closing = HEALTHZ[:-2] + b"Connection: close\r\n\r\n"
        replay = _Replay(_until_eof(service.port, HEALTHZ + closing))
        for extra in (set(), {"Connection"}):
            response = http.client.HTTPResponse(replay)
            response.begin()
            body = response.read()
            fields = dict(response.getheaders())
            assert (response.version, response.status) == (11, 200)
            assert set(fields) == {"Date", "Content-Type", "Content-Length"} | extra
            date = email.utils.parsedate_to_datetime(fields["Date"])
            assert abs(date.timestamp() - time.time()) < 60
            assert json.loads(body)["status"] == "ok"
        assert replay.read() == b""

    def test_http_1_0_closes_after_its_response(self, service):
        status, response, body = _only_response(
            _until_eof(service.port, b"GET /healthz HTTP/1.0\r\n\r\n")
        )
        assert status == 200 and body["status"] == "ok"
        assert response.getheader("Connection") == "close"

    def test_continue_only_within_the_body_limit(self, service, segment_rows):
        body = json.dumps({"row": segment_rows[0]}).encode()
        head = (
            b"POST /v1/score HTTP/1.1\r\nHost: test\r\n"
            b"Expect: 100-continue\r\nContent-Length: %d\r\n\r\n"
        )
        with socket.create_connection(("127.0.0.1", service.port), timeout=10) as sock:
            sock.sendall(head % len(body))
            assert sock.recv(64) == b"HTTP/1.1 100 Continue\r\n\r\n"
            sock.sendall(body)
            reply = sock.makefile("rb")
            assert reply.readline().startswith(b"HTTP/1.1 200 ")
            reply.close()
        # Over the limit: the 413 comes at once, with no 100 before it.
        status, response, error = _only_response(
            _until_eof(service.port, head % 100_000)
        )
        assert status == 413 and "exceeds" in error["error"]


def _wait_for(predicate, timeout=5.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


class TestReadDeadline:
    @pytest.fixture()
    def short_deadline(self, monkeypatch):
        monkeypatch.setattr(serving_http, "READ_DEADLINE_S", 0.3)

    def test_an_idle_keep_alive_connection_is_reaped(
        self, short_deadline, model_dir
    ):
        with ScoringService(model_dir, port=0).start() as service:
            threads = threading.active_count()
            started = time.monotonic()
            # One keep-alive request, then silence: the server closes.
            status, response, body = _only_response(
                _until_eof(service.port, HEALTHZ)
            )
            assert status == 200 and response.getheader("Connection") is None
            assert time.monotonic() - started < 5.0
            assert _wait_for(lambda: threading.active_count() == threads)

    def test_a_stalled_body_releases_its_thread(
        self, short_deadline, model_dir
    ):
        with ScoringService(model_dir, port=0).start() as service:
            threads = threading.active_count()
            with socket.create_connection(
                ("127.0.0.1", service.port), timeout=10
            ) as sock:
                sock.sendall(
                    b"POST /v1/score/batch HTTP/1.1\r\nHost: test\r\n"
                    b"Content-Length: 100000\r\n\r\n{"
                )
                assert sock.recv(1) == b""  # no response, then EOF
            assert _wait_for(lambda: service._inflight == 0)
            assert _wait_for(lambda: threading.active_count() == threads)
            errors = service.metrics.summary()["POST /v1/score/batch"]
            assert errors["error_types"] == {"client_abort": 1}
