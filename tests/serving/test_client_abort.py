"""Regression: a client disconnecting mid-response must not crash the
handler — it is counted as a typed ``client_abort`` in ``/metrics``.

The failure mode this pins down: a write error on a dead client must
surface *inside* the dispatch accounting, or the abort is invisible.
Each response goes out in one ``sendall`` inside ``_respond``, and a
reset or broken pipe there is caught explicitly.

The deterministic client death: close the socket with ``SO_LINGER``
(timeout 0), which sends an immediate RST instead of a graceful FIN —
the server's next write/flush on that connection fails.

A reset *between* requests on a keep-alive connection is not a request
at all: it must end the connection quietly, without socketserver's
``handle_error`` traceback and without touching any metric.
"""

import json
import socket
import struct
import threading
import time
import urllib.request

from repro.serving import ScoringService


def _rst_close(sock: socket.socket) -> None:
    """Close with SO_LINGER(on, 0): RST now, no FIN handshake."""
    sock.setsockopt(
        socket.SOL_SOCKET,
        socket.SO_LINGER,
        struct.pack("ii", 1, 0),
    )
    sock.close()


def _wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return False


class TestClientAbortMidResponse:
    def test_batch_disconnect_counts_client_abort(
        self, model_dir, segment_rows, gate_engine
    ):
        # A gated scoring pass stalls the lone request server-side,
        # giving the client a deterministic window to die in.
        with ScoringService(
            model_dir, port=0, cache_size=0
        ).start() as service:
            gated = gate_engine(service.engine("cp8"))
            body = json.dumps({"rows": segment_rows[:8]}).encode()
            with socket.create_connection(
                ("127.0.0.1", service.port), timeout=10
            ) as sock:
                sock.sendall(
                    b"POST /v1/score/batch HTTP/1.1\r\n"
                    b"Host: test\r\n"
                    b"Content-Type: application/json\r\n"
                    + f"Content-Length: {len(body)}\r\n\r\n".encode()
                    + body
                )
                # Let the request reach the engine, then die with RST
                # before the response is written.
                assert gated.in_pass.wait(10.0)
                _rst_close(sock)
            time.sleep(0.1)
            gated.gate.set()

            # The handler hits the dead socket at flush time and must
            # record a typed client_abort — not crash, not lose the
            # request.
            endpoint = "POST /v1/score/batch"
            assert _wait_for(
                lambda: service.metrics.summary()
                .get(endpoint, {})
                .get("error_types", {})
                .get("client_abort", 0)
                == 1
            ), service.metrics.summary()
            summary = service.metrics.summary()[endpoint]
            # The request itself was observed (scored successfully);
            # the abort rides in record_error, so errors == 1 while
            # the observation stayed a success.
            assert summary["count"] == 1
            assert summary["errors"] == 1

            # The service keeps serving normally afterwards.
            request = urllib.request.Request(
                service.url + "/v1/score",
                data=json.dumps({"row": segment_rows[0]}).encode(),
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request, timeout=30) as response:
                out = json.loads(response.read())
            assert 0.0 <= out["probability"] <= 1.0

    def test_abort_mid_upload_counts_client_abort(self, model_dir):
        with ScoringService(model_dir, port=0).start() as service:
            with socket.create_connection(
                ("127.0.0.1", service.port), timeout=10
            ) as sock:
                # Promise a large body, send half, die with RST: the
                # handler's rfile.read hits the reset mid-upload.
                sock.sendall(
                    b"POST /v1/score/batch HTTP/1.1\r\n"
                    b"Host: test\r\n"
                    b"Content-Type: application/json\r\n"
                    b"Content-Length: 100000\r\n\r\n"
                    + b'{"rows": [' + b"x" * 1000
                )
                time.sleep(0.05)
                _rst_close(sock)

            endpoint = "POST /v1/score/batch"
            assert _wait_for(
                lambda: service.metrics.summary()
                .get(endpoint, {})
                .get("error_types", {})
                .get("client_abort", 0)
                == 1
            ), service.metrics.summary()


class TestResetBetweenRequests:
    def test_keepalive_reset_after_a_response_is_quiet(self, model_dir):
        with ScoringService(model_dir, port=0).start() as service:
            server = service._server
            errors: list[object] = []
            finished = threading.Event()
            server.handle_error = lambda request, address: errors.append(
                address
            )
            shutdown_request = server.shutdown_request

            def shutdown_and_flag(request) -> None:
                shutdown_request(request)
                finished.set()

            server.shutdown_request = shutdown_and_flag
            with socket.create_connection(
                ("127.0.0.1", service.port), timeout=10
            ) as sock:
                sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n")
                reply = sock.makefile("rb")
                status = reply.readline()
                length = 0
                while (line := reply.readline()) not in (b"\r\n", b""):
                    name, _, value = line.decode().partition(":")
                    if name.lower() == "content-length":
                        length = int(value)
                assert b" 200 " in status
                assert json.loads(reply.read(length))["status"] == "ok"
                reply.close()
                # The response is complete; the server is now reading
                # the next request line when the reset arrives.
                _rst_close(sock)

            assert finished.wait(10.0)
            assert errors == []
            summary = service.metrics.summary()
            assert summary["GET /healthz"]["count"] == 1
            assert summary["GET /healthz"]["errors"] == 0
            assert set(summary) == {"GET /healthz"}
