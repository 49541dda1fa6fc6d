"""A small keep-alive HTTP/1.1 load generator.

It lives in the benchmark, not in ``repro.loadtest``, so that a change to
the program's own load-test package cannot move the numbers.  Requests
are pre-encoded before the timed window; checks run after it.
"""

from __future__ import annotations

import random
import socket
import threading
import time
from dataclasses import dataclass

#: Seconds a connect or a reply may take before the run fails.
TIMEOUT_S = 60.0


class Connection:
    """One persistent connection speaking just enough HTTP/1.1."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")
        self.port = self.sock.getsockname()[1]

    def request(self, method: str, path: str, body: bytes = b"") -> tuple[int, bytes]:
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("ascii")
        self.sock.sendall(head + body)
        status_line = self.reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        return status, self.reader.read(length)

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


def connect_when_listening(port: int) -> Connection:
    """Connect as soon as the port accepts.

    Called once the server has printed its ready line; the listening
    socket is bound moments later, so a refused connect retries after a
    millisecond rather than on a coarse polling step.
    """
    deadline = time.perf_counter() + TIMEOUT_S
    while True:
        try:
            return Connection(port)
        except ConnectionRefusedError:
            if time.perf_counter() > deadline:
                raise
            time.sleep(0.001)


@dataclass(frozen=True)
class Request:
    """One pre-encoded request; ``key`` says how to check its reply."""

    method: str
    path: str
    body: bytes
    kind: str
    key: object = None
    due: float = 0.0


@dataclass
class Sample:
    """A completed request: when it was due, sent and answered."""

    request: Request
    due: float
    sent: float
    received: float
    status: int
    body: bytes
    port: int


def closed_loop(conn: Connection, requests, until: float) -> list[Sample]:
    """Send each request after the previous reply, until ``until``.

    ``until`` is checked before each send, so the window ends with the
    first request that would start after it.
    """
    samples = []
    for request in requests:
        start = time.perf_counter()
        if start >= until:
            break
        status, body = conn.request(request.method, request.path, request.body)
        samples.append(
            Sample(request, start, start, time.perf_counter(), status, body, conn.port)
        )
    return samples


def open_loop(conns: list[Connection], schedule: list[Request], t0: float) -> list[Sample]:
    """Send ``schedule`` at ``t0 + request.due`` over ``conns`` (one
    thread each).  A request due while every connection is busy goes out
    late; its latency still counts from its due time."""
    lock = threading.Lock()
    cursor = iter(range(len(schedule)))
    samples: list[Sample | None] = [None] * len(schedule)
    errors: list[BaseException] = []

    def drive(conn: Connection) -> None:
        try:
            while True:
                with lock:
                    i = next(cursor, None)
                if i is None:
                    return
                request = schedule[i]
                due = t0 + request.due
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                status, body = conn.request(request.method, request.path, request.body)
                samples[i] = Sample(
                    request, due, sent, time.perf_counter(), status, body, conn.port
                )
        except BaseException as exc:  # reported to the caller below
            errors.append(exc)

    threads = [threading.Thread(target=drive, args=(c,), daemon=True) for c in conns]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120.0)
    if errors:
        raise errors[0]
    if any(thread.is_alive() for thread in threads):
        raise TimeoutError("open-loop sender did not finish")
    return [s for s in samples if s is not None]


def poisson_offsets(rng: random.Random, rate: float, duration: float) -> list[float]:
    """Arrival offsets of a Poisson process of ``rate``/s over ``duration``."""
    offsets = []
    t = rng.expovariate(rate)
    while t < duration:
        offsets.append(t)
        t += rng.expovariate(rate)
    return offsets
