"""The load-test runner: drive a live scoring service, measure, verify.

:class:`LoadTest` sends a deterministic schedule (see
:mod:`repro.loadtest.profiles`) at a running
:class:`~repro.serving.http.ScoringService` — in-process (the CLI's
default, full trace access) or any URL — through ``clients`` keep-alive
connections, with a closed-loop warmup ahead of the measured window.

Beyond generating load, the runner *verifies the serving stack while
loading it*:

* every mid-run and final ``GET /metrics?format=prometheus`` scrape is
  checked with :func:`repro.obs.prometheus.validate_exposition` — a
  server that emits a malformed exposition under load fails the run;
* client-observed request counts are cross-checked against the delta
  of the server's own per-endpoint counters (``GET /metrics`` JSON)
  over the window — any mismatch means lost requests and is loud;
* the K slowest requests keep their ``X-Repro-Trace-Id``, and when the
  harness owns the service's tracer their span trees are rendered as
  waterfalls straight into the report.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from typing import Any

from repro.exceptions import ConfigurationError, ServingError
from repro.loadtest.profiles import (
    WorkloadProfile,
    build_schedule,
    get_profile,
)
from repro.loadtest.results import (
    LoadTestReport,
    ParityCheck,
    RequestOutcome,
    summarise,
)
from repro.obs.histogram import nearest_rank
from repro.obs.prometheus import validate_exposition
from repro.obs.waterfall import render_waterfall

__all__ = ["LoadTest", "TRACE_HEADER"]

#: Response header carrying the request's trace id (set by the serving
#: layer whenever its tracer is enabled).
TRACE_HEADER = "X-Repro-Trace-Id"

#: Closed-loop schedules are cycled, so their length only needs to be
#: large enough to mix operations well.
_CLOSED_SCHEDULE_LEN = 512


class _Counter:
    """A lock-guarded monotonically increasing ticket dispenser."""

    def __init__(self) -> None:
        self._value = 0
        self._lock = threading.Lock()

    def next(self) -> int:
        with self._lock:
            ticket = self._value
            self._value += 1
            return ticket


class LoadTest:
    """One configured load-test run (call :meth:`run` once).

    Parameters
    ----------
    url:
        Base URL of the server under test (``http://host:port``).
    rows:
        Schema-valid payload rows the schedule draws from.
    service:
        The in-process :class:`~repro.serving.http.ScoringService`
        when the harness owns the server — unlocks waterfall rendering
        through its tracer.  ``None`` for a remote target.
    profile:
        A profile name from :data:`~repro.loadtest.profiles.PROFILES`
        or a :class:`WorkloadProfile`.
    clients:
        Concurrent keep-alive connections.
    duration:
        Measured-window length in seconds.  Closed loop: workers stop
        at the deadline.  Open loop: the schedule holds
        ``rate * duration`` requests.
    rate:
        Open-loop offered load in req/s; ``0`` selects closed loop.
    arrival:
        ``"fixed"`` or ``"poisson"`` when ``rate > 0``.
    warmup:
        Closed-loop warmup seconds before the measured window (results
        discarded, counters snapshotted after it).
    seed:
        Workload-schedule seed: same seed, same requests.
    model:
        Model name to pin in payloads (``None``: server default).
    batch_size:
        Rows per ``/v1/score/batch`` request.
    scrape_interval:
        Seconds between mid-run Prometheus scrapes.
    slowest_k:
        How many slowest requests to keep (and render waterfalls for).
    timeout:
        Per-request client timeout in seconds.
    pairs:
        Town-pair pool for route-query profiles (see
        :meth:`WorkloadProfile.needs_pairs`); e.g. from
        ``GET /v1/route/towns`` of the target service.
    """

    def __init__(
        self,
        url: str,
        rows: list[dict],
        service: Any = None,
        profile: str | WorkloadProfile = "mixed",
        clients: int = 4,
        duration: float = 5.0,
        rate: float = 0.0,
        arrival: str = "poisson",
        warmup: float = 1.0,
        seed: int = 7,
        model: str | None = None,
        batch_size: int = 16,
        scrape_interval: float = 1.0,
        slowest_k: int = 5,
        timeout: float = 30.0,
        pairs: list[tuple[str, str]] | None = None,
    ):
        if clients < 1:
            raise ConfigurationError(
                f"clients must be >= 1, got {clients}"
            )
        if duration <= 0:
            raise ConfigurationError(
                f"duration must be > 0 seconds, got {duration}"
            )
        if rate < 0:
            raise ConfigurationError(f"rate must be >= 0, got {rate}")
        self.url = url.rstrip("/")
        host, _, port_text = self.url.split("//", 1)[1].partition(":")
        self.host = host
        self.port = int(port_text) if port_text else 80
        self.rows = rows
        self.service = service
        self.profile = (
            get_profile(profile) if isinstance(profile, str) else profile
        )
        self.clients = clients
        self.duration = duration
        self.rate = rate
        self.arrival = "closed" if rate <= 0 else arrival
        self.warmup = warmup
        self.seed = seed
        self.model = model
        self.batch_size = batch_size
        self.scrape_interval = scrape_interval
        self.slowest_k = slowest_k
        self.timeout = timeout
        self.pairs = pairs
        if self.profile.needs_pairs() and not pairs:
            raise ConfigurationError(
                f"profile {self.profile.name!r} emits route queries; "
                "pass pairs=[(origin, dest), ...] (e.g. from "
                "GET /v1/route/towns)"
            )

    # -- plumbing ----------------------------------------------------------
    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )

    def _send(
        self,
        connection: http.client.HTTPConnection,
        planned,
        lateness: float = 0.0,
    ) -> tuple[RequestOutcome, http.client.HTTPConnection]:
        """Send one planned request; returns (outcome, live connection).

        A transport failure (connection refused/reset, timeout) is an
        outcome with ``status=0`` — never an exception: a load test
        must keep offering load and account for the loss instead of
        dying on the first broken keep-alive socket.
        """
        headers = {}
        if planned.body is not None:
            headers["Content-Type"] = "application/json"
        start = time.perf_counter()
        try:
            connection.request(
                planned.method,
                planned.path,
                body=planned.body,
                headers=headers,
            )
            response = connection.getresponse()
            response.read()
            elapsed = time.perf_counter() - start
            outcome = RequestOutcome(
                endpoint=planned.endpoint,
                latency=elapsed,
                status=response.status,
                trace_id=response.getheader(TRACE_HEADER),
                lateness=lateness,
            )
        except (OSError, http.client.HTTPException):
            elapsed = time.perf_counter() - start
            connection.close()
            connection = self._connect()
            outcome = RequestOutcome(
                endpoint=planned.endpoint,
                latency=elapsed,
                status=0,
                lateness=lateness,
            )
        return outcome, connection

    def _get_json(self, path: str) -> dict:
        connection = self._connect()
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            body = response.read()
            if response.status != 200:
                raise ServingError(
                    f"GET {path} on {self.url} returned HTTP "
                    f"{response.status}"
                )
            return json.loads(body)
        finally:
            connection.close()

    def _scrape_prometheus(self) -> int:
        """One validated exposition scrape; returns its sample count."""
        connection = self._connect()
        try:
            connection.request("GET", "/metrics?format=prometheus")
            response = connection.getresponse()
            text = response.read().decode("utf-8")
            if response.status != 200:
                raise ServingError(
                    f"prometheus scrape on {self.url} returned HTTP "
                    f"{response.status}"
                )
            return validate_exposition(text)
        finally:
            connection.close()

    def _server_counts(self) -> dict[str, int]:
        """The server's own per-endpoint request counters."""
        summary = self._get_json("/metrics")["endpoints"]
        return {
            endpoint: record["count"]
            for endpoint, record in summary.items()
        }

    # -- phases ------------------------------------------------------------
    def _run_closed(
        self, schedule, deadline: float
    ) -> list[RequestOutcome]:
        """Workers send back-to-back until the deadline."""
        tickets = _Counter()
        results: list[list[RequestOutcome]] = [
            [] for _ in range(self.clients)
        ]

        def worker(worker_id: int) -> None:
            connection = self._connect()
            mine = results[worker_id]
            try:
                while time.monotonic() < deadline:
                    planned = schedule[tickets.next() % len(schedule)]
                    outcome, connection = self._send(connection, planned)
                    mine.append(outcome)
            finally:
                connection.close()

        self._join(worker)
        return [outcome for chunk in results for outcome in chunk]

    def _run_open(self, schedule) -> list[RequestOutcome]:
        """Workers honour each request's scheduled start offset."""
        tickets = _Counter()
        results: list[list[RequestOutcome]] = [
            [] for _ in range(self.clients)
        ]
        t0 = time.monotonic()

        def worker(worker_id: int) -> None:
            connection = self._connect()
            mine = results[worker_id]
            try:
                while True:
                    ticket = tickets.next()
                    if ticket >= len(schedule):
                        return
                    planned = schedule[ticket]
                    wait = t0 + planned.offset - time.monotonic()
                    if wait > 0:
                        time.sleep(wait)
                    lateness = max(
                        0.0,
                        time.monotonic() - (t0 + planned.offset),
                    )
                    outcome, connection = self._send(
                        connection, planned, lateness=lateness
                    )
                    mine.append(outcome)
            finally:
                connection.close()

        self._join(worker)
        return [outcome for chunk in results for outcome in chunk]

    def _join(self, worker) -> None:
        threads = [
            threading.Thread(
                target=worker, args=(i,), name=f"loadtest-{i}"
            )
            for i in range(self.clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    # -- the run -----------------------------------------------------------
    def run(self) -> LoadTestReport:
        notes: list[str] = []
        # Warmup: closed loop, its own seed stream, results discarded.
        warmup_outcomes: list[RequestOutcome] = []
        if self.warmup > 0:
            warmup_schedule = build_schedule(
                self.profile,
                self.rows,
                _CLOSED_SCHEDULE_LEN,
                seed=self.seed + 101,
                model=self.model,
                batch_size=self.batch_size,
                arrival="closed",
                pairs=self.pairs,
            )
            warmup_outcomes = self._run_closed(
                warmup_schedule, time.monotonic() + self.warmup
            )

        # The measured schedule (deterministic in the seed).
        if self.arrival == "closed":
            schedule = build_schedule(
                self.profile,
                self.rows,
                _CLOSED_SCHEDULE_LEN,
                seed=self.seed,
                model=self.model,
                batch_size=self.batch_size,
                arrival="closed",
                pairs=self.pairs,
            )
        else:
            n_requests = max(1, int(round(self.rate * self.duration)))
            schedule = build_schedule(
                self.profile,
                self.rows,
                n_requests,
                seed=self.seed,
                model=self.model,
                batch_size=self.batch_size,
                arrival=self.arrival,
                rate=self.rate,
                pairs=self.pairs,
            )

        # Counter snapshot after warmup = the parity baseline.
        before = self._server_counts()
        scrape_tally = {"count": 0, "samples": 0}
        stop_scraping = threading.Event()

        def scraper() -> None:
            while not stop_scraping.wait(self.scrape_interval):
                scrape_tally["samples"] = self._scrape_prometheus()
                scrape_tally["count"] += 1

        scrape_thread = threading.Thread(
            target=scraper, name="loadtest-scraper"
        )
        scrape_thread.start()
        started = time.perf_counter()
        try:
            if self.arrival == "closed":
                outcomes = self._run_closed(
                    schedule, time.monotonic() + self.duration
                )
            else:
                outcomes = self._run_open(schedule)
        finally:
            stop_scraping.set()
            scrape_thread.join()
        wall = time.perf_counter() - started

        # Final scrape is always validated, even for tiny runs where
        # the interval never fired mid-run.
        scrape_tally["samples"] = self._scrape_prometheus()
        scrape_tally["count"] += 1
        final_metrics = self._get_json("/metrics")
        after = {
            endpoint: record["count"]
            for endpoint, record in final_metrics["endpoints"].items()
        }
        # Servers running an SLO burn engine publish their burn state
        # in the metrics JSON; fold it into the report so a load test
        # records how hard it pushed each error budget.
        burnrate = final_metrics.get("slo")

        parity = [
            ParityCheck(
                endpoint=endpoint,
                client=sum(
                    1
                    for o in outcomes
                    if o.endpoint == endpoint and not o.transport_error
                ),
                server=after.get(endpoint, 0) - before.get(endpoint, 0),
            )
            for endpoint in sorted(
                {op.endpoint() for op in self.profile.operations}
            )
        ]
        transport_errors = sum(1 for o in outcomes if o.transport_error)
        if transport_errors:
            notes.append(
                f"{transport_errors} request(s) failed at the transport "
                "layer (no response) — parity cannot hold"
            )

        completed = [o for o in outcomes if not o.transport_error]
        slowest = sorted(
            completed, key=lambda o: o.latency, reverse=True
        )[: self.slowest_k]
        lateness = sorted(o.lateness for o in outcomes)
        report = LoadTestReport(
            profile=self.profile.name,
            arrival=self.arrival,
            seed=self.seed,
            clients=self.clients,
            rate=self.rate,
            wall_seconds=wall,
            endpoints=summarise(outcomes, wall),
            parity=parity,
            n_scrapes=scrape_tally["count"],
            scrape_samples=scrape_tally["samples"],
            slowest=slowest,
            warmup_requests=len(warmup_outcomes),
            lateness_p95_ms=(
                1000.0 * nearest_rank(lateness, 95) if lateness else 0.0
            ),
            waterfall=self._waterfall(slowest),
            burnrate=burnrate,
            notes=notes,
        )
        return report

    def _waterfall(self, slowest) -> str | None:
        """Waterfalls of the slowest requests' traces (service mode)."""
        if self.service is None:
            return None
        tracer = getattr(self.service, "tracer", None)
        if tracer is None or not tracer.enabled:
            return None
        wanted = {o.trace_id for o in slowest if o.trace_id}
        if not wanted:
            return None
        spans = [
            s for s in tracer.finished() if s.trace_id in wanted
        ]
        if not spans:
            return None
        return (
            f"waterfalls of the {len(wanted)} slowest request(s):\n"
            + render_waterfall(spans)
        )
