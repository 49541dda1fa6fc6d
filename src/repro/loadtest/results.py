"""The load-test results model.

Workers accumulate raw :class:`RequestOutcome` records; the runner
folds them into a :class:`LoadTestReport` — per-endpoint throughput,
error rate and exact latency percentiles over the measured window,
plus the parity cross-check against the server's own counters, the
Prometheus scrape tally, and the K slowest requests with their trace
ids.  ``render()`` is the human artefact (``benchmarks/results/
loadtest.txt``); ``to_dict()`` the machine one (``--json``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.histogram import nearest_rank

__all__ = [
    "RequestOutcome",
    "EndpointSummary",
    "ParityCheck",
    "LoadTestReport",
]


@dataclass(frozen=True)
class RequestOutcome:
    """What one sent request came back as."""

    endpoint: str
    latency: float  #: seconds, request write to response read
    status: int  #: HTTP status; 0 = transport failure (no response)
    trace_id: str | None = None
    #: Seconds the send lagged behind its open-loop schedule slot
    #: (0.0 for closed-loop requests).
    lateness: float = 0.0

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 400

    @property
    def transport_error(self) -> bool:
        return self.status == 0


@dataclass
class EndpointSummary:
    """Aggregated client-side view of one endpoint."""

    endpoint: str
    requests: int
    errors: int
    transport_errors: int
    throughput_rps: float
    mean_ms: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    max_ms: float

    @property
    def error_rate(self) -> float:
        total = self.requests + self.transport_errors
        if total == 0:
            return float("nan")
        return (self.errors + self.transport_errors) / total

    def to_dict(self) -> dict:
        return {
            "endpoint": self.endpoint,
            "requests": self.requests,
            "errors": self.errors,
            "transport_errors": self.transport_errors,
            "error_rate": self.error_rate,
            "throughput_rps": self.throughput_rps,
            "latency_ms": {
                "mean": self.mean_ms,
                "p50": self.p50_ms,
                "p95": self.p95_ms,
                "p99": self.p99_ms,
                "max": self.max_ms,
            },
        }


@dataclass
class ParityCheck:
    """Client-observed vs server-counted requests for one endpoint.

    ``server`` is the delta of the server's own ``/metrics`` request
    counter across the measured window.  Any difference means requests
    were lost between the client and the server's accounting — the
    harness treats that as a hard failure, never a footnote.
    """

    endpoint: str
    client: int
    server: int

    @property
    def ok(self) -> bool:
        return self.client == self.server

    def to_dict(self) -> dict:
        return {
            "endpoint": self.endpoint,
            "client": self.client,
            "server": self.server,
            "ok": self.ok,
        }


def summarise(
    outcomes: list[RequestOutcome], wall_seconds: float
) -> dict[str, EndpointSummary]:
    """Fold raw outcomes into per-endpoint summaries."""
    by_endpoint: dict[str, list[RequestOutcome]] = {}
    for outcome in outcomes:
        by_endpoint.setdefault(outcome.endpoint, []).append(outcome)
    summaries: dict[str, EndpointSummary] = {}
    for endpoint in sorted(by_endpoint):
        records = by_endpoint[endpoint]
        completed = [r for r in records if not r.transport_error]
        latencies = sorted(r.latency for r in completed)
        n = len(latencies)
        summaries[endpoint] = EndpointSummary(
            endpoint=endpoint,
            requests=n,
            errors=sum(1 for r in completed if not r.ok),
            transport_errors=len(records) - n,
            throughput_rps=(
                n / wall_seconds if wall_seconds > 0 else float("nan")
            ),
            mean_ms=(
                1000.0 * sum(latencies) / n if n else float("nan")
            ),
            p50_ms=1000.0 * nearest_rank(latencies, 50),
            p95_ms=1000.0 * nearest_rank(latencies, 95),
            p99_ms=1000.0 * nearest_rank(latencies, 99),
            max_ms=1000.0 * latencies[-1] if n else float("nan"),
        )
    return summaries


@dataclass
class LoadTestReport:
    """Everything one measured load-test window produced."""

    profile: str
    arrival: str
    seed: int
    clients: int
    wall_seconds: float
    endpoints: dict[str, EndpointSummary]
    parity: list[ParityCheck]
    n_scrapes: int
    scrape_samples: int
    slowest: list[RequestOutcome]
    warmup_requests: int = 0
    rate: float = 0.0
    lateness_p95_ms: float = 0.0
    waterfall: str | None = None
    #: The server's SLO burn-rate snapshot at the end of the run
    #: (``/metrics`` JSON ``slo`` block), when the target runs an
    #: :class:`~repro.obs.burnrate.SLOBurnEngine`.
    burnrate: dict | None = None
    notes: list[str] = field(default_factory=list)

    # -- derived -----------------------------------------------------------
    @property
    def total_requests(self) -> int:
        return sum(s.requests for s in self.endpoints.values())

    @property
    def total_errors(self) -> int:
        return sum(
            s.errors + s.transport_errors for s in self.endpoints.values()
        )

    @property
    def total_throughput_rps(self) -> float:
        if self.wall_seconds <= 0:
            return float("nan")
        return self.total_requests / self.wall_seconds

    @property
    def parity_ok(self) -> bool:
        return all(check.ok for check in self.parity)

    def to_dict(self) -> dict:
        return {
            "profile": self.profile,
            "arrival": self.arrival,
            "seed": self.seed,
            "clients": self.clients,
            "rate": self.rate,
            "wall_seconds": self.wall_seconds,
            "warmup_requests": self.warmup_requests,
            "total_requests": self.total_requests,
            "total_errors": self.total_errors,
            "total_throughput_rps": self.total_throughput_rps,
            "lateness_p95_ms": self.lateness_p95_ms,
            "endpoints": {
                name: summary.to_dict()
                for name, summary in self.endpoints.items()
            },
            "parity": [check.to_dict() for check in self.parity],
            "parity_ok": self.parity_ok,
            "scrapes": {
                "count": self.n_scrapes,
                "samples": self.scrape_samples,
            },
            "slowest": [
                {
                    "endpoint": r.endpoint,
                    "latency_ms": 1000.0 * r.latency,
                    "trace_id": r.trace_id,
                }
                for r in self.slowest
            ],
            "burnrate": self.burnrate,
            "notes": list(self.notes),
        }

    def render(self) -> str:
        """The fixed-width text artefact."""
        from repro.core.reporting import render_table

        mode = (
            f"{self.arrival} @ {self.rate:g} req/s"
            if self.arrival != "closed"
            else "closed loop"
        )
        rows = [
            [
                s.endpoint,
                s.requests,
                s.errors + s.transport_errors,
                f"{s.throughput_rps:.1f}",
                f"{s.p50_ms:.2f}",
                f"{s.p95_ms:.2f}",
                f"{s.p99_ms:.2f}",
                f"{s.max_ms:.2f}",
            ]
            for s in self.endpoints.values()
        ]
        text = render_table(
            ["endpoint", "requests", "errors", "req/s", "p50 ms",
             "p95 ms", "p99 ms", "max ms"],
            rows,
            title=(
                f"Load test: profile {self.profile}, {mode}, "
                f"{self.clients} clients, seed {self.seed}, "
                f"{self.wall_seconds:.2f}s measured"
            ),
        )
        lines = [
            text,
            f"total: {self.total_requests} requests "
            f"({self.total_throughput_rps:.1f} req/s), "
            f"{self.total_errors} errors, "
            f"{self.warmup_requests} warmup requests excluded",
        ]
        if self.arrival != "closed":
            lines.append(
                f"schedule lateness p95: {self.lateness_p95_ms:.2f} ms"
            )
        for check in self.parity:
            verdict = "OK" if check.ok else "MISMATCH (lost requests!)"
            lines.append(
                f"parity {check.endpoint}: client={check.client} "
                f"server={check.server} {verdict}"
            )
        lines.append(
            f"prometheus scrapes: {self.n_scrapes} validated "
            f"({self.scrape_samples} samples in the final exposition)"
        )
        if self.slowest:
            lines.append("slowest requests:")
            for r in self.slowest:
                trace = r.trace_id or "-"
                lines.append(
                    f"  {1000.0 * r.latency:9.2f} ms  {r.endpoint}  "
                    f"trace={trace}"
                )
        if self.burnrate and self.burnrate.get("rules"):
            lines.append("slo burn rates (server-side):")
            for rule in self.burnrate["rules"]:
                lines.append(
                    f"  {rule['slo']}/{rule['rule']} {rule['endpoint']}: "
                    f"fast={rule['fast_burn_rate']:.2f} "
                    f"slow={rule['slow_burn_rate']:.2f} "
                    f"budget_remaining={rule['budget_remaining']:.1%}"
                )
        if self.waterfall:
            lines.append("")
            lines.append(self.waterfall)
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)
