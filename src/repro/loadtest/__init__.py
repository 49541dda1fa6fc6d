"""Load-generation and SLO harness for the serving stack.

The package turns "is the server fast enough?" into a regression gate:

* :mod:`repro.loadtest.arrival` — closed/open-loop arrival processes
  (fixed-rate and Poisson schedules, deterministic in the seed);
* :mod:`repro.loadtest.profiles` — weighted workload mixes lowered
  into concrete, pre-encoded request schedules;
* :mod:`repro.loadtest.runner` — the driver (``LoadTest``): warmup,
  measured window, mid-run Prometheus scrape validation, client/server
  count parity, slowest-request trace waterfalls.  Import it from its
  module: it loads ``http.client``, ``email`` and ``ssl``, which
  ``repro.obs`` (through :mod:`repro.loadtest.slo`) and so ``serve``
  would otherwise load too;
* :mod:`repro.loadtest.results` — the report model (per-endpoint
  throughput, error rate, p50/p95/p99);
* :mod:`repro.loadtest.slo` — declarative thresholds evaluated against
  a report; violations drive the CLI's exit code.
"""

from repro.loadtest.arrival import (
    ARRIVAL_KINDS,
    interarrival_times,
    start_offsets,
)
from repro.loadtest.profiles import (
    PROFILES,
    Operation,
    PlannedRequest,
    WorkloadProfile,
    build_schedule,
    get_profile,
)
from repro.loadtest.results import (
    EndpointSummary,
    LoadTestReport,
    ParityCheck,
    RequestOutcome,
    summarise,
)
from repro.loadtest.slo import SLORule, SLOSpec, SLOViolation

__all__ = [
    "ARRIVAL_KINDS",
    "interarrival_times",
    "start_offsets",
    "PROFILES",
    "Operation",
    "PlannedRequest",
    "WorkloadProfile",
    "build_schedule",
    "get_profile",
    "EndpointSummary",
    "LoadTestReport",
    "ParityCheck",
    "RequestOutcome",
    "summarise",
    "SLORule",
    "SLOSpec",
    "SLOViolation",
]
