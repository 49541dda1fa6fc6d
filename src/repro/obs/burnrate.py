"""SLO burn-rate engine — rolling error-budget accounting per endpoint.

A load test evaluates :class:`~repro.loadtest.slo.SLOSpec` thresholds
*after* the run; a live server wants to know **while serving** how fast
each SLO's error budget is being consumed.  This module reuses the very
same JSON specs (``benchmarks/slo/*.json``) and re-reads each
event-classifiable rule as an availability objective in the SRE
burn-rate formulation:

    burn_rate = (bad events / total events in window) / error budget

A burn rate of 1.0 means the budget is being spent exactly as fast as
the SLO allows; 10 means ten times too fast.  Two windows per tracked
rule — **fast** (last minute, pages quickly on incidents) and **slow**
(last hour, catches smoulder) — follow the standard multi-window
multi-burn-rate alerting shape.

Rule keys map to (event classifier, budget) as follows:

``max_error_rate L``
    bad = request errored; budget = ``L`` floored at
    :data:`BUDGET_FLOOR` — a zero-error SLO would otherwise make every
    burn rate infinite, so "0.0" is read as "at most one bad request
    per thousand" for burn accounting (the after-the-run gate still
    enforces the literal zero).
``max_p99_ms L``
    bad = request errored or slower than ``L`` ms; budget = 1% (the
    p99 objective tolerates 1% of requests over the limit).
``max_p95_ms L``
    same classifier; budget = 5%.
``max_p50_ms L``
    same classifier; budget = 50%.

``max_mean_ms`` and ``min_throughput_rps`` have no per-event
good/bad reading, so they stay load-test-gate-only and are skipped
here (visible as ``skipped_rules`` in :meth:`SLOBurnEngine.snapshot`).

Budget remaining is accounted over the slow window:
``1 - slow_burn_rate`` clamped to [0, 1], i.e. the fraction of the
hourly budget still unspent — 1.0 when idle.
"""

from __future__ import annotations

import time
from fnmatch import fnmatchcase
from pathlib import Path
from threading import Lock
from typing import Callable, Iterable

from repro.loadtest.slo import SLORule, SLOSpec
from repro.obs.window import CountRing

__all__ = ["SLOBurnEngine", "BUDGET_FLOOR", "FAST_WINDOW", "SLOW_WINDOW"]

#: Minimum error budget used for burn-rate math.  Keeps a literal
#: ``max_error_rate: 0.0`` rule finite (see module docstring).
BUDGET_FLOOR = 0.001

#: Fast burn window: 60 buckets × 1 s = the last minute.
FAST_WINDOW = (1.0, 60)

#: Slow burn window: 60 buckets × 60 s = the last hour.
SLOW_WINDOW = (60.0, 60)

#: Latency rule key → tolerated fraction of slow requests (its budget).
_LATENCY_BUDGETS = {
    "max_p50_ms": 0.50,
    "max_p95_ms": 0.05,
    "max_p99_ms": 0.01,
}


class _Tracker:
    """Fast+slow rolling counts for one (spec, rule key, endpoint)."""

    __slots__ = (
        "slo", "rule", "pattern", "endpoint", "budget",
        "threshold_seconds", "fast", "slow",
    )

    def __init__(
        self,
        slo: str,
        rule: str,
        pattern: str,
        endpoint: str,
        budget: float,
        threshold_seconds: float | None,
        clock: Callable[[], float],
    ):
        self.slo = slo
        self.rule = rule
        self.pattern = pattern
        self.endpoint = endpoint
        self.budget = budget
        self.threshold_seconds = threshold_seconds
        self.fast = CountRing(*FAST_WINDOW, clock=clock)
        self.slow = CountRing(*SLOW_WINDOW, clock=clock)

    def observe(self, seconds: float, error: bool) -> None:
        bad = error or (
            self.threshold_seconds is not None
            and seconds > self.threshold_seconds
        )
        self.fast.observe(bad)
        self.slow.observe(bad)

    def snapshot(self) -> dict:
        fast_total, fast_bad = self.fast.counts()
        slow_total, slow_bad = self.slow.counts()
        fast_burn = (fast_bad / fast_total) / self.budget if fast_total else 0.0
        slow_burn = (slow_bad / slow_total) / self.budget if slow_total else 0.0
        return {
            "slo": self.slo,
            "rule": self.rule,
            "pattern": self.pattern,
            "endpoint": self.endpoint,
            "budget": self.budget,
            "fast_burn_rate": fast_burn,
            "slow_burn_rate": slow_burn,
            "budget_remaining": max(0.0, min(1.0, 1.0 - slow_burn)),
            "fast": {"total": fast_total, "bad": fast_bad},
            "slow": {"total": slow_total, "bad": slow_bad},
        }


class _RuleTemplate:
    """One burnable threshold from a spec, before endpoint binding."""

    __slots__ = ("slo", "rule", "pattern", "budget", "threshold_seconds")

    def __init__(
        self,
        slo: str,
        rule: str,
        pattern: str,
        budget: float,
        threshold_seconds: float | None,
    ):
        self.slo = slo
        self.rule = rule
        self.pattern = pattern
        self.budget = budget
        self.threshold_seconds = threshold_seconds


def _templates_from_rule(slo: str, rule: SLORule) -> Iterable[_RuleTemplate]:
    for key, limit in rule.limits:
        if key == "max_error_rate":
            yield _RuleTemplate(
                slo=slo,
                rule=key,
                pattern=rule.endpoint,
                budget=max(limit, BUDGET_FLOOR),
                threshold_seconds=None,
            )
        elif key in _LATENCY_BUDGETS:
            yield _RuleTemplate(
                slo=slo,
                rule=key,
                pattern=rule.endpoint,
                budget=_LATENCY_BUDGETS[key],
                threshold_seconds=limit / 1000.0,
            )
        # max_mean_ms / min_throughput_rps: no per-event reading.


class SLOBurnEngine:
    """Live burn-rate accounting for one or more SLO specs.

    Feed it every request (:meth:`observe`); read gauges out of
    :meth:`snapshot`.  Endpoint labels are fixed-cardinality by
    construction (the serving layer normalises them before calling in),
    so the tracker map is bounded by
    ``len(burnable rules) × len(endpoint labels)``.
    """

    def __init__(
        self,
        specs: Iterable[SLOSpec],
        clock: Callable[[], float] = time.monotonic,
    ):
        self._clock = clock
        self._templates: list[_RuleTemplate] = []
        self._skipped: list[dict] = []
        self.spec_names: list[str] = []
        for spec in specs:
            self.spec_names.append(spec.name)
            for rule in spec.rules:
                burnable = list(_templates_from_rule(spec.name, rule))
                self._templates.extend(burnable)
                burnable_keys = {t.rule for t in burnable}
                for key, _ in rule.limits:
                    if key not in burnable_keys:
                        self._skipped.append(
                            {
                                "slo": spec.name,
                                "rule": key,
                                "pattern": rule.endpoint,
                            }
                        )
        self._lock = Lock()
        self._trackers: dict[tuple[str, str, str, str], _Tracker] = {}
        self._by_endpoint: dict[str, tuple[_Tracker, ...]] = {}

    @classmethod
    def from_paths(
        cls,
        paths: Iterable[str | Path],
        clock: Callable[[], float] = time.monotonic,
    ) -> "SLOBurnEngine":
        return cls([SLOSpec.load(p) for p in paths], clock=clock)

    def _trackers_for(self, endpoint: str) -> tuple[_Tracker, ...]:
        with self._lock:
            trackers = self._by_endpoint.get(endpoint)
            if trackers is None:
                bound = []
                for template in self._templates:
                    if fnmatchcase(endpoint, template.pattern):
                        key = (
                            template.slo, template.rule,
                            template.pattern, endpoint,
                        )
                        tracker = self._trackers.get(key)
                        if tracker is None:
                            tracker = self._trackers[key] = _Tracker(
                                slo=template.slo,
                                rule=template.rule,
                                pattern=template.pattern,
                                endpoint=endpoint,
                                budget=template.budget,
                                threshold_seconds=template.threshold_seconds,
                                clock=self._clock,
                            )
                        bound.append(tracker)
                trackers = self._by_endpoint[endpoint] = tuple(bound)
            return trackers

    def observe(
        self, endpoint: str, seconds: float, error: bool = False
    ) -> None:
        """Account one request against every rule matching ``endpoint``."""
        for tracker in self._trackers_for(endpoint):
            tracker.observe(seconds, error)

    def snapshot(self) -> dict:
        """The burn state as one JSON-ready dict (stable ordering)."""
        with self._lock:
            trackers = sorted(
                self._trackers.values(),
                key=lambda t: (t.slo, t.rule, t.endpoint),
            )
        return {
            "specs": list(self.spec_names),
            "rules": [t.snapshot() for t in trackers],
            "skipped_rules": list(self._skipped),
        }
