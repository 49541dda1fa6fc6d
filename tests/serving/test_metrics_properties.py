"""Property-based tests: histogram percentiles and arrival schedules.

Hypothesis drives :class:`RequestMetrics` with arbitrary latency
streams and checks the invariants the load-test harness leans on:

* cumulative and windowed p50/p95/p99 never fall below the exact
  nearest-rank value and are less than 10% above it (and never above
  the max) whenever that value is at least 1 µs;
* at any count, percentiles are monotone across quantiles and bounded
  by the observed min/max;
* the exact counters (count / mean / max) never degrade;
* the Prometheus buckets equal the per-bound ``seconds <= bound`` loop
  the metrics layer used before the histogram, at and one ulp either
  side of every bound.

Plus the open-loop arrival properties (interarrival gaps are
non-negative, schedules deterministic in the seed, offsets monotone)
and the windowed-telemetry containment property: whatever the clock
does, a rolling window never reports more than the cumulative
counters.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.loadtest import interarrival_times, start_offsets
from repro.obs.histogram import nearest_rank
from repro.serving.metrics import BUCKET_BOUNDS, RequestMetrics

latencies = st.floats(
    min_value=0.0,
    max_value=60.0,
    allow_nan=False,
    allow_infinity=False,
)

#: 0.0 plus every bucket bound and its float neighbours.
bound_edges = st.sampled_from(
    [0.0]
    + [
        value
        for bound in BUCKET_BOUNDS
        for value in (
            math.nextafter(bound, 0.0),
            bound,
            math.nextafter(bound, math.inf),
        )
    ]
)


def _reference_buckets(samples):
    """Cumulative ``le`` counts by the direct per-bound loop."""
    counts = [0] * len(BUCKET_BOUNDS)
    for seconds in samples:
        for i, bound in enumerate(BUCKET_BOUNDS):
            if seconds <= bound:
                counts[i] += 1
                break
    cumulative, out = 0, []
    for bound, n in zip(BUCKET_BOUNDS, counts):
        cumulative += n
        out.append((bound, cumulative))
    return out


class TestHistogramPercentiles:
    @given(
        samples=st.lists(latencies, min_size=1, max_size=1024),
        q=st.sampled_from([50, 95, 99]),
    )
    @settings(max_examples=60, deadline=None)
    def test_cumulative_and_windowed_within_error_bound(self, samples, q):
        metrics = RequestMetrics(clock=lambda: 1000.0)
        for seconds in samples:
            metrics.observe("e", seconds)
        exact = nearest_rank(sorted(samples), q)
        top = max(samples)
        estimates = [metrics.summary()["e"][f"p{q}"]] + [
            window[f"p{q}"]
            for window in metrics.windowed_summary()["e"].values()
        ]
        for estimate in estimates:
            assert estimate <= top
            if exact >= 1e-6:
                assert exact <= estimate <= min(top, 1.1 * exact)

    @given(samples=st.lists(latencies, min_size=1, max_size=1024))
    @settings(max_examples=40, deadline=None)
    def test_monotone_and_bounded_for_any_count(self, samples):
        metrics = RequestMetrics()
        for seconds in samples:
            metrics.observe("e", seconds)
        summary = metrics.summary()["e"]
        p50, p95, p99 = summary["p50"], summary["p95"], summary["p99"]
        assert p50 <= p95 <= p99
        assert min(samples) <= p50 and p99 <= max(samples)

    @given(samples=st.lists(latencies, min_size=1, max_size=1024))
    @settings(max_examples=40, deadline=None)
    def test_exact_counters_never_degrade(self, samples):
        metrics = RequestMetrics()
        for seconds in samples:
            metrics.observe("e", seconds)
        summary = metrics.summary()["e"]
        assert summary["count"] == len(samples)
        assert summary["max"] == max(samples)
        assert math.isclose(
            summary["mean"],
            sum(samples) / len(samples),
            rel_tol=1e-9,
            abs_tol=1e-12,
        )


class TestPrometheusParity:
    @given(
        samples=st.lists(
            st.one_of(latencies, bound_edges), min_size=1, max_size=200
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_buckets_match_reference_loop(self, samples):
        metrics = RequestMetrics()
        for seconds in samples:
            metrics.observe("e", seconds)
        snapshot = metrics.prometheus_snapshot()["e"]
        assert snapshot["buckets"] == _reference_buckets(samples)
        assert snapshot["count"] == len(samples)


class TestWindowedContainment:
    @given(
        events=st.lists(
            st.tuples(
                latencies,
                st.booleans(),  # error flag
                st.floats(  # clock advance after the observation
                    min_value=0.0,
                    max_value=7200.0,
                    allow_nan=False,
                    allow_infinity=False,
                ),
            ),
            min_size=0,
            max_size=80,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_window_counts_never_exceed_cumulative(self, events):
        now = [100_000.0]
        metrics = RequestMetrics(clock=lambda: now[0])
        for seconds, error, advance in events:
            metrics.observe("e", seconds, error=error)
            now[0] += advance
        cumulative = metrics.summary().get(
            "e", {"count": 0, "errors": 0, "max": 0.0}
        )
        for window in metrics.windowed_summary().get("e", {}).values():
            # A rolling window can only ever see a subset of history.
            assert window["count"] <= cumulative["count"]
            assert window["errors"] <= cumulative["errors"]
            if window["max"] is not None:
                assert window["max"] <= cumulative["max"]
            if window["count"]:
                assert window["p50"] <= window["p95"] <= window["p99"]
                assert window["p99"] <= window["max"]


class TestArrivalProperties:
    @given(
        kind=st.sampled_from(["fixed", "poisson"]),
        rate=st.floats(min_value=0.5, max_value=5000.0),
        n=st.integers(min_value=1, max_value=300),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_gaps_nonnegative_and_deterministic(self, kind, rate, n, seed):
        a = interarrival_times(kind, rate, n, seed)
        b = interarrival_times(kind, rate, n, seed)
        assert (a >= 0).all()
        assert (a == b).all()

    @given(
        kind=st.sampled_from(["fixed", "poisson"]),
        rate=st.floats(min_value=0.5, max_value=5000.0),
        n=st.integers(min_value=1, max_value=300),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_offsets_start_at_zero_and_are_monotone(
        self, kind, rate, n, seed
    ):
        offsets = start_offsets(kind, rate, n, seed)
        assert offsets[0] == 0.0
        assert all(
            offsets[i] <= offsets[i + 1] for i in range(len(offsets) - 1)
        )
