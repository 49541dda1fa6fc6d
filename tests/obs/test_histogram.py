"""The log-linear latency histogram and the exact nearest rank."""

import math

import pytest

from repro.obs.histogram import EDGES, N_BINS, LatencyHistogram, nearest_rank
from repro.serving.metrics import BUCKET_BOUNDS


class TestNearestRank:
    def test_nearest_rank(self):
        values = [float(v) for v in range(1, 11)]
        assert nearest_rank(values, 50) == 5.0
        assert nearest_rank(values, 90) == 9.0
        assert nearest_rank(values, 100) == 10.0

    def test_extremes(self):
        assert nearest_rank([1.0, 2.0, 3.0], 0) == 1.0
        assert nearest_rank([1.0, 2.0, 3.0], 100) == 3.0

    def test_single_task(self):
        assert nearest_rank([0.5], 50) == 0.5
        assert nearest_rank([0.5], 99) == 0.5

    def test_empty_is_nan(self):
        assert math.isnan(nearest_rank([], 50))


class TestLayout:
    def test_two_digit_log_linear_edges(self):
        assert len(EDGES) == 721 and N_BINS == 722
        assert EDGES[0] == 1e-6 and EDGES[1] == 1.1e-6
        assert EDGES[-1] == 100.0
        assert all(a < b <= 1.1 * a for a, b in zip(EDGES, EDGES[1:]))


class TestLatencyHistogram:
    def test_bins_allocated_on_first_write(self):
        h = LatencyHistogram()
        assert h._bins is None
        assert h.quantile(50) is None
        assert h.count_le(0.001) == 0
        h.add(0.002)
        assert h._bins.nbytes == N_BINS * 8

    def test_quantile_is_upper_edge_clamped_to_max(self):
        h = LatencyHistogram()
        h.add(0.0123)
        assert h.quantile(50) == 0.0123  # edge 0.013 clamped to max
        h.add(0.5)
        assert h.quantile(50) == 0.013
        assert h.quantile(100) == 0.5
        h.add(250.0)  # overflow bin reports the exact max
        assert h.quantile(100) == 250.0

    def test_merge_equals_observing_both(self):
        a, b, both = LatencyHistogram(), LatencyHistogram(), LatencyHistogram()
        for i, seconds in enumerate((0.0004, 0.003, 0.003, 0.07, 1.9, 120.0)):
            (a if i % 2 else b).add(seconds)
            both.add(seconds)
        a.merge(LatencyHistogram())  # merging an empty one is a no-op
        assert a.quantile(50) == 0.07  # a read before the merge
        a.merge(b)
        assert (a.count, a.max_seconds) == (both.count, both.max_seconds)
        assert a.sum_seconds == pytest.approx(both.sum_seconds)
        for q in (0, 50, 95, 100):
            assert a.quantile(q) == both.quantile(q)
        for bound in BUCKET_BOUNDS:
            assert a.count_le(bound) == both.count_le(bound)

    def test_clear_empties_the_histogram(self):
        h = LatencyHistogram()
        h.add(0.004)
        h.clear()
        assert (h.count, h.sum_seconds, h.max_seconds) == (0, 0.0, 0.0)
        assert h.quantile(50) is None
        assert h.count_le(10.0) == 0

    def test_count_le_rejects_a_value_between_edges(self):
        with pytest.raises(ValueError, match="edge"):
            LatencyHistogram().count_le(0.00105)
