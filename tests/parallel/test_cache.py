"""Property tests of the threshold dataset cache."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.thresholds import (
    CRASH_COUNT_COLUMN,
    build_threshold_dataset,
)
from repro.datatable import DataTable, NumericColumn
from repro.parallel import ThresholdDatasetCache


def count_table(counts) -> DataTable:
    return DataTable(
        [
            NumericColumn(
                CRASH_COUNT_COLUMN, [float(c) for c in counts]
            ),
            NumericColumn("aadt", [100.0 + c for c in counts]),
        ]
    )


counts_strategy = st.lists(
    st.integers(min_value=0, max_value=80), min_size=1, max_size=40
)
threshold_strategy = st.integers(min_value=0, max_value=100)


class TestCacheProperties:
    @given(counts=counts_strategy, threshold=threshold_strategy)
    @settings(max_examples=50, deadline=None)
    def test_hit_after_first_build(self, counts, threshold):
        cache = ThresholdDatasetCache()
        table = count_table(counts)
        first = cache.get(table, threshold)
        assert (cache.hits, cache.misses) == (0, 1)
        second = cache.get(table, threshold)
        assert second is first  # memoised, not rebuilt
        assert (cache.hits, cache.misses) == (1, 1)

    @given(counts=counts_strategy, threshold=threshold_strategy)
    @settings(max_examples=50, deadline=None)
    def test_cached_result_matches_direct_build(self, counts, threshold):
        cache = ThresholdDatasetCache()
        table = count_table(counts)
        cached = cache.get(table, threshold)
        direct = build_threshold_dataset(table, threshold)
        assert cached.threshold == direct.threshold
        assert cached.n_prone == direct.n_prone
        assert cached.n_non_prone == direct.n_non_prone
        assert np.array_equal(
            cached.target_vector(), direct.target_vector()
        )

    @given(
        counts=counts_strategy,
        thresholds=st.lists(
            threshold_strategy, min_size=2, max_size=6, unique=True
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_distinct_thresholds_are_distinct_keys(
        self, counts, thresholds
    ):
        cache = ThresholdDatasetCache()
        table = count_table(counts)
        for threshold in thresholds:
            cache.get(table, threshold)
        assert cache.misses == len(thresholds)
        assert cache.hits == 0
        assert len(cache) == len(thresholds)

    @given(counts=counts_strategy, threshold=threshold_strategy)
    @settings(max_examples=50, deadline=None)
    def test_different_table_object_invalidates(self, counts, threshold):
        cache = ThresholdDatasetCache()
        first = cache.get(count_table(counts), threshold)
        # Equal contents but a different object: a different key.
        second = cache.get(count_table(counts), threshold)
        assert second is not first
        assert cache.misses == 2
        assert cache.hits == 0


class TestCacheApi:
    def test_contains_does_not_touch_counters(self):
        cache = ThresholdDatasetCache()
        table = count_table([0, 1, 5])
        assert not cache.contains(table, 2)
        cache.get(table, 2)
        assert cache.contains(table, 2)
        assert not cache.contains(table, 3)
        assert (cache.hits, cache.misses) == (0, 1)

    def test_clear_resets_entries_and_counters(self):
        cache = ThresholdDatasetCache()
        table = count_table([0, 1, 5])
        cache.get(table, 2)
        cache.get(table, 2)
        cache.clear()
        assert len(cache) == 0
        assert (cache.hits, cache.misses) == (0, 0)
        cache.get(table, 2)
        assert cache.misses == 1

    def test_id_reuse_is_safe_while_cache_alive(self):
        """The cache pins source tables, so a dead table's id cannot be
        recycled into a false hit."""
        cache = ThresholdDatasetCache()
        for _ in range(10):
            # Without the pin, id(count_table(...)) could collide with a
            # previously collected table and return its stale dataset.
            dataset = cache.get(count_table([3, 9]), 4)
            assert dataset.n_prone == 1
        assert cache.hits == 0


class TestBoundedCache:
    """The cache has no bound: it keeps every dataset it builds."""

    def test_unbounded_by_default(self):
        cache = ThresholdDatasetCache()
        table = count_table(list(range(30)))
        for k in range(20):
            cache.get(table, k)
        assert len(cache) == 20
