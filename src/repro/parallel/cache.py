"""Memoised CP-k threshold dataset construction.

``run_full_study`` sweeps the same crash-only table with several model
families (trees, naive Bayes, optionally M5), and each family used to
call ``build_threshold_dataset`` afresh at every threshold.  The
derivation is pure — the CP-k dataset is a function of the source
table and the threshold alone — so one build per ``(table, threshold)``
can serve every family.  (The build itself is now a vectorised kernel,
but at paper scale it still costs a table copy per threshold; the
cache keeps the sweep's working set at one dataset per threshold.)

Identity model: a key is ``(id(table), threshold)`` and the cache holds
a strong reference to each source table, so a table's ``id`` cannot be
recycled while its entries are alive.  A *different* table object —
even one with equal contents — is a different key; callers that want
sharing must pass the same object, which is exactly how the study
threads its instance tables through a run.  The cache has no bound:
a study run holds one dataset per threshold it sweeps.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.obs.trace import span as obs_span

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.thresholds import ThresholdDataset
    from repro.datatable import DataTable

__all__ = ["ThresholdDatasetCache"]


class ThresholdDatasetCache:
    """Memoises ``build_threshold_dataset`` per ``(table, threshold)``."""

    def __init__(self) -> None:
        self._entries: dict[tuple[int, int], "ThresholdDataset"] = {}
        self._tables: dict[int, "DataTable"] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, table: "DataTable", threshold: int) -> "ThresholdDataset":
        """The CP-``threshold`` dataset of ``table``, built at most once."""
        from repro.core.thresholds import build_threshold_dataset

        key = (id(table), int(threshold))
        entry = self._entries.get(key)
        if entry is not None:
            self.hits += 1
            with obs_span(
                "cache.threshold_dataset", threshold=int(threshold), hit=True
            ):
                return entry
        self.misses += 1
        with obs_span(
            "cache.threshold_dataset", threshold=int(threshold), hit=False
        ):
            dataset = build_threshold_dataset(table, threshold)
        self._entries[key] = dataset
        self._tables[key[0]] = table
        return dataset

    def contains(self, table: "DataTable", threshold: int) -> bool:
        """True if ``get`` would hit (without touching the counters)."""
        return (id(table), int(threshold)) in self._entries

    def clear(self) -> None:
        """Drop all entries and reset the hit/miss counters."""
        self._entries.clear()
        self._tables.clear()
        self.hits = 0
        self.misses = 0
