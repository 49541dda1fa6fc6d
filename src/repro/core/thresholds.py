"""Crash-proneness threshold datasets (CP-k construction, Table 1).

"The series of crash-proneness datasets was developed with the target
variable for each set derived from a progressively higher crash count
threshold.  Crash prone 2, for example, compares 1km road segment
attributes from roads, with 0, 1 or 2 crashes (4 year) as the non-crash
prone road segments, roads with 3 crashes and above as the crash prone
road segments."

A :class:`ThresholdDataset` is the modelling table with a binary
``crash_prone`` target where *positive ⇔ segment crash count > k*.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datatable import CategoricalColumn, DataTable
from repro.exceptions import EmptyTableError, SchemaError
from repro.roads.attributes import modelling_schema

__all__ = [
    "CRASH_COUNT_COLUMN",
    "TARGET_COLUMN",
    "NEGATIVE_LABEL",
    "POSITIVE_LABEL",
    "PHASE1_THRESHOLDS",
    "PHASE2_THRESHOLDS",
    "ThresholdDataset",
    "build_threshold_dataset",
    "build_threshold_series",
    "table1_rows",
    "target_vector",
]

CRASH_COUNT_COLUMN = "segment_crash_count"
TARGET_COLUMN = "crash_prone"
NEGATIVE_LABEL = "non_crash_prone"
POSITIVE_LABEL = "crash_prone"

#: Phase 1 sweeps the crash/no-crash dataset from the crash/no-crash
#: boundary upward; phase 2 (crash-only data) starts at 2.
PHASE1_THRESHOLDS = (0, 2, 4, 8, 16, 32, 64)
PHASE2_THRESHOLDS = (2, 4, 8, 16, 32, 64)


@dataclass(frozen=True)
class ThresholdDataset:
    """One CP-k dataset: table + derived binary target.

    Attributes
    ----------
    threshold:
        k; segments with count > k are the crash-prone class.
    table:
        Source rows plus the ``crash_prone`` categorical target and a
        modelling schema marking it as TARGET.
    n_non_prone / n_prone:
        Class instance counts (the columns of Table 1).
    """

    threshold: int
    table: DataTable
    n_non_prone: int
    n_prone: int

    @property
    def name(self) -> str:
        return f"CP-{self.threshold}"

    @property
    def total(self) -> int:
        return self.n_non_prone + self.n_prone

    @property
    def imbalance_ratio(self) -> float:
        small = min(self.n_non_prone, self.n_prone)
        large = max(self.n_non_prone, self.n_prone)
        return float("inf") if small == 0 else large / small

    def target_vector(self) -> np.ndarray:
        """0/1 target aligned with the table rows."""
        return target_vector(self.table)


def target_vector(table: DataTable) -> np.ndarray:
    """0/1 ``crash_prone`` target of a table that carries it: a CP-k
    dataset's table, or any row subset of one such as a split."""
    col = table.categorical(TARGET_COLUMN)
    return (col.codes == col.labels.index(POSITIVE_LABEL)).astype(np.int64)


def build_threshold_dataset(
    table: DataTable, threshold: int
) -> ThresholdDataset:
    """Derive the CP-``threshold`` dataset from an instance table.

    The table must carry ``segment_crash_count``; every row with count
    strictly greater than the threshold becomes ``crash_prone``.
    """
    if threshold < 0:
        raise SchemaError(f"threshold must be >= 0, got {threshold}")
    if table.n_rows == 0:
        raise EmptyTableError("cannot build a threshold dataset of 0 rows")
    counts = table.numeric(CRASH_COUNT_COLUMN)
    if np.isnan(counts).any():
        raise SchemaError(
            f"{CRASH_COUNT_COLUMN!r} contains missing values; counts must "
            "be complete to derive targets"
        )
    positive = counts > threshold
    # Vectorised target construction: the label order (NEGATIVE_LABEL,
    # POSITIVE_LABEL) makes the boolean flag itself the code.
    target = CategoricalColumn.from_codes(
        TARGET_COLUMN,
        positive.astype(np.int64),
        (NEGATIVE_LABEL, POSITIVE_LABEL),
    )
    with_target = table.with_column(target)
    schema = modelling_schema(TARGET_COLUMN)
    # Crash-level attribute columns may be absent (phase-1 combined
    # table); restrict the schema to columns that exist.
    schema = schema.subset(
        [s.name for s in schema if s.name in with_target]
    )
    return ThresholdDataset(
        threshold=threshold,
        table=with_target.with_schema(schema),
        n_non_prone=int((~positive).sum()),
        n_prone=int(positive.sum()),
    )


def build_threshold_series(
    table: DataTable, thresholds: tuple[int, ...]
) -> list[ThresholdDataset]:
    """CP-k datasets for every threshold, ascending."""
    return [
        build_threshold_dataset(table, k) for k in sorted(thresholds)
    ]


def table1_rows(
    table: DataTable, thresholds: tuple[int, ...] = PHASE2_THRESHOLDS
) -> list[dict]:
    """Rows of the paper's Table 1 for the given instance table."""
    rows = []
    for dataset in build_threshold_series(table, thresholds):
        rows.append(
            {
                "target_label": dataset.name,
                "threshold": dataset.threshold,
                "non_crash_prone_instances": dataset.n_non_prone,
                "crash_prone_instances": dataset.n_prone,
                "total_instance_count": dataset.total,
            }
        )
    return rows
