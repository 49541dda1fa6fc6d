"""Request rows → a typed DataTable for one scoring pass.

The engine scores each micro-batch as one
:meth:`~repro.core.deployment.CrashPronenessScorer.score` call over a
:class:`~repro.datatable.DataTable`; :func:`build_request_table` builds
that table from validated request rows.
"""

from __future__ import annotations

from repro.datatable import CategoricalColumn, DataTable, NumericColumn

__all__ = ["build_request_table"]


def build_request_table(rows: list[dict], schema: dict[str, dict]) -> DataTable:
    """Typed columns straight from the scorer schema — no CSV-style
    inference, so an all-missing numeric column stays numeric."""
    columns = []
    for name, spec in schema.items():
        values = [row[name] for row in rows]
        if spec["kind"] == "numeric":
            columns.append(NumericColumn(name, values))
        else:
            # No explicit vocabulary: unseen labels are legal here and
            # get aligned to the training vocabulary inside the model.
            columns.append(CategoricalColumn(name, values))
    return DataTable(columns)
