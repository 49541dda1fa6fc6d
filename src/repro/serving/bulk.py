"""Request rows → a typed DataTable.

No scoring path builds this table: the engine encodes request rows
straight into the compiled plan's arrays (:mod:`repro.serving.encoder`).
:func:`build_request_table` stays as the reference that the encoder's
parity tests score through ``scorer.score``, and because perfbench
times it by import path.
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
