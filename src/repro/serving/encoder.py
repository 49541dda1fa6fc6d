"""Request rows → cache keys → a compiled plan's input arrays.

:class:`RowEncoder` is built once per loaded scorer from its
``input_schema()``.  One pass over a request's rows checks every value
and encodes each row as one tuple in schema order, its only encoded
form: numbers as float (``None`` and every NaN become one shared NaN
object), labels as LUT-shifted training-vocabulary codes (0 = missing,
``1..n_levels`` = the vocabulary, ``n_levels + 1`` = unseen).  The
tuple is the row's result-cache key, so two rows that share a key
route identically through the tree, and :meth:`RowEncoder.plan_rows`
lays the keys a pass evaluates out as the block :meth:`TreePlan.evaluate
<repro.mining.tree.compile.TreePlan.evaluate>` reads.

The encoding reproduces the table path exactly: a
:class:`~repro.datatable.CategoricalColumn` stores labels as numpy
strings, which drop trailing NUL characters, and vocabulary alignment
maps every label outside the training vocabulary to the one unseen
code.  ``tests/serving/test_encoder.py`` checks the probabilities
bit for bit against ``scorer.score`` on a table of the same rows built
by :mod:`repro.serving.bulk`.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ServingError
from repro.mining.tree.compile import PlanInput, PlanRows, plan_inputs

__all__ = ["RowEncoder"]

#: The one NaN every missing number encodes to.  NaN != NaN, but tuple
#: and dict comparisons check identity first and a NaN hashes by
#: identity, so keys holding this one object hash and compare equal,
#: where a request's own NaN (``float("nan")``, ``-nan``, a payload
#: NaN) would make a key that no lookup could hit.  Every NaN routes
#: the same way, so the plan cannot tell the difference.
_NAN = float("nan")


class RowEncoder:
    """Validates request rows and encodes each as its key.

    ``schema`` is the scorer's ``input_schema()``; ``name`` labels the
    scorer in error messages.  Error texts and row indices are the
    serving contract: the first bad row wins, a row that is not an
    object or lacks columns is reported before any of its values, and
    values are checked in schema order.
    """

    def __init__(self, schema: dict[str, dict], name: str = "scorer"):
        self.name = name
        self.names = list(schema)
        self._required = frozenset(self.names)
        vocabularies = {
            column: tuple(spec["levels"])
            for column, spec in schema.items()
            if spec["kind"] != "numeric"
        }
        #: The plan inputs this layout serves, in model order.
        self.inputs: tuple[PlanInput, ...] = plan_inputs(
            self.names, vocabularies
        )
        # Per column in schema order: None for a number, else the
        # label → shifted-code lookup and the unseen code.
        self._columns: list[tuple[str, dict[str, int] | None, int]] = []
        for column in self.names:
            levels = vocabularies.get(column)
            if levels is None:
                self._columns.append((column, None, 0))
            else:
                lookup = {label: code + 1 for code, label in enumerate(levels)}
                self._columns.append((column, lookup, len(levels) + 1))
        # Key positions of the numeric and the nominal plan inputs.
        self._numeric = np.flatnonzero([c[1] is None for c in self._columns])
        self._nominal = np.flatnonzero([c[1] is not None for c in self._columns])

    def encode(self, rows: list | tuple) -> list[tuple]:
        """Validate ``rows`` and return their keys; raise
        :class:`ServingError` naming the first bad row."""
        return [self.key(row, index) for index, row in enumerate(rows)]

    def plan_rows(self, keys: list[tuple]) -> PlanRows:
        """``keys`` (at least one) as a :class:`PlanRows` block."""
        block = np.array(keys, dtype=np.float64).T
        return PlanRows(
            block.take(self._numeric, axis=0),
            block.take(self._nominal, axis=0).astype(np.int64),
        )

    def key(self, row: object, index: int = 0) -> tuple:
        """Validate one row and return its key."""
        if not isinstance(row, dict):
            raise ServingError(
                f"row {index} must be an object of column values, "
                f"got {type(row).__name__}"
            )
        if not self._required <= row.keys():
            missing = [n for n in self.names if n not in row]
            raise ServingError(
                f"row {index} is missing input column(s) "
                f"{', '.join(repr(m) for m in missing)}; scorer "
                f"{self.name!r} expects {self.names}"
            )
        key: list = []
        for column, lookup, unseen in self._columns:
            value = row[column]
            if lookup is None:
                if value is None:
                    number = _NAN
                elif type(value) is float:
                    number = value
                elif isinstance(value, bool) or not isinstance(
                    value, (int, float)
                ):
                    raise ServingError(
                        f"row {index} column {column!r} expects a number, "
                        f"got {value!r}"
                    )
                else:
                    try:
                        number = float(value)
                    except OverflowError:
                        raise ServingError(
                            f"row {index} column {column!r} expects a "
                            f"number, got an integer outside the float64 "
                            f"range"
                        ) from None
                key.append(number if number == number else _NAN)
            else:
                if value is None:
                    code = 0
                elif isinstance(value, str):
                    code = lookup.get(value, 0)
                    if not code:
                        code = lookup.get(value.rstrip("\x00"), unseen)
                else:
                    raise ServingError(
                        f"row {index} column {column!r} expects a label, "
                        f"got {value!r}"
                    )
                key.append(code)
        return tuple(key)
