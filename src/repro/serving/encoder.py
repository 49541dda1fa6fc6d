"""Request rows → a compiled plan's input arrays, validated on the way.

:class:`RowEncoder` is built once per loaded scorer from its
``input_schema()``.  One pass over a request's rows checks every value
and writes it in the layout :meth:`TreePlan.evaluate
<repro.mining.tree.compile.TreePlan.evaluate>` reads: numbers as
float64 (``None`` becomes NaN), labels as LUT-shifted
training-vocabulary codes (0 = missing, ``1..n_levels`` = the
vocabulary, ``n_levels + 1`` = unseen).  Each row's cache key is built
from the same encoded values, so two rows that share a key route
identically through the tree.

The encoding reproduces the table path exactly: a
:class:`~repro.datatable.CategoricalColumn` stores labels as numpy
strings, which drop trailing NUL characters, and vocabulary alignment
maps every label outside the training vocabulary to the one unseen
code.  ``tests/serving/test_encoder.py`` checks the probabilities
bit for bit against ``scorer.score`` on a
:func:`~repro.serving.bulk.build_request_table` table.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ServingError
from repro.mining.tree.compile import PlanInput, PlanRows, plan_inputs

__all__ = ["EncodedRows", "RowEncoder", "join"]

#: Stand-in for NaN in cache keys.  ``float("nan")`` is unusable as a
#: dict key component: NaN != NaN, so every lookup missed and every
#: miss inserted another never-hittable entry.  The sentinel restores
#: normal hashing while staying distinct from every real value.
_NAN_KEY = "__nan__"

_NAN = float("nan")


class EncodedRows:
    """Validated request rows in encoded form.

    Per row: ``numbers`` (its numeric inputs in plan order, NaN for
    missing), ``codes`` (its LUT-shifted nominal codes in plan order)
    and ``keys`` (its cache key).  The plan-layout block is built by
    :meth:`plan_rows` only for rows a pass evaluates, so a request the
    result cache answers costs no array work.
    """

    __slots__ = ("numbers", "codes", "keys")

    def __init__(
        self,
        numbers: list[list[float]],
        codes: list[list[int]],
        keys: list[tuple],
    ):
        self.numbers = numbers
        self.codes = codes
        self.keys = keys

    def take(self, indices: list[int]) -> "EncodedRows":
        """The rows at ``indices``, in that order."""
        return EncodedRows(
            [self.numbers[i] for i in indices],
            [self.codes[i] for i in indices],
            [self.keys[i] for i in indices],
        )

    def plan_rows(self) -> PlanRows:
        """These rows as a :class:`PlanRows` block (at least one row)."""
        return PlanRows(
            np.ascontiguousarray(np.array(self.numbers, dtype=np.float64).T),
            np.ascontiguousarray(np.array(self.codes, dtype=np.int64).T),
        )


def join(slices: list[tuple[EncodedRows, int, int]]) -> EncodedRows:
    """Rows ``start:stop`` of each part, in order, as one request."""
    return EncodedRows(
        [n for part, a, b in slices for n in part.numbers[a:b]],
        [c for part, a, b in slices for c in part.codes[a:b]],
        [k for part, a, b in slices for k in part.keys[a:b]],
    )


class RowEncoder:
    """Validates request rows and encodes them in plan layout.

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

    def encode(self, rows: list | tuple) -> EncodedRows:
        """Validate and encode ``rows``; raise :class:`ServingError`
        naming the first bad row."""
        encoded = EncodedRows([], [], [])
        for index, row in enumerate(rows):
            numbers: list[float] = []
            codes: list[int] = []
            encoded.keys.append(self._encode_row(row, index, numbers, codes))
            encoded.numbers.append(numbers)
            encoded.codes.append(codes)
        return encoded

    def key(self, row: object, index: int = 0) -> tuple:
        """Validate one row and return its cache key."""
        return self._encode_row(row, index, [], [])

    def _encode_row(
        self, row: object, index: int, numbers: list, codes: list
    ) -> tuple:
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
                numbers.append(number)
                key.append(number if number == number else _NAN_KEY)
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
                codes.append(code)
                key.append(code)
        return tuple(key)
