"""Request rows → typed DataTable (``repro.serving.bulk``)."""

from repro.serving.bulk import build_request_table


class TestRequestTable:
    def test_schema_typed_columns(self, serving_scorer, segment_rows):
        schema = serving_scorer.input_schema()
        table = build_request_table(segment_rows[:5], schema)
        assert table.n_rows == 5
        for name, spec in schema.items():
            assert table.column(name).is_numeric == (
                spec["kind"] == "numeric"
            )

    def test_all_missing_numeric_column_stays_numeric(self, serving_scorer):
        schema = serving_scorer.input_schema()
        rows = [{name: None for name in schema} for _ in range(3)]
        table = build_request_table(rows, schema)
        for name, spec in schema.items():
            if spec["kind"] == "numeric":
                assert table.column(name).is_numeric
