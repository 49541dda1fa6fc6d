"""The row encoder: request rows straight into a compiled plan's arrays.

The contract (``repro.serving.encoder``) is that encoding is invisible:
every probability equals ``scorer.score`` on the
``build_request_table`` table of the same rows, bit for bit, on both
plan backends, for any row the table path accepts (missing values,
NaN, infinities, signed zeros, integers past 2**53, empty and unseen
labels, single-leaf trees), and every invalid row is rejected with the
same error text and row index as the validator it replaced
(``_reference_validate`` below keeps that validator as the oracle).
"""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.deployment import CrashPronenessScorer
from repro.datatable import CategoricalColumn, DataTable, NumericColumn
from repro.exceptions import ServingError
from repro.mining import DecisionTreeClassifier, TreeConfig
from repro.mining.tree.kernel import native_kernel
from repro.serving import ScoringEngine
from repro.serving.bulk import build_request_table
from repro.serving.encoder import RowEncoder
from tests.serving.conftest import wait_for_queued

LEVELS = ("g1", "g2", "g3")
TERRAIN = ("flat", "hilly")


def _scorer(seed: int, config: TreeConfig) -> CrashPronenessScorer:
    gen = np.random.default_rng(seed)
    n = 400
    x = gen.normal(0, 1, n)
    group = gen.choice(LEVELS, n)
    terrain = gen.choice(TERRAIN, n)
    y = (x + (group == "g3") - (terrain == "hilly") + gen.normal(0, 1, n)) > 0
    y[0], y[1] = True, False
    table = DataTable(
        [
            NumericColumn("x", [None if i % 9 == 0 else v for i, v in enumerate(x)]),
            CategoricalColumn("group", list(group), LEVELS),
            NumericColumn("w", list(gen.normal(0, 2, n))),
            CategoricalColumn(
                "terrain", [None if i % 7 == 0 else t for i, t in enumerate(terrain)]
            ),
            NumericColumn("count", list(gen.integers(0, 10, n).astype(float))),
            CategoricalColumn("label", ["p" if v else "n" for v in y], ("n", "p")),
        ]
    )
    model = DecisionTreeClassifier(config).fit(table, "label")
    return CrashPronenessScorer(threshold=8, model=model)


@pytest.fixture(scope="module", params=["tree", "single-leaf"])
def scorer(request) -> CrashPronenessScorer:
    if request.param == "tree":
        config = TreeConfig(min_leaf=5, min_split=10, max_depth=6, max_leaves=24)
    else:
        config = TreeConfig(min_leaf=1000, min_split=2000)
    scorer = _scorer(7, config)
    plan = scorer.scoring_plan()
    assert plan is not None
    assert (plan.n_nodes == 1) == (request.param == "single-leaf")
    return scorer


_numbers = st.one_of(
    st.none(),
    st.floats(-3, 3),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 0.0]),
    st.integers(-(2**70), 2**70),
    st.integers(2**53 - 2, 2**53 + 2),
)


def _labels(levels):
    return st.one_of(
        st.none(),
        st.sampled_from(levels),
        st.sampled_from(["", "\x00", "unseen", levels[0] + "\x00", " " + levels[0]]),
        st.text(max_size=4),
    )


@st.composite
def _rows(draw, schema, min_size=1, max_size=12):
    strategies = {
        name: _numbers if spec["kind"] == "numeric" else _labels(spec["levels"])
        for name, spec in schema.items()
    }
    n = draw(st.integers(min_size, max_size))
    return [
        {name: draw(strategy) for name, strategy in strategies.items()}
        for _ in range(n)
    ]


def _reference_validate(row, index, schema, name) -> None:
    """The per-row validator the encoder replaced, kept as the oracle
    for error texts and row indices."""
    input_names = list(schema)
    if not isinstance(row, dict):
        raise ServingError(
            f"row {index} must be an object of column values, "
            f"got {type(row).__name__}"
        )
    missing = [n for n in input_names if n not in row]
    if missing:
        raise ServingError(
            f"row {index} is missing input column(s) "
            f"{', '.join(repr(m) for m in missing)}; scorer "
            f"{name!r} expects {input_names}"
        )
    for column in input_names:
        value = row[column]
        if value is None:
            continue
        if schema[column]["kind"] == "numeric":
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ServingError(
                    f"row {index} column {column!r} expects a number, "
                    f"got {value!r}"
                )
        elif not isinstance(value, str):
            raise ServingError(
                f"row {index} column {column!r} expects a label, "
                f"got {value!r}"
            )


def _backends() -> list[str]:
    return ["native", "numpy"] if native_kernel() is not None else ["numpy"]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_encoded_rows_score_like_the_table_path(scorer, data):
    schema = scorer.input_schema()
    rows = data.draw(_rows(schema))
    expected = scorer.score(build_request_table(rows, schema))
    encoder = RowEncoder(schema)
    block = encoder.plan_rows(encoder.encode(rows))
    plan = scorer.scoring_plan()
    for backend in _backends():
        got, _leaves = plan.evaluate(block, backend=backend)
        assert got.tobytes() == expected.tobytes(), backend


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_codes_stay_inside_every_lut_slice(scorer, data):
    """The kernel does no bounds check: each nominal code must index
    its node's slice, ``[0, n_levels + 1]``, by construction."""
    schema = scorer.input_schema()
    encoder = RowEncoder(schema)
    block = encoder.plan_rows(encoder.encode(data.draw(_rows(schema))))
    plan = scorer.scoring_plan()
    nominal = [spec for spec in plan.inputs if not spec.is_numeric]
    assert block.codes.shape == (len(nominal), block.n_rows)
    for column, spec in zip(block.codes, nominal):
        assert column.min() >= 0 and column.max() <= spec.n_levels + 1
    for node in np.flatnonzero(plan.kind == 2):
        spec = nominal[plan.feature[node]]
        slots = plan.lut_offset[node] + block.codes[plan.feature[node]]
        assert slots.min() >= plan.lut_offset[node]
        assert slots.max() < plan.lut_offset[node] + spec.n_levels + 2


def test_cache_keys_come_from_encoded_values(scorer):
    """Rows the tree cannot tell apart share one key: None and NaN,
    int and float, every unseen label, a label and its NUL-padded
    twin."""
    schema = scorer.input_schema()
    encoder = RowEncoder(schema)
    base = {
        name: (1.0 if spec["kind"] == "numeric" else spec["levels"][0])
        for name, spec in schema.items()
    }
    numeric = next(n for n, s in schema.items() if s["kind"] == "numeric")
    nominal = next(n for n, s in schema.items() if s["kind"] != "numeric")
    same = [
        (dict(base, **{numeric: None}), dict(base, **{numeric: float("nan")})),
        (dict(base, **{numeric: 1}), base),
        (dict(base, **{nominal: "zz"}), dict(base, **{nominal: "yy"})),
        (dict(base, **{nominal: base[nominal] + "\x00"}), base),
    ]
    for a, b in same:
        assert encoder.key(a) == encoder.key(b)
    assert encoder.key(dict(base, **{nominal: None})) != encoder.key(base)


def _corrupt(draw, rows, schema):
    index = draw(st.integers(0, len(rows) - 1))
    names = list(schema)
    kind = draw(st.sampled_from(["not-a-dict", "missing", "bool", "type"]))
    row = dict(rows[index])
    if kind == "not-a-dict":
        rows[index] = draw(st.sampled_from([[1, 2], "row", 3, None]))
        return rows
    if kind == "missing":
        for name in draw(st.lists(st.sampled_from(names), min_size=1, unique=True)):
            del row[name]
    else:
        column = draw(st.sampled_from(names))
        if kind == "bool":
            row[column] = draw(st.booleans())
        elif schema[column]["kind"] == "numeric":
            row[column] = draw(st.sampled_from(["1.5", [1.0], {"v": 1}]))
        else:
            row[column] = draw(st.sampled_from([3, 2.5, ["g1"]]))
    rows[index] = row
    return rows


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_invalid_rows_keep_their_error_text_and_index(scorer, data):
    schema = scorer.input_schema()
    rows = _corrupt(data.draw, data.draw(_rows(schema)), schema)
    with pytest.raises(ServingError) as expected:
        for index, row in enumerate(rows):
            _reference_validate(row, index, schema, "cp8")
    with pytest.raises(ServingError) as got:
        RowEncoder(schema, "cp8").encode(rows)
    assert str(got.value) == str(expected.value)


@pytest.fixture(scope="module")
def tree_scorer() -> CrashPronenessScorer:
    return _scorer(7, TreeConfig(min_leaf=5, min_split=10, max_depth=6))


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_engine_passes_match_the_table_path(tree_scorer, data):
    """Through the engine's cache and queue: direct passes, single
    rows and one sliced request all return ``scorer.score``'s values
    in request order."""
    schema = tree_scorer.input_schema()
    rows = data.draw(_rows(schema, max_size=20))
    expected = tree_scorer.score(build_request_table(rows, schema)).tolist()
    with ScoringEngine(tree_scorer, max_batch=4, max_wait_ms=0.0) as engine:
        assert engine.score_rows(rows) == expected
        assert [engine.score_one(row) for row in rows[:3]] == expected[:3]
        assert engine.score_many(rows) == expected


def _plain_rows(seed: int, n: int) -> list[dict]:
    gen = np.random.default_rng(seed)
    return [
        {
            "x": float(gen.normal()),
            "group": LEVELS[i % 3],
            "w": float(gen.normal()),
            "terrain": TERRAIN[i % 2],
            "count": float(i),
        }
        for i in range(n)
    ]


def test_a_request_larger_than_max_batch_is_sliced_in_order(
    tree_scorer, gate_engine
):
    rows = _plain_rows(3, 11)
    schema = tree_scorer.input_schema()
    expected = tree_scorer.score(build_request_table(rows, schema)).tolist()
    engine = ScoringEngine(tree_scorer, max_batch=4, cache_size=0)
    gated = gate_engine(engine)
    gated.gate.set()
    try:
        assert engine.score_many(rows) == expected
        assert gated.passes == [4, 4, 3]
        assert engine.batches == 3 and engine.batched_rows == 11
    finally:
        engine.close()


def test_a_cut_request_opens_the_next_pass(tree_scorer, gate_engine):
    """Requests queued behind a held pass: the first is cut at
    ``max_batch`` and its tail shares the next pass with the second."""
    rows = _plain_rows(5, 8)
    schema = tree_scorer.input_schema()
    expected = tree_scorer.score(build_request_table(rows, schema)).tolist()
    engine = ScoringEngine(
        tree_scorer, max_batch=4, max_wait_ms=10_000.0, cache_size=0
    )
    gated = gate_engine(engine)
    results: dict[str, list[float]] = {}

    def call(key: str, request_rows) -> None:
        results[key] = engine.score_many(request_rows)

    threads = [threading.Thread(target=call, args=("opener", rows[:1]))]
    threads[0].start()
    try:
        assert gated.in_pass.wait(10.0)
        threads.append(threading.Thread(target=call, args=("long", rows[1:6])))
        threads[1].start()
        wait_for_queued(engine, 1)
        threads.append(threading.Thread(target=call, args=("short", rows[6:8])))
        threads[2].start()
        wait_for_queued(engine, 2)
        gated.gate.set()
        for thread in threads:
            thread.join(30.0)
            assert not thread.is_alive()
        assert results == {
            "opener": expected[:1],
            "long": expected[1:6],
            "short": expected[6:8],
        }
        assert gated.passes == [1, 4, 3]
    finally:
        gated.gate.set()
        engine.close()
