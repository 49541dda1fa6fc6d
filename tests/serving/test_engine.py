"""Tests for the validating / micro-batching / caching scoring engine."""

import json
import struct
import sys
import threading
import time

import pytest

from repro.exceptions import ServingError
from repro.serving import LRUResultCache, ScoringEngine
from repro.serving.bulk import build_request_table
from repro.serving.engine import last_queue_wait_ms
from tests.serving.conftest import wait_for_queued


@pytest.fixture()
def engine(serving_scorer):
    eng = ScoringEngine(
        serving_scorer, name="cp8", max_batch=16, max_wait_ms=25.0
    )
    yield eng
    eng.close()


class TestValidation:
    def test_missing_column_rejected(self, engine, segment_rows):
        row = dict(segment_rows[0])
        del row["skid_resistance_f60"]
        with pytest.raises(ServingError, match="skid_resistance_f60"):
            engine.validate_row(row)

    def test_non_dict_row_rejected(self, engine):
        with pytest.raises(ServingError, match="must be an object"):
            engine.validate_row([1, 2, 3])

    def test_label_where_number_expected(self, engine, segment_rows):
        row = dict(segment_rows[0], skid_resistance_f60="slippery")
        with pytest.raises(ServingError, match="expects a number"):
            engine.validate_row(row)

    def test_number_where_label_expected(self, engine, segment_rows):
        row = dict(segment_rows[0], terrain=3)
        with pytest.raises(ServingError, match="expects a label"):
            engine.validate_row(row)

    def test_missing_values_are_legal(self, engine, segment_rows):
        row = dict(segment_rows[0], terrain=None, rut_depth=None)
        assert 0.0 <= engine.score_one(row) <= 1.0

    def test_unseen_label_routes_like_fit_time(self, engine, segment_rows):
        # Unknown levels are allowed; they align to the unseen-label code.
        row = dict(segment_rows[0], region="atlantis")
        assert 0.0 <= engine.score_one(row) <= 1.0

    def test_error_reports_row_index(self, engine, segment_rows):
        rows = [segment_rows[0], {"half": "a row"}]
        with pytest.raises(ServingError, match="row 1 "):
            engine.score_many(rows)

    def test_number_past_float64_rejected_before_queueing(
        self, serving_scorer, segment_rows, gate_engine
    ):
        """An integer too large for float64 is a validation error for
        its own request.  It used to pass validation and raise inside
        the pass, failing every request that shared it."""
        engine = ScoringEngine(serving_scorer, name="cp8", cache_size=0)
        offline = engine.score_rows(segment_rows[:2])
        gated = gate_engine(engine)
        try:
            results: dict[int, float] = {}

            def call(i: int) -> None:
                results[i] = engine.score_one(segment_rows[i])

            threads = [_start(call, 0)]
            assert gated.in_pass.wait(10.0)
            threads.append(_start(call, 1))
            wait_for_queued(engine, 1)
            huge = dict(segment_rows[2], aadt=10**400)
            with pytest.raises(
                ServingError, match="row 0 column 'aadt'.*float64"
            ):
                engine.score_one(huge)
            with pytest.raises(ServingError, match="row 1 column 'aadt'"):
                engine.score_many([segment_rows[2], huge])
            assert len(engine._pending) == 1
            gated.gate.set()
            _join(threads)
            assert results == {0: offline[0], 1: offline[1]}
        finally:
            engine.close()


class TestScoring:
    def test_direct_parity_with_scorer(
        self, engine, serving_scorer, small_dataset, segment_rows
    ):
        expected = serving_scorer.score(
            small_dataset.segment_table.head(len(segment_rows))
        )
        assert engine.score_rows(segment_rows) == [float(p) for p in expected]

    def test_batched_parity_with_scorer(
        self, engine, serving_scorer, small_dataset, segment_rows
    ):
        expected = serving_scorer.score(
            small_dataset.segment_table.head(len(segment_rows))
        )
        assert engine.score_many(segment_rows) == [float(p) for p in expected]

    def test_all_missing_numeric_column_stays_numeric(
        self, engine, segment_rows
    ):
        # A batch where one numeric column is entirely None must not be
        # re-inferred as categorical (the CSV reader would guess; the
        # engine builds from the schema).
        rows = [dict(r, rut_depth=None) for r in segment_rows[:4]]
        probabilities = engine.score_rows(rows)
        assert len(probabilities) == 4

    def test_scores_within_unit_interval(self, engine, segment_rows):
        assert all(0.0 <= p <= 1.0 for p in engine.score_rows(segment_rows))


def _start(target, *args) -> threading.Thread:
    thread = threading.Thread(target=target, args=args)
    thread.start()
    return thread


def _join(threads: list[threading.Thread]) -> None:
    for thread in threads:
        thread.join(30.0)
        assert not thread.is_alive()


class TestMicroBatching:
    def test_concurrent_requests_coalesce(
        self, serving_scorer, segment_rows, gate_engine
    ):
        engine = ScoringEngine(
            serving_scorer, name="cp8", max_batch=16, max_wait_ms=100.0
        )
        gated = gate_engine(engine)
        try:
            results: dict[int, float] = {}

            def call(i: int) -> None:
                results[i] = engine.score_one(segment_rows[i])

            # Hold the first caller inside its pass so the other 23
            # queue behind it, then let them all through.
            threads = [_start(call, 0)]
            assert gated.in_pass.wait(10.0)
            threads += [_start(call, i) for i in range(1, 24)]
            wait_for_queued(engine, 23)
            gated.gate.set()
            _join(threads)
            assert len(results) == 24
            assert engine.max_batch_observed > 1
            assert engine.batched_rows == 24
        finally:
            engine.close()

    def test_batch_cap_respected(self, serving_scorer, segment_rows):
        engine = ScoringEngine(
            serving_scorer, name="cp8", max_batch=4, max_wait_ms=100.0
        )
        try:
            engine.score_many(segment_rows[:12])
            assert engine.max_batch_observed <= 4
        finally:
            engine.close()

    def test_closed_engine_rejects_submissions(self, serving_scorer, segment_rows):
        engine = ScoringEngine(serving_scorer, name="cp8")
        engine.close()
        with pytest.raises(ServingError, match="closed"):
            engine.score_one(segment_rows[0])

    def test_invalid_config_rejected(self, serving_scorer):
        with pytest.raises(ServingError, match="max_batch"):
            ScoringEngine(serving_scorer, max_batch=0)
        with pytest.raises(ServingError, match="max_wait_ms"):
            ScoringEngine(serving_scorer, max_wait_ms=-1)


class SlowPass:
    """A model-pass double that sleeps ``delay`` seconds before each
    pass (installed over :meth:`ScoringEngine._evaluate`), recording
    the thread and the distinct row count of every pass in
    ``passes``."""

    def __init__(self, evaluate, delay: float):
        self.evaluate = evaluate
        self.delay = delay
        self.passes: list[tuple[int, int]] = []
        self.in_pass = threading.Event()

    def __call__(self, keys):
        self.in_pass.set()
        self.passes.append((threading.get_ident(), len(keys)))
        time.sleep(self.delay)
        return self.evaluate(keys)


class FailingPass:
    """A model-pass double whose ``fail_on``-th call (0-based) raises."""

    def __init__(self, evaluate, fail_on: int):
        self.evaluate = evaluate
        self.fail_on = fail_on
        self.calls = 0

    def __call__(self, keys):
        call, self.calls = self.calls, self.calls + 1
        if call == self.fail_on:
            raise RuntimeError("model pass failed")
        return self.evaluate(keys)


class TestTimeout:
    def test_timeout_is_one_deadline_for_the_whole_call(
        self, serving_scorer, segment_rows
    ):
        """8 rows at ``max_batch=2`` take at least four 0.3 s passes.
        No single pass outlasts the 0.6 s timeout, but the call as a
        whole does, so it must time out near 0.6 s, not finish after
        ~1.2 s because every row's wait restarted the clock."""
        engine = ScoringEngine(
            serving_scorer, name="cp8", max_batch=2, cache_size=0
        )
        engine._evaluate = SlowPass(engine._evaluate, delay=0.3)
        try:
            start = time.monotonic()
            with pytest.raises(ServingError, match="timed out after 0.6s"):
                engine.score_many(segment_rows[:8], timeout=0.6)
            assert time.monotonic() - start < 1.1
        finally:
            engine.close()

    def test_a_leader_that_times_out_hands_the_lead_on(
        self, serving_scorer, segment_rows
    ):
        """A leader checks its deadline between its own slices.  When
        it gives up, it withdraws its untaken rows and hands the lead
        to the caller queued behind it, which scores its own row on
        its own thread at once, not after the leader's leftover rows."""
        offline = ScoringEngine(serving_scorer, cache_size=0).score_rows(
            segment_rows[:9]
        )
        engine = ScoringEngine(
            serving_scorer, name="cp8", max_batch=2, cache_size=0
        )
        slow = SlowPass(engine._evaluate, delay=0.3)
        engine._evaluate = slow
        errors: list[Exception] = []
        results: dict[str, object] = {}

        def leader() -> None:
            try:
                engine.score_many(segment_rows[:8], timeout=0.6)
            except ServingError as exc:
                errors.append(exc)

        def follower() -> None:
            results["probability"] = engine.score_one(segment_rows[8])
            results["thread"] = threading.get_ident()

        try:
            threads = [_start(leader)]
            assert slow.in_pass.wait(10.0)
            threads.append(_start(follower))
            wait_for_queued(engine, 2)  # the leader's tail and the follower
            _join(threads)
            assert len(errors) == 1 and "timed out after 0.6s" in str(errors[0])
            assert results["probability"] == offline[8]
            # Two full passes for the leader, then the follower alone.
            assert [rows for _thread, rows in slow.passes] == [2, 2, 1]
            assert slow.passes[-1][0] == results["thread"]
            assert len(engine._pending) == 0
        finally:
            engine.close()

    def test_a_timed_out_caller_never_strands_the_queue(
        self, serving_scorer, segment_rows, gate_engine
    ):
        """A queued caller that times out withdraws its rows; the
        callers behind it still get a leader and their scores."""
        engine = ScoringEngine(serving_scorer, name="cp8", cache_size=0)
        offline = engine.score_rows(segment_rows[:3])
        gated = gate_engine(engine)
        errors: list[Exception] = []
        results: dict[int, float] = {}

        def call(i: int, timeout: float | None) -> None:
            try:
                results[i] = engine.score_one(segment_rows[i], timeout=timeout)
            except ServingError as exc:
                errors.append(exc)

        try:
            holder = _start(call, 0, None)
            assert gated.in_pass.wait(10.0)
            timed = _start(call, 1, 0.5)
            wait_for_queued(engine, 1)
            patient = _start(call, 2, None)
            _join([timed])
            assert len(errors) == 1 and "timed out after 0.5s" in str(errors[0])
            wait_for_queued(engine, 1)  # only the patient caller is left
            gated.gate.set()
            _join([holder, patient])
            assert results == {0: offline[0], 2: offline[2]}
            assert gated.passes == [1, 1]
            assert len(engine._pending) == 0
            assert engine.score_one(segment_rows[1]) == offline[1]
        finally:
            engine.close()


class TestLeaderFollower:
    """The engine owns no thread: each pass runs on the thread of the
    caller that holds the lead."""

    def test_a_lone_request_is_scored_on_the_calling_thread(
        self, serving_scorer, segment_rows
    ):
        engine = ScoringEngine(serving_scorer, name="cp8", cache_size=0)
        evaluate = engine._evaluate
        threads: list[int] = []

        def recording(keys):
            threads.append(threading.get_ident())
            return evaluate(keys)

        engine._evaluate = recording
        try:
            engine.score_one(segment_rows[0])
            engine.score_many(segment_rows[1:4])
            assert threads == [threading.get_ident()] * 2
        finally:
            engine.close()

    def test_an_engine_starts_no_thread(self, serving_scorer, segment_rows):
        before = threading.active_count()
        engine = ScoringEngine(serving_scorer, name="cp8")
        try:
            assert threading.active_count() == before
            engine.score_one(segment_rows[0])
            engine.score_many(segment_rows[:40])
            assert threading.active_count() == before
        finally:
            engine.close()
        assert threading.active_count() == before

    def test_close_lets_queued_callers_finish(
        self, serving_scorer, segment_rows, gate_engine
    ):
        """``close()`` refuses new submissions at once; callers already
        queued still get their offline scores on their own threads."""
        engine = ScoringEngine(serving_scorer, name="cp8", cache_size=0)
        offline = engine.score_rows(segment_rows[:3])
        gated = gate_engine(engine)
        results: dict[int, float] = {}

        def call(i: int) -> None:
            results[i] = engine.score_one(segment_rows[i])

        threads = [_start(call, 0)]
        try:
            assert gated.in_pass.wait(10.0)
            threads += [_start(call, i) for i in (1, 2)]
            wait_for_queued(engine, 2)
            start = time.monotonic()
            engine.close()
            assert time.monotonic() - start < 1.0
            with pytest.raises(ServingError, match="closed"):
                engine.score_one(segment_rows[3])
            gated.gate.set()
            _join(threads)
            assert results == {i: offline[i] for i in range(3)}
            assert gated.passes == [1, 2]
        finally:
            gated.gate.set()
            engine.close()

    def test_a_failed_pass_fails_every_request_in_it(
        self, serving_scorer, segment_rows, gate_engine
    ):
        """The second pass (a one-row request and the head of a cut
        one) raises: both of its callers get the error, the cut
        request's remaining rows are dropped, and the next caller is
        scored normally."""
        engine = ScoringEngine(
            serving_scorer, name="cp8", max_batch=4, cache_size=0
        )
        offline = engine.score_rows(segment_rows[:10])
        engine._evaluate = FailingPass(engine._evaluate, fail_on=1)
        gated = gate_engine(engine)
        outcomes: dict[str, object] = {}

        def call(key: str, rows: list) -> None:
            try:
                outcomes[key] = engine.score_many(rows)
            except RuntimeError as exc:
                outcomes[key] = exc

        threads = [_start(call, "holder", segment_rows[:1])]
        try:
            assert gated.in_pass.wait(10.0)
            threads.append(_start(call, "short", segment_rows[1:2]))
            wait_for_queued(engine, 1)
            threads.append(_start(call, "cut", segment_rows[2:8]))
            wait_for_queued(engine, 2)
            gated.gate.set()
            _join(threads)
            assert outcomes["holder"] == offline[:1]
            assert isinstance(outcomes["cut"], RuntimeError)
            assert outcomes["short"] is outcomes["cut"]
            assert gated.passes == [1, 4]
            assert len(engine._pending) == 0
            assert engine.score_many(segment_rows[8:10]) == offline[8:10]
            assert gated.passes == [1, 4, 2]
        finally:
            gated.gate.set()
            engine.close()


class TestAdaptiveBatching:
    """``max_wait_ms`` is a cap: a pass waits only for callers it
    expects, i.e. while a batch has fewer callers than the last pass."""

    def test_lone_request_is_scored_at_once(
        self, serving_scorer, segment_rows
    ):
        engine = ScoringEngine(
            serving_scorer, name="cp8", max_wait_ms=10_000.0
        )
        try:
            start = time.monotonic()
            engine.score_one(segment_rows[0])
            assert time.monotonic() - start < 2.0
            assert last_queue_wait_ms.get() < 1000.0
        finally:
            engine.close()

    def test_one_request_rows_count_as_one_caller(
        self, serving_scorer, segment_rows
    ):
        engine = ScoringEngine(
            serving_scorer, name="cp8", max_wait_ms=10_000.0
        )
        try:
            start = time.monotonic()
            engine.score_many(segment_rows[:16])
            assert time.monotonic() - start < 2.0
            # The 16 rows were one caller, so a lone request after
            # them is still not held for more.
            start = time.monotonic()
            engine.score_one(segment_rows[16])
            assert time.monotonic() - start < 2.0
            assert last_queue_wait_ms.get() < 1000.0
        finally:
            engine.close()

    def test_batch_closes_when_the_last_passes_callers_are_in(
        self, serving_scorer, segment_rows, gate_engine
    ):
        engine = ScoringEngine(
            serving_scorer,
            name="cp8",
            max_batch=32,
            max_wait_ms=10_000.0,
            cache_size=0,
        )
        gated = gate_engine(engine)
        try:
            threads = [_start(engine.score_one, segment_rows[0])]
            assert gated.in_pass.wait(10.0)
            threads += [
                _start(engine.score_one, segment_rows[i]) for i in (1, 2, 3)
            ]
            wait_for_queued(engine, 3)
            gated.gate.set()
            _join(threads)
            # The three callers queued behind the held pass share the
            # next one.
            assert gated.passes == [1, 3]

            # Three callers ~50 ms apart: the pass waits for the third
            # (the last pass had three) and closes when it arrives,
            # long before the 10 s cap.
            start = time.monotonic()
            threads = []
            for i in (4, 5, 6):
                threads.append(_start(engine.score_one, segment_rows[i]))
                time.sleep(0.05)
            _join(threads)
            assert time.monotonic() - start < 2.0
            assert gated.passes == [1, 3, 3]
            assert engine.stats()["batches"] == 3
        finally:
            engine.close()


    def test_mixed_callers_under_preemption_get_their_own_rows(
        self, serving_scorer, segment_rows
    ):
        """More callers than cores, with a short switch interval: every
        caller gets exactly its rows' offline scores, and the pass
        counters lose no update."""
        expected = ScoringEngine(serving_scorer, cache_size=0)
        try:
            offline = expected.score_rows(segment_rows)
        finally:
            expected.close()
        engine = ScoringEngine(
            serving_scorer, name="cp8", max_wait_ms=2.0, cache_size=0
        )
        mismatches: list[tuple[int, int]] = []
        submitted = [0] * 8

        def caller(worker: int) -> None:
            for step in range(25):
                start = (7 * worker + 3 * step) % 55
                if step % 2:
                    got = engine.score_many(segment_rows[start : start + 5])
                    want = offline[start : start + 5]
                else:
                    got = [engine.score_one(segment_rows[start])]
                    want = [offline[start]]
                submitted[worker] += len(want)
                if got != want:
                    mismatches.append((worker, step))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            _join([_start(caller, w) for w in range(8)])
        finally:
            sys.setswitchinterval(interval)
            engine.close()
        assert mismatches == []
        assert engine.batched_rows == sum(submitted) == 8 * (13 + 12 * 5)
        assert engine.n_scored == engine.batched_rows
        assert engine.max_batch_observed <= engine.max_batch


class TestResultCache:
    def test_repeat_rows_hit_cache(self, engine, segment_rows):
        engine.score_rows(segment_rows[:5])
        assert engine.cache.misses == 5
        engine.score_rows(segment_rows[:5])
        assert engine.cache.hits == 5
        assert engine.n_scored == 10

    def test_duplicate_rows_in_one_batch_scored_once(
        self, engine, segment_rows
    ):
        row = segment_rows[0]
        probabilities = engine.score_rows([row, dict(row), dict(row)])
        assert len(set(probabilities)) == 1
        assert engine.cache.misses == 3  # three lookups, one key
        assert len(engine.cache) == 1

    def test_cached_results_equal_fresh(self, engine, segment_rows):
        first = engine.score_rows(segment_rows)
        again = engine.score_rows(segment_rows)
        assert first == again

    def test_int_and_float_rows_share_keys(self, engine, segment_rows):
        row = {
            k: (int(v) if isinstance(v, float) and v.is_integer() else v)
            for k, v in segment_rows[0].items()
        }
        assert engine.encoder.key(row) == engine.encoder.key(segment_rows[0])

    def test_nan_valued_rows_hit_the_cache(self, engine, segment_rows):
        """NaN inputs encode to one shared NaN object: a row's own NaN
        as a key part can never hit (NaN != NaN), so missing-value rows
        used to re-score every time and pile up duplicate cache
        entries."""
        numeric = next(
            name
            for name, spec in engine.schema.items()
            if spec["kind"] == "numeric"
        )
        row = dict(segment_rows[0], **{numeric: float("nan")})
        assert engine.encoder.key(row) == engine.encoder.key(dict(row))
        engine.score_rows([row])
        engine.score_rows([dict(row)])
        assert engine.cache.hits == 1
        assert len(engine.cache) == 1

    def test_nan_variants_share_one_row_in_a_pass(
        self, serving_scorer, segment_rows, gate_engine
    ):
        """Rows that differ only in how one number is missing (None, a
        fresh NaN, -NaN, a payload NaN, a NaN parsed from JSON) share
        one key: their pass evaluates one row, every row gets the same
        probability, and a row holding yet another NaN object hits the
        cache."""
        schema = serving_scorer.input_schema()
        numeric = next(
            name for name, spec in schema.items() if spec["kind"] == "numeric"
        )
        (payload_nan,) = struct.unpack(
            "<d", struct.pack("<Q", 0x7FF8000000000001)
        )
        missing = [
            None,
            float("nan"),
            -float("nan"),
            payload_nan,
            json.loads("NaN"),
        ]
        rows = [dict(segment_rows[0], **{numeric: value}) for value in missing]
        expected = serving_scorer.score(build_request_table(rows[:1], schema))
        engine = ScoringEngine(serving_scorer, name="cp8")
        gated = gate_engine(engine)
        gated.gate.set()
        try:
            probabilities = engine.score_many(rows)
            assert gated.passes == [1]
            assert {p.hex() for p in probabilities} == {
                float(expected[0]).hex()
            }
            again = engine.score_one(
                dict(segment_rows[0], **{numeric: float("nan")})
            )
            assert again.hex() == probabilities[0].hex()
            assert gated.passes == [1]
            assert engine.cache.hits == 1
        finally:
            engine.close()

    def test_lru_eviction(self):
        cache = LRUResultCache(max_size=2)
        cache.put(("a",), 0.1)
        cache.put(("b",), 0.2)
        assert cache.get(("a",)) == 0.1  # refreshes "a"
        cache.put(("c",), 0.3)  # evicts "b"
        assert cache.get(("b",)) is None
        assert cache.get(("a",)) == 0.1
        assert cache.get(("c",)) == 0.3
        assert len(cache) == 2

    def test_zero_capacity_disables_cache(self, serving_scorer, segment_rows):
        engine = ScoringEngine(serving_scorer, cache_size=0)
        try:
            engine.score_rows(segment_rows[:3])
            engine.score_rows(segment_rows[:3])
            assert engine.cache.hits == 0
            assert len(engine.cache) == 0
        finally:
            engine.close()

    def test_disabled_cache_counts_every_row_a_miss_without_lookups(
        self, serving_scorer, segment_rows
    ):
        """With ``cache_size=0`` no pass looks a key up (so none takes
        the cache lock per key), and ``cache_misses`` still equals the
        rows scored after concurrent requests."""
        engine = ScoringEngine(
            serving_scorer, name="cp8", max_batch=8, cache_size=0
        )
        lookups: list[tuple] = []
        get = engine.cache.get
        engine.cache.get = lambda key: lookups.append(key) or get(key)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                _start(engine.score_many, segment_rows[3 * i : 3 * i + 3])
                for i in range(16)
            ]
            _join(threads)
            stats = engine.stats()
            assert stats["rows_scored"] == 48
            assert stats["cache_misses"] == stats["rows_scored"]
            assert stats["cache_hits"] == 0
            assert lookups == []
        finally:
            sys.setswitchinterval(interval)
            engine.close()


class TestIntegrity:
    def test_short_scorer_output_is_loud(self, engine, segment_rows):
        """A scoring pass that loses rows must raise, not silently
        drop slots and shift later probabilities onto wrong rows."""
        original = engine._evaluate
        engine._evaluate = lambda keys: original(keys)[:-1]
        with pytest.raises(ServingError, match="probabilities"):
            engine.score_rows(segment_rows[:4])

    def test_score_rows_returns_one_result_per_row(
        self, engine, segment_rows
    ):
        results = engine.score_rows(segment_rows[:7])
        assert len(results) == 7
        assert all(isinstance(p, float) for p in results)


class TestStats:
    def test_stats_counters(self, engine, segment_rows):
        engine.score_many(segment_rows[:6])
        stats = engine.stats()
        assert stats["rows_scored"] == 6
        assert stats["batches"] >= 1
        assert stats["cache_misses"] == 6
        assert stats["max_batch_observed"] >= 1
        # Pass statistics are exact counters.
        assert engine.batched_rows == 6
        assert stats["batches"] == engine.batches
        assert stats["mean_batch_size"] == 6 / engine.batches
        assert stats["max_batch_observed"] == engine.max_batch_observed

    def test_stats_storage_does_not_grow_with_passes(
        self, serving_scorer, segment_rows
    ):
        """No engine attribute grows with the number of passes: a
        long-running server keeps counters, not a list per pass."""
        engine = ScoringEngine(serving_scorer, name="cp8", cache_size=0)

        def sizes() -> dict[str, int]:
            return {
                name: len(value)
                for name, value in vars(engine).items()
                if isinstance(value, (list, dict, set, tuple))
            }

        try:
            engine.score_one(segment_rows[0])
            before = sizes()
            for i in range(200):
                engine.score_one(segment_rows[i % len(segment_rows)])
            assert engine.batches == 201
            assert sizes() == before
            assert len(engine._pending) == 0
        finally:
            engine.close()
