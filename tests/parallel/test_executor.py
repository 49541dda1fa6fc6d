"""Unit tests of the sweep executor and its backends.

Task payloads live at module level so the process backend can pickle
them by reference.
"""

import os

import numpy as np
import pytest

from repro.parallel import (
    SweepExecutor,
    SweepTask,
    TaskResult,
    execute_task,
    resolve_n_jobs,
)


def _square(x):
    return x * x


def _seeded_draw(seed):
    return float(np.random.default_rng(seed).random())


def _boom():
    raise RuntimeError("task exploded")


def _tasks(n, stage="stage"):
    return [
        SweepTask(
            key=f"{stage}/cp-{i}",
            fn=_square,
            args=(i,),
            stage=stage,
            threshold=i,
        )
        for i in range(n)
    ]


class TestResolveNJobs:
    def test_one_is_one(self):
        assert resolve_n_jobs(1) == 1

    def test_none_and_zero_mean_all_cores(self):
        cores = os.cpu_count() or 1
        assert resolve_n_jobs(None) == cores
        assert resolve_n_jobs(0) == cores

    def test_negative_counts_back_from_cores(self):
        cores = os.cpu_count() or 1
        assert resolve_n_jobs(-1) == cores
        assert resolve_n_jobs(-cores) == 1

    def test_never_below_one(self):
        assert resolve_n_jobs(-999) == 1


class TestBackendSelection:
    def test_serial_for_one_job(self):
        assert SweepExecutor(n_jobs=1).backend_name == "serial"

    def test_process_for_many_jobs(self):
        with SweepExecutor(n_jobs=2) as executor:
            assert executor.backend_name == "process"


class TestExecuteTask:
    def test_result_carries_key_value_and_threshold(self):
        result = execute_task(
            SweepTask(key="k", fn=_square, args=(3,), threshold=7)
        )
        assert isinstance(result, TaskResult)
        assert result.key == "k"
        assert result.value == 9
        assert result.threshold == 7
        assert result.seconds >= 0


@pytest.mark.parametrize("n_jobs", [1, 2])
class TestRunBothBackends:
    def test_results_in_submission_order(self, n_jobs):
        with SweepExecutor(n_jobs=n_jobs) as executor:
            results = executor.run(_tasks(8))
        assert [r.value for r in results] == [i * i for i in range(8)]
        assert [r.key for r in results] == [
            f"stage/cp-{i}" for i in range(8)
        ]

    def test_seeded_tasks_identical_across_backends(self, n_jobs):
        tasks = [
            SweepTask(key=f"draw-{s}", fn=_seeded_draw, args=(s,))
            for s in range(6)
        ]
        with SweepExecutor(n_jobs=n_jobs) as executor:
            values = [r.value for r in executor.run(tasks)]
        assert values == [_seeded_draw(s) for s in range(6)]

    def test_empty_batch(self, n_jobs):
        with SweepExecutor(n_jobs=n_jobs) as executor:
            assert executor.run([], stage="empty") == []
            assert executor.timings.stage("empty").n_tasks == 0

    def test_task_error_propagates(self, n_jobs):
        with SweepExecutor(n_jobs=n_jobs) as executor:
            with pytest.raises(RuntimeError, match="task exploded"):
                executor.run([SweepTask(key="bad", fn=_boom)])

    def test_pool_reused_across_stages(self, n_jobs):
        with SweepExecutor(n_jobs=n_jobs) as executor:
            executor.run(_tasks(3, "a"), stage="a")
            executor.run(_tasks(2, "b"), stage="b")
            assert [s.stage for s in executor.timings.stages] == ["a", "b"]


class TestTimings:
    def test_stage_records_tasks_and_thresholds(self):
        with SweepExecutor(n_jobs=1) as executor:
            executor.run(_tasks(4), stage="phase1")
        timing = executor.timings.stage("phase1")
        assert timing.n_tasks == 4
        assert timing.wall_seconds >= 0
        assert sorted(timing.threshold_seconds()) == [0, 1, 2, 3]
        assert executor.timings.n_tasks == 4

    def test_timed_stage_context(self):
        with SweepExecutor(n_jobs=1) as executor:
            with executor.timed_stage("selection"):
                pass
        assert executor.timings.stage("selection").n_tasks == 0

    def test_missing_stage_raises(self):
        with pytest.raises(KeyError):
            SweepExecutor(n_jobs=1).timings.stage("nowhere")

    def test_render_mentions_backend_and_cache(self):
        with SweepExecutor(n_jobs=1) as executor:
            executor.run(_tasks(2), stage="phase1")
        executor.timings.cache_hits = 5
        executor.timings.cache_misses = 2
        text = executor.timings.render()
        assert "backend=serial" in text
        assert "phase1" in text
        assert "5 hits" in text and "2 misses" in text
