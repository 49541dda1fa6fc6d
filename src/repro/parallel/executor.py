"""The sweep executor: a serial or a process backend, chosen by ``n_jobs``.

``SweepExecutor`` runs batches of :class:`~repro.parallel.tasks.SweepTask`
and records a :class:`~repro.parallel.timing.StageTimings` as it goes.
Backends:

``serial``
    In-process loop, selected by ``n_jobs=1`` (the default).  This is
    the reference implementation — deterministic and debuggable.
``process``
    A :class:`concurrent.futures.ProcessPoolExecutor` with ``n_jobs``
    workers, selected by ``n_jobs != 1``.  Results are collected in
    submission order and every task carries its own derived seed, so
    the output is bit-identical to the serial backend — only the wall
    clock differs.

The pool is created lazily on first use and reused across stages; use
the executor as a context manager (or call :meth:`SweepExecutor.shutdown`)
to release the workers.
"""

from __future__ import annotations

import dataclasses
import os
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from typing import Iterator, Sequence

from repro.obs import trace as obs_trace
from repro.parallel.tasks import SweepTask, TaskResult, execute_task
from repro.parallel.timing import StageTiming, StageTimings, TaskTiming

__all__ = ["SweepExecutor", "resolve_n_jobs"]


def resolve_n_jobs(n_jobs: int | None) -> int:
    """Normalise an ``n_jobs`` request to a worker count >= 1.

    ``None`` and ``0`` mean "all cores"; negative values count back
    from the core count (``-1`` = all cores, ``-2`` = all but one),
    following the joblib convention.
    """
    cores = os.cpu_count() or 1
    if n_jobs is None or n_jobs == 0:
        return cores
    if n_jobs < 0:
        return max(1, cores + 1 + n_jobs)
    return int(n_jobs)


class _SerialBackend:
    name = "serial"

    def run(self, tasks: Sequence[SweepTask]) -> list[TaskResult]:
        return [execute_task(task) for task in tasks]

    def shutdown(self) -> None:  # nothing to release
        pass


class _ProcessBackend:
    name = "process"

    def __init__(self, n_jobs: int):
        self.n_jobs = n_jobs
        self._pool: ProcessPoolExecutor | None = None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            # Fork (where available) shares the already-imported library
            # and the parent's dataset pages with the workers; tasks are
            # seed-complete, so the start method cannot affect results.
            import multiprocessing

            context = None
            if "fork" in multiprocessing.get_all_start_methods():
                context = multiprocessing.get_context("fork")
            self._pool = ProcessPoolExecutor(
                max_workers=self.n_jobs, mp_context=context
            )
        return self._pool

    def run(self, tasks: Sequence[SweepTask]) -> list[TaskResult]:
        pool = self._ensure_pool()
        # map() preserves submission order regardless of completion order.
        return list(pool.map(execute_task, tasks))

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


class SweepExecutor:
    """Dispatches sweep tasks over a backend and records stage timings.

    Parameters
    ----------
    n_jobs:
        Worker count; ``1`` (default) selects the serial backend,
        anything else a process pool of ``resolve_n_jobs(n_jobs)``
        workers.  ``None`` / ``0`` use all cores; negatives count back
        from the core count.
    """

    def __init__(self, n_jobs: int | None = 1):
        self.n_jobs = resolve_n_jobs(n_jobs)
        self._backend: _SerialBackend | _ProcessBackend = (
            _SerialBackend()
            if self.n_jobs == 1
            else _ProcessBackend(self.n_jobs)
        )
        self.backend_name = self._backend.name
        self.timings = StageTimings(
            backend=self.backend_name, n_jobs=self.n_jobs
        )

    # -- lifecycle -------------------------------------------------------
    def __enter__(self) -> "SweepExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def shutdown(self) -> None:
        self._backend.shutdown()

    # -- execution -------------------------------------------------------
    def run(
        self, tasks: Sequence[SweepTask], stage: str = "sweep"
    ) -> list[TaskResult]:
        """Run a task batch; results come back in submission order.

        When a tracer is active in this context, the batch runs under
        an ``executor.run`` span whose context is shipped inside every
        task; worker-side spans come back in the results and are
        absorbed here, stitching serial and process backends into the
        same connected trace.
        """
        tracer = obs_trace.current_tracer()
        start = time.perf_counter()
        if tracer.enabled:
            with tracer.span(
                "executor.run",
                stage=stage,
                backend=self.backend_name,
                n_tasks=len(tasks),
            ) as run_span:
                ctx = run_span.context()
                results = self._backend.run(
                    [
                        dataclasses.replace(task, trace_context=ctx)
                        for task in tasks
                    ]
                )
                for result in results:
                    tracer.absorb(result.spans)
        else:
            results = self._backend.run(list(tasks))
        self.timings.stages.append(
            StageTiming(
                stage=stage,
                wall_seconds=time.perf_counter() - start,
                tasks=[
                    TaskTiming(
                        key=r.key, seconds=r.seconds, threshold=r.threshold
                    )
                    for r in results
                ],
            )
        )
        return results

    @contextmanager
    def timed_stage(self, stage: str) -> Iterator[None]:
        """Time a non-task stage (selection, clustering) into the record."""
        start = time.perf_counter()
        try:
            with obs_trace.span(f"stage.{stage}", backend=self.backend_name):
                yield
        finally:
            self.timings.stages.append(
                StageTiming(
                    stage=stage,
                    wall_seconds=time.perf_counter() - start,
                )
            )

    def attach_cache_stats(self, cache) -> None:
        """Copy a ``ThresholdDatasetCache``'s counters into the record."""
        self.timings.cache_hits = cache.hits
        self.timings.cache_misses = cache.misses
