"""Task units for the sweep-execution engine.

A :class:`SweepTask` is one node of the sweep DAG: a plain function
call tagged with the stage it belongs to and the threshold it models.
Tasks must be *self-contained and picklable* so the process backend can
ship them to workers: ``fn`` has to be a module-level callable and the
arguments must survive ``pickle`` (``DataTable`` and the dataclasses
built on it do).

Determinism contract: a task carries every input its function needs —
including its derived random seed — so its result depends only on the
task itself, never on which backend runs it or in what order.  That is
what makes ``n_jobs=N`` output bit-identical to ``n_jobs=1``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.obs.span import Span, SpanContext
from repro.obs.trace import Tracer, use_tracer

__all__ = ["SweepTask", "TaskResult", "execute_task"]


@dataclass(frozen=True)
class SweepTask:
    """One independent unit of sweep work.

    Attributes
    ----------
    key:
        Unique human-readable id, e.g. ``"phase1/cp-4"``; used to label
        per-task timings.
    fn:
        A module-level callable (picklable by reference).
    args:
        Positional call arguments; must be picklable for the process
        backend.
    stage:
        The sweep stage the task belongs to (``"phase1"``,
        ``"supporting-bayes"``, ...).
    threshold:
        The CP-k threshold the task models, if any.
    trace_context:
        Optional shipped span context of the dispatching executor.
        When set, the worker wraps the call in a ``task.<key>`` span
        parented onto it and returns the recorded spans inside the
        result, so a cross-process sweep reassembles into one trace.
        ``None`` (the default, when nobody is tracing) keeps the task
        payload and the hot path identical to an uninstrumented build.
    """

    key: str
    fn: Callable[..., Any]
    args: tuple = ()
    stage: str = ""
    threshold: int | None = None
    trace_context: SpanContext | None = None


@dataclass(frozen=True)
class TaskResult:
    """A task's return value plus its measured wall time.

    ``spans`` holds the worker-side span records when the task was
    dispatched with a ``trace_context`` (empty otherwise); the executor
    absorbs them into the dispatching tracer on collection.
    """

    key: str
    value: Any
    seconds: float
    threshold: int | None = None
    spans: tuple[Span, ...] = ()


def execute_task(task: SweepTask) -> TaskResult:
    """Run one task and time it.

    This is the worker entry point for every backend: the serial
    backend calls it inline, the process backend ships it to pool
    workers.  Timing happens inside the worker so per-task seconds
    reflect compute, not queueing.

    When the task carries a ``trace_context``, the call runs under a
    fresh local tracer (not the worker's process-wide default) whose
    root span parents onto the shipped context — in-process backends
    get the same treatment so serial and process traces have identical
    shape.
    """
    if task.trace_context is None:
        start = time.perf_counter()
        value = task.fn(*task.args)
        return TaskResult(
            key=task.key,
            value=value,
            seconds=time.perf_counter() - start,
            threshold=task.threshold,
        )
    tracer = Tracer(enabled=True, max_spans=None)
    start = time.perf_counter()
    with use_tracer(tracer):
        with tracer.span(
            f"task.{task.key}",
            parent=task.trace_context,
            stage=task.stage,
            threshold=task.threshold,
        ):
            value = task.fn(*task.args)
    return TaskResult(
        key=task.key,
        value=value,
        seconds=time.perf_counter() - start,
        threshold=task.threshold,
        spans=tuple(tracer.drain()),
    )
