"""Parallel sweep execution for the threshold studies.

The paper's modelling loop refits two trees plus the supporting model
families at every crash-count threshold.  Each ``(threshold, model)``
fit is independent of every other — the sweep is a DAG whose only joins
are threshold *selection* (needs both phases) and phase-3 clustering
(needs the selection).  This package turns those independent fits into
dispatchable tasks:

:class:`~repro.parallel.tasks.SweepTask`
    One picklable unit of work: a module-level function plus arguments,
    tagged with its stage and threshold.
:class:`~repro.parallel.executor.SweepExecutor`
    Runs task batches on the backend ``n_jobs`` selects — ``serial``
    (in-process, the ``n_jobs=1`` default) or ``process``
    (:class:`concurrent.futures.ProcessPoolExecutor`).  Results come
    back in submission order and every task carries its own
    deterministic seed, so the parallel output is bit-identical to the
    serial output.
:class:`~repro.parallel.cache.ThresholdDatasetCache`
    Memoises ``build_threshold_dataset`` per ``(table, threshold)`` so
    one CP-k table serves every model family that sweeps it.
:class:`~repro.parallel.timing.StageTimings`
    Wall time per stage and per task, tasks dispatched, and cache
    hit/miss counts — threaded into ``StudyReport`` and printed by the
    CLI ``--timings`` flag.
"""

from repro.parallel.cache import ThresholdDatasetCache
from repro.parallel.executor import SweepExecutor, resolve_n_jobs
from repro.parallel.tasks import SweepTask, TaskResult, execute_task
from repro.parallel.timing import StageTiming, StageTimings, TaskTiming

__all__ = [
    "SweepTask",
    "TaskResult",
    "execute_task",
    "SweepExecutor",
    "resolve_n_jobs",
    "ThresholdDatasetCache",
    "TaskTiming",
    "StageTiming",
    "StageTimings",
]
