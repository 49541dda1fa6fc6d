"""Per-stage timing records for sweep runs.

``StageTimings`` answers "where did the study spend its time": wall
seconds per stage, per-task (per-threshold) seconds inside each stage,
how many tasks were dispatched on which backend, and how the threshold
dataset cache performed.  It is threaded into ``StudyReport`` and
rendered by the CLI behind ``--timings``.

Wall times are measurements, not results: two runs of the same study
produce identical model numbers but different timings, so parity
checks must compare report *values* and ignore this record.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import StageNotFoundError

__all__ = ["TaskTiming", "StageTiming", "StageTimings"]


@dataclass(frozen=True)
class TaskTiming:
    """Wall seconds of one task, keyed for per-threshold breakdowns."""

    key: str
    seconds: float
    threshold: int | None = None


@dataclass
class StageTiming:
    """One sweep stage: its wall clock and the tasks it dispatched.

    ``wall_seconds`` is the stage's elapsed time as seen by the
    caller; ``sum(t.seconds for t in tasks)`` is aggregate worker
    compute.  Under the process backend the second can exceed the
    first — that surplus is the parallel speedup.
    """

    stage: str
    wall_seconds: float = 0.0
    tasks: list[TaskTiming] = field(default_factory=list)

    @property
    def n_tasks(self) -> int:
        return len(self.tasks)

    def threshold_seconds(self) -> dict[int, float]:
        """threshold → summed task seconds (tasks without one skipped)."""
        out: dict[int, float] = {}
        for t in self.tasks:
            if t.threshold is not None:
                out[t.threshold] = out.get(t.threshold, 0.0) + t.seconds
        return out


@dataclass
class StageTimings:
    """The full timing record of one study run."""

    backend: str = "serial"
    n_jobs: int = 1
    stages: list[StageTiming] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def total_seconds(self) -> float:
        return sum(s.wall_seconds for s in self.stages)

    @property
    def n_tasks(self) -> int:
        return sum(s.n_tasks for s in self.stages)

    def stage(self, name: str) -> StageTiming:
        """The timing record of one stage (raises ``KeyError`` if absent)."""
        for s in self.stages:
            if s.stage == name:
                return s
        raise StageNotFoundError(name)

    def render(self) -> str:
        """Fixed-width timing table (the CLI ``--timings`` output)."""
        from repro.core.reporting import render_table

        rows = []
        for s in self.stages:
            per_threshold = ", ".join(
                f"cp-{k}={v:.2f}s"
                for k, v in sorted(s.threshold_seconds().items())
            )
            rows.append(
                [s.stage, f"{s.wall_seconds:.2f}", s.n_tasks, per_threshold]
            )
        rows.append(
            ["total", f"{self.total_seconds:.2f}", self.n_tasks, ""]
        )
        table = render_table(
            ["stage", "wall s", "tasks", "per-threshold task seconds"],
            rows,
            title=(
                f"Stage timings (backend={self.backend}, "
                f"n_jobs={self.n_jobs})"
            ),
        )
        cache_line = (
            f"threshold dataset cache: {self.cache_hits} hits, "
            f"{self.cache_misses} misses"
        )
        return f"{table}\n{cache_line}"
