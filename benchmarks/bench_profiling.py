"""Continuous-profiler overhead: the <5% acceptance gate (the bench).

The sampling profiler (:class:`repro.obs.SamplingProfiler`) is meant
to run *continuously* in production, so its cost must be measured, not
assumed.  This bench times one fixed CPU-bound workload — a full
network re-score through the CP tree, the hottest serving path — three
ways: unprofiled, under the default 19 Hz sampler, and under an
aggressive 97 Hz sampler.  Best-of-rounds wall clock keeps scheduler
noise out of the ratio.

Asserted: overhead at the default rate stays under 5%, and the
profiler actually captured samples while the workload ran (a sampler
that is cheap because it is dead proves nothing).  Artefact:
``benchmarks/results/profiling.txt``.
"""

from __future__ import annotations

import time

from repro.core.deployment import CrashPronenessScorer
from repro.obs import SamplingProfiler

BENCH_THRESHOLD = 8
DEFAULT_HZ = 19.0
AGGRESSIVE_HZ = 97.0
MAX_OVERHEAD_PCT = 5.0


#: Target baseline wall-clock; long enough that a 19 Hz sampler takes
#: dozens of samples and a sub-5% delta is measurable above noise.
TARGET_SECONDS = 2.0


def _workload_seconds(scorer, table, repeats: int) -> float:
    t0 = time.perf_counter()
    for _ in range(repeats):
        scorer.score(table)
    return time.perf_counter() - t0


def _calibrate_repeats(scorer, table) -> int:
    """Repeats needed for a ~TARGET_SECONDS baseline on this host.

    One network re-score is ~1 ms under the native kernel, so the
    repeat count — not the table size — sets the measurement window.
    """
    per_pass = _workload_seconds(scorer, table, repeats=5) / 5
    return max(20, int(TARGET_SECONDS / per_pass))


def run_profiling_bench(
    dataset,
    repeats: int | None = None,
    rounds: int = 3,
    emit_name: str | None = None,
):
    scorer = CrashPronenessScorer.train(
        dataset.crash_instances, threshold=BENCH_THRESHOLD, seed=0
    )
    table = dataset.segment_table
    if repeats is None:
        repeats = _calibrate_repeats(scorer, table)

    def best_of(hz: float | None) -> tuple[float, dict | None]:
        best = float("inf")
        stats = None
        for _ in range(rounds):
            if hz is None:
                best = min(
                    best, _workload_seconds(scorer, table, repeats)
                )
                continue
            with SamplingProfiler(hz=hz) as profiler:
                elapsed = _workload_seconds(scorer, table, repeats)
            best = min(best, elapsed)
            stats = profiler.stats()
        return best, stats

    base_s, _ = best_of(None)
    runs = []
    for hz in (DEFAULT_HZ, AGGRESSIVE_HZ):
        elapsed, stats = best_of(hz)
        overhead_pct = 100.0 * (elapsed - base_s) / base_s
        runs.append(
            {
                "hz": hz,
                "seconds": elapsed,
                "overhead_pct": overhead_pct,
                "samples": stats["samples"],
                "distinct_stacks": stats["distinct_stacks"],
                "dropped_stacks": stats["dropped_stacks"],
            }
        )

    lines = [
        "continuous-profiler overhead bench",
        f"  workload: {repeats}x scorer.score over {table.n_rows:,} "
        f"segments (best of {rounds} rounds)",
        f"  baseline (no profiler): {base_s:.3f}s",
    ]
    for run in runs:
        lines.append(
            f"  {run['hz']:5.1f} Hz: {run['seconds']:.3f}s "
            f"({run['overhead_pct']:+.2f}% overhead, "
            f"{run['samples']} samples, "
            f"{run['distinct_stacks']} distinct stacks, "
            f"{run['dropped_stacks']} dropped)"
        )
    lines.append(
        f"  gate: default-rate overhead must stay < "
        f"{MAX_OVERHEAD_PCT:g}%"
    )
    text = "\n".join(lines)

    if emit_name is not None:
        from benchmarks.conftest import emit

        emit(emit_name, text)
    else:
        print(text)

    # A sampler that slept through the workload proves nothing about
    # its cost; require real captures before trusting the ratio.
    assert runs[0]["samples"] > 0 and runs[1]["samples"] > 0
    assert runs[0]["overhead_pct"] < MAX_OVERHEAD_PCT, (
        f"default-rate profiling overhead "
        f"{runs[0]['overhead_pct']:.2f}% >= {MAX_OVERHEAD_PCT:g}%"
    )
    return base_s, runs


def test_profiling_overhead(paper_dataset):
    base_s, runs = run_profiling_bench(paper_dataset, emit_name="profiling")
    assert base_s > 0 and len(runs) == 2


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="quick CI check: small dataset, no artefacts, no "
        "overhead gate (shared-runner timing is too noisy)",
    )
    args = parser.parse_args(argv)

    from repro.roads import (
        QDTMRSyntheticGenerator,
        paper_scale_config,
        small_config,
    )

    if args.smoke:
        dataset = QDTMRSyntheticGenerator(
            small_config(n_segments=3000, n_towns=12)
        ).generate(seed=0)
        scorer = CrashPronenessScorer.train(
            dataset.crash_instances, threshold=BENCH_THRESHOLD, seed=0
        )
        with SamplingProfiler(hz=AGGRESSIVE_HZ) as profiler:
            t0 = time.perf_counter()
            while time.perf_counter() - t0 < 0.5:
                scorer.score(dataset.segment_table)
        stats = profiler.stats()
        assert stats["samples"] > 0, "profiler captured nothing"
        print(
            f"smoke ok ({stats['samples']} samples, "
            f"{stats['distinct_stacks']} distinct stacks)"
        )
        return 0
    dataset = QDTMRSyntheticGenerator(paper_scale_config()).generate(
        seed=2011
    )
    run_profiling_bench(dataset, emit_name="profiling")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
