"""Compiled-kernel vs interpreted bulk re-score (the scoring bench).

The deployment story's hot path is the network-wide re-score: every
segment of the network through the fitted CP-8 tree.  This bench times
that pass at 100k rows through each evaluation path over the *same*
fitted tree:

* ``route_rows``      — the interpreted TreeNode walk (the baseline);
* ``plan numpy``      — the compiled plan's mask-propagation backend;
* ``plan default``    — the compiled plan, native C kernel when the
  host can build one (``repro.mining.tree.kernel``);
* ``scorer.score``    — the end-to-end compiled path (column
  extraction included), which is what serving and the CLI run.

Asserted: all paths are element-for-element identical, and the
compiled single-core path beats the interpreted walk by >= 3x, both
kernel-only and end to end.

Run ``python benchmarks/bench_bulk_scoring.py --smoke`` for the quick
CI parity check (small dataset, no artefact), or under pytest for the
full run that writes ``benchmarks/results/bulk_scoring.txt``.
"""

import os
import time

import numpy as np

from repro.core.deployment import CrashPronenessScorer
from repro.core.reporting import render_table
from repro.mining.tree import route_rows
from repro.mining.tree.kernel import native_kernel_status

BENCH_THRESHOLD = 8


def _best_of(fn, rounds):
    """(best wall seconds, last result) over ``rounds`` calls."""
    best = float("inf")
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _tile_segments(table, n_rows):
    """Repeat the segment table up to ``n_rows`` rows (a re-score is
    the same tree walk whether or not rows repeat)."""
    reps = -(-n_rows // table.n_rows)
    indices = np.tile(np.arange(table.n_rows), reps)[:n_rows]
    return table.take(indices)


def run_bulk_bench(dataset, n_rows, rounds=3, emit_name=None):
    scorer = CrashPronenessScorer.train(
        dataset.crash_instances, threshold=BENCH_THRESHOLD, seed=0
    )
    model = scorer.model
    table = _tile_segments(dataset.segment_table, n_rows)
    plan = model.scoring_plan()

    extract_s, features = _best_of(
        lambda: model._features_for(table), rounds
    )

    interp_s, (interp_pred, interp_leaf) = _best_of(
        lambda: route_rows(model.root, features), rounds
    )
    numpy_s, numpy_out = _best_of(
        lambda: plan.evaluate(features, backend="numpy"), rounds
    )
    default_s, default_out = _best_of(
        lambda: plan.evaluate(features), rounds
    )
    end_to_end_s, end_to_end = _best_of(
        lambda: scorer.score(table), rounds
    )

    # Parity first: a fast wrong answer is not a result.
    for label, (pred, leaf) in (
        ("numpy", numpy_out),
        ("default", default_out),
    ):
        assert np.array_equal(pred, interp_pred), f"{label} pred parity"
        assert np.array_equal(leaf, interp_leaf), f"{label} leaf parity"
    assert np.array_equal(end_to_end, interp_pred), "end-to-end parity"

    # The acceptance ratio: single-core compiled vs interpreted, on the
    # same pre-extracted feature block.
    kernel_speedup = interp_s / default_s
    end_to_end_speedup = (extract_s + interp_s) / end_to_end_s

    def row(stage, seconds, baseline):
        return [
            stage,
            f"{seconds * 1e3:.2f}",
            f"{n_rows / seconds:,.0f}",
            f"{baseline / seconds:.2f}x",
        ]

    stage_rows = [
        row("route_rows (interpreted)", interp_s, interp_s),
        row("plan numpy backend", numpy_s, interp_s),
        row("plan default backend", default_s, interp_s),
        row(
            "scorer.score (extract+eval)",
            end_to_end_s,
            extract_s + interp_s,
        ),
    ]
    text = render_table(
        ["stage", "wall ms", "rows/s", "speedup"],
        stage_rows,
        title=(
            f"Bulk re-score: {n_rows:,} rows through the CP-"
            f"{BENCH_THRESHOLD} tree ({model.n_leaves} leaves, "
            f"{model.n_nodes} nodes)"
        ),
    )
    text += (
        f"\nfeature extraction (shared by all paths): "
        f"{extract_s * 1e3:.2f} ms"
        f"\nnative kernel: {native_kernel_status()}"
        f"\ncpu cores available: {os.cpu_count()}"
        f"\nparity (all paths vs route_rows, predictions and leaf "
        f"ids): True"
        f"\nkernel speedup (plan default vs interpreted, "
        f"single core): {kernel_speedup:.2f}x"
        f"\nend-to-end speedup (scorer.score vs extract+route_rows): "
        f"{end_to_end_speedup:.2f}x"
    )
    if emit_name is not None:
        from benchmarks.conftest import emit

        emit(emit_name, text)
    else:
        print(text)
    return kernel_speedup, end_to_end_speedup


def test_bulk_scoring(paper_dataset):
    kernel_speedup, end_to_end_speedup = run_bulk_bench(
        paper_dataset, n_rows=100_000, emit_name="bulk_scoring"
    )
    # ISSUE acceptance: >= 3x single-core over the interpreted walk on
    # the 100k-row network-wide re-score.
    assert kernel_speedup >= 3.0
    assert end_to_end_speedup >= 3.0


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="quick CI check: small dataset, parity asserted, no "
        "artefact written and no speedup floor",
    )
    parser.add_argument(
        "--emit-json",
        action="store_true",
        help="also write benchmarks/results/bulk_scoring.json "
        "(machine-readable, for benchmarks/compare.py)",
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
        kernel_speedup, end_to_end_speedup = run_bulk_bench(
            dataset, n_rows=20_000, rounds=2
        )
        print(f"\nsmoke ok (kernel speedup {kernel_speedup:.2f}x)")
    else:
        dataset = QDTMRSyntheticGenerator(paper_scale_config()).generate(
            seed=2011
        )
        kernel_speedup, end_to_end_speedup = run_bulk_bench(
            dataset, n_rows=100_000, emit_name="bulk_scoring"
        )
        assert kernel_speedup >= 3.0 and end_to_end_speedup >= 3.0
    if args.emit_json:
        from benchmarks.conftest import emit_json

        emit_json(
            "bulk_scoring",
            {
                "kernel_speedup": {
                    "value": kernel_speedup, "better": "higher",
                },
                "end_to_end_speedup": {
                    "value": end_to_end_speedup, "better": "higher",
                },
            },
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
