"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Prints the workload's metrics, one per
line with its unit, the host-noise record, and, as the last line, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its
per-layer metrics with ``--trace 1``.  Exits non-zero, printing no
result, when the program under test cannot be found or fails to run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: A run must end well inside the 180 s a single run is allowed.
WATCHDOG_SECONDS = 170


def _load_program(root: Path) -> None:
    """Import ``repro`` from this checkout's ``src`` (and nowhere else)."""
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: {src}/repro not found; run from the repository root")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"error: imported repro from {repro.__file__}, not {src}")
    # Build (or load) the native tree kernel now, so no timed process
    # pays for compiling it.
    from repro.mining.tree.kernel import native_kernel

    native_kernel()


def _on_alarm(signum, frame):
    raise TimeoutError(f"run exceeded {WATCHDOG_SECONDS} s")


def _on_term(signum, frame):
    raise SystemExit(128 + signum)  # unwind, so child processes are stopped


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, default=2011)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    signal.signal(signal.SIGALRM, _on_alarm)
    signal.signal(signal.SIGTERM, _on_term)
    # A launcher may start us with SIGINT ignored, which children would
    # inherit; servers must keep the default so SIGINT shuts them down.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    signal.alarm(WATCHDOG_SECONDS)
    sys.path.insert(0, str(ROOT))
    from perfbench import workloads

    bench = workloads.Bench(ROOT, args.seed, args.seconds, bool(args.trace))
    os.environ.update(
        REPRO_KERNEL_CACHE_DIR=bench.env["REPRO_KERNEL_CACHE_DIR"],
        TMPDIR=bench.env["TMPDIR"],
    )
    started = time.time()
    try:
        _load_program(ROOT)
        outcome = workloads.WORKLOADS[args.workload](bench)
    finally:
        signal.alarm(0)
        shutil.rmtree(bench.run_dir, ignore_errors=True)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    measured = {**outcome.diagnostics, **outcome.metrics}
    for note in outcome.notes:
        print(note)
    for name, (value, unit) in sorted(measured.items()):
        print(f"{name:34s} {value:14.6f} {unit}")
    metrics = {}
    for metric in wanted:
        value, unit = measured.get(metric["name"], (0.0, metric["unit"]))
        metrics[metric["name"]] = {"value": value, "unit": unit}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started": started,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "measured": {k: v[0] for k, v in measured.items()},
    }
    with open(bench.work / "runs.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record) + "\n")
    print(
        json.dumps(
            {
                "correct": outcome.failed == 0 and outcome.attempted > 0,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
