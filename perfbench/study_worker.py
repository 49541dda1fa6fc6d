"""One study process: set up, warm up, then run timed studies.

Run by ``perfbench/run.py`` as a fresh process so that set-up (imports,
dataset generation, the warm-up study) is measured like a user pays it.
Protocol on stdout: a ``READY <json>`` line right before the first timed
op, then a ``RESULT <json>`` line after the last one.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import resource
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: The study dataset: the smallest generated scale at which the default
#: seed runs all 19 sweep tasks (7 phase-1 + 6 phase-2 thresholds, all
#: two-class, + 6 naive-Bayes CV runs) and selects CP-4, inside the
#: paper's 4-8 band.  The generator seed is pinned so that every
#: benchmark seed runs those same 19 tasks; ``--seed`` seeds the study
#: itself (train/validation splits, CV folds, k-means starts).
DATASET_SEED = 2011
SEGMENTS = 4000
TOWNS = 18

_SKIP = {"timings", "pipeline_log", "assignment"}


def _canon(value):
    """A JSON-able, exact rendering of a study result (floats as hex)."""
    import numpy as np

    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _canon(getattr(value, f.name))
            for f in dataclasses.fields(value)
            if f.name not in _SKIP
        }
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, dict):
        return {str(k): _canon(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_canon(v) for v in value]
    if value is None or isinstance(value, str):
        return value
    raise TypeError(f"cannot digest {type(value).__name__}")


def digest(report) -> str:
    """SHA-256 over every number the study reports: Table 3/4 rows with
    leaf counts, the Table 5 Bayes sweep, the selected threshold and the
    phase-3 cluster crash-count ranges with their ANOVA."""
    payload = {
        "phase1": report.phase1,
        "phase2": report.phase2,
        "bayes": report.bayes,
        "selection": report.selection,
        "clusters": report.clustering.profiles,
        "anova": report.clustering.anova,
    }
    text = json.dumps(_canon(payload), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--share", type=float, required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import host

    recorder = None
    if args.trace_out:
        from perfbench import layers, spans

        recorder = spans.Recorder()
        import repro  # noqa: F401  (targets resolve against loaded modules)

        spans.install(recorder, layers.TARGETS)
    from repro import CrashPronenessStudy, QDTMRSyntheticGenerator, small_config

    dataset = QDTMRSyntheticGenerator(
        small_config(n_segments=SEGMENTS, n_towns=TOWNS)
    ).generate(seed=DATASET_SEED)

    def study():
        return CrashPronenessStudy(dataset, seed=args.seed, repeats=1).run_full_study(
            n_jobs=1
        )

    if recorder is not None:
        study = spans.wrap_callable(
            recorder, spans.Target(spans.UNATTRIBUTED, "perfbench:study-op"), study
        )
    warm = digest(study())
    ready = time.perf_counter()
    print("READY " + json.dumps({"t": ready, "digest": warm}), flush=True)

    deadline = ready + args.share
    cpu0, steal0 = time.process_time(), host.steal_seconds()
    ops = []
    while True:
        t0 = time.perf_counter()
        report = study()
        t1 = time.perf_counter()
        ops.append([t0, t1, digest(report)])
        if t1 + (t1 - t0) > deadline:  # the next op would overrun the share
            break
    cpu, steal = time.process_time() - cpu0, host.steal_seconds() - steal0
    if recorder is not None:
        recorder.dump(args.trace_out)
    result = {
        "ops": ops,
        "cpu_s": cpu,
        "steal_s": steal,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "thread": threading.get_ident(),
    }
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
