"""Measure the benchmark's own run-to-run spread.

    python3 perfbench/steadiness.py run --seeds 1-10 --out SET.json
    python3 perfbench/steadiness.py compare FIRST.json SECOND.json

``run`` executes ``run.py`` once per seed for every workload in
``BENCHMARK.json``, untraced and at its ``run_seconds``, and stores
every end-to-end value.  ``compare`` prints, per set, each metric's
median and quartiles (``statistics.quantiles(n=4)``) with the spread
``(q3 - q1) / median``, and the drift of the second set's median from
the first's, next to the bound in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = str(spec["run_seconds"])
    data = {"started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "seconds": float(seconds), "runs": []}
    for name in (w["name"] for w in spec["workloads"]):
        for seed in _seeds(args.seeds):
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
                   "--workload", name, "--seed", str(seed),
                   "--seconds", seconds, "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            wall = time.perf_counter() - t0
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(proc.stderr[-2000:], file=sys.stderr)
                raise SystemExit(f"{name} seed {seed} failed ({proc.returncode})")
            result = json.loads(lines[-1])
            diag = {}
            for line in lines[:-1]:
                parts = line.split()
                if len(parts) == 3 and parts[0] in ("host.steal_s", "proc.cpu_ms_per_op"):
                    diag[parts[0]] = float(parts[1])
            entry = {"workload": name, "seed": seed, "wall_s": wall,
                     "correct": result["correct"], "attempted": result["attempted"],
                     "failed": result["failed"],
                     "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                     **diag}
            data["runs"].append(entry)
            print(json.dumps(entry), flush=True)
            Path(args.out).write_text(json.dumps(data, indent=1) + "\n")
    return 0


def _stats(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": q2, "q3": q3, "spread": (q3 - q1) / q2}


def table(sets: list[dict]) -> dict:
    """{workload: {metric: [stats per set]}}."""
    out: dict = {}
    for data in sets:
        grouped: dict = {}
        for entry in data["runs"]:
            for metric, value in entry["metrics"].items():
                grouped.setdefault(entry["workload"], {}).setdefault(metric, []).append(value)
        for workload, metrics in grouped.items():
            for metric, values in metrics.items():
                out.setdefault(workload, {}).setdefault(metric, []).append(_stats(values))
    return out


def compare(args) -> int:
    """Print each metric's quartiles per set, the drift of each set's
    median from the first set's, and the smallest bound the sets allow:
    three times the widest spread or one and a half times the widest
    drift, whichever is larger.  A spread of more than a third of the
    bound is flagged ``>BOUND/3``; a spread or drift past the bound is
    flagged and fails the comparison."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    sets = [json.loads(Path(p).read_text()) for p in args.sets]
    ok = True
    print("| workload | metric | set | q1 | median | q3 | spread | drift | bound | allows |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    for workload, rows in table(sets).items():
        for metric, per_set in rows.items():
            bound = metrics[metric]["bound"]
            sign = 1 if metrics[metric]["better"] == "lower" else -1
            first = per_set[0]["median"]
            drifts = [sign * (st["median"] - first) / first for st in per_set]
            spreads = [st["spread"] for st in per_set]
            allows = max(3 * max(spreads), 1.5 * max(abs(d) for d in drifts))
            for i, (st, drift) in enumerate(zip(per_set, drifts)):
                spread_flag = drift_flag = ""
                if st["spread"] > bound:
                    spread_flag, ok = " >BOUND", False
                elif st["spread"] > bound / 3:
                    spread_flag = " >BOUND/3"
                if drift > bound:
                    drift_flag, ok = " >BOUND", False
                print(f"| {workload} | {metric} | {i + 1} | {st['q1']:.4g} | "
                      f"{st['median']:.4g} | {st['q3']:.4g} | {st['spread']:.3f}{spread_flag} | "
                      f"{drift:+.3f}{drift_flag} | {bound} | {allows:.3f} |")
    print()
    print("| workload | set | runs | failed ops | median host.steal_s | median proc.cpu_ms_per_op |")
    print("|---|---|---|---|---|---|")
    for i, data in enumerate(sets):
        by_workload: dict = {}
        for entry in data["runs"]:
            by_workload.setdefault(entry["workload"], []).append(entry)
        for workload, entries in by_workload.items():
            steal = statistics.median(e.get("host.steal_s", 0.0) for e in entries)
            cpu = statistics.median(e.get("proc.cpu_ms_per_op", 0.0) for e in entries)
            failed = sum(e["failed"] for e in entries)
            print(f"| {workload} | {i + 1} | {len(entries)} | {failed} | {steal:.2f} | {cpu:.4g} |")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--seeds", default="1-10")
    r.add_argument("--out", required=True)
    c = sub.add_parser("compare")
    c.add_argument("sets", nargs="+")
    args = parser.parse_args()
    return run(args) if args.cmd == "run" else compare(args)


if __name__ == "__main__":
    sys.exit(main())
