"""Route-risk subsystem: graph build, query latency, precompute (the bench).

Trains one CP-8 scorer, lowers the dataset's road network into a
:class:`~repro.routing.graph.RiskGraph` (scoring every segment in one
compiled-kernel pass), then measures the three costs the
serving path cares about:

* **graph build** — the one-off per-artefact cost of scoring all
  segments and lowering them into edge arrays;
* **query latency, cold vs cached** — safest-route planning with an
  empty :class:`~repro.routing.store.RouteStore` versus the same
  queries answered from it (the precomputed-popular-pair path);
* **precompute throughput** — how fast the store warms for the
  popular-pair set.

Asserted, hardware-independent: every safest plan's risk ≤ its
shortest plan's, cache hits are byte-identical to the misses that
filled them, and the store's hit counter accounts for every replay.
The full pytest run writes ``benchmarks/results/routing.txt``;
``--smoke`` is the quick CI variant.
"""

import time

from repro.core.deployment import CrashPronenessScorer
from repro.routing import RoutePlanner

BENCH_THRESHOLD = 8


def run_routing_bench(dataset, n_pairs=24, k=3, emit_name=None):
    scorer = CrashPronenessScorer.train(
        dataset.crash_instances, threshold=BENCH_THRESHOLD, seed=0
    )
    checksum = scorer.to_dict()["checksum"]
    planner = RoutePlanner(dataset, n_clusters=8, cluster_seed=0)

    t0 = time.perf_counter()
    graph = planner.graph_for(scorer, checksum)
    build_s = time.perf_counter() - t0

    pairs = planner.popular_pairs(limit=n_pairs)

    # Cold: every query plans from scratch (store starts empty).
    t0 = time.perf_counter()
    cold = [
        planner.plan_safest(scorer, checksum, a, b, k=k) for a, b in pairs
    ]
    cold_s = time.perf_counter() - t0

    # Cached: identical queries now come straight from the store.
    hits_before = planner.store.stats()["hits"]
    t0 = time.perf_counter()
    cached = [
        planner.plan_safest(scorer, checksum, a, b, k=k) for a, b in pairs
    ]
    cached_s = time.perf_counter() - t0
    hits = planner.store.stats()["hits"] - hits_before

    for before, after in zip(cold, cached):
        assert after is before, "cache hit must ship the identical response"
        assert (
            before["safest"]["expected_crashes"]
            <= before["shortest"]["expected_crashes"]
        ), "safest plan riskier than shortest"
    assert hits == len(pairs), "replayed queries must all hit the store"

    # Precompute throughput into a fresh planner (cold store).
    warm_planner = RoutePlanner(dataset, n_clusters=8, cluster_seed=0)
    warm_planner.graph_for(scorer, checksum)
    t0 = time.perf_counter()
    n_plans = warm_planner.precompute(scorer, checksum, pairs=pairs, k=k)
    precompute_s = time.perf_counter() - t0

    lines = [
        "route-risk subsystem bench",
        f"  network: {graph.n_towns} towns, {graph.n_edges} edges, "
        f"{graph.n_scored_segments} scored segments",
        f"  graph build (score all segments + lower): {build_s:.3f}s",
        f"  safest query ({len(pairs)} pairs, k={k}):",
        f"    cold   {1e3 * cold_s / len(pairs):8.3f} ms/query "
        f"({len(pairs) / cold_s:8.0f} q/s)",
        f"    cached {1e3 * cached_s / len(pairs):8.3f} ms/query "
        f"({len(pairs) / cached_s:8.0f} q/s)",
        f"  precompute: {n_plans} plans in {precompute_s:.3f}s "
        f"({n_plans / precompute_s:.0f} plans/s)",
    ]
    text = "\n".join(lines)

    if emit_name is not None:
        from benchmarks.conftest import emit

        emit(emit_name, text)
    else:
        print(text)
    return {
        "build_s": build_s,
        "cold_ms": 1e3 * cold_s / len(pairs),
        "cached_ms": 1e3 * cached_s / len(pairs),
        "precompute_rps": n_plans / precompute_s,
    }


def test_routing(paper_dataset):
    stats = run_routing_bench(paper_dataset, emit_name="routing")
    assert stats["build_s"] > 0


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="quick CI check: small dataset, few pairs",
    )
    parser.add_argument(
        "--emit",
        action="store_true",
        help="also write benchmarks/results/routing.txt",
    )
    args = parser.parse_args(argv)

    from repro.roads import (
        QDTMRSyntheticGenerator,
        paper_scale_config,
        small_config,
    )

    emit_name = "routing" if (args.emit or not args.smoke) else None
    if args.smoke:
        dataset = QDTMRSyntheticGenerator(
            small_config(n_segments=2500, n_towns=12)
        ).generate(seed=0)
        stats = run_routing_bench(dataset, n_pairs=8, emit_name=emit_name)
        print(
            f"\nsmoke ok (build {stats['build_s']:.3f}s, "
            f"cold {stats['cold_ms']:.2f}ms, "
            f"cached {stats['cached_ms']:.3f}ms)"
        )
    else:
        dataset = QDTMRSyntheticGenerator(paper_scale_config()).generate(
            seed=2011
        )
        run_routing_bench(dataset, emit_name=emit_name)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
