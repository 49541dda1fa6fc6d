"""Serving-layer load benchmark (throughput + latency percentiles).

A load generator drives the in-process HTTP scoring service with
``POST /v1/score`` at several client concurrency levels, each worker
on its own keep-alive connection.  Per level it records throughput and
client-observed p50/p95/p99 latency, plus how well the engine's
micro-batcher coalesced the concurrent singles into shared plan
passes.

The result cache is disabled so the numbers measure the model path,
not dict lookups.  What is asserted is the serving *contract*, not the
hardware: every response must carry exactly the probability the scorer
computes offline, and concurrent load must produce model passes with a
mean batch size > 1.
"""

import http.client
import json
import threading
import time

from benchmarks.conftest import emit
from repro.core.deployment import CrashPronenessScorer
from repro.core.reporting import render_table
from repro.obs.histogram import nearest_rank
from repro.roads import QDTMRSyntheticGenerator, small_config
from repro.serving import ScoringService

CONCURRENCY_LEVELS = (1, 2, 4, 8, 16)
REQUESTS_PER_LEVEL = 400


def _run_level(service, rows, concurrency, n_requests):
    """Drive the service with ``concurrency`` keep-alive workers."""
    latencies = []
    probabilities = {}
    errors = []
    lock = threading.Lock()
    per_worker = n_requests // concurrency

    def worker(worker_id):
        connection = http.client.HTTPConnection(
            service.host, service.port, timeout=30
        )
        mine = []
        try:
            for i in range(per_worker):
                index = (worker_id * per_worker + i) % len(rows)
                payload = json.dumps({"row": rows[index]})
                start = time.perf_counter()
                connection.request(
                    "POST",
                    "/v1/score",
                    body=payload,
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                body = json.loads(response.read())
                elapsed = time.perf_counter() - start
                if response.status != 200:
                    raise RuntimeError(f"HTTP {response.status}: {body}")
                mine.append((elapsed, index, body["probability"]))
        except Exception as exc:  # pragma: no cover - surfaced below
            with lock:
                errors.append(exc)
        finally:
            connection.close()
        with lock:
            for elapsed, index, probability in mine:
                latencies.append(elapsed)
                probabilities[index] = probability

    engine = service.engine("cp8")
    batches_before, rows_before = engine.batches, engine.batched_rows
    threads = [
        threading.Thread(target=worker, args=(w,)) for w in range(concurrency)
    ]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - start
    if errors:
        raise errors[0]
    passes = engine.batches - batches_before
    pass_rows = engine.batched_rows - rows_before
    ordered = sorted(latencies)
    return {
        "concurrency": concurrency,
        "requests": len(latencies),
        "wall": wall,
        "throughput": len(latencies) / wall,
        "p50": nearest_rank(ordered, 50),
        "p95": nearest_rank(ordered, 95),
        "p99": nearest_rank(ordered, 99),
        "passes": passes,
        "mean_batch": pass_rows / passes if passes else 0.0,
        "probabilities": probabilities,
    }


def test_serving_load(benchmark, tmp_path_factory):
    dataset = QDTMRSyntheticGenerator(
        small_config(n_segments=6000, n_towns=18)
    ).generate(seed=2011)
    scorer = CrashPronenessScorer.train(
        dataset.crash_instances, threshold=8, seed=2011
    )
    model_dir = tmp_path_factory.mktemp("serving-models")
    scorer.save(model_dir / "cp8.json")

    expected_inputs = list(scorer.input_schema())
    table = dataset.segment_table
    rows = table.select(expected_inputs).to_rows(limit=256)
    offline = [float(p) for p in scorer.score(table.head(256))]

    with ScoringService(
        model_dir, port=0, max_batch=32, max_wait_ms=2.0, cache_size=0
    ).start() as service:
        results = [
            _run_level(service, rows, level, REQUESTS_PER_LEVEL)
            for level in CONCURRENCY_LEVELS
            if level != 8
        ]
        # The benchmarked level rides through pytest-benchmark's timer.
        results.append(
            benchmark.pedantic(
                _run_level,
                args=(service, rows, 8, REQUESTS_PER_LEVEL),
                rounds=1,
                iterations=1,
            )
        )
        results.sort(key=lambda r: r["concurrency"])
        endpoint_metrics = service.metrics.summary()["POST /v1/score"]

    table_rows = [
        [
            r["concurrency"],
            r["requests"],
            f"{r['throughput']:.0f}",
            f"{1000 * r['p50']:.2f}",
            f"{1000 * r['p95']:.2f}",
            f"{1000 * r['p99']:.2f}",
            r["passes"],
            f"{r['mean_batch']:.2f}",
        ]
        for r in results
    ]
    text = render_table(
        ["clients", "requests", "req/s", "p50 ms", "p95 ms", "p99 ms",
         "passes", "mean batch"],
        table_rows,
        title="Serving load: POST /v1/score (max batch 32, max wait "
        "2 ms, cache off)",
    )
    text += (
        f"\nserver-side POST /v1/score: {endpoint_metrics['count']} requests,"
        f" p50={1000 * endpoint_metrics['p50']:.2f}ms,"
        f" p99={1000 * endpoint_metrics['p99']:.2f}ms,"
        f" errors={endpoint_metrics['errors']}"
    )
    emit("serving", text)

    # Contract, not hardware: exact parity with offline scoring ...
    for r in results:
        for index, probability in r["probabilities"].items():
            assert probability == offline[index]
    # ... and observable micro-batching once clients overlap.
    for r in results:
        if r["concurrency"] >= 8:
            assert r["mean_batch"] > 1, r
