"""Serving load test: sustained mixed traffic under SLOs (the bench).

Spins up an in-process :class:`~repro.serving.ScoringService`, trains
one CP-8 scorer into a temp model directory, and drives the ``mixed``
workload profile (80% single scores, 15% batch, 5% model listings)
through :class:`~repro.loadtest.LoadTest` — warmup, measured window,
mid-run Prometheus scrape validation, client/server count parity, and
the ``benchmarks/slo/smoke.json`` thresholds.

Asserted, hardware-independent: zero request errors, exact count
parity, every exposition scrape valid, and the smoke SLOs (generous
bounds any working build clears).  The full pytest run writes
``benchmarks/results/loadtest.txt``; ``--smoke`` is the quick CI
variant (shorter window, no artefact).
"""

import tempfile
from pathlib import Path

from repro.core.deployment import CrashPronenessScorer
from repro.loadtest import SLOSpec
from repro.loadtest.runner import LoadTest
from repro.obs import Tracer
from repro.serving import ScoringService

BENCH_THRESHOLD = 8
SLO_PATH = Path(__file__).parent / "slo" / "smoke.json"


def _request_rows(dataset, scorer, n=256):
    expected = list(scorer.input_schema())
    table = dataset.segment_table
    return table.select(expected).to_rows(limit=min(n, table.n_rows))


def run_loadtest_bench(
    dataset, duration=5.0, rate=0.0, seed=7, emit_name=None
):
    scorer = CrashPronenessScorer.train(
        dataset.crash_instances, threshold=BENCH_THRESHOLD, seed=0
    )
    rows = _request_rows(dataset, scorer)
    spec = SLOSpec.load(SLO_PATH)
    with tempfile.TemporaryDirectory() as model_dir:
        scorer.save(Path(model_dir) / "cp8.json")
        service = ScoringService(
            model_dir, port=0, tracer=Tracer(enabled=True)
        ).start()
        try:
            report = LoadTest(
                service.url,
                rows,
                service=service,
                profile="mixed",
                clients=4,
                duration=duration,
                rate=rate,
                warmup=1.0,
                seed=seed,
            ).run()
        finally:
            service.close()

    violations = spec.evaluate(report)
    text = report.render()
    text += (
        f"\nslo spec {spec.name!r}: {len(spec.rules)} rule(s), "
        f"{len(violations)} violation(s)"
    )
    for violation in violations:
        text += f"\nSLO VIOLATION: {violation.describe()}"

    if emit_name is not None:
        from benchmarks.conftest import emit

        emit(emit_name, text)
    else:
        print(text)

    # A fast run that lost requests or broke its exposition is not a
    # result.
    assert report.parity_ok, "client/server request counts disagree"
    assert report.total_errors == 0, "request errors under load"
    assert report.n_scrapes >= 1 and report.scrape_samples > 0
    assert not violations, [v.describe() for v in violations]
    return report


def test_loadtest(paper_dataset):
    report = run_loadtest_bench(
        paper_dataset, duration=5.0, emit_name="loadtest"
    )
    assert report.total_requests > 0


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="quick CI check: small dataset, short window",
    )
    parser.add_argument(
        "--emit",
        action="store_true",
        help="also write benchmarks/results/loadtest.txt",
    )
    args = parser.parse_args(argv)

    from repro.roads import (
        QDTMRSyntheticGenerator,
        paper_scale_config,
        small_config,
    )

    emit_name = "loadtest" if (args.emit or not args.smoke) else None
    if args.smoke:
        dataset = QDTMRSyntheticGenerator(
            small_config(n_segments=2500, n_towns=12)
        ).generate(seed=0)
        report = run_loadtest_bench(
            dataset, duration=3.0, emit_name=emit_name
        )
        print(
            f"\nsmoke ok ({report.total_requests} requests, "
            f"{report.total_throughput_rps:.0f} req/s, parity OK)"
        )
    else:
        dataset = QDTMRSyntheticGenerator(paper_scale_config()).generate(
            seed=2011
        )
        run_loadtest_bench(dataset, duration=5.0, emit_name=emit_name)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
