"""Command-line interface.

``repro-study`` exposes the library's main workflows without writing
Python:

* ``generate`` — synthesise a dataset and write its tables as CSV;
* ``study`` — run the three-phase crash-proneness study and print the
  paper-style tables;
* ``calibrate`` — re-derive the crash-process calibration;
* ``train`` — train and save a deployable crash-proneness scorer;
* ``score`` — score a segment CSV with a saved scorer (table, JSON or
  CSV output);
* ``serve`` — serve a directory of scorers over HTTP (``--routes``
  additionally enables the ``/v1/route/*`` route-risk endpoints,
  ``--profile`` the continuous sampling profiler + ``GET
  /debug/profile``, ``--slo SPEC`` live SLO burn-rate tracking);
* ``profile`` — run a ``study`` or ``score`` workload under the
  sampling profiler and print the hottest stacks (``--out`` writes a
  collapsed flamegraph file);
* ``top`` — watch a live server's windowed request rates, latency
  percentiles and SLO burn rates (``--once`` for scripts);
* ``routes`` — the route-risk subsystem: ``build`` a risk graph,
  ``query`` safest-vs-shortest routes between towns, ``precompute``
  popular pairs into the route store, ``top-risk`` report;
* ``loadtest`` — generate deterministic load against a scoring service
  (self-hosted or ``--url``), report per-endpoint throughput and
  latency percentiles, cross-check client/server request counts, and
  gate the exit code on declarative ``--slo`` specs;
* ``wetdry`` — the stage-1 wet/dry differentiation analysis;
* ``trace`` — inspect ``--trace-out`` span files (waterfall rendering);
* ``lint`` — run the project's static-analysis rules (file rules
  REP001–REP005 plus whole-program concurrency rules REP101–REP104;
  ``--graph`` dumps the call graph + lock model, ``--sarif`` emits
  SARIF, ``--changed`` lints only files touched vs a git ref).

Observability: ``study``, ``score`` and ``serve`` accept
``--trace-out PATH`` (``-`` for stdout) to record every span of the
run as JSON lines — rendered afterwards with ``repro-study trace
show PATH``.  ``serve`` additionally takes ``--access-log PATH|-``
for one structured JSON line per HTTP request.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from contextlib import contextmanager
from pathlib import Path

from repro.analysis.cli import add_lint_arguments, run_lint
from repro.core import CrashPronenessStudy
from repro.core.deployment import CrashPronenessScorer
from repro.core.reporting import render_series, render_table
from repro.core.wet_dry import wet_dry_analysis
from repro.datatable import cached_read_csv, read_csv, write_csv
from repro.exceptions import ReproError
from repro.roads import (
    QDTMRSyntheticGenerator,
    calibrate_crash_process,
    paper_scale_config,
    small_config,
)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-study",
        description="Road crash proneness prediction (EDBT 2011 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="synthesise a dataset to CSV")
    gen.add_argument("out_dir", type=Path)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--paper-scale", action="store_true")
    gen.add_argument("--segments", type=int, default=6000)

    study = sub.add_parser("study", help="run the three-phase study")
    study.add_argument("--seed", type=int, default=0)
    study.add_argument("--paper-scale", action="store_true")
    study.add_argument("--segments", type=int, default=6000)
    study.add_argument("--clusters", type=int, default=32)
    study.add_argument("--repeats", type=int, default=1)
    study.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="sweep workers: 1 = serial (default), N = process pool of N, "
        "0 = all cores; results are identical for every value",
    )
    study.add_argument(
        "--timings",
        action="store_true",
        help="print per-stage wall times, task counts and cache stats",
    )
    study.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="record spans of the run as JSON lines to PATH "
        "('-' for stdout); inspect with 'repro-study trace show'",
    )

    cal = sub.add_parser("calibrate", help="re-derive the calibration")
    cal.add_argument("--probe", type=int, default=20000)
    cal.add_argument("--iterations", type=int, default=400)

    train = sub.add_parser("train", help="train and save a scorer")
    train.add_argument("model_path", type=Path)
    train.add_argument("--threshold", type=int, default=8)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--paper-scale", action="store_true")
    train.add_argument("--segments", type=int, default=6000)

    score = sub.add_parser("score", help="score a segment CSV")
    score.add_argument("model_path", type=Path)
    score.add_argument("segments_csv", type=Path)
    score.add_argument("--top", type=int, default=20)
    score.add_argument(
        "--out",
        type=Path,
        default=None,
        help="also write every segment's score to this CSV "
        "(rank, segment_id, probability, crash_prone)",
    )
    score.add_argument(
        "--json",
        action="store_true",
        help="emit machine-readable JSON instead of the text table",
    )
    score.add_argument(
        "--no-cache",
        action="store_true",
        help="parse the CSV directly instead of using the sidecar "
        ".rpdt binary cache",
    )
    score.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="record spans of the scoring pass as JSON lines to PATH "
        "('-' for stdout)",
    )

    serve = sub.add_parser("serve", help="serve scorers over HTTP")
    serve.add_argument("model_dir", type=Path)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080)
    serve.add_argument(
        "--max-batch",
        type=int,
        default=32,
        help="micro-batch size cap per model pass",
    )
    serve.add_argument(
        "--max-wait-ms",
        type=float,
        default=5.0,
        help=(
            "cap on how long a micro-batch waits for more requests "
            "(a cap, not a delay: a lone request is scored at once)"
        ),
    )
    serve.add_argument(
        "--cache-size",
        type=int,
        default=1024,
        help="LRU result cache capacity in rows (0 disables)",
    )
    serve.add_argument(
        "--max-body-bytes",
        type=int,
        default=8 * 1024 * 1024,
        help="refuse request bodies above this size with HTTP 413 "
        "(0 disables the limit)",
    )
    serve.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="record request/engine spans as JSON lines to PATH "
        "('-' for stdout)",
    )
    serve.add_argument(
        "--access-log",
        default=None,
        metavar="PATH",
        help="write one structured JSON line per HTTP request to PATH "
        "('-' for stdout)",
    )
    serve.add_argument(
        "--routes",
        action="store_true",
        help="enable the /v1/route/* route-risk endpoints (builds a "
        "synthetic study network on startup)",
    )
    serve.add_argument(
        "--route-segments",
        type=int,
        default=2000,
        help="segments of the route network (only with --routes)",
    )
    serve.add_argument(
        "--route-seed",
        type=int,
        default=7,
        help="seed of the route network (only with --routes)",
    )
    serve.add_argument(
        "--route-clusters",
        type=int,
        default=8,
        help="spatial hotspot clusters for route risk (only with "
        "--routes; 0 disables hotspot geometry)",
    )
    serve.add_argument(
        "--profile",
        action="store_true",
        help="run the continuous sampling profiler and expose "
        "GET /debug/profile (collapsed flamegraph stacks)",
    )
    serve.add_argument(
        "--profile-hz",
        type=float,
        default=19.0,
        help="profiler sampling rate in Hz (only with --profile)",
    )
    serve.add_argument(
        "--slo",
        action="append",
        type=Path,
        default=[],
        metavar="SPEC",
        help="SLO spec file (JSON; repeatable): track live burn rates "
        "and error budgets, exposed in both /metrics formats",
    )

    profile = sub.add_parser(
        "profile",
        help="capture a sampling profile (collapsed flamegraph) of a run",
    )
    profile_sub = profile.add_subparsers(
        dest="profile_command", required=True
    )

    def _profile_common(p):
        p.add_argument("--hz", type=float, default=19.0,
                       help="sampling rate in Hz")
        p.add_argument("--top", type=int, default=15,
                       help="hottest stacks to print")
        p.add_argument("--out", type=Path, default=None,
                       help="write the full collapsed profile to this "
                       "file (flamegraph.pl / speedscope input)")
        p.add_argument("--span", default=None,
                       help="only keep samples taken under this span "
                       "name (e.g. engine.score_rows)")

    pstudy = profile_sub.add_parser(
        "study", help="profile the three-phase study"
    )
    pstudy.add_argument("--seed", type=int, default=0)
    pstudy.add_argument("--paper-scale", action="store_true")
    pstudy.add_argument("--segments", type=int, default=6000)
    pstudy.add_argument("--clusters", type=int, default=32)
    pstudy.add_argument("--repeats", type=int, default=1)
    pstudy.add_argument("--jobs", type=int, default=1)
    _profile_common(pstudy)

    pscore = profile_sub.add_parser(
        "score", help="profile a scoring pass over a segment CSV"
    )
    pscore.add_argument("model_path", type=Path)
    pscore.add_argument("segments_csv", type=Path)
    _profile_common(pscore)

    top = sub.add_parser(
        "top",
        help="live windowed rates of a running server (like top(1))",
    )
    top.add_argument("url", help="server base URL (e.g. http://127.0.0.1:8080)")
    top.add_argument("--once", action="store_true",
                     help="print one snapshot and exit")
    top.add_argument("--interval", type=float, default=2.0,
                     help="refresh interval in seconds (watch mode)")
    top.add_argument("--window", default="1m",
                     choices=("1m", "5m", "1h"),
                     help="which rolling window to show")

    routes = sub.add_parser(
        "routes",
        help="route-risk queries over the scored road network",
    )
    routes_sub = routes.add_subparsers(dest="routes_command", required=True)

    def _routes_common(p, model=True):
        if model:
            p.add_argument("model_path", type=Path,
                           help="saved scorer artefact (repro-study train)")
        p.add_argument("--segments", type=int, default=2000,
                       help="segments of the synthetic study network")
        p.add_argument("--seed", type=int, default=7,
                       help="network seed (same seed, same network)")
        p.add_argument("--clusters", type=int, default=8,
                       help="spatial hotspot clusters (0 disables)")
        p.add_argument("--json", action="store_true",
                       help="emit machine-readable JSON")

    rb = routes_sub.add_parser(
        "build", help="score the network and report the risk graph"
    )
    _routes_common(rb)

    rq = routes_sub.add_parser(
        "query", help="safest vs shortest route between two towns"
    )
    _routes_common(rq)
    rq.add_argument("origin", help="origin town (e.g. town_003)")
    rq.add_argument("destination", help="destination town")
    rq.add_argument("--alpha", type=float, default=None,
                    help="risk weight in [0,1] (default 0.3)")
    rq.add_argument("--k", type=int, default=3,
                    help="alternative routes to weigh (1-8)")

    rp = routes_sub.add_parser(
        "precompute", help="warm the route store with popular pairs"
    )
    _routes_common(rp)
    rp.add_argument("--pairs", type=int, default=16,
                    help="popular town pairs to precompute")
    rp.add_argument("--alpha", type=float, default=None,
                    help="risk weight in [0,1] (default 0.3)")
    rp.add_argument("--k", type=int, default=3,
                    help="alternative routes per pair (1-8)")

    rt = routes_sub.add_parser(
        "top-risk", help="the network's riskiest routes, worst first"
    )
    _routes_common(rt)
    rt.add_argument("--top", type=int, default=10,
                    help="how many routes to report")

    load = sub.add_parser(
        "loadtest",
        help="load-test a scoring service and gate on SLOs",
    )
    load.add_argument(
        "model_dir",
        type=Path,
        nargs="?",
        default=None,
        help="model directory to self-host (omit with --url)",
    )
    load.add_argument(
        "--url",
        default=None,
        help="target an already-running service instead of self-hosting",
    )
    load.add_argument(
        "--profile",
        default="mixed",
        help="workload mix: mixed | score | batch | browse | routes",
    )
    load.add_argument("--duration", type=float, default=5.0,
                      help="measured window in seconds")
    load.add_argument(
        "--rate",
        type=float,
        default=0.0,
        help="open-loop offered load in req/s (0 = closed loop)",
    )
    load.add_argument(
        "--arrival",
        choices=("fixed", "poisson"),
        default="poisson",
        help="open-loop arrival process (only used with --rate)",
    )
    load.add_argument("--clients", type=int, default=4,
                      help="concurrent keep-alive connections")
    load.add_argument("--warmup", type=float, default=1.0,
                      help="warmup seconds before the measured window")
    load.add_argument("--seed", type=int, default=7,
                      help="workload-schedule seed (same seed, same requests)")
    load.add_argument("--model", default=None,
                      help="model name to score against (default: the only one)")
    load.add_argument("--batch-size", type=int, default=16,
                      help="rows per /v1/score/batch request")
    load.add_argument("--segments", type=int, default=2000,
                      help="synthetic segments to draw payload rows from")
    load.add_argument(
        "--slo",
        action="append",
        type=Path,
        default=[],
        metavar="SPEC",
        help="SLO spec file (JSON; repeatable); any violation exits 1",
    )
    load.add_argument("--json", action="store_true",
                      help="emit the machine-readable report")
    load.add_argument("--slowest", type=int, default=5,
                      help="how many slowest requests to report")
    load.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="record the self-hosted server's spans as JSON lines "
        "('-' for stdout; ignored with --url)",
    )
    load.add_argument(
        "--sanitize-locks",
        action="store_true",
        help="wrap the self-hosted run in the runtime lock-order "
        "sanitizer and cross-check the static lock model; any observed "
        "cycle or model gap fails the run (ignored with --url)",
    )

    wet = sub.add_parser("wetdry", help="wet/dry crash differentiation")
    wet.add_argument("--seed", type=int, default=0)
    wet.add_argument("--segments", type=int, default=6000)

    trace = sub.add_parser("trace", help="inspect --trace-out span files")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    show = trace_sub.add_parser(
        "show", help="render a trace file as per-trace waterfalls"
    )
    show.add_argument("trace_file", type=Path)
    show.add_argument(
        "--width",
        type=int,
        default=32,
        help="bar width of the waterfall rendering",
    )

    lint = sub.add_parser(
        "lint",
        help="run the project static-analysis rules (REP001-REP005)",
    )
    add_lint_arguments(lint)
    return parser


@contextmanager
def _cli_tracer(trace_out: str | None):
    """Activate tracing for one CLI run when ``--trace-out`` was given.

    Installs an enabled tracer (streaming to a JSON-lines sink) as the
    process-wide default, so every instrumentation site in the library
    records into it — including threads the command spawns.  Restores
    the previous default and closes the sink afterwards.
    """
    if trace_out is None:
        yield None
        return
    from repro.obs import JsonlSpanSink, Tracer, set_default_tracer

    sink = JsonlSpanSink(trace_out)
    tracer = Tracer(enabled=True, sink=sink)
    previous = set_default_tracer(tracer)
    try:
        yield tracer
    finally:
        set_default_tracer(previous)
        n_spans = sink.n_spans
        sink.close()
        if str(trace_out) != "-":
            print(
                f"wrote {n_spans} spans -> {trace_out}", file=sys.stderr
            )


def _make_dataset(args):
    if getattr(args, "paper_scale", False):
        config = paper_scale_config()
    else:
        config = small_config(n_segments=args.segments, n_towns=18)
    return QDTMRSyntheticGenerator(config).generate(seed=args.seed)


def _cmd_generate(args) -> int:
    dataset = _make_dataset(args)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(dataset.segment_table, args.out_dir / "segments.csv")
    write_csv(dataset.crash_instances, args.out_dir / "crash_instances.csv")
    write_csv(
        dataset.no_crash_instances, args.out_dir / "no_crash_instances.csv"
    )
    print(
        f"wrote {dataset.segment_table.n_rows} segments, "
        f"{dataset.n_crash_instances} crash instances and "
        f"{dataset.n_no_crash_instances} no-crash instances "
        f"to {args.out_dir}/"
    )
    return 0


def _cmd_study(args) -> int:
    dataset = _make_dataset(args)
    study = CrashPronenessStudy(
        dataset, seed=args.seed, repeats=args.repeats
    )
    with _cli_tracer(args.trace_out):
        report = study.run_full_study(
            n_clusters=args.clusters, n_jobs=args.jobs
        )
    for phase, label in ((report.phase1, "Phase 1"), (report.phase2, "Phase 2")):
        print(render_table(
            ["Target", "R2", "NPV", "PPV", "MCPV", "misclass", "leaves"],
            [
                [
                    f"> {r.threshold}",
                    r.r_squared,
                    r.npv,
                    r.ppv,
                    r.mcpv,
                    f"{100 * r.misclassification_rate:.1f}%",
                    r.decision_leaves,
                ]
                for r in phase.results
            ],
            title=f"{label} tree models",
        ))
        print()
    print(render_series(
        {
            "bayes MCPV": {
                r.threshold: r.assessment.mcpv for r in report.bayes
            },
            "bayes Kappa": {
                r.threshold: r.assessment.kappa for r in report.bayes
            },
        },
        x_label="threshold",
        title="Naive Bayes sweep (10-fold CV)",
    ))
    print()
    print(report.selection.describe())
    clustering = report.clustering
    print(
        f"phase 3: {clustering.n_very_low_crash_clusters} very-low-crash "
        f"clusters of {clustering.n_clusters}; ANOVA "
        f"p={clustering.anova.p_value:.3g}"
    )
    if args.timings and report.timings is not None:
        print()
        print(report.timings.render())
    return 0


def _cmd_calibrate(args) -> int:
    report = calibrate_crash_process(
        n_probe=args.probe,
        max_iterations=args.iterations,
        free_parameters=(
            "hurdle_intercept",
            "count_log_mean",
            "count_dispersion",
        ),
    )
    print("\n".join(report.summary_lines()))
    return 0


def _cmd_train(args) -> int:
    dataset = _make_dataset(args)
    scorer = CrashPronenessScorer.train(
        dataset.crash_instances,
        threshold=args.threshold,
        seed=args.seed,
        metadata={"source": "synthetic", "segments": dataset.segment_table.n_rows},
    )
    scorer.save(args.model_path)
    print(f"saved {scorer.describe()} -> {args.model_path}")
    return 0


def _cmd_score(args) -> int:
    scorer = CrashPronenessScorer.load(args.model_path)
    # The sidecar binary cache makes repeated scoring runs over the
    # same extract skip the CSV parse (mmap load, checksum-invalidated).
    if args.no_cache:
        table = read_csv(args.segments_csv)
    else:
        table = cached_read_csv(args.segments_csv)
    with _cli_tracer(args.trace_out):
        probabilities = scorer.score(table)
    ranked_all = scorer.treatment_list(table, probabilities=probabilities)
    ranked = ranked_all[: args.top] if args.top is not None else ranked_all
    if args.out is not None:
        from repro.datatable import DataTable

        write_csv(
            DataTable.from_columns(
                {
                    "rank": [s.rank for s in ranked_all],
                    "segment_id": [s.segment_id for s in ranked_all],
                    "probability": [s.probability for s in ranked_all],
                    "crash_prone": [int(s.crash_prone) for s in ranked_all],
                }
            ),
            args.out,
        )
        print(
            f"wrote {len(ranked_all)} scored segments -> {args.out}",
            file=sys.stderr,
        )
    if args.json:
        print(json.dumps(
            {
                "model": scorer.describe(),
                "threshold": scorer.threshold,
                "n_segments": table.n_rows,
                "expected_prone_km": float(probabilities.sum()),
                "results": [
                    {
                        "rank": s.rank,
                        "segment_id": s.segment_id,
                        "probability": s.probability,
                        "crash_prone": s.crash_prone,
                    }
                    for s in ranked
                ],
            },
            indent=2,
        ))
        return 0
    print(scorer.describe())
    print(render_table(
        ["rank", "segment_id", "P(crash prone)", "flag"],
        [
            [s.rank, s.segment_id, s.probability, "PRONE" if s.crash_prone else ""]
            for s in ranked
        ],
        title=f"Top {len(ranked)} treatment candidates",
    ))
    print(
        f"expected crash-prone km across the file: "
        f"{probabilities.sum():.0f}"
    )
    return 0


def _route_planner(segments: int, seed: int, clusters: int):
    """A RoutePlanner over a freshly generated synthetic network."""
    from repro.routing import RoutePlanner

    config = small_config(n_segments=segments, n_towns=18)
    dataset = QDTMRSyntheticGenerator(config).generate(seed=seed)
    return RoutePlanner(dataset, n_clusters=clusters)


def _cmd_serve(args) -> int:
    from repro.serving import ScoringService

    route_planner = None
    if args.routes:
        route_planner = _route_planner(
            args.route_segments, args.route_seed, args.route_clusters
        )
    burn_engine = None
    if args.slo:
        from repro.obs import SLOBurnEngine

        burn_engine = SLOBurnEngine.from_paths(args.slo)
    with _cli_tracer(args.trace_out) as tracer:
        profiler = None
        if args.profile:
            from repro.obs import SamplingProfiler, Tracer

            # The profiler attributes samples to the tracer the service
            # runs under; without --trace-out, attach to an enabled
            # tracer anyway so span attribution works.
            if tracer is None:
                tracer = Tracer(enabled=True)
            profiler = SamplingProfiler(hz=args.profile_hz, tracer=tracer)
            profiler.start()
        service = ScoringService(
            args.model_dir,
            host=args.host,
            port=args.port,
            max_batch=args.max_batch,
            max_wait_ms=args.max_wait_ms,
            cache_size=args.cache_size,
            max_body_bytes=args.max_body_bytes,
            tracer=tracer,
            access_log=args.access_log,
            route_planner=route_planner,
            burn_engine=burn_engine,
            profiler=profiler,
        )
        # A supervisor stops a service with SIGTERM: drain and close as
        # on Ctrl-C.  A second signal during the drain ends the process.
        previous_term = signal.signal(
            signal.SIGTERM, signal.default_int_handler
        )
        try:
            # Bind before the ready lines: they name the bound port, and
            # a client that connects on "endpoints:" finds it listening.
            service.bind()
            names = ", ".join(service.registry.names()) or "none"
            print(f"serving {len(service.registry)} scorer(s) [{names}]")
            print(f"listening on {service.url}")
            endpoints = (
                "endpoints: GET /healthz | GET /models | "
                "GET /metrics[?format=prometheus] | "
                "POST /v1/score | POST /v1/score/batch"
            )
            if profiler is not None:
                endpoints += " | GET /debug/profile[?format=json]"
                print(
                    f"profiling: sampling every thread at "
                    f"{args.profile_hz:g} Hz"
                )
            if burn_engine is not None:
                print(
                    "slo tracking: "
                    + ", ".join(burn_engine.spec_names)
                )
            if route_planner is not None:
                endpoints += (
                    " | GET /v1/route/towns | POST /v1/route/score | "
                    "POST /v1/route/safest"
                )
                stats = route_planner.stats()
                print(
                    f"routing: {stats['towns']} towns, {stats['routes']} "
                    f"routes, {stats['clusters']} hotspot clusters "
                    f"(seed {args.route_seed})"
                )
            print(endpoints, flush=True)
            service.serve_forever()
        except KeyboardInterrupt:
            print("\nshutting down")
            print(service.metrics.render())
        finally:
            signal.signal(signal.SIGTERM, previous_term)
            if profiler is not None:
                profiler.stop()
            service.close()
    return 0


def _cmd_profile(args) -> int:
    """Run a study/score workload under the sampling profiler."""
    from repro.obs import SamplingProfiler, Tracer, set_default_tracer

    tracer = Tracer(enabled=True)
    profiler = SamplingProfiler(hz=args.hz, tracer=tracer)
    previous = set_default_tracer(tracer)
    try:
        with profiler:
            if args.profile_command == "study":
                dataset = _make_dataset(args)
                study = CrashPronenessStudy(
                    dataset, seed=args.seed, repeats=args.repeats
                )
                study.run_full_study(
                    n_clusters=args.clusters, n_jobs=args.jobs
                )
            else:  # score
                scorer = CrashPronenessScorer.load(args.model_path)
                scorer.score(cached_read_csv(args.segments_csv))
    finally:
        set_default_tracer(previous)
    stats = profiler.stats()
    collapsed = profiler.render_collapsed(args.span)
    if args.out is not None:
        args.out.write_text(
            collapsed + ("\n" if collapsed else ""), encoding="utf-8"
        )
        print(
            f"wrote {len(collapsed.splitlines())} folded stacks -> "
            f"{args.out}",
            file=sys.stderr,
        )
    print(
        f"profiled {stats['elapsed_seconds']:.2f}s at {stats['hz']:g} Hz: "
        f"{stats['samples']} samples, {stats['distinct_stacks']} distinct "
        f"stacks, {stats['dropped_stacks']} dropped"
    )
    span_note = f" under span {args.span!r}" if args.span else ""
    lines = collapsed.splitlines()
    if not lines:
        print(f"no samples captured{span_note}")
        return 0
    print(f"\nhottest stacks{span_note} (self samples, leaf frame):")
    for line in lines[: args.top]:
        stack, _, count = line.rpartition(" ")
        leaf = stack.rsplit(";", 1)[-1]
        print(f"  {int(count):6d}  {leaf}  [{stack.count(';') + 1} frames]")
    span_self = {
        name: n
        for name, n in profiler.self_time_by_span().items()
        if name
    }
    if span_self:
        total = stats["samples"] or 1
        print()
        print(render_table(
            ["span", "self samples", "self seconds", "share"],
            [
                [
                    name,
                    n,
                    f"{n / stats['hz']:.2f}",
                    f"{100.0 * n / total:.1f}%",
                ]
                for name, n in sorted(
                    span_self.items(), key=lambda kv: -kv[1]
                )
            ],
            title="Self time by active span",
        ))
    return 0


def _cmd_top(args) -> int:
    """One-shot or watch view of a live server's windowed rates."""
    import time as time_mod
    import urllib.request

    base = args.url.rstrip("/")

    def snapshot() -> str:
        with urllib.request.urlopen(base + "/metrics", timeout=10) as resp:
            payload = json.loads(resp.read())
        windows = payload.get("windows", {})
        rows = []
        for endpoint in sorted(windows):
            w = windows[endpoint].get(args.window)
            if w is None:
                continue
            def _ms(v):
                return f"{1000.0 * v:.1f}" if v is not None else "-"
            rows.append(
                [
                    endpoint,
                    w["count"],
                    f"{w['rate']:.1f}",
                    f"{100.0 * w['error_rate']:.1f}%",
                    _ms(w["p50"]),
                    _ms(w["p95"]),
                    _ms(w["p99"]),
                    _ms(w["max"]),
                    w["slowest_trace_id"] or "-",
                ]
            )
        if not rows:
            return f"no traffic inside the last {args.window} yet"
        text = render_table(
            ["endpoint", "reqs", "req/s", "err", "p50 ms", "p95 ms",
             "p99 ms", "max ms", "slowest trace"],
            rows,
            title=f"{base} — last {args.window}",
        )
        slo = payload.get("slo")
        if slo and slo.get("rules"):
            burn_lines = ["slo burn rates:"]
            for rule in slo["rules"]:
                burn_lines.append(
                    f"  {rule['slo']}/{rule['rule']} {rule['endpoint']}: "
                    f"fast={rule['fast_burn_rate']:.2f} "
                    f"slow={rule['slow_burn_rate']:.2f} "
                    f"budget_remaining={rule['budget_remaining']:.1%}"
                )
            text += "\n" + "\n".join(burn_lines)
        return text

    if args.once:
        print(snapshot())
        return 0
    try:
        while True:
            print(snapshot())
            print()
            time_mod.sleep(args.interval)
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_routes(args) -> int:
    import time

    from repro.core.deployment import payload_checksum

    scorer = CrashPronenessScorer.load(args.model_path)
    payload = scorer.to_dict()
    checksum = payload.get("checksum") or payload_checksum(payload)
    planner = _route_planner(args.segments, args.seed, args.clusters)

    if args.routes_command == "build":
        t0 = time.perf_counter()
        graph = planner.graph_for(scorer, checksum)
        build_s = time.perf_counter() - t0
        info = dict(graph.describe())
        info["clusters"] = len(planner.clusters)
        info["build_seconds"] = round(build_s, 4)
        if args.json:
            print(json.dumps(info, indent=2))
            return 0
        print(f"risk graph for artefact {checksum[:12]}…")
        for key, value in info.items():
            print(f"  {key}: {value}")
        return 0

    if args.routes_command == "query":
        result = planner.plan_safest(
            scorer,
            checksum,
            args.origin,
            args.destination,
            alpha=args.alpha,
            k=args.k,
        )
        if args.json:
            print(json.dumps(result, indent=2))
            return 0
        safest, shortest = result["safest"], result["shortest"]
        print(
            f"{result['origin']} -> {result['destination']} "
            f"(alpha={result['alpha']}, k={result['k']})"
        )
        for label, plan in (("safest", safest), ("shortest", shortest)):
            print(
                f"  {label:9s} {' -> '.join(plan['towns'])}  "
                f"[{plan['length_km']:.1f} km, "
                f"{plan['expected_crashes']:.2f} expected crashes, "
                f"worst segment {plan['worst_segment_probability']:.3f}, "
                f"{plan['hotspot_crossings']} hotspot crossing(s)]"
            )
        print(
            f"  taking the safest route trades "
            f"{result['extra_length_km']:.1f} extra km for "
            f"{result['risk_reduction']:.2f} fewer expected crashes"
        )
        return 0

    if args.routes_command == "precompute":
        t0 = time.perf_counter()
        n = planner.precompute(
            scorer,
            checksum,
            alpha=args.alpha,
            k=args.k,
            limit=args.pairs,
        )
        elapsed = time.perf_counter() - t0
        stats = planner.stats()["store"]
        print(
            f"precomputed {n} plans for {args.pairs} pairs in "
            f"{elapsed:.2f}s ({n / max(elapsed, 1e-9):.0f} plans/s); "
            f"store holds {stats['entries']} entrie(s)"
        )
        return 0

    # top-risk
    rows = planner.top_risk_routes(scorer, checksum, limit=args.top)
    if args.json:
        print(json.dumps(rows, indent=2))
        return 0
    print(render_table(
        ["route", "from", "to", "km", "E[crashes]", "worst", "hotspot"],
        [
            [
                r["route_id"],
                r["from"],
                r["to"],
                f"{r['length_km']:.1f}",
                f"{r['expected_crashes']:.2f}",
                f"{r['worst_segment_probability']:.3f}",
                r["hotspot_segments"],
            ]
            for r in rows
        ],
        title=f"Top {len(rows)} risk routes (artefact {checksum[:12]}…)",
    ))
    return 0


def _loadtest_dataset(args):
    """The deterministic synthetic dataset payloads are drawn from."""
    config = small_config(n_segments=args.segments, n_towns=18)
    return QDTMRSyntheticGenerator(config).generate(seed=args.seed)


def _loadtest_rows(dataset, input_schema) -> list[dict]:
    """Schema-shaped payload rows from a synthetic dataset."""
    table = dataset.segment_table
    expected = list(input_schema)
    n = min(table.n_rows, 512)
    return table.select(expected).to_rows(limit=n)


def _cmd_loadtest(args) -> int:
    from repro.loadtest import SLOSpec
    from repro.loadtest.profiles import get_profile
    from repro.loadtest.runner import LoadTest

    if (args.model_dir is None) == (args.url is None):
        print(
            "loadtest needs exactly one target: a model_dir to "
            "self-host, or --url for a running service",
            file=sys.stderr,
        )
        return 2
    # Load the SLO specs before spending minutes generating load.
    specs = [SLOSpec.load(path) for path in args.slo]
    profile = get_profile(args.profile)
    dataset = _loadtest_dataset(args)

    monitor = None
    sanitizer = None
    if args.sanitize_locks and args.model_dir is None:
        print(
            "--sanitize-locks is ignored with --url: the sanitizer can "
            "only instrument a self-hosted service",
            file=sys.stderr,
        )
    if args.sanitize_locks and args.model_dir is not None:
        from repro.analysis import sanitize_locks

        # Enter before the service is constructed so every lock the
        # serving stack creates is instrumented from birth.
        sanitizer = sanitize_locks(strict=True)
        monitor = sanitizer.__enter__()
    service = None
    pairs = None
    try:
        if args.model_dir is not None:
            from repro.obs import JsonlSpanSink, Tracer
            from repro.serving import ScoringService

            route_planner = None
            if profile.needs_pairs():
                # Route traffic against a self-hosted service: enable
                # routing over the same dataset the payload rows come
                # from (same --seed/--segments).
                from repro.routing import RoutePlanner

                route_planner = RoutePlanner(dataset)
                pairs = route_planner.popular_pairs()
            sink = (
                JsonlSpanSink(args.trace_out)
                if args.trace_out is not None
                else None
            )
            tracer = Tracer(enabled=True, sink=sink)
            burn_engine = None
            if specs:
                from repro.obs import SLOBurnEngine

                # Self-hosted targets track the same SLOs server-side,
                # so the report's burn-rate block mirrors --slo gating.
                burn_engine = SLOBurnEngine(specs)
            service = ScoringService(
                args.model_dir,
                port=0,
                tracer=tracer,
                route_planner=route_planner,
                burn_engine=burn_engine,
            ).start()
            url = service.url
            names = service.registry.names()
            entry = service.registry.get(
                args.model if args.model is not None else
                (names[0] if names else "<empty>")
            )
            input_schema = entry.scorer.input_schema()
            print(
                f"self-hosting {len(service.registry)} scorer(s) "
                f"at {url}",
                file=sys.stderr,
            )
        else:
            import urllib.request

            url = args.url
            with urllib.request.urlopen(
                url.rstrip("/") + "/models", timeout=10
            ) as response:
                models = json.loads(response.read())["models"]
            by_name = {m["name"]: m for m in models}
            name = args.model or (
                models[0]["name"] if len(models) == 1 else None
            )
            if name is None or name not in by_name:
                available = ", ".join(sorted(by_name)) or "none"
                print(
                    f"pick a --model (available: {available})",
                    file=sys.stderr,
                )
                return 2
            input_schema = by_name[name]["inputs"]
            if profile.needs_pairs():
                from repro.routing import popular_town_pairs

                # The target decides its own network; ask it for towns.
                with urllib.request.urlopen(
                    url.rstrip("/") + "/v1/route/towns", timeout=10
                ) as response:
                    towns = json.loads(response.read())["towns"]
                pairs = popular_town_pairs(towns)

        rows = _loadtest_rows(dataset, input_schema)
        test = LoadTest(
            url,
            rows,
            service=service,
            profile=args.profile,
            clients=args.clients,
            duration=args.duration,
            rate=args.rate,
            arrival=args.arrival,
            warmup=args.warmup,
            seed=args.seed,
            model=args.model,
            batch_size=args.batch_size,
            slowest_k=args.slowest,
            pairs=pairs,
        )
        report = test.run()
    finally:
        if service is not None:
            service.close()
            if args.trace_out is not None:
                n_spans = service.tracer.sink.n_spans
                service.tracer.sink.close()
                if str(args.trace_out) != "-":
                    print(
                        f"wrote {n_spans} spans -> {args.trace_out}",
                        file=sys.stderr,
                    )
        if sanitizer is not None:
            sanitizer.__exit__(None, None, None)

    sanitizer_problems: list[str] = []
    if monitor is not None:
        print(monitor.summary(), file=sys.stderr)
        sanitizer_problems = list(monitor.violations)
        if Path("src/repro").is_dir():
            from repro.analysis import build_project, model_gaps

            _contexts, _graph, lock_model = build_project(["src"])
            sanitizer_problems.extend(model_gaps(monitor, lock_model))
        for problem in sanitizer_problems:
            print(f"SANITIZER: {problem}", file=sys.stderr)

    violations = []
    for spec in specs:
        violations.extend(spec.evaluate(report))
    if args.json:
        payload = report.to_dict()
        payload["slo"] = {
            "specs": [spec.name for spec in specs],
            "violations": [v.describe() for v in violations],
        }
        print(json.dumps(payload, indent=2))
    else:
        print(report.render())
        for violation in violations:
            print(f"SLO VIOLATION: {violation.describe()}")
    if not report.parity_ok:
        print(
            "FAIL: client/server request counts disagree — requests "
            "were lost",
            file=sys.stderr,
        )
        return 1
    if violations:
        print(
            f"FAIL: {len(violations)} SLO violation(s)", file=sys.stderr
        )
        return 1
    if sanitizer_problems:
        print(
            f"FAIL: {len(sanitizer_problems)} lock-sanitizer problem(s)",
            file=sys.stderr,
        )
        return 1
    if monitor is not None:
        print(
            "PASS: lock sanitizer observed no cycles; order graph "
            "consistent with the static model",
            file=sys.stderr,
        )
    if specs:
        print(
            f"PASS: {sum(len(s.rules) for s in specs)} SLO rule(s) held",
            file=sys.stderr,
        )
    return 0


def _cmd_trace(args) -> int:
    from repro.obs import read_spans, render_waterfall

    spans = read_spans(args.trace_file)
    try:
        print(render_waterfall(spans, width=args.width))
    except BrokenPipeError:
        # `trace show ... | head` closing the pipe early is normal use,
        # not an error.  Detach stdout so interpreter shutdown doesn't
        # raise a second time flushing the dead pipe.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


def _cmd_wetdry(args) -> int:
    dataset = _make_dataset(args)
    result = wet_dry_analysis(dataset.crash_instances)
    print(result.describe())
    verdict = (
        "differ" if result.distributions_differ() else "do not differ"
    )
    print(f"\n=> wet and dry crash F60 distributions {verdict}")
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "study": _cmd_study,
    "calibrate": _cmd_calibrate,
    "train": _cmd_train,
    "score": _cmd_score,
    "serve": _cmd_serve,
    "profile": _cmd_profile,
    "top": _cmd_top,
    "routes": _cmd_routes,
    "loadtest": _cmd_loadtest,
    "wetdry": _cmd_wetdry,
    "trace": _cmd_trace,
    "lint": run_lint,
}


def main(argv: list[str] | None = None) -> int:
    """Run one command; returns its exit code.

    A :class:`~repro.exceptions.ReproError` is a user's input error (a
    missing model file, a malformed CSV column): it prints one line to
    stderr and exits 2, as argparse does for a bad option.  Exit code 1
    stays reserved for a run that completed and failed its checks (an
    SLO violation).  Any other exception is a bug and propagates.
    """
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"repro-study: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
