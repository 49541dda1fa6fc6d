"""The workloads: ``study``, ``score-1`` and ``mixed-open``.

Every workload runs ``PROCESSES`` fresh measured processes one after
another, each timing an equal share of ``--seconds``: set-up is
therefore sampled several times per run (``setup_s`` is their median;
the serving workloads add ``SETUP_ONLY`` set-up-only servers before
each measured one) and the timed ops come from more than one process.
In a traced run the first and last measured processes are traced and
the middle one is not, which gives ``trace.overhead_pct`` from the same
run, seed and length.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import re
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from perfbench import host, loadgen
from perfbench.layers import LayerTotals
from perfbench.spans import Attribution, Op, Trace
from perfbench.stats import median, summary

PROCESSES = 3
DEFAULT_SEED = 2011

#: Digest of the default-seed study (see ``study_worker.digest``).
STUDY_DIGEST = "c233c0ab1eff49223bf7c7d84680cae7de39f5a01ed1ba6f7b8e1427bcc7cd3e"

#: Row pool of the serving workloads: distinct segments of a generated
#: network, about eight times the engine's 1024-row LRU.
POOL_SEGMENTS = 8000
WARM_SINGLES = 20
#: Serving set-up is mostly interpreter start-up and imports, whose
#: launch-to-launch jitter is large; this many set-up-only servers
#: (started, warmed up, stopped) precede each measured one, so that
#: ``setup_s`` is a median of ``PROCESSES * (1 + SETUP_ONLY)`` set-ups.
SETUP_ONLY = 1
#: mixed-open: Poisson arrivals per second (well below what two
#: connections sustain), a hot set that stays inside the LRU, and a few
#: popular route keys.
OPEN_RATE = 30.0
HOT_ROWS = 32
POPULAR_ROUTES = 4
#: Batch size and scrape period: the defaults of the program's own load
#: tester (``repro.loadtest.runner.LoadTestRunner``: ``batch_size=16``,
#: ``scrape_interval=1.0``).
BATCH_ROWS = 16
SCRAPE_EVERY = 1.0
#: One block of the open-loop mix, shuffled per block: the program's two
#: built-in load-test profiles sent side by side at equal rates
#: (``repro.loadtest.profiles.PROFILES``: ``mixed`` is score 0.80, batch
#: 0.15, models 0.05; ``routes`` is route_score 0.55, route_safest 0.35,
#: score 0.10), keeping the operations this workload sends: score 0.90,
#: batch 0.15 and route_safest 0.35, times 20.  Route requests alternate
#: between a popular key and a fresh alpha.
MIX_BLOCK = ("single",) * 18 + ("batch",) * 3 + ("route",) * 7


@dataclass
class Outcome:
    """What one run measured."""

    attempted: int = 0
    failed: int = 0
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    diagnostics: dict[str, tuple[float, str]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)


class Bench:
    """Paths, environment and run settings shared by the workloads."""

    def __init__(self, root: Path, seed: int, seconds: float, trace: bool):
        self.root = root
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = root / ".bench_build" / "perfbench"
        self.run_dir = self.work / f"run-{os.getpid()}"
        self.run_dir.mkdir(parents=True, exist_ok=True)
        (self.work / "tmp").mkdir(exist_ok=True)
        self.env = dict(
            os.environ,
            PYTHONPATH=str(root / "src"),
            PYTHONHASHSEED="0",
            PYTHONUNBUFFERED="1",
            REPRO_KERNEL_CACHE_DIR=str(self.work / "kernel"),
            TMPDIR=str(self.work / "tmp"),
        )
        self.env.pop("REPRO_NO_NATIVE_KERNEL", None)

    def modes(self) -> list[bool]:
        """Traced flag of each measured process."""
        if self.trace:
            return [True, False, True]
        return [False] * PROCESSES

    def log(self, name: str):
        return open(self.run_dir / f"{name}.log", "wb")


def _read_tagged(stream, tag: str) -> dict:
    for line in stream:
        if line.startswith(tag):
            return json.loads(line[len(tag):])
    raise RuntimeError(f"process ended before printing {tag.strip()}")


@dataclass
class Tally:
    """Measurements pooled over the processes of one run."""

    setups: list[float] = field(default_factory=list)
    rss: list[float] = field(default_factory=list)
    plain_ms: list[float] = field(default_factory=list)
    traced_ms: list[float] = field(default_factory=list)
    late_ms: list[float] = field(default_factory=list)
    cpu_s: float = 0.0
    steal_s: float = 0.0
    busy_s: float = 0.0
    totals: LayerTotals = field(default_factory=LayerTotals)

    def latency(self, traced: bool, due: float, sent: float, received: float) -> None:
        (self.traced_ms if traced else self.plain_ms).append(1e3 * (received - due))
        self.late_ms.append(1e3 * (sent - due))

    def finish(self, out: Outcome, trace: bool) -> None:
        """Fill ``out`` with the end-to-end metrics and diagnostics;
        ``ops_per_s`` is completed ops over measured wall time."""
        latencies = self.traced_ms if trace else self.plain_ms
        n_ops = len(self.plain_ms) + len(self.traced_ms)
        p50 = median(latencies)
        out.metrics = {
            "setup_s": (median(self.setups), "s"),
            "p50_ms": (p50, "ms"),
            "ops_per_s": (n_ops / self.busy_s, "1/s"),
            "peak_rss_mb": (median(self.rss), "MB"),
        }
        tails = summary(latencies)
        out.diagnostics.update(
            {
                "proc.cpu_ms_per_op": (1e3 * self.cpu_s / n_ops, "ms"),
                "host.steal_s": (self.steal_s, "s"),
                "loadgen.late_p50_ms": (median(self.late_ms), "ms"),
                "loadgen.late_max_ms": (max(self.late_ms), "ms"),
                "loadgen.p95_ms": (tails["p95"], "ms"),
                "loadgen.p99_ms": (tails["p99"], "ms"),
                "loadgen.samples": (float(tails["samples"]), "count"),
            }
        )
        if not trace:
            return
        if self.plain_ms:
            base = median(self.plain_ms)
            out.diagnostics["trace.overhead_pct"] = (100.0 * (p50 - base) / base, "%")
        out.diagnostics.update(self.totals.metrics())
        out.notes.append(
            "breakdown: layers + unattributed - op time = "
            f"{self.totals.closure_error_ms():.6f} ms per op"
        )
        if self.totals.missing:
            out.notes.append(
                "wrapped targets not found: " + ", ".join(sorted(self.totals.missing))
            )
        if self.totals.unknown_layers:
            out.notes.append(
                "layers folded into unattributed: "
                + ", ".join(sorted(self.totals.unknown_layers))
            )


# -- study -------------------------------------------------------------------
def run_study(bench: Bench) -> Outcome:
    out, tally = Outcome(), Tally()
    share = bench.seconds / PROCESSES
    for k, traced in enumerate(bench.modes()):
        spans_out = bench.run_dir / f"study-{k}.spans"
        cmd = [
            sys.executable,
            str(bench.root / "perfbench" / "study_worker.py"),
            "--seed", str(bench.seed),
            "--share", repr(share),
        ]
        if traced:
            cmd += ["--trace-out", str(spans_out)]
        with bench.log(f"study-{k}") as log:
            started = time.perf_counter()
            proc = subprocess.Popen(
                cmd, stdout=subprocess.PIPE, stderr=log, env=bench.env,
                cwd=bench.root, text=True,
            )
            try:
                ready = _read_tagged(proc.stdout, "READY ")
                result = _read_tagged(proc.stdout, "RESULT ")
                proc.stdout.read()
                proc.wait(timeout=60)
            finally:
                if proc.poll() is None:
                    proc.kill()
                proc.wait()
        if proc.returncode != 0:
            raise RuntimeError(f"study process exited with {proc.returncode}")
        tally.setups.append(ready["t"] - started)
        tally.busy_s += result["ops"][-1][1] - ready["t"]
        tally.rss.append(result["peak_rss_mb"])
        tally.cpu_s += result["cpu_s"]
        tally.steal_s += result["steal_s"]
        for t0, t1, op_digest in result["ops"]:
            out.attempted += 1
            wrong = op_digest != ready["digest"] or (
                bench.seed == DEFAULT_SEED and op_digest != STUDY_DIGEST
            )
            out.failed += int(wrong)
            tally.latency(traced, t0, t0, t1)
        if traced:
            trace = Trace.load(str(spans_out))
            op_index = [p for p, _k in trace.targets].index("perfbench:study-op")
            ops = [
                Op(r[1], r[2], result["thread"])
                for r in trace.threads.get(result["thread"], [])
                if r[0] == op_index and r[1] >= ready["t"]
            ]
            tally.totals.add(Attribution(trace), ops)
        out.notes.append(f"study process {k}: digest {ready['digest']}")
    tally.finish(out, bench.trace)
    return out


# -- serving -----------------------------------------------------------------
@dataclass
class Inputs:
    """Prep output: the saved CP-8 artefact and the rows it must score."""

    model_dir: Path
    row_bytes: list[bytes]
    expected: list[float]


def prepare_serving(bench: Bench) -> Inputs:
    """Generate the seed's network, train and save CP-8, and score every
    row offline with the saved artefact (the reference probabilities)."""
    from repro import QDTMRSyntheticGenerator, small_config
    from repro.core.deployment import CrashPronenessScorer

    dataset = QDTMRSyntheticGenerator(
        small_config(n_segments=POOL_SEGMENTS, n_towns=18)
    ).generate(seed=bench.seed)
    scorer = CrashPronenessScorer.train(
        dataset.crash_instances, threshold=8, seed=bench.seed
    )
    model_dir = bench.run_dir / "models"
    model_dir.mkdir(exist_ok=True)
    scorer.save(model_dir / "cp8.json")
    served = CrashPronenessScorer.load(model_dir / "cp8.json")
    table = dataset.segment_table
    expected = [float(p) for p in served.score(table)]
    rows = table.select(list(served.input_schema())).to_rows()
    seen: set[str] = set()
    row_bytes, kept = [], []
    for row, probability in zip(rows, expected):
        encoded = json.dumps(row)
        if encoded not in seen:  # distinct rows only: the pool must be cold
            seen.add(encoded)
            row_bytes.append(encoded.encode("utf-8"))
            kept.append(probability)
    return Inputs(model_dir, row_bytes, kept)


class Server:
    """A ``repro-study serve`` process with default settings."""

    def __init__(self, bench: Bench, inputs: Inputs, routes: bool, spans_out: Path | None, name: str):
        self.port = _free_port()
        serve = ["serve", str(inputs.model_dir), "--port", str(self.port)]
        if routes:
            serve.append("--routes")
        if spans_out is None:
            cmd = [sys.executable, "-m", "repro.cli", *serve]
        else:
            cmd = [
                sys.executable,
                str(bench.root / "perfbench" / "serve_traced.py"),
                str(spans_out),
                *serve,
            ]
        self._log = bench.log(name)
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=self._log, env=bench.env, cwd=bench.root
        )

    def wait_ready(self) -> loadgen.Connection:
        """Block on the server's own ready line, then connect."""
        for line in self.proc.stdout:
            if line.startswith(b"endpoints:"):
                return loadgen.connect_when_listening(self.port)
        raise RuntimeError("server exited before it was ready")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        finally:
            self._log.close()


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _score_request(inputs: Inputs, index: int) -> loadgen.Request:
    body = b'{"row":' + inputs.row_bytes[index] + b"}"
    return loadgen.Request("POST", "/v1/score", body, "single", index)


def _batch_request(inputs: Inputs, indices: list[int]) -> loadgen.Request:
    rows = b",".join(inputs.row_bytes[i] for i in indices)
    body = b'{"rows":[' + rows + b"]}"
    return loadgen.Request("POST", "/v1/score/batch", body, "batch", tuple(indices))


def _walk(rng: random.Random, pool: list[int]):
    """Endless walk over one shuffle of ``pool``: a row comes back only
    after every other row, so with a pool several times the engine's LRU
    every row arrives cold."""
    order = list(pool)
    rng.shuffle(order)
    return itertools.cycle(order)


_SAMPLE_LINE = re.compile(r"^[A-Za-z_:][A-Za-z0-9_:]*(\{.*\})? \S+$")


def _check(sample: loadgen.Sample, inputs: Inputs, route_bytes: dict) -> bool:
    """True when the reply is a 2xx with the right content."""
    if not 200 <= sample.status < 300:
        return False
    try:
        return _content_ok(sample, inputs, route_bytes)
    except (ValueError, KeyError, TypeError, IndexError):
        return False  # a malformed reply is a failed op, not a crash


def _content_ok(sample: loadgen.Sample, inputs: Inputs, route_bytes: dict) -> bool:
    request = sample.request
    if request.kind == "scrape":
        lines = [
            ln for ln in sample.body.decode("utf-8").splitlines()
            if ln and not ln.startswith("#")
        ]
        for line in lines:
            if not _SAMPLE_LINE.match(line):
                return False
            float(line.rsplit(" ", 1)[1])
        return any(ln.startswith("repro_") for ln in lines)
    data = json.loads(sample.body)
    if request.kind == "single":
        return data["probability"] == inputs.expected[request.key]
    if request.kind == "batch":
        got = [r["probability"] for r in data["results"]]
        return data["count"] == len(request.key) and got == [
            inputs.expected[i] for i in request.key
        ]
    safer = data["safest"]["expected_crashes"] <= data["shortest"]["expected_crashes"]
    if request.kind == "route-hot":
        return safer and sample.body == route_bytes[request.key]
    return safer


class ScoreOne:
    """Closed loop of single-row scores over one keep-alive connection."""

    routes = False
    connections = 1

    def __init__(self, bench: Bench, inputs: Inputs, k: int):
        rng = random.Random(f"{bench.seed}:score-1:{k}")
        walk = _walk(rng, list(range(len(inputs.row_bytes))))
        self.requests = (_score_request(inputs, i) for i in walk)

    def warm_up(self, conns) -> dict:
        for _ in range(WARM_SINGLES):
            _expect_ok(conns[0], next(self.requests))
        return {}

    def measure(self, conns, window: float) -> list[loadgen.Sample]:
        return loadgen.closed_loop(conns[0], self.requests, time.perf_counter() + window)


class MixedOpen:
    """Open loop over two connections: hot singles, cold 16-row batches,
    safest-route queries (half on popular keys, half with a fresh alpha)
    and a periodic Prometheus scrape."""

    routes = True
    connections = 2

    def __init__(self, bench: Bench, inputs: Inputs, k: int):
        self.inputs = inputs
        self.rng = random.Random(f"{bench.seed}:mixed-open:{k}")
        pool = list(range(len(inputs.row_bytes)))
        self.rng.shuffle(pool)
        self.hot = pool[:HOT_ROWS]
        self.cold = _walk(self.rng, pool[HOT_ROWS:])

    def _route(self, pair, alpha, kind, key=None) -> loadgen.Request:
        body = json.dumps({"from": pair[0], "to": pair[1], "alpha": alpha}).encode()
        return loadgen.Request("POST", "/v1/route/safest", body, kind, key)

    def warm_up(self, conns) -> dict:
        status, body = conns[0].request("GET", "/v1/route/towns")
        if status != 200:
            raise RuntimeError(f"GET /v1/route/towns returned {status}")
        names = sorted(t["name"] for t in json.loads(body)["towns"])
        self.pairs = [(a, b) for a in names for b in names if a != b]
        self.popular = [
            (self.rng.choice(self.pairs), round(self.rng.uniform(0.1, 0.9), 3))
            for _ in range(POPULAR_ROUTES)
        ]
        self.used_alphas = {alpha for _pair, alpha in self.popular}
        route_bytes = {}
        for key, (pair, alpha) in enumerate(self.popular):
            route_bytes[key] = _expect_ok(conns[0], self._route(pair, alpha, "route-hot", key))
        for i in self.hot:
            _expect_ok(conns[0], _score_request(self.inputs, i))
        _expect_ok(conns[1], _batch_request(self.inputs, self._cold_batch()))
        _expect_ok(conns[1], loadgen.Request("GET", "/metrics?format=prometheus", b"", "scrape"))
        return route_bytes

    def _cold_batch(self) -> list[int]:
        return [next(self.cold) for _ in range(BATCH_ROWS)]

    def schedule(self, window: float) -> list[loadgen.Request]:
        rng = self.rng
        kinds: list[str] = []
        offsets = loadgen.poisson_offsets(rng, OPEN_RATE, window)
        while len(kinds) < len(offsets):
            block = list(MIX_BLOCK)
            rng.shuffle(block)
            kinds.extend(block)
        requests = []
        routes = itertools.cycle(("route-hot", "route-cold"))
        for due, kind in zip(offsets, kinds):
            if kind == "route":
                kind = next(routes)
            if kind == "single":
                index = rng.choice(self.hot)
                r = _score_request(self.inputs, index)
            elif kind == "batch":
                r = _batch_request(self.inputs, self._cold_batch())
            elif kind == "route-hot":
                key = rng.randrange(POPULAR_ROUTES)
                pair, alpha = self.popular[key]
                r = self._route(pair, alpha, kind, key)
            else:
                alpha = round(rng.uniform(0.05, 0.95), 6)
                while alpha in self.used_alphas:
                    alpha = round(rng.uniform(0.05, 0.95), 6)
                self.used_alphas.add(alpha)
                r = self._route(rng.choice(self.pairs), alpha, kind)
            requests.append(loadgen.Request(r.method, r.path, r.body, r.kind, r.key, due))
        scrape = SCRAPE_EVERY / 2
        while scrape < window:
            requests.append(
                loadgen.Request("GET", "/metrics?format=prometheus", b"", "scrape", None, scrape)
            )
            scrape += SCRAPE_EVERY
        requests.sort(key=lambda r: r.due)
        return requests

    def measure(self, conns, window: float) -> list[loadgen.Sample]:
        schedule = self.schedule(window)
        return loadgen.open_loop(conns, schedule, time.perf_counter())


def _expect_ok(conn: loadgen.Connection, request: loadgen.Request) -> bytes:
    status, body = conn.request(request.method, request.path, request.body)
    if status != 200:
        raise RuntimeError(f"warm-up {request.kind} request returned {status}")
    return body


SERVING = {"score-1": ScoreOne, "mixed-open": MixedOpen}


def _start(bench: Bench, inputs: Inputs, workload, spans_out: Path | None, name: str):
    """Launch a server and warm it up; the time this takes is one
    ``setup_s`` sample."""
    server = Server(bench, inputs, workload.routes, spans_out, name)
    conns: list[loadgen.Connection] = []
    try:
        conns.append(server.wait_ready())
        while len(conns) < workload.connections:
            conns.append(loadgen.Connection(server.port))
        route_bytes = workload.warm_up(conns)
    except BaseException:
        _stop(server, conns)
        raise
    return server, conns, route_bytes, time.perf_counter() - server.started


def _stop(server: Server, conns: list[loadgen.Connection]) -> None:
    for conn in conns:
        conn.close()
    server.stop()


def run_serving(bench: Bench, name: str) -> Outcome:
    out, tally = Outcome(), Tally()
    inputs = prepare_serving(bench)
    workload_cls = SERVING[name]
    window = bench.seconds / PROCESSES
    for k, traced in enumerate(bench.modes()):
        for j in range(SETUP_ONLY):
            workload = workload_cls(bench, inputs, PROCESSES * (j + 1) + k)
            server, conns, _, setup = _start(bench, inputs, workload, None, f"{name}-{k}-{j}")
            _stop(server, conns)
            tally.setups.append(setup)
        workload = workload_cls(bench, inputs, k)
        spans_out = bench.run_dir / f"{name}-{k}.spans" if traced else None
        server, conns, route_bytes, setup = _start(bench, inputs, workload, spans_out, f"{name}-{k}")
        tally.setups.append(setup)
        try:
            first = time.perf_counter()
            cpu0, steal0 = host.cpu_seconds(server.proc.pid), host.steal_seconds()
            samples = workload.measure(conns, window)
            tally.busy_s += time.perf_counter() - first
            tally.cpu_s += host.cpu_seconds(server.proc.pid) - cpu0
            tally.steal_s += host.steal_seconds() - steal0
            tally.rss.append(host.peak_rss_mb(server.proc.pid))
        finally:
            _stop(server, conns)
        for sample in samples:
            out.attempted += 1
            out.failed += int(not _check(sample, inputs, route_bytes))
            tally.latency(traced, sample.due, sample.sent, sample.received)
        if traced:
            trace = Trace.load(str(spans_out))
            threads = {port: tid for tid, port in trace.ports.items()}
            ops = [Op(s.sent, s.received, threads.get(s.port, -1)) for s in samples]
            tally.totals.add(Attribution(trace), ops)
    tally.finish(out, bench.trace)
    return out


WORKLOADS = {"study": run_study, **{n: (lambda b, n=n: run_serving(b, n)) for n in SERVING}}
