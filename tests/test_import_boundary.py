"""Which scipy and networkx modules a process loads on each path.

``scipy.stats`` (with ``scipy.optimize``, ``scipy.sparse`` and
``scipy.spatial``) and networkx take about 1.3 s to import, most of a
server's start-up.  Scoring needs neither; a study needs only
``scipy.special`` for its p-values and networkx to generate the road
network.  A server speaks HTTP through its own framing, so it loads
none of the stdlib's HTTP, mail or TLS modules, nor the load-test
client.  Each check runs in a fresh interpreter, because this test
session has imported scipy already.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.core.deployment import CrashPronenessScorer

SRC = Path(__file__).resolve().parents[1] / "src"

_REPORT = """
print(json.dumps({
    "result": result,
    "modules": sorted(
        m for m in sys.modules if m.split(".")[0] in ("scipy", "networkx")
    ),
    "http_stack": sorted(
        m for m in sys.modules
        if m.split(".")[0] in ("email", "ssl") or m.startswith("http.")
        or m == "repro.loadtest.runner"
    ),
}))
"""

_SERVE = """
import repro.cli
from repro.serving import ScorerRegistry, ScoringEngine

registry = ScorerRegistry(sys.argv[1])
registry.refresh()
entry = registry.get("cp8")
with ScoringEngine(entry.scorer, name=entry.name) as engine:
    result = engine.score_one(json.loads(sys.argv[2]))
"""

_SERVE_HTTP = """
import socket

import repro.cli
from repro.serving import ScoringService

body = json.dumps({"row": json.loads(sys.argv[2])}).encode()
with ScoringService(sys.argv[1], port=0).start() as service:
    with socket.create_connection(("127.0.0.1", service.port)) as sock:
        sock.sendall(
            b"POST /v1/score HTTP/1.1\\r\\nHost: test\\r\\nConnection: close\\r\\n"
            + b"Content-Length: %d\\r\\n\\r\\n" % len(body)
            + body
        )
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
result = json.loads(reply.partition(b"\\r\\n\\r\\n")[2])["probability"]
"""

_STUDY = """
from repro import CrashPronenessStudy, QDTMRSyntheticGenerator, small_config

dataset = QDTMRSyntheticGenerator(
    small_config(n_segments=1200, n_towns=12)
).generate(seed=0)
report = CrashPronenessStudy(dataset, seed=0).run_full_study()
result = report.clustering.anova.p_value
"""


def _run(script: str, *args: str) -> dict:
    """Run ``script`` in a fresh interpreter; return its result and the
    scipy/networkx modules loaded by the end."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), path]))}
    done = subprocess.run(
        [sys.executable, "-c", "import json, sys\n" + script + _REPORT, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_serving_loads_no_scipy_or_networkx(small_dataset, tmp_path):
    scorer = CrashPronenessScorer.train(
        small_dataset.crash_instances, threshold=8, seed=11
    )
    scorer.save(tmp_path / "cp8.json")
    names = list(scorer.input_schema())
    row = {name: small_dataset.segment_table.row(0)[name] for name in names}
    out = _run(_SERVE, str(tmp_path), json.dumps(row))
    assert 0.0 <= out["result"] <= 1.0
    assert out["modules"] == []


def test_serving_over_http_loads_no_stdlib_http_or_loadtest_client(
    small_dataset, tmp_path
):
    """``import repro.cli``, a started service and one row scored over a
    raw socket load no ``http.server``/``http.client``, ``email`` or
    ``ssl`` module, and not ``repro.loadtest.runner``."""
    scorer = CrashPronenessScorer.train(
        small_dataset.crash_instances, threshold=8, seed=11
    )
    scorer.save(tmp_path / "cp8.json")
    names = list(scorer.input_schema())
    row = {name: small_dataset.segment_table.row(0)[name] for name in names}
    out = _run(_SERVE_HTTP, str(tmp_path), json.dumps(row))
    assert 0.0 <= out["result"] <= 1.0
    assert out["http_stack"] == []


def test_study_loads_neither_scipy_stats_nor_optimize():
    out = _run(_STUDY)
    assert out["result"] < 0.05
    assert "scipy.special" in out["modules"]
    assert not [
        m
        for m in out["modules"]
        if m.startswith(("scipy.stats", "scipy.optimize"))
    ]
