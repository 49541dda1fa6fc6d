"""Serving-layer fixtures.

One scorer is trained per session (training is deterministic and
~0.2 s) and saved into a session model directory that registry /
service tests treat as the deploy root.  Tests that mutate artefacts
copy into their own ``tmp_path`` instead of touching this one.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.deployment import CrashPronenessScorer


@pytest.fixture(scope="session")
def serving_scorer(small_dataset) -> CrashPronenessScorer:
    return CrashPronenessScorer.train(
        small_dataset.crash_instances,
        threshold=8,
        seed=11,
        metadata={"note": "serving-tests"},
    )


@pytest.fixture(scope="session")
def model_dir(tmp_path_factory, serving_scorer):
    path = tmp_path_factory.mktemp("models")
    serving_scorer.save(path / "cp8.json")
    return path


@pytest.fixture(scope="session")
def segment_rows(small_dataset, serving_scorer) -> list[dict]:
    """Request-shaped rows: segment attributes only, in schema order."""
    expected = list(serving_scorer.input_schema())
    table = small_dataset.segment_table
    return [
        {name: row[name] for name in expected}
        for row in (table.row(i) for i in range(60))
    ]


class GatedPass:
    """A double for the engine's model pass that blocks until ``gate``
    is set.

    Installed over :meth:`ScoringEngine._evaluate`, the one call a
    pass makes into the model (the compiled plan).  Each call first
    sets ``in_pass`` and waits on ``gate``, then records the pass's
    distinct fresh row count in ``passes`` and delegates.  Holding the
    leading caller inside its pass lets a test queue requests behind
    it deterministically, instead of relying on timing.
    """

    def __init__(self, evaluate):
        self.evaluate = evaluate
        self.gate = threading.Event()
        self.in_pass = threading.Event()
        self.passes: list[int] = []

    def __call__(self, keys):
        self.in_pass.set()
        if not self.gate.wait(30.0):
            raise AssertionError("gate was never opened")
        self.passes.append(len(keys))
        return self.evaluate(keys)


@pytest.fixture()
def gate_engine():
    """Install a :class:`GatedPass` on an engine; returns the gate.

    Every installed gate is opened at teardown, so a failing test never
    leaves a leading caller blocked.
    """
    installed: list[GatedPass] = []

    def install(engine) -> GatedPass:
        gated = GatedPass(engine._evaluate)
        engine._evaluate = gated
        installed.append(gated)
        return gated

    yield install
    for gated in installed:
        gated.gate.set()


def wait_for_queued(engine, n: int, timeout: float = 10.0) -> None:
    """Block until ``n`` requests sit in the engine's pending queue
    (each queued request is one entry, however many rows it holds; a
    pass dequeues a request once it has taken all of its rows)."""
    deadline = time.monotonic() + timeout
    while len(engine._pending) < n:
        if time.monotonic() > deadline:
            raise AssertionError(
                f"expected {n} queued requests, have {len(engine._pending)}"
            )
        time.sleep(0.005)
