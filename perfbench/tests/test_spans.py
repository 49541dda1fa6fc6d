import sys
import threading
import time
import types

import pytest

from perfbench import layers, spans
from perfbench.layers import LayerTotals
from perfbench.spans import (
    COUNT,
    PASS,
    SPAN,
    SUBMIT,
    WAIT,
    Attribution,
    Op,
    Recorder,
    Target,
    Trace,
)

HOME, ENGINE = 1, 2


def _trace(records: dict[int, list], targets: list[tuple[str, str, str]]) -> Trace:
    """A hand-made trace; ``targets`` are (path, kind, layer)."""
    layer_names = sorted({layer for _p, _k, layer in targets})
    index = {path: i for i, (path, _k, _l) in enumerate(targets)}
    layer_of = {path: layer_names.index(layer) for path, _k, layer in targets}
    threads = {
        tid: [(index[p], t0, t1, extra, layer_of[p]) for p, t0, t1, extra in recs]
        for tid, recs in records.items()
    }
    return Trace(
        threads=threads,
        targets=[(p, k) for p, k, _l in targets],
        layers=layer_names,
        ports={},
        missing=[],
    )


TARGETS = [
    ("handle", SPAN, "serving.http.handle"),
    ("submit", SUBMIT, "serving.engine.submit"),
    ("wait", WAIT, "serving.engine.wait"),
    ("pass", PASS, "serving.engine.score_rows"),
    ("kernel", SPAN, "mining.tree.kernel"),
    ("lookup", COUNT, "serving.engine.cache"),
]


def test_waiting_request_is_charged_to_the_engine_thread_that_served_it():
    # Request thread: handle [0,10] > submit [1,2] (row 7), wait [2,9].
    # Engine thread: pass [5,8] over row 7 > kernel [6,7]; an unrelated
    # pass [2.5,4] for row 8 must not be charged to this request.
    trace = _trace(
        {
            HOME: [
                ("submit", 1.0, 2.0, 7),
                ("wait", 2.0, 9.0, None),
                ("handle", 0.0, 10.0, None),
            ],
            ENGINE: [
                ("pass", 2.5, 4.0, (8,)),
                ("kernel", 6.0, 7.0, 1),
                ("pass", 5.0, 8.0, (7,)),
                ("lookup", 5.5, 5.5, 1),
            ],
        },
        TARGETS,
    )
    got = Attribution(trace).op_times(Op(-1.0, 11.0, HOME))
    assert got == pytest.approx(
        {
            spans.OUTSIDE: 2.0,
            "serving.http.handle": 2.0,
            "serving.engine.submit": 1.0,
            spans.QUEUE_WAIT: 3.0,
            "serving.engine.score_rows": 2.0,
            "mining.tree.kernel": 1.0,
            spans.UNATTRIBUTED: 1.0,
        }
    )
    assert sum(got.values()) == pytest.approx(12.0)


def test_nested_self_times_add_up_on_one_thread():
    trace = _trace(
        {HOME: [("kernel", 2.0, 3.0, 5), ("pass", 1.0, 4.0, ()), ("handle", 0.0, 6.0, None)]},
        TARGETS,
    )
    got = Attribution(trace).op_times(Op(0.0, 6.0, HOME))
    assert got == pytest.approx(
        {
            "serving.http.handle": 3.0,
            "serving.engine.score_rows": 2.0,
            "mining.tree.kernel": 1.0,
            spans.OUTSIDE: 0.0,
        }
    )


@pytest.fixture
def fake_program():
    """A stand-in module with a request thread and an engine thread."""
    module = types.ModuleType("perfbench_fake_program")
    sys.modules[module.__name__] = module
    code = '''
import queue, threading, time

def busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass

def kernel(n):
    busy(0.002)

def score_rows(self, rows):
    busy(0.001)
    kernel(len(rows))

class Engine:
    def __init__(self):
        self.q = queue.Queue()
        self.t = threading.Thread(target=self.run, daemon=True)
        self.t.start()
    def submit(self, row):
        busy(0.0005)
        done = threading.Event()
        self.q.put((row, done))
        return done
    def wait(self, row):
        done = self.submit(row)
        done.wait(5)
    def score_rows(self, rows):
        score_rows(self, rows)
    def run(self):
        while True:
            item = self.q.get()
            if item is None:
                return
            time.sleep(0.003)
            self.score_rows([item[0]])
            item[1].set()

def handle(engine, row):
    busy(0.001)
    engine.wait(row)
'''
    exec(code, module.__dict__)
    yield module
    del sys.modules[module.__name__]


def test_live_wrappers_across_two_threads_add_up(fake_program):
    name = fake_program.__name__
    rec = Recorder()
    spans.install(
        rec,
        [
            Target("serving.http.handle", f"{name}:handle"),
            Target("serving.engine.wait", f"{name}:Engine.wait", WAIT),
            Target("serving.engine.submit", f"{name}:Engine.submit", SUBMIT,
                   lambda a, k, r: id(a[1])),
            Target("serving.engine.score_rows", f"{name}:Engine.score_rows", PASS,
                   lambda a, k, r: tuple(id(x) for x in a[1])),
            Target("mining.tree.kernel", f"{name}:kernel"),
        ],
    )
    engine = fake_program.Engine()
    ops = []
    try:
        for _ in range(5):
            row = {"x": 1.0}
            t0 = time.perf_counter()
            fake_program.handle(engine, row)
            ops.append(Op(t0, time.perf_counter(), threading.get_ident()))
    finally:
        engine.q.put(None)
        engine.t.join(timeout=5)
        rec.uninstall()
    assert not engine.t.is_alive()
    assert rec.missing == []
    attribution = Attribution(rec.snapshot())
    for op in ops:
        got = attribution.op_times(op)
        assert sum(got.values()) == pytest.approx(op.end - op.start, abs=1e-9)
        assert got[spans.QUEUE_WAIT] > 0.002
        assert got["mining.tree.kernel"] > 0.0015
        assert got["serving.engine.score_rows"] > 0.0007
    totals = LayerTotals()
    totals.add(attribution, ops)
    assert totals.closure_error_ms() == pytest.approx(0.0, abs=1e-6)
    # uninstall restored the originals
    assert not hasattr(fake_program.kernel, "__wrapped__")
    assert "score_rows" not in vars(fake_program.Engine) or not hasattr(
        fake_program.Engine.score_rows, "__wrapped__"
    )


def test_missing_or_uncalled_targets_report_zero_calls(fake_program, monkeypatch):
    name = fake_program.__name__
    rec = Recorder()
    spans.install(
        rec,
        [
            Target("mining.tree.split", f"{name}:no_such_function"),
            Target("mining.tree.split", "perfbench_no_such_module:f"),
            Target("mining.tree.split", f"{name}:Engine.no_such_method"),
            Target("mining.tree.kernel", f"{name}:kernel"),
        ],
    )
    try:
        t0 = time.perf_counter()
        fake_program.busy(0.001)
        op = Op(t0, time.perf_counter(), threading.get_ident())
    finally:
        rec.uninstall()
    assert sorted(rec.missing) == sorted(
        [
            f"{name}:no_such_function",
            "perfbench_no_such_module:f",
            f"{name}:Engine.no_such_method",
        ]
    )
    totals = LayerTotals()
    totals.add(Attribution(rec.snapshot()), [op])
    metrics = totals.metrics()
    assert metrics["mining.tree.split_calls"] == (0.0, "count/op")
    assert metrics["mining.tree.kernel_ms"][0] == 0.0
    assert totals.closure_error_ms() == pytest.approx(0.0, abs=1e-6)


def test_real_targets_survive_a_removed_split_function(monkeypatch):
    splitting = pytest.importorskip("repro.mining.tree.splitting")
    monkeypatch.delattr(splitting, "best_numeric_split_f")
    rec = Recorder()
    spans.install(rec, layers.TARGETS)
    try:
        assert rec.missing == ["repro.mining.tree.splitting:best_numeric_split_f"]
    finally:
        rec.uninstall()
    assert not hasattr(splitting.best_numeric_split_chi2, "__wrapped__")
