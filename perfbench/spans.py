"""Benchmark-side tracing: wrappers, in-memory spans and attribution.

The traced run never reads the program's own spans or ``/metrics``.
Instead :func:`install` replaces the program's public functions with
thin wrappers (by attribute patching, so ``src/repro`` is unchanged on
disk) that append one record per call to a per-thread list:

    (target index, start, end, extra, layer index)

``start``/``end`` come from :func:`time.perf_counter`, which on Linux
reads ``CLOCK_MONOTONIC`` and so is comparable across processes: spans
recorded inside a server line up with the client's request times.

Attribution charges every instant of an op to exactly one layer, so a
breakdown always adds up to the op time:

* on the op's own thread, an instant belongs to the innermost wrapped
  call covering it (its *self time*), or to ``outside`` when no wrapped
  call covers it;
* while that innermost call is a *wait* (the request thread blocked on
  the scoring engine), the instant goes to the engine-thread work on a
  pass that holds one of the op's rows, else to ``queue_wait`` while
  one of its rows sits in the queue, else to ``unattributed``.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import marshal
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable

#: Call kinds.  ``span`` times a call; ``wait`` times a call whose self
#: time is spent blocked on another thread; ``submit`` and ``pass`` are
#: spans that also record which rows they queue or score; ``count``
#: records an event (with a hit flag) and no time.
SPAN, WAIT, SUBMIT, PASS, COUNT = "span", "wait", "submit", "pass", "count"

OUTSIDE = "outside"
UNATTRIBUTED = "unattributed"
QUEUE_WAIT = "queue_wait"


@dataclass(frozen=True)
class Target:
    """One wrapped callable.

    ``path`` is ``"module:Qualified.name"``.  ``probe`` extracts the
    record's ``extra`` from ``(args, kwargs, result)`` (for ``count``
    targets with ``before=True`` it runs before the call, with
    ``result=None``).  ``layer`` may be a callable of ``(args, kwargs)``
    returning the layer name, for calls whose layer depends on what they
    run.
    """

    layer: str | Callable[..., str]
    path: str
    kind: str = SPAN
    probe: Callable[..., Any] | None = None
    before: bool = False


class Recorder:
    """Holds the patches and the per-thread span lists of one process."""

    def __init__(self) -> None:
        self.targets: list[Target] = []
        self.missing: list[str] = []
        self.layer_names: list[str] = []
        self._layer_index: dict[str, int] = {}
        self.thread_ports: dict[int, int] = {}
        self._threads: dict[int, list] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any, bool]] = []

    # -- recording -----------------------------------------------------
    def records(self) -> list:
        """This thread's record list (created on first use)."""
        recs = getattr(self._local, "recs", None)
        if recs is None:
            recs = []
            self._local.recs = recs
            with self._lock:
                self._threads[threading.get_ident()] = recs
        return recs

    def layer_id(self, name: str) -> int:
        with self._lock:
            index = self._layer_index.get(name)
            if index is None:
                index = len(self.layer_names)
                self.layer_names.append(name)
                self._layer_index[name] = index
            return index

    def snapshot(self) -> "Trace":
        """A frozen copy of everything recorded so far."""
        with self._lock:
            threads = {tid: list(recs) for tid, recs in self._threads.items()}
        return Trace(
            threads=threads,
            targets=[(t.path, t.kind) for t in self.targets],
            layers=list(self.layer_names),
            ports=dict(self.thread_ports),
            missing=list(self.missing),
        )

    def dump(self, path: str) -> None:
        """Write the spans out (marshal: flat tuples, fast to reload)."""
        with open(path, "wb") as handle:
            marshal.dump(vars(self.snapshot()), handle)

    # -- patching ------------------------------------------------------
    def _set(self, owner: Any, name: str, value: Any) -> None:
        own = name in vars(owner)  # False for a method inherited by a class
        self._patches.append((owner, name, vars(owner).get(name), own))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, name, previous, own = self._patches.pop()
            if own:
                setattr(owner, name, previous)
            else:
                delattr(owner, name)


@dataclass
class Trace:
    """Recorded spans of one process, ready for attribution."""

    threads: dict[int, list]
    targets: list[tuple[str, str]]
    layers: list[str]
    ports: dict[int, int]
    missing: list[str]

    @classmethod
    def load(cls, path: str) -> "Trace":
        with open(path, "rb") as handle:
            return cls(**marshal.load(handle))


def _wrap(rec: Recorder, index: int, target: Target, fn: Callable) -> Callable:
    perf = time.perf_counter
    probe = target.probe
    layer = target.layer
    static_layer = rec.layer_id(layer) if isinstance(layer, str) else None

    def layer_of(args, kwargs) -> int:
        if static_layer is not None:
            return static_layer
        try:
            return rec.layer_id(layer(args, kwargs))
        except Exception:  # an unexpected call shape must not break the run
            return rec.layer_id(OUTSIDE)

    def extra_of(args, kwargs, result):
        if probe is None:
            return None
        try:
            return probe(args, kwargs, result)
        except Exception:  # same: a changed signature records no extra
            return None

    if target.kind == COUNT:

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            recs = rec.records()
            if target.before:
                extra = extra_of(args, kwargs, None)
                result = fn(*args, **kwargs)
            else:
                result = fn(*args, **kwargs)
                extra = extra_of(args, kwargs, result)
            now = perf()
            recs.append((index, now, now, extra, layer_of(args, kwargs)))
            return result

        return counted

    @functools.wraps(fn)
    def timed(*args, **kwargs):
        recs = rec.records()
        lid = layer_of(args, kwargs)
        result = None
        t0 = perf()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            t1 = perf()
            recs.append((index, t0, t1, extra_of(args, kwargs, result), lid))

    return timed


def wrap_callable(rec: Recorder, target: Target, fn: Callable) -> Callable:
    """``fn`` wrapped so that every call is recorded under ``target``."""
    index = len(rec.targets)
    rec.targets.append(target)
    return _wrap(rec, index, target, fn)


def _resolve(path: str) -> tuple[Any, str, Any] | None:
    """``(owner, attribute, current value)`` for a target path."""
    module_name, _, qual = path.partition(":")
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError:
        return None
    *outer, name = qual.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        # The raw attribute, so a classmethod can be re-wrapped as one.
        value = next((vars(k)[name] for k in owner.__mro__ if name in vars(k)), None)
        raw = value.__func__ if isinstance(value, (classmethod, staticmethod)) else value
        return (owner, name, value) if callable(raw) else None
    value = getattr(owner, name, None)
    return (owner, name, value) if callable(value) else None


def install(rec: Recorder, targets: list[Target]) -> None:
    """Wrap every resolvable target; unresolvable ones are noted in
    ``rec.missing`` and simply record nothing (zero calls)."""
    for target in targets:
        found = _resolve(target.path)
        if found is None:
            rec.missing.append(target.path)
            continue
        owner, name, value = found
        if isinstance(owner, type):
            if isinstance(value, (classmethod, staticmethod)):
                wrapped = type(value)(wrap_callable(rec, target, value.__func__))
            else:
                wrapped = wrap_callable(rec, target, value)
            rec._set(owner, name, wrapped)
            continue
        # A module-level function is imported by name into other modules
        # (``from x import f``): patch every binding of the same object.
        wrapped = wrap_callable(rec, target, value)
        root = owner.__name__.split(".")[0]
        for module in list(sys.modules.values()):
            module_name = getattr(module, "__name__", None) or ""
            if module_name == root or module_name.startswith(root + "."):
                for attr, bound in list(vars(module).items()):
                    if bound is value:
                        rec._set(module, attr, wrapped)


def track_connections(rec: Recorder) -> None:
    """Record which server thread serves which client port.

    ``socketserver.ThreadingMixIn`` runs each accepted connection on its
    own thread; the client knows its local port, so this joins a
    client's requests to the server thread that handled them.
    """
    import socketserver

    original = socketserver.ThreadingMixIn.process_request_thread

    @functools.wraps(original)
    def process_request_thread(self, request, client_address):
        with rec._lock:
            rec.thread_ports[threading.get_ident()] = int(client_address[1])
        return original(self, request, client_address)

    rec._set(
        socketserver.ThreadingMixIn,
        "process_request_thread",
        process_request_thread,
    )


# -- attribution -------------------------------------------------------------
def innermost_segments(spans: list) -> list[tuple[float, float, int]]:
    """``(start, end, layer)`` pieces of one thread's time, each labelled
    with the innermost span covering it; uncovered time is left out."""
    ordered = sorted(spans, key=lambda r: (r[1], -r[2]))
    segments: list[tuple[float, float, int]] = []
    stack: list[tuple[int, float]] = []
    cursor = float("-inf")

    def close_until(t: float) -> None:
        nonlocal cursor
        while stack and stack[-1][1] <= t:
            layer, end = stack.pop()
            if end > cursor:
                segments.append((cursor, end, layer))
                cursor = end

    for rec in ordered:
        start, end, layer = rec[1], rec[2], rec[4]
        close_until(start)
        if stack and start > cursor:
            segments.append((cursor, start, stack[-1][0]))
        cursor = max(cursor, start)
        stack.append((layer, end))
    close_until(float("inf"))
    return segments


class Timeline:
    """Innermost-span segments of one thread, searchable by time."""

    def __init__(self, spans: list) -> None:
        self.segments = innermost_segments(spans)
        self._starts = [s[0] for s in self.segments]

    def clip(self, a: float, b: float):
        """Segments overlapping ``[a, b)``, clipped to it."""
        i = max(bisect.bisect_right(self._starts, a) - 1, 0)
        while i < len(self.segments):
            s, e, layer = self.segments[i]
            if s >= b:
                break
            lo, hi = max(s, a), min(e, b)
            if hi > lo:
                yield lo, hi, layer
            i += 1


def merge(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Union of intervals as a sorted, disjoint list."""
    out: list[tuple[float, float]] = []
    for a, b in sorted(intervals):
        if b <= a:
            continue
        if out and a <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], b))
        else:
            out.append((a, b))
    return out


def overlap(a: float, b: float, intervals: list[tuple[float, float]]) -> float:
    """Length of ``[a, b)`` covered by sorted disjoint ``intervals``."""
    total = 0.0
    for x, y in intervals:
        if x >= b:
            break
        lo, hi = max(a, x), min(b, y)
        if hi > lo:
            total += hi - lo
    return total


def subtract(
    a: float, b: float, intervals: list[tuple[float, float]]
) -> list[tuple[float, float]]:
    """Pieces of ``[a, b)`` not covered by sorted disjoint ``intervals``."""
    pieces = []
    cursor = a
    for x, y in intervals:
        if y <= cursor:
            continue
        if x >= b:
            break
        if x > cursor:
            pieces.append((cursor, min(x, b)))
        cursor = max(cursor, y)
        if cursor >= b:
            break
    if cursor < b:
        pieces.append((cursor, b))
    return pieces


@dataclass
class Op:
    """One measured operation: its interval and the thread it ran on."""

    start: float
    end: float
    thread: int


class Attribution:
    """Per-op layer times for the ops of one traced process."""

    def __init__(self, trace: Trace) -> None:
        self.trace = trace
        kinds = [kind for _path, kind in trace.targets]
        self._wait_layers = set()
        self.timelines: dict[int, Timeline] = {}
        self._submits: dict[int, list[tuple[float, int]]] = {}
        passes: list[tuple[float, float, int, tuple]] = []
        for tid, recs in trace.threads.items():
            spans = [r for r in recs if kinds[r[0]] != COUNT]
            self.timelines[tid] = Timeline(spans)
            for r in spans:
                kind = kinds[r[0]]
                if kind == WAIT:
                    self._wait_layers.add(r[4])
                elif kind == SUBMIT and r[3] is not None:
                    self._submits.setdefault(tid, []).append((r[2], r[3]))
                elif kind == PASS and r[3] is not None:
                    passes.append((r[1], r[2], tid, r[3]))
        for subs in self._submits.values():
            subs.sort()
        passes.sort()
        self._passes = passes
        self._pass_starts: dict[int, list[float]] = defaultdict(list)
        self._pass_ids: dict[int, list[int]] = defaultdict(list)
        for i, (t0, _t1, _tid, rows) in enumerate(passes):
            for row in rows:
                self._pass_starts[row].append(t0)
                self._pass_ids[row].append(i)

    def layer_name(self, layer: int) -> str:
        return self.trace.layers[layer]

    def _pass_for(self, row: int, submitted: float) -> int | None:
        starts = self._pass_starts.get(row)
        if not starts:
            return None
        i = bisect.bisect_left(starts, submitted)
        return self._pass_ids[row][i] if i < len(starts) else None

    def op_times(self, op: Op) -> dict[str, float]:
        """Seconds of ``op`` charged to each layer; they sum to its length."""
        out: dict[str, float] = defaultdict(float)
        timeline = self.timelines.get(op.thread)
        covered = 0.0
        engine: tuple | None = None
        if timeline is not None:
            for a, b, layer in timeline.clip(op.start, op.end):
                covered += b - a
                if layer in self._wait_layers:
                    if engine is None:
                        engine = self._engine_view(op)
                    self._resolve_wait(a, b, engine, out)
                else:
                    out[self.layer_name(layer)] += b - a
        out[OUTSIDE] += (op.end - op.start) - covered
        return dict(out)

    def _engine_view(self, op: Op):
        """The passes holding the op's rows and the time rows sat queued."""
        subs = self._submits.get(op.thread, [])
        lo = bisect.bisect_left(subs, (op.start, -1))
        hi = bisect.bisect_right(subs, (op.end, sys.maxsize))
        pass_ids: set[int] = set()
        queued = []
        for submitted, row in subs[lo:hi]:
            i = self._pass_for(row, submitted)
            if i is None:
                continue
            pass_ids.add(i)
            queued.append((submitted, self._passes[i][0]))
        passes = sorted(
            (self._passes[i][0], self._passes[i][1], self._passes[i][2])
            for i in pass_ids
        )
        return passes, merge(queued)

    def _resolve_wait(self, a: float, b: float, engine, out) -> None:
        passes, queued = engine
        busy = []
        for p0, p1, tid in passes:
            if p1 <= a or p0 >= b:
                continue
            lo, hi = max(a, p0), min(b, p1)
            busy.append((lo, hi))
            timeline = self.timelines[tid]
            inside = 0.0
            for s, e, layer in timeline.clip(lo, hi):
                out[self.layer_name(layer)] += e - s
                inside += e - s
            out[UNATTRIBUTED] += (hi - lo) - inside
        for x, y in subtract(a, b, merge(busy)):
            q = overlap(x, y, queued)
            out[QUEUE_WAIT] += q
            out[UNATTRIBUTED] += (y - x) - q

    # -- window counters -----------------------------------------------
    def calls(self, start: float, end: float) -> dict[str, list]:
        """Every record whose call began in ``[start, end]``, by target
        path: the counters ("how many", "how many hit", "rows")."""
        out: dict[str, list] = defaultdict(list)
        paths = [path for path, _kind in self.trace.targets]
        for recs in self.trace.threads.values():
            for r in recs:
                if start <= r[1] <= end:
                    out[paths[r[0]]].append(r)
        return out

    def setup_seconds(self, path: str, before: float) -> float:
        """Total duration of ``path`` calls that began before ``before``."""
        total = 0.0
        for recs in self.trace.threads.values():
            for r in recs:
                if r[1] < before and self.trace.targets[r[0]][0] == path:
                    total += r[2] - r[1]
        return total
